"""Low-rank inverse updates under the Einstein product.

Two identities are implemented for a base tensor perturbed by a correction
``u * b * v`` contracted over K shared modes:

* the invertible case, which inverts only the small capacitance tensor
  ``b^-1 + v * a^-1 * u``;
* the pseudoinverse case, which first splits the update factors against the
  column spaces of the base tensor (``u = x1 + y1`` with ``x1`` in the column
  space and ``y1`` orthogonal to it, and the mirrored split of ``v^H``),
  forms ``e_i = y_i * (y_i^H * y_i)^+``, checks six applicability conditions,
  and then assembles the updated pseudoinverse from those parts.

The splits apply the orthogonal projectors ``a * a^+`` and ``a^+ * a``
without forming them (``x1 = a * (a^+ * u)``, ``x2^H = (v * a^+) * a``; within
the rounding bound of those products a part is an exact zero, ``y`` first and
never both), and the updated pseudoinverse is ``a^+`` plus one rank-2K
correction that reuses ``a^+ * u`` and ``v * a^+`` as ``a^+ * x1`` and
``x2^H * a^+`` (``a^+ a a^+ = a^+``).  With N the flattened size of the base
tensor, an identity-path :func:`update_pinv` call therefore costs O(N^2 K):
its N x N work is four products of an N x N matrix with K vectors, one
N x 2K x N product, one add and one pass over the result, which checks it
finite and keeps its norm; the result is returned without a copy.  Every
product here of an N x N matrix with 2 or 3 vectors, in the split, in
:func:`smw_pinv` and in :func:`smw_invertible`, is that many matrix-vector
products in one batched call, which at those widths beats a GEMM that packs
the whole N x N operand; one vector and 4 or more stay one product.  The
norms of ``a``, ``a^+``, ``u`` and ``v`` that the split's zero test needs are
the ones those tensors kept when they were built, and ``b^+`` and the two
Gram pseudoinverses come from one LAPACK call on a (3, K, K) stack; none
when the split leaves no null-space part (``u`` and ``v^H`` inside the
column spaces), where ``e1 = e2 = 0`` and the three, which meet only
products with ``e1^H`` or ``e2``, are zeros.
Conditions are checked separately from the identity evaluation so repeated
structurally-identical updates can amortize the check.

The public tensor functions are thin wrappers over one matrix pipeline: each
validates the paired shapes of its operands at entry, computes on the
flattened ``.matrix`` arrays, and builds an
:class:`~einalg.tensor.EinsteinTensor` only for what it returns, so every
returned tensor is checked to be finite and an identity-path
:func:`update_pinv` call builds 7 tensors (the six split parts and ``s^+``),
each around the array just computed; ``b^+`` stays a matrix.
The split -> check -> identity -> fallback path is one private step on
matrices with two callers: :func:`update_pinv`, which the ``einalg smw``
pseudoinverse modes run too, wraps the six split parts and adds the rank-2K
correction ``l r`` to ``a^+``, and :func:`~einalg.sensitivity.measure_error`
applies ``l`` and ``r`` to a right side in O(NK), without forming ``s^+``,
and reads only the norms the step kept, so it builds no tensor of its own.
Products are written as ``np.matmul`` calls so that each one can be
recorded.
Because the inputs are finite tensors, a non-finite intermediate is an
overflow and raises :class:`~einalg.errors.NumericalError` naming the
function it occurred in; the public functions run with numpy's overflow
warnings off, so none comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NumericalError,
    ShapeError,
    SingularCapacitanceError,
    SingularMatrixError,
)
from .inverses import pinv
from .matkernel import _pinv_stack, _rank_floor, inv_matrix
from .shapes import PairedShape
from .tensor import (
    EinsteinTensor,
    _adjoint,
    _frobenius,
    _quiet_overflow,
    _relative,
    _returned,
    fro_norm,
    zeros,
)

__all__ = [
    "LowRankUpdate",
    "SplitParts",
    "ConditionReport",
    "UpdatedPinv",
    "apply_update",
    "smw_invertible",
    "decompose_update",
    "check_conditions",
    "smw_pinv",
    "smw_pinv_orthogonal",
    "smw_pinv_hermitian",
    "update_pinv",
]

#: Default applicability tolerance: two orders above the kernel's residuals,
#: absorbing accumulation across the six chained products.
CONDITION_TOL = 1e-8


@dataclass(frozen=True)
class LowRankUpdate:
    """Correction ``u * b * v`` contracted over ``order`` shared modes.

    ``u`` carries the base tensor's row modes by the shared K modes, ``b`` is
    K-square, and ``v`` carries the K modes by the base tensor's column modes.
    """

    u: EinsteinTensor
    b: EinsteinTensor
    v: EinsteinTensor
    order: int

    def __post_init__(self):
        k = self.u.col_dims
        if len(k) != self.order:
            raise ShapeError(
                f"update factor u has {len(k)} shared modes, expected {self.order}"
            )
        if self.b.row_dims != k or self.b.col_dims != k:
            raise ShapeError(
                f"middle factor must be ({k} | {k}), got {self.b.shape}"
            )
        if self.v.row_dims != k:
            raise ShapeError(
                f"factor v row modes {self.v.row_dims} do not match shared modes {k}"
            )

    @property
    def result_shape(self) -> PairedShape:
        return PairedShape(self.u.row_dims, self.v.col_dims)

    def _conform(self, base: PairedShape) -> None:
        """Raise :class:`~einalg.errors.ShapeError` unless the correction has the
        base tensor's shape."""
        if self.u.row_dims != base.row_dims or self.v.col_dims != base.col_dims:
            raise ShapeError(
                f"update of shape {self.result_shape} does not conform to base {base}"
            )


@dataclass(frozen=True)
class SplitParts:
    """Column-space/null-space split of an update relative to a base tensor.

    ``x1 + y1`` reassembles ``u`` and ``x2 + y2`` reassembles ``v^H``; the x
    parts live in the base tensor's column spaces (left and right), the y parts
    are orthogonal to them, and ``e1``, ``e2`` are the scaled null-space parts
    ``y_i * (y_i^H * y_i)^+``.
    """

    x1: EinsteinTensor
    y1: EinsteinTensor
    x2: EinsteinTensor
    y2: EinsteinTensor
    e1: EinsteinTensor
    e2: EinsteinTensor


@dataclass(frozen=True)
class ConditionReport:
    """Relative residuals of the six applicability conditions.

    Labels 3.1-3.3 form the left family (updated pseudoinverse times update),
    4.1-4.3 the right family.  ``applicable`` is true iff every residual is
    <= ``tol``.
    """

    residuals: dict[str, float]
    tol: float

    @property
    def applicable(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())


@dataclass(frozen=True)
class UpdatedPinv:
    """Result of :func:`update_pinv`: the pseudoinverse, the condition report
    and the split the report was computed from."""

    s_pinv: EinsteinTensor
    report: ConditionReport
    parts: SplitParts

    @property
    def path(self) -> str:
        """``"identity"`` when the conditions held and the identity ran, else ``"fallback"``."""
        return "identity" if self.report.applicable else "fallback"


#: Widest thin operand that :func:`_mat_cols` and :func:`_rows_mat` take as
#: that many matrix-vector products rather than one GEMM.  OpenBLAS packs the
#: whole N x N operand for a complex GEMM however thin the other side is, so
#: at 2 or 3 columns that costs more than as many ``zgemv`` passes; numpy
#: already hands one column to ``zgemv``.  Medians in µs, complex128, one
#: OpenBLAS thread on a 2-core x86-64 host, GEMM -> K matrix-vector products:
#:
#:   m @ cols     K=2            K=3            K=4
#:   N = 64       8 -> 6         10 -> 8        5 -> 7
#:   N = 256      58 -> 38       94 -> 58       49 -> 75
#:   N = 512      434 -> 377     574 -> 560     378 -> 717
#:   N = 1024     1732 -> 1510   2308 -> 2166   1721 -> 2930
#:   rows @ m
#:   N = 64       8 -> 6         9 -> 8         7 -> 6
#:   N = 256      74 -> 35       101 -> 55      102 -> 69
#:   N = 512      394 -> 372     500 -> 551     446 -> 712
#:   N = 1024     1619 -> 1491   1999 -> 2197   1912 -> 2960
#:
#: The gain is up to 2x at N = 256; from N = 512 the two forms are within 10%
#: at 2-3 columns, and from 4 columns GEMM is up to 2x faster.
_MATVEC_MAX = 3


def _mat_cols(m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``m @ cols`` for a thin ``cols``, as one matrix-vector product per
    column in one batched call when it has 2 to ``_MATVEC_MAX`` columns.  That
    result is the transposed view of the (K, N) column stack, so a second
    product of its columns reads them without a copy."""
    if not 1 < cols.shape[1] <= _MATVEC_MAX:
        return np.matmul(m, cols)
    return np.matmul(m, cols.T[:, :, None])[:, :, 0].T


def _rows_mat(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``rows @ m`` for a thin ``rows``, as one vector-matrix product per row
    in one batched call when it has 2 to ``_MATVEC_MAX`` rows."""
    if not 1 < rows.shape[0] <= _MATVEC_MAX:
        return np.matmul(rows, m)
    return np.matmul(rows[:, None, :], m)[:, 0, :]


@_quiet_overflow
def apply_update(a: EinsteinTensor, upd: LowRankUpdate) -> EinsteinTensor:
    """The corrected tensor ``a + u * b * v``."""
    upd._conform(a.shape)
    return _corrected("apply_update", a, np.matmul(upd.u.matrix, upd.b.matrix), upd.v.matrix)


@_quiet_overflow
def smw_invertible(a_inv: EinsteinTensor, upd: LowRankUpdate, b_inv: EinsteinTensor) -> EinsteinTensor:
    """Inverse of the corrected tensor from the inverses of its pieces.

    ``a_inv`` and ``b_inv`` must be the inverses of the base tensor and of the
    middle factor (the caller owns that precondition; only shapes are checked
    here).  Inverts the capacitance ``b^-1 + v * a^-1 * u`` and assembles
    ``a^-1 - a^-1 u (b^-1 + v a^-1 u)^-1 v a^-1``.  Raises
    :class:`~einalg.errors.NumericalError` if the capacitance or the result
    overflows.
    """
    if not a_inv.shape.is_square:
        raise ShapeError(f"base inverse must be square, got {a_inv.shape}")
    upd._conform(a_inv.shape)
    if b_inv.shape != upd.b.shape:
        raise ShapeError(
            f"middle-factor inverse shape {b_inv.shape} != {upd.b.shape}"
        )
    a_inv_mat, u, v = a_inv.matrix, upd.u.matrix, upd.v.matrix
    a_inv_u = _mat_cols(a_inv_mat, u)
    v_a_inv = _rows_mat(v, a_inv_mat)
    capacitance = b_inv.matrix + np.matmul(v_a_inv, u)
    if not np.isfinite(capacitance).all():
        raise NumericalError("smw_invertible overflowed: the capacitance tensor is not finite")
    try:
        cap_inv = inv_matrix(capacitance)
    except SingularMatrixError as err:
        raise SingularCapacitanceError(
            f"capacitance tensor is singular: numerical rank {err.rank} "
            f"of {capacitance.shape[0]}",
            rank=err.rank,
            sigma_min=err.sigma_min,
        ) from err
    return _corrected("smw_invertible", a_inv, np.matmul(a_inv_u, cap_inv), -v_a_inv)


def _corrected(
    stage: str, base: EinsteinTensor, left: np.ndarray, right: np.ndarray
) -> EinsteinTensor:
    """``base + left right``, the result of ``stage``, in the one array the
    product allocates."""
    mat = np.matmul(left, right)
    mat += base.matrix
    return _returned(stage, base.shape, mat)


def _check_split(parts: SplitParts, *middle: EinsteinTensor) -> None:
    """Shapes of a split and of its K-square middle factors.

    ``x1``, ``y1`` and ``e1`` carry the row modes of ``u``, ``x2``, ``y2`` and
    ``e2`` those of ``v^H``, and all of them, like both sides of each middle
    factor, carry the K shared modes of ``x1`` as columns.
    """
    k = parts.x1.col_dims
    for rows, names in (
        (parts.x1.row_dims, ("x1", "y1", "e1")),
        (parts.x2.row_dims, ("x2", "y2", "e2")),
    ):
        for name in names:
            part = getattr(parts, name)
            if part.row_dims != rows or part.col_dims != k:
                raise ShapeError(
                    f"split part {name} of shape {part.shape} does not match "
                    f"modes {rows} by shared modes {k}"
                )
    for factor in middle:
        if factor.row_dims != k or factor.col_dims != k:
            raise ShapeError(
                f"middle factor of shape {factor.shape} does not match shared modes {k}"
            )


def _split(
    whole: np.ndarray, x: np.ndarray, pre: np.ndarray, floor: float, norm_whole: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None, float]:
    """``(x, whole - x, pre, |x|, |y|)`` with one part within ``floor`` zeroed,
    ``y`` first: both zeroed would make the conditions hold on zeros, and
    ``y = 0`` falls back.  ``pre``, the ``a^+`` product ``x`` was made from, is
    zeroed with ``x``.  The norms are the ``_frobenius`` of the returned
    arrays (``|whole|`` is ``norm_whole``), ``|x|`` None when not computed."""
    y = whole - x
    norm_y = _frobenius(y)
    if norm_y <= floor:
        return x, np.zeros_like(y), pre, None, 0.0
    norm_x = _frobenius(x)
    if norm_x <= floor:
        return np.zeros_like(x), whole, np.zeros_like(pre), 0.0, norm_whole
    return x, y, pre, norm_x, norm_y


class _Split(NamedTuple):
    """A split as matrices, in :class:`SplitParts`' layout (``x2``, ``y2`` and
    ``e2`` are N x K), with the norms of ``x1``, ``y1``, ``x2``, ``e1`` and
    ``e2`` by part name; ``|y2|`` is needed neither by the conditions nor by
    the bound, and is left to the wrap."""

    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    norms: dict[str, float]

    @classmethod
    def of(cls, parts: SplitParts) -> "_Split":
        tensors = [getattr(parts, name) for name in cls._fields[:6]]
        return cls(
            *(t.matrix for t in tensors),
            norms={name: fro_norm(t) for name, t in zip(cls._fields, tensors)},
        )

    def wrapped(self, upd: LowRankUpdate) -> SplitParts:
        """The six parts as tensors, each around its matrix, with its norm."""
        left, right = upd.u.shape, upd.v.shape.transposed
        shapes = (left, left, right, right, left, right)
        return SplitParts(*(
            _returned("decompose_update", shape, mat, self.norms.get(name))
            for name, mat, shape in zip(self._fields, self[:6], shapes)
        ))


def _part_norm(mat: np.ndarray, norm: float | None = None) -> float:
    """``|mat|`` (``norm`` when already computed), with the check a wrap of
    ``mat`` makes: a non-finite part is an overflow."""
    if norm is None:
        norm = _frobenius(mat)
    if not math.isfinite(norm) and not np.isfinite(mat).all():
        raise NumericalError("decompose_update overflowed: tensor entries must be finite")
    return norm


@_quiet_overflow
def decompose_update(
    a: EinsteinTensor,
    a_pinv: EinsteinTensor,
    upd: LowRankUpdate,
    tol: float = 1.0,
) -> SplitParts:
    """Split the update factors against the base tensor's column spaces.

    ``x1 = a (a^+ u)`` and ``x2^H = (v a^+) a`` are the projections onto the
    left and right column spaces, associated so that every product has K
    columns or K rows (O(N^2 K), no N x N projector is formed); the remainders
    ``y_i`` are orthogonal to them by construction.  The kernel's rule
    (:mod:`einalg.matkernel`) scaled by ``tol`` truncates the ``e_i``
    pseudoinverses and zeroes a part within ``tol * max(m, n) * 2**-52 *
    |a|_F |a^+|_F |u|_F`` (``|v^H|_F`` on the right), the rounding bound of
    ``a (a^+ u)`` and at most ``rank(a)`` times the spectral one: residue
    taken as structure gives a huge ``e_i`` and conditions that hold on noise.
    Raises
    :class:`~einalg.errors.NumericalError` if a part or a K x K Gram
    intermediate overflows.
    """
    return _decompose(a, a_pinv, upd, tol)[0].wrapped(upd)


def _decompose(
    a: EinsteinTensor, a_pinv: EinsteinTensor, upd: LowRankUpdate, tol: float = 1.0
) -> tuple[_Split, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decompose_update` on matrices, plus what the identity reuses:
    ``a^+ u`` and ``v a^+`` zeroed with ``x1`` and ``x2`` (they are ``a^+ x1``
    and ``x2^H a^+``, as ``a^+ a a^+ = a^+``), the K x N ``x2^H`` and ``y2^H``
    the right split is made of, and the matrix ``b^+``, taken in the LAPACK
    call that pseudo-inverts the two Grams.

    When the split leaves both ``y1`` and ``y2`` exact zeros, ``e1 = e2 = 0``
    and that call is skipped: the three K x K pseudoinverses are zeros.  The
    conditions and the identity meet ``b^+`` and the Gram pseudoinverses only
    in products with ``e1^H`` or ``e2``, so every residual and ``s^+`` come
    out as they would from the computed ones."""
    if a_pinv.row_dims != a.col_dims or a_pinv.col_dims != a.row_dims:
        raise ShapeError(
            f"pseudoinverse shape {a_pinv.shape} is not the transpose of {a.shape}"
        )
    upd._conform(a.shape)
    a_mat, ap, u, v, b = a.matrix, a_pinv.matrix, upd.u.matrix, upd.v.matrix, upd.b.matrix
    norm_u, norm_v = fro_norm(upd.u), fro_norm(upd.v)
    floor = _rank_floor(fro_norm(a) * fro_norm(a_pinv), a_mat.shape, tol)
    ap_u, v_ap = _mat_cols(ap, u), _rows_mat(v, ap)
    x1, y1, ap_u, norm_x1, norm_y1 = _split(u, _mat_cols(a_mat, ap_u), ap_u, floor * norm_u, norm_u)
    x2h, y2h, v_ap, _, norm_y2h = _split(v, _rows_mat(v_ap, a_mat), v_ap, floor * norm_v, norm_v)
    y2 = _adjoint(y2h)
    if norm_y1 == norm_y2h == 0.0:
        e1, e2, b_pinv = np.zeros_like(y1), np.zeros_like(y2), np.zeros_like(b)
    else:
        stack = np.empty((3, *b.shape), dtype=np.complex128)
        np.matmul(_adjoint(y1), y1, out=stack[0])
        np.matmul(y2h, y2, out=stack[1])
        stack[2] = b
        if not np.isfinite(stack).all():
            name = "y1" if not np.isfinite(stack[0]).all() else "y2"
            raise NumericalError(
                f"decompose_update overflowed: the Gram tensor {name}^H {name} is not finite"
            )
        gram1_pinv, gram2_pinv, b_pinv = _pinv_stack(stack, tol=tol)
        e1, e2 = np.matmul(y1, gram1_pinv), np.matmul(y2, gram2_pinv)
    x2 = _adjoint(x2h)
    # y2 needs no check: it is zero, or its Gram, whose diagonal holds its
    # squared column norms, is finite
    norms = {
        "x1": _part_norm(x1, norm_x1),
        "y1": _part_norm(y1, norm_y1),
        "x2": _part_norm(x2),
        "e1": _part_norm(e1),
        "e2": _part_norm(e2),
    }
    return _Split(x1, y1, x2, y2, e1, e2, norms), ap_u, v_ap, x2h, y2h, b_pinv


@_quiet_overflow
def check_conditions(
    parts: SplitParts,
    b: EinsteinTensor,
    b_pinv: EinsteinTensor,
    tol: float = CONDITION_TOL,
) -> ConditionReport:
    """Relative residuals of the six applicability equalities.

    3.1: e2 b+ e1^H y1 b = e2       4.1: b y2^H e2 b+ e1^H = e1^H
    3.2: x1 e1^H y1 b = x1 b        4.2: b y2^H e2 x2^H = b x2^H
    3.3: y1 e1^H y1 = y1            4.3: e2 y2^H e2 = e2

    Raises :class:`~einalg.errors.NumericalError` if a residual is not
    finite, which from finite parts means the condition products overflowed.
    """
    _check_split(parts, b, b_pinv)
    x2h, y2h, e1h = (_adjoint(part.matrix) for part in (parts.x2, parts.y2, parts.e1))
    residuals = _residuals(_Split.of(parts), x2h, y2h, e1h, b.matrix, b_pinv.matrix)
    return ConditionReport(residuals=residuals, tol=tol)


def _residuals(
    split: _Split,
    x2h: np.ndarray,
    y2h: np.ndarray,
    e1h: np.ndarray,
    b: np.ndarray,
    b_pinv: np.ndarray,
) -> dict[str, float]:
    """:func:`check_conditions`' residuals of a split known to conform, given
    the K x N ``x2^H``, ``y2^H`` and ``e1^H`` and the middle factors as
    matrices; the split's norms are the references the residuals need."""
    x1, y1, e2, norms = split.x1, split.y1, split.e2, split.norms
    e1h_y1 = np.matmul(e1h, y1)
    e1h_y1_b = np.matmul(e1h_y1, b)
    by2h_e2 = np.matmul(np.matmul(b, y2h), e2)
    x1_b = np.matmul(x1, b)
    b_x2h = np.matmul(b, x2h)
    residuals = {
        "3.1": _relative(np.matmul(np.matmul(e2, b_pinv), e1h_y1_b) - e2, norms["e2"]),
        "3.2": _relative(np.matmul(x1, e1h_y1_b) - x1_b, _frobenius(x1_b)),
        "3.3": _relative(np.matmul(y1, e1h_y1) - y1, norms["y1"]),
        "4.1": _relative(np.matmul(by2h_e2, np.matmul(b_pinv, e1h)) - e1h, norms["e1"]),
        "4.2": _relative(np.matmul(by2h_e2, x2h) - b_x2h, _frobenius(b_x2h)),
        "4.3": _relative(np.matmul(e2, np.matmul(y2h, e2)) - e2, norms["e2"]),
    }
    for label, residual in residuals.items():
        if not math.isfinite(residual):
            raise NumericalError(
                f"check_conditions overflowed: condition {label} residual is {residual}"
            )
    return residuals


@_quiet_overflow
def smw_pinv(a_pinv: EinsteinTensor, parts: SplitParts, b_pinv: EinsteinTensor) -> EinsteinTensor:
    """Updated pseudoinverse from a conforming split (conditions assumed checked).

    ``a+ - e2 x2^H a+ - a+ x1 e1^H + e2 (b+ + x2^H a+ x1) e1^H``, evaluated as
    the single rank-2K correction ``a+ + l r`` with

        l = [e2, a+ x1]                                  (N x 2K)
        r = [(b+ + x2^H a+ x1) e1^H - x2^H a+ ; -e1^H]   (2K x N)

    so its N x N work is the two products ``a+ x1`` and ``x2^H a+`` of ``a+``
    with K vectors, one N x 2K x N product, one add and the pass over the
    result that checks it finite and keeps its norm; the result is returned
    without a copy.
    Nothing is recomputed or validated beyond shapes, so callers pair this
    with :func:`check_conditions`.
    """
    _check_split(parts, b_pinv)
    if a_pinv.row_dims != parts.x2.row_dims or a_pinv.col_dims != parts.x1.row_dims:
        raise ShapeError(
            f"base pseudoinverse of shape {a_pinv.shape} does not conform to the split "
            f"({parts.x2.row_dims} | {parts.x1.row_dims})"
        )
    ap, x2h = a_pinv.matrix, _adjoint(parts.x2.matrix)
    ap_x1 = _mat_cols(ap, parts.x1.matrix)
    x2h_ap = _rows_mat(x2h, ap)
    factors = _factors(parts.e2.matrix, x2h, _adjoint(parts.e1.matrix), b_pinv.matrix, ap_x1, x2h_ap)
    return _corrected("smw_pinv", a_pinv, *factors)


def _factors(
    e2: np.ndarray,
    x2h: np.ndarray,
    e1h: np.ndarray,
    b_pinv: np.ndarray,
    ap_x1: np.ndarray,
    x2h_ap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``l`` and ``r`` of :func:`smw_pinv`'s ``a+ + l r``, given the
    matrices ``e2``, ``x2^H``, ``e1^H``, ``b+``, ``a+ x1`` and ``x2^H a+``."""
    middle = b_pinv + np.matmul(x2h, ap_x1)
    r_top = np.matmul(middle, e1h) - x2h_ap
    return np.concatenate((e2, ap_x1), axis=1), np.concatenate((r_top, -e1h))


def smw_pinv_orthogonal(
    a_pinv: EinsteinTensor,
    e1: EinsteinTensor,
    e2: EinsteinTensor,
    b_pinv: EinsteinTensor,
) -> EinsteinTensor:
    """Reference form of :func:`smw_pinv` for ``x1 = x2 = 0`` (an update wholly
    orthogonal to the base column spaces): ``a+ + e2 b+ e1^H``, at full cost.
    """
    x1, x2 = zeros(e1.shape), zeros(e2.shape)
    try:
        return smw_pinv(a_pinv, SplitParts(x1, x1, x2, x2, e1, e2), b_pinv)
    except NumericalError as err:
        raise NumericalError(f"smw_pinv_orthogonal: {err}") from err


def smw_pinv_hermitian(
    a_pinv: EinsteinTensor,
    x: EinsteinTensor,
    y: EinsteinTensor,
    e: EinsteinTensor,
    b_pinv: EinsteinTensor,
) -> EinsteinTensor:
    """Specialization for a Hermitian base with ``u = v^H``: one shared split.

    ``a+ - e x^H a+ - a+ x e^H + e (b+ + x^H a+ x) e^H``, which is
    :func:`smw_pinv` with ``x2 = x1 = x`` and ``e2 = e1 = e``; the null-space
    part ``y`` enters only through its scaled form ``e = y (y^H y)^+`` and is
    taken here to pin the split down and validate conformity.
    """
    return smw_pinv(a_pinv, SplitParts(x, y, x, y, e, e), b_pinv)


@_quiet_overflow
def update_pinv(
    a: EinsteinTensor,
    a_pinv: EinsteinTensor,
    upd: LowRankUpdate,
    tol: float = CONDITION_TOL,
) -> UpdatedPinv:
    """Split, check, and update; fall back to a direct pseudoinverse if needed.

    When the condition report is applicable the identity-based result is
    returned; otherwise the corrected tensor is pseudo-inverted directly, so a
    valid pseudoinverse comes back either way (``path`` of the result says
    which ran).  The identity result is :func:`smw_pinv`'s assembly with the
    split's ``a^+ u`` and ``v a^+`` standing in for ``a^+ x1`` and ``x2^H a^+``.
    ``b^+`` is taken in the split's LAPACK call and kept as a matrix (not
    taken at all when the split leaves no null-space part), and the
    conditions skip the shape checks of :func:`check_conditions`: the split
    was built here, to the update's shapes.
    """
    split, report, s_pinv, factors = _updated(a, a_pinv, upd, tol)
    parts = split.wrapped(upd)
    if factors is not None:
        s_pinv = _corrected("smw_pinv", a_pinv, *factors)
    return UpdatedPinv(s_pinv=s_pinv, report=report, parts=parts)


def _updated(
    a: EinsteinTensor, a_pinv: EinsteinTensor, upd: LowRankUpdate, tol: float
) -> tuple[_Split, ConditionReport, EinsteinTensor | None, tuple[np.ndarray, np.ndarray] | None]:
    """The one split -> check -> identity | fallback step of :func:`update_pinv`
    and :func:`~einalg.sensitivity.measure_error`, on matrices, with overflow
    checks but no warning guard of its own: ``(split, report, s_pinv,
    factors)``.

    On the identity path ``factors`` is the ``(l, r)`` of ``s^+ = a^+ + l r``
    (N x 2K and 2K x N) and ``s_pinv`` is None, so a caller that only applies
    ``s^+`` never forms it; on the fallback ``s_pinv`` is the direct
    pseudoinverse and ``factors`` is None.  Only that pseudoinverse is a
    tensor: the callers wrap what they return.
    """
    split, ap_x1, x2h_ap, x2h, y2h, b_pinv = _decompose(a, a_pinv, upd)
    if not np.isfinite(b_pinv).all():
        raise NumericalError("update_pinv overflowed: the pseudoinverse of b is not finite")
    e1h = _adjoint(split.e1)
    report = ConditionReport(_residuals(split, x2h, y2h, e1h, upd.b.matrix, b_pinv), tol)
    if not report.applicable:
        del ap_x1, x2h_ap, x2h, y2h, e1h, b_pinv  # not held through the direct pseudoinverse
        return split, report, pinv(apply_update(a, upd)), None
    return split, report, None, _factors(split.e2, x2h, e1h, b_pinv, ap_x1, x2h_ap)
