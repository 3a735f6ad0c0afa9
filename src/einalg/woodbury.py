"""Low-rank inverse updates under the Einstein product.

Two identities are implemented for a base tensor perturbed by a correction
``u * b * v`` contracted over K shared modes:

* the capacitance form, which inverts only the K x K capacitance
  ``C = I + b (v a^+ u)``: for an inverse (``a^+ = a^-1``), and for a
  pseudoinverse when ``u`` and ``v^H`` lie in the base's column spaces (every
  invertible base), ``(a + u b v)^+ = a^+ - (a^+ u) C^-1 b (v a^+)`` whenever
  ``C`` is invertible (Henderson and Searle 1981; Meyer 1973; Deng 2011);
* the pseudoinverse case, which first splits the update factors against the
  column spaces of the base tensor (``u = x1 + y1`` with ``x1`` in the column
  space and ``y1`` orthogonal to it, and the mirrored split of ``v^H``),
  forms ``e_i = y_i * (y_i^H * y_i)^+``, checks six applicability conditions,
  and then assembles the updated pseudoinverse from those parts.

At K = 1, the Sherman-Morrison case, the six conditions are scalar
statements on two inner products and the split's kept norms, with no N-sized
product; the capacitance step forms the same K x K products at every K, and
inverts a 1 x 1 ``C`` as ``1 / C``, with no LAPACK call.

:func:`update_pinv` takes the first when the split leaves no null-space part
and the second otherwise, and falls back to a direct pseudoinverse when the
check of either fails; its ``path`` is ``"capacitance"``, ``"identity"`` or
``"fallback"``.

The public tensor functions are thin wrappers over one matrix pipeline: each
validates the paired shapes of its operands at entry, computes on the
flattened ``.matrix`` arrays, and builds an
:class:`~einalg.tensor.EinsteinTensor` only for what it returns, so every
returned tensor is checked to be finite.  The split -> check -> identity |
capacitance | fallback path is one private step on matrices, shared by
:func:`update_pinv`, which every ``einalg smw`` mode runs, and
:func:`~einalg.sensitivity.measure_error`.
Because the inputs are finite tensors, a non-finite intermediate is an
overflow and raises :class:`~einalg.errors.NumericalError` naming the
function it occurred in; the public functions run under the package's one
guard, :data:`~einalg.tensor._quiet_overflow`, which ignores every numpy
floating-point event, so no warning comes first, and numpy's error state
changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, SingularCapacitanceError
from .inverses import pinv
from .matkernel import _cut, _inverse, _rank_floor
from .shapes import PairedShape, _as_int, _conform
from .tensor import (
    EinsteinTensor,
    _adjoint,
    _finite,
    _finite_norm,
    _frobenius,
    _nonnegative,
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
    A factor that is not an :class:`~einalg.tensor.EinsteinTensor` raises
    :class:`~einalg.errors.ShapeError` naming it.
    """

    u: EinsteinTensor
    b: EinsteinTensor
    v: EinsteinTensor
    order: int

    def __post_init__(self):
        for name, factor in zip("ubv", (self.u, self.b, self.v)):
            if not isinstance(factor, EinsteinTensor):
                kind = type(factor).__name__
                raise ShapeError(f"update factor {name} must be an EinsteinTensor, got {kind}")
        object.__setattr__(self, "order", _as_int(self.order, "order", ShapeError))
        k = self.u.col_dims
        _conform("LowRankUpdate", "the number of column modes of u", len(k), self.order)
        _conform("LowRankUpdate", "the shape of b", (self.b.row_dims, self.b.col_dims), (k, k))
        _conform("LowRankUpdate", "the row modes of v", self.v.row_dims, k)

    def _conform(self, stage: str, base: PairedShape) -> None:
        """:func:`~einalg.shapes._conform` of the correction's shape to the
        base tensor's, in ``stage``."""
        got = self.u.row_dims, self.v.col_dims
        _conform(stage, "the shape of u b v", got, (base.row_dims, base.col_dims))


@dataclass(frozen=True)
class SplitParts:
    """Column-space/null-space split of an update relative to a base tensor.

    ``x1 + y1`` reassembles ``u`` and ``x2 + y2`` reassembles ``v^H``; the x
    parts live in the base tensor's column spaces (left and right), the y parts
    are orthogonal to them, and ``e1``, ``e2`` are the scaled null-space parts
    ``y_i * (y_i^H * y_i)^+``.

    ``x1``, ``y1`` and ``e1`` carry the row modes of ``u``, ``x2``, ``y2`` and
    ``e2`` those of ``v^H``, and all six the K shared modes of ``x1`` as
    columns (:func:`~einalg.shapes._conform`).
    """

    x1: EinsteinTensor
    y1: EinsteinTensor
    x2: EinsteinTensor
    y2: EinsteinTensor
    e1: EinsteinTensor
    e2: EinsteinTensor

    def __post_init__(self):
        k = self.x1.col_dims
        for name in _PART_NAMES[1:]:
            # the parts named ...1 carry the row modes of x1, those named ...2 those of x2
            part, rows = getattr(self, name), (self.x1 if name[-1] == "1" else self.x2).row_dims
            _conform("SplitParts", f"the shape of {name}", (part.row_dims, part.col_dims), (rows, k))


@dataclass(frozen=True)
class ConditionReport:
    """Relative residuals of the applicability conditions.

    Labels 3.1-3.3 form the left family (updated pseudoinverse times update),
    4.1-4.3 the right family.  A split with no null-space part has the one
    label ``C`` instead, the verdict of the capacitance step: the larger of
    the split's floor relative to ``|u|`` (:func:`decompose_update`) and the
    rank floor of the capacitance ``C`` over its smallest singular value
    (about ``K 2**-52 cond(C)``; ``inf`` when the rank rule drops ``C``'s
    rank).  At K = 1 each condition residual is a part's kept norm times the
    modulus of a scalar (:func:`check_conditions`), equal to the N x K
    form's up to rounding.  ``applicable`` is true iff every residual is <=
    ``tol``.
    """

    residuals: dict[str, float]
    tol: float

    @property
    def applicable(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())


@dataclass(frozen=True)
class UpdatedPinv:
    """Result of :func:`update_pinv`: the pseudoinverse, the condition report
    and the split the report was computed from.

    The split is kept as the matrices the call computed, with their kept
    norms, and ``parts`` wraps them as tensors on its first read and returns
    that same :class:`SplitParts` on every later one; the wrap checks nothing
    that the call has not already checked, so it cannot raise.  Equality and
    ``repr`` cover ``s_pinv`` and ``report`` only."""

    s_pinv: EinsteinTensor
    report: ConditionReport
    _split: _Split = field(compare=False, repr=False)

    @cached_property
    def parts(self) -> SplitParts:
        """The six split parts as tensors, wrapped on first read."""
        return self._split.wrapped()

    @property
    def path(self) -> str:
        """``"identity"`` when the six conditions held and the identity ran,
        ``"capacitance"`` when ``u`` and ``v^H`` lie in the base's column
        spaces and the capacitance step ran, else ``"fallback"``."""
        if not self.report.applicable:
            return "fallback"
        return "capacitance" if "C" in self.report.residuals else "identity"


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
    upd._conform("apply_update", a.shape)
    return _corrected("apply_update", a, np.matmul(upd.u.matrix, upd.b.matrix), upd.v.matrix)


@_quiet_overflow
def smw_invertible(a_inv: EinsteinTensor, upd: LowRankUpdate) -> EinsteinTensor:
    """Inverse of the corrected tensor from ``a^-1`` and the update.

    ``a_inv`` must be the inverse of the base tensor (the caller owns that
    precondition; only its shape is checked here).  This is the capacitance
    step of :func:`update_pinv` on ``a^-1``: it inverts the K x K capacitance
    ``C = I + b (v a^-1 u)`` under the kernel's rank rule and adds
    ``(a^-1 u)(-(C^-1 b)(v a^-1))`` to ``a^-1``, so ``b`` need not be
    invertible (``b = 0`` gives ``a^-1``).  Nothing here sees cancellation
    against ``a^-1``'s largest entries on an ill-conditioned base, which
    :func:`update_pinv` catches with the split's floor, a bound that needs
    ``|a|``: for ``a = diag(1, 1e-8)``, ``u = v^H = e2`` and ``b = 1``
    the result is off by 7e-9 relative.  ``update_pinv(a, inverse(a), upd)``
    is the same step with the split's check, and falls back to a direct
    pseudoinverse where it fails; it is what ``einalg smw --mode invertible``
    runs.  Raises :class:`~einalg.errors.SingularCapacitanceError` if the rule
    drops ``C``'s rank, which means the corrected tensor is numerically
    singular, and :class:`~einalg.errors.NumericalError` if ``C``, the factor
    or the result overflows.
    """
    _conform("smw_invertible", "the column modes of a_inv", a_inv.col_dims, a_inv.row_dims)
    upd._conform("smw_invertible", a_inv.shape)
    a_inv_mat, u = a_inv.matrix, upd.u.matrix
    right = _capacitance(
        "smw_invertible", _rows_mat(upd.v.matrix, a_inv_mat), u, upd.b.matrix
    )[0]
    return _corrected("smw_invertible", a_inv, _mat_cols(a_inv_mat, u), right)


def _capacitance(
    stage: str, v_ap: np.ndarray, u: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, float]:
    """The capacitance step: ``(r, residual)`` with ``r = -(C^-1 b)(v a^+)``
    (K x N) and ``C = I + b (v a^+ u)``, so that the updated inverse is
    ``a^+ + (a^+ u) r``.

    That holds for an inverse, and for a pseudoinverse when ``u`` and ``v^H``
    lie in ``a``'s column spaces, whenever ``C`` is invertible (Meyer 1973;
    Deng 2011); ``C^-1 b`` is ``(b^-1 + v a^-1 u)^-1`` when ``b`` is
    invertible (Henderson and Searle 1981), but needs no ``b^-1``.  ``C`` is
    inverted under the kernel's rank rule taken relative to
    ``|I|_F + |b (v a^+ u)|_F``, not to ``C``'s own largest singular value, so
    that a ``C`` in which the two terms cancel to rounding is singular;
    ``residual`` is that rule's floor over ``C``'s smallest singular value,
    about ``K 2**-52 cond(C)`` when nothing cancels, and the rule drops the
    rank when it reaches 1.  The products are the same at every K; at K = 1
    the kernel inverts ``C`` as ``1 / C``, with no LAPACK call.  Raises
    :class:`~einalg.errors.SingularCapacitanceError` if the rule drops the
    rank, and :class:`~einalg.errors.NumericalError` naming ``stage`` if ``C``
    or ``r`` overflows."""
    cap = np.matmul(b, np.matmul(v_ap, u))
    # a finite norm means finite entries, to which adding I cannot overflow
    scale = math.sqrt(len(b)) + _finite(stage, "the capacitance tensor's norm", _frobenius(cap))
    cap += np.eye(len(b))
    cap_inv, sigma = _inverse(cap, scale, SingularCapacitanceError, "capacitance tensor")
    right = np.matmul(-np.matmul(cap_inv, b), v_ap)
    _finite(stage, "the capacitance factor", right)
    return right, float(_rank_floor(scale, cap.shape, 1.0) / sigma[-1])


def _corrected(
    stage: str, base: EinsteinTensor, left: np.ndarray, right: np.ndarray
) -> EinsteinTensor:
    """``base + left right``, the result of ``stage``, in the one array the
    product allocates."""
    mat = np.matmul(left, right)
    mat += base.matrix
    return _returned(stage, base.shape, mat)


def _split(
    whole: np.ndarray, x: np.ndarray, pre: np.ndarray, floor: float, norm_whole: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """``(x, whole - x, pre, |x|, |y|)`` with one part within ``floor`` zeroed,
    ``y`` first: both zeroed would make the conditions hold on zeros.  A split
    with ``y1 = y2 = 0`` takes the capacitance step; one with a single zero
    ``y`` falls back, as conditions 3.1 / 4.1 then fail.  ``pre``, the
    ``a^+`` product ``x`` was made from, is zeroed with ``x``.  The norms are
    the ``_frobenius`` of the returned arrays (``|whole|`` is
    ``norm_whole``)."""
    y = whole - x
    norm_x, norm_y = _frobenius(x), _frobenius(y)
    if norm_y <= floor:
        return x, np.zeros_like(y), pre, norm_x, 0.0
    if norm_x <= floor:
        return np.zeros_like(x), whole, np.zeros_like(pre), 0.0, norm_whole
    return x, y, pre, norm_x, norm_y


#: The parts of a split, in :class:`SplitParts`' order.
_PART_NAMES = ("x1", "y1", "x2", "y2", "e1", "e2")


class _Split(NamedTuple):
    """A split as matrices: ``x1``, ``y1``, ``e1`` and ``e2`` in
    :class:`SplitParts`' layout, the right parts as the split makes them, the
    K x N ``x2^H`` and ``y2^H``, the norms of all six parts by name
    (``|x2|`` is ``|x2^H|``), and the paired shapes ``left`` of ``u`` and
    ``right`` of ``v^H``, which the parts carry as tensors."""

    x1: np.ndarray
    y1: np.ndarray
    x2h: np.ndarray
    y2h: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    norms: dict[str, float]
    left: PairedShape
    right: PairedShape

    def wrapped(self) -> SplitParts:
        """The six parts as tensors, each around its matrix (the adjoint of
        ``x2^H`` and ``y2^H``), with its kept norm: for ``x2`` and ``y2`` that
        is the norm of the adjoint, which may differ from a fresh one in the
        last bit.  Every norm is finite, so no wrap raises."""
        mats = (self.x1, self.y1, _adjoint(self.x2h), _adjoint(self.y2h), self.e1, self.e2)
        # the parts named ...1 carry the shape of u, those named ...2 that of v^H
        return SplitParts(*(
            _returned("decompose_update", self.left if name[-1] == "1" else self.right, mat, self.norms[name])
            for name, mat in zip(_PART_NAMES, mats)
        ))


@_quiet_overflow
def decompose_update(a: EinsteinTensor, a_pinv: EinsteinTensor, upd: LowRankUpdate) -> SplitParts:
    """Split the update factors against the base tensor's column spaces.

    ``x1 = a (a^+ u)`` and ``x2^H = (v a^+) a`` are the projections onto the
    left and right column spaces, associated so that every product has K
    columns or K rows (O(N^2 K), no N x N projector is formed); the remainders
    ``y_i`` are orthogonal to them by construction.  The kernel's rule
    (:mod:`einalg.matkernel`) truncates the ``e_i`` pseudoinverses, and the
    split's floor zeroes a part within ``2 max(m, n) 2**-52 |a|_F |a^+|_F
    |u|_F`` (``|v^H|_F`` on the right): residue taken as structure gives a
    huge ``e_i`` and conditions that hold on noise.  Without the 2 this is
    the first-order bound, at most ``rank(a)`` times the spectral one, for
    the rounding in the two products ``a^+ u`` and ``a (a^+ u)``, of at
    most ``max(m, n)`` terms each at unit roundoff ``2**-53``.  The 2 leaves
    as much again for the rounding already in ``a^+``: on invertible cond-10
    bases at N = 4 with random unit ``u`` and ``v``, the residue exceeded
    the bound without it in 137 of 27000 seeded draws, by at most 1.71x.
    Raises :class:`~einalg.errors.NumericalError` if a part or a K x K Gram
    intermediate overflows.
    """
    return _decompose("decompose_update", a, a_pinv, upd)[0].wrapped()


def _decompose(
    stage: str, a: EinsteinTensor, a_pinv: EinsteinTensor, upd: LowRankUpdate
) -> tuple[_Split, np.ndarray, np.ndarray, np.ndarray | None, float]:
    """:func:`decompose_update` on matrices, plus what the identity and the
    capacitance step reuse: ``(split, a^+ u, v a^+, b^+, floor)``.  ``a^+ u``
    and ``v a^+`` are zeroed with ``x1`` and ``x2`` (they are ``a^+ x1`` and
    ``x2^H a^+``, as ``a^+ a a^+ = a^+``), so the updated pseudoinverse is
    ``a^+`` plus one correction built from them and K-sized pieces.  The
    matrix ``b^+`` is taken in one LAPACK call on a (3, K, K) stack with the
    two Gram pseudoinverses.  At K = 1 that stack makes no LAPACK call
    (:func:`~einalg.matkernel._cut`), and its two Grams are the
    squared norms ``|y_i|^2`` the split kept, with no product formed; they
    are checked finite as the products would be.  ``floor`` is the split's
    floor relative to ``|u|`` and ``|v^H|`` (:func:`decompose_update`); it
    and the zero tests use the norms the tensors kept when they were built.
    A shape that does not conform names ``stage``, the public caller.

    When the split leaves both ``y1`` and ``y2`` exact zeros (no null-space
    part: the capacitance step's case), ``e1 = e2 = 0``, that call is skipped
    and ``b^+`` is None: the conditions and the identity, which that split
    does not take, meet the three K x K pseudoinverses only in products with
    ``e1^H`` or ``e2``."""
    want = a.col_dims, a.row_dims
    _conform(stage, "the shape of a_pinv", (a_pinv.row_dims, a_pinv.col_dims), want)
    upd._conform(stage, a.shape)
    a_mat, ap, u, v, b = a.matrix, a_pinv.matrix, upd.u.matrix, upd.v.matrix, upd.b.matrix
    norm_u, norm_v = fro_norm(upd.u), fro_norm(upd.v)
    floor = _rank_floor(fro_norm(a) * fro_norm(a_pinv), a_mat.shape, 2.0)
    ap_u, v_ap = _mat_cols(ap, u), _rows_mat(v, ap)
    x1, y1, ap_u, norm_x1, norm_y1 = _split(u, _mat_cols(a_mat, ap_u), ap_u, floor * norm_u, norm_u)
    x2h, y2h, v_ap, norm_x2h, norm_y2h = _split(v, _rows_mat(v_ap, a_mat), v_ap, floor * norm_v, norm_v)
    if norm_y1 == norm_y2h == 0.0:
        e1, e2, b_pinv = np.zeros_like(y1), np.zeros(y2h.shape[::-1], y2h.dtype), None
    else:
        y2 = _adjoint(y2h)
        stack = np.empty((3, *b.shape), dtype=np.complex128)
        if len(b) == 1:
            # K = 1: each Gram is its part's squared norm, which the split kept
            stack[0], stack[1] = norm_y1 * norm_y1, norm_y2h * norm_y2h
        else:
            np.matmul(_adjoint(y1), y1, out=stack[0])
            np.matmul(y2h, y2, out=stack[1])
        _finite("decompose_update", "the Gram tensor y1^H y1", stack[0])
        _finite("decompose_update", "the Gram tensor y2^H y2", stack[1])
        stack[2] = b  # a tensor's entries, finite
        gram1_pinv, gram2_pinv, b_pinv = _cut(stack, stage="decompose_update")[0]
        e1, e2 = np.matmul(y1, gram1_pinv), np.matmul(y2, gram2_pinv)
    # y2 needs no check: it is zero, or its Gram, whose diagonal holds its
    # squared column norms, is finite; each other part gets the check that
    # wrapping it makes
    stage = "decompose_update"
    norms = {
        "x1": _finite_norm(x1, norm_x1, stage),
        "y1": _finite_norm(y1, norm_y1, stage),
        "x2": _finite_norm(x2h, norm_x2h, stage),
        "y2": norm_y2h,
        # e_i is y_i times a finite K x K factor, so a zero y_i gives zeros,
        # which _frobenius would scan in its underflow branch
        "e1": _finite_norm(e1, 0.0 if norm_y1 == 0.0 else None, stage),
        "e2": _finite_norm(e2, 0.0 if norm_y2h == 0.0 else None, stage),
    }
    return _Split(x1, y1, x2h, y2h, e1, e2, norms, upd.u.shape, upd.v.shape.transposed), ap_u, v_ap, b_pinv, floor


@_quiet_overflow
def check_conditions(parts: SplitParts, b: EinsteinTensor) -> ConditionReport:
    """Relative residuals of the six applicability equalities.

    3.1: e2 b+ e1^H y1 b = e2       4.1: b y2^H e2 b+ e1^H = e1^H
    3.2: x1 e1^H y1 b = x1 b        4.2: b y2^H e2 x2^H = b x2^H
    3.3: y1 e1^H y1 = y1            4.3: e2 y2^H e2 = e2

    ``b+`` is taken from ``b``, which must be K-square
    (:func:`~einalg.shapes._conform`), and the report applies
    ``CONDITION_TOL``.  At K = 1 every factor but the parts is a scalar, and
    each deviation is one part times a scalar: with ``p = e1^H y1``,
    ``t = y2^H e2`` and ``q = b t``, the residuals are ``|e2| |b+ p b - 1|``,
    ``|x1| |b| |p - 1|``, ``|y1| |p - 1|``, ``|e1| |q b+ - 1|``,
    ``|x2| |q - b|`` and ``|e2| |t - 1|``, each over ``max(1, reference)``,
    from the parts' kept norms and no N x K product.  Raises
    :class:`~einalg.errors.NumericalError` if ``b+`` or a residual is not
    finite, which from finite parts means an overflow.
    """
    k = parts.x1.col_dims
    _conform("check_conditions", "the shape of b", (b.row_dims, b.col_dims), (k, k))
    b_pinv = pinv(b)
    split = _Split(
        parts.x1.matrix, parts.y1.matrix, _adjoint(parts.x2.matrix), _adjoint(parts.y2.matrix),
        parts.e1.matrix, parts.e2.matrix, {name: fro_norm(getattr(parts, name)) for name in _PART_NAMES},
        parts.x1.shape, parts.x2.shape,
    )
    residuals = _residuals(split, _adjoint(split.e1), b.matrix, b_pinv.matrix)
    return ConditionReport(residuals=residuals, tol=CONDITION_TOL)


def _residuals(
    split: _Split, e1h: np.ndarray, b: np.ndarray, b_pinv: np.ndarray
) -> dict[str, float]:
    """:func:`check_conditions`' residuals of a split known to conform, given
    the K x N ``e1^H`` and the middle factors as matrices; the split's norms
    are the references the residuals need.

    At K = 1 (a 1 x 1 ``b``, the shape test of
    :func:`~einalg.matkernel._cut`) no N-sized product is formed and
    ``e1h`` is not read: each deviation is one part times a scalar, whose
    Frobenius norm is the part's kept norm times the scalar's modulus
    (:func:`_scalar_residuals`)."""
    if len(b) == 1:
        residuals = _scalar_residuals(split, complex(b[0, 0]), complex(b_pinv[0, 0]))
    else:
        x1, y1, x2h, y2h, e2, norms = split.x1, split.y1, split.x2h, split.y2h, split.e2, split.norms
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
        _finite("check_conditions", f"condition {label} residual", residual)
    return residuals


def _scalar_residuals(split: _Split, b: complex, b_pinv: complex) -> dict[str, float]:
    """:func:`_residuals` of a K = 1 split, from the two inner products
    ``p = e1^H y1`` and ``t = y2^H e2`` and the split's kept norms: with
    ``q = b t``, the deviations of 3.1-3.3 are ``e2 (b+ p b - 1)``,
    ``x1 b (p - 1)`` and ``y1 (p - 1)``, those of 4.1-4.3
    ``(q b+ - 1) e1^H``, ``(q - b) x2^H`` and ``e2 (t - 1)``, and a vector
    times a scalar has the Frobenius norm ``|z| |c|``.  A modulus beyond the
    float range is ``inf``, not the ``OverflowError`` of ``abs``."""
    norms = split.norms
    p = complex(np.vdot(split.e1, split.y1))
    t = complex(np.dot(split.y2h[0], split.e2[:, 0]))
    q = b * t
    modulus_b = _modulus(b)
    x1_b, b_x2h = norms["x1"] * modulus_b, modulus_b * norms["x2"]
    return {
        "3.1": _relative(norms["e2"] * _modulus(b_pinv * (p * b) - 1), norms["e2"]),
        "3.2": _relative(x1_b * _modulus(p - 1), x1_b),
        "3.3": _relative(norms["y1"] * _modulus(p - 1), norms["y1"]),
        "4.1": _relative(norms["e1"] * _modulus(q * b_pinv - 1), norms["e1"]),
        "4.2": _relative(norms["x2"] * _modulus(q - b), b_x2h),
        "4.3": _relative(norms["e2"] * _modulus(t - 1), norms["e2"]),
    }


def _modulus(z: complex) -> float:
    """``|z|``, ``inf`` where it is beyond the float range."""
    return math.hypot(z.real, z.imag)


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
    return _assembled("smw_pinv", a_pinv, parts, b_pinv)


def _assembled(
    stage: str, a_pinv: EinsteinTensor, parts: SplitParts, b_pinv: EinsteinTensor
) -> EinsteinTensor:
    """:func:`smw_pinv`'s assembly for the public form ``stage``, which an
    overflow names."""
    k = parts.x1.col_dims
    _conform(stage, "the shape of b_pinv", (b_pinv.row_dims, b_pinv.col_dims), (k, k))
    want = parts.x2.row_dims, parts.x1.row_dims
    _conform(stage, "the shape of a_pinv", (a_pinv.row_dims, a_pinv.col_dims), want)
    ap, x2h = a_pinv.matrix, _adjoint(parts.x2.matrix)
    ap_x1 = _mat_cols(ap, parts.x1.matrix)
    x2h_ap = _rows_mat(x2h, ap)
    factors = _factors(parts.e2.matrix, x2h, _adjoint(parts.e1.matrix), b_pinv.matrix, ap_x1, x2h_ap)
    return _corrected(stage, a_pinv, *factors)


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


@_quiet_overflow
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
    return _assembled("smw_pinv_orthogonal", a_pinv, SplitParts(x1, x1, x2, x2, e1, e2), b_pinv)


@_quiet_overflow
def smw_pinv_hermitian(
    a_pinv: EinsteinTensor,
    x: EinsteinTensor,
    e: EinsteinTensor,
    b_pinv: EinsteinTensor,
) -> EinsteinTensor:
    """Specialization for a Hermitian base with ``u = v^H``: one shared split.

    ``a+ - e x^H a+ - a+ x e^H + e (b+ + x^H a+ x) e^H``, which is
    :func:`smw_pinv` with ``x2 = x1 = x`` and ``e2 = e1 = e``; the null-space
    part ``y`` enters only through its scaled form ``e = y (y^H y)^+``, so the
    split is built with zero ``y`` parts, which :func:`smw_pinv` never reads.
    """
    y = zeros(x.shape)
    return _assembled("smw_pinv_hermitian", a_pinv, SplitParts(x, y, x, y, e, e), b_pinv)


@_quiet_overflow
def update_pinv(
    a: EinsteinTensor,
    a_pinv: EinsteinTensor,
    upd: LowRankUpdate,
    tol: float = CONDITION_TOL,
) -> UpdatedPinv:
    """Split, check, and update; fall back to a direct pseudoinverse if needed.

    When the condition report is applicable the result of an identity is
    returned; otherwise the corrected tensor is pseudo-inverted directly, so a
    valid pseudoinverse comes back either way (``path`` of the result says
    which ran).  A split with a null-space part checks the six conditions,
    which at K = 1 form no N-sized product (two inner products and the
    split's kept norms, :func:`check_conditions`), and the identity result
    is :func:`smw_pinv`'s assembly with the split's ``a^+ u`` and ``v a^+``
    standing in for ``a^+ x1`` and ``x2^H a^+``.  ``b^+`` is taken in the
    split's LAPACK call (none at K = 1, where it is ``1 / b``) and kept as
    a matrix, and the conditions skip the shape checks of
    :func:`check_conditions`: the split was built here, to the update's
    shapes.  A split with none (every invertible base, and ``u`` and
    ``v^H`` inside the column spaces) runs no condition but takes the
    capacitance step that :func:`smw_invertible` takes on ``a^-1``:
    ``s^+ = a^+ - (a^+ u) C^-1 b (v a^+)``, ``C = I + b (v a^+ u)``, whose
    inverse at K = 1 is ``1 / C``, with no LAPACK call.  Its report is the
    one residual ``C`` (:class:`ConditionReport`), which also holds the
    split's floor relative to ``|u|`` (:func:`decompose_update`): on an
    ill-conditioned base, or one with a kept singular value at the cutoff,
    the formula cancels against ``a^+``'s largest entries, and the update
    falls back.  An identity-path or capacitance call costs O(N^2 K) and
    builds one tensor, ``s^+``, around the array just computed; a fallback
    builds two, the corrected tensor and its pseudoinverse.  The six split
    parts are kept as matrices and wrapped as tensors only when the
    result's ``parts`` is first read.  Raises
    :class:`~einalg.errors.DomainError` unless ``tol`` is finite and >= 0,
    and :class:`~einalg.errors.NumericalError` if a split part, a K x K
    intermediate, a factor or the result overflows; the read of ``parts``
    raises nothing.
    """
    tol = _nonnegative("tol", tol)
    split, report, s_pinv, factors = _updated("update_pinv", a, a_pinv, upd, tol)
    if factors is not None:
        s_pinv = _corrected("update_pinv", a_pinv, *factors)
    return UpdatedPinv(s_pinv, report, split)


def _updated(
    stage: str, a: EinsteinTensor, a_pinv: EinsteinTensor, upd: LowRankUpdate, tol: float
) -> tuple[_Split, ConditionReport, EinsteinTensor | None, tuple[np.ndarray, np.ndarray] | None]:
    """The one split -> check -> identity | capacitance | fallback step of
    :func:`update_pinv` and :func:`~einalg.sensitivity.measure_error`, on
    matrices, with overflow checks but no warning guard of its own:
    ``(split, report, s_pinv, factors)``.

    On the identity path ``factors`` is the ``(l, r)`` of ``s^+ = a^+ + l r``
    (N x 2K and 2K x N), on the capacitance path ``(a^+ u, r)`` (N x K and
    K x N), and ``s_pinv`` is None, so a caller that only applies ``s^+``
    never forms it; on the fallback ``s_pinv`` is the direct pseudoinverse
    and ``factors`` is None.  Only that pseudoinverse is a tensor: the
    callers wrap what they return.  A shape that does not conform names
    ``stage``, the public caller.
    """
    split, ap_x1, x2h_ap, b_pinv, residual = _decompose(stage, a, a_pinv, upd)
    b = upd.b.matrix
    factors = None
    if b_pinv is None:
        # C is not formed when the split's floor alone is above the tolerance
        if residual <= tol:
            try:
                right, cap_residual = _capacitance("update_pinv", x2h_ap, upd.u.matrix, b)
            except SingularCapacitanceError:
                right, cap_residual = None, math.inf
            residual = max(residual, cap_residual)
        report = ConditionReport({"C": residual}, tol)
        if report.applicable:
            factors = ap_x1, right
    else:
        _finite("update_pinv", "the pseudoinverse of b", b_pinv)
        e1h = _adjoint(split.e1)
        report = ConditionReport(_residuals(split, e1h, b, b_pinv), tol)
        if report.applicable:
            factors = _factors(split.e2, split.x2h, e1h, b_pinv, ap_x1, x2h_ap)
        del e1h
    if factors is None:
        del ap_x1, x2h_ap, b_pinv  # not held through the direct pseudoinverse
        return split, report, pinv(apply_update(a, upd)), None
    return split, report, None, factors
