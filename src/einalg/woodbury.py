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
its N x N work is the two base norms of the split's zero test, four
N x N x K products, one N x 2K x N product, one add and the finiteness scan
of the result, which is returned without a copy.  Conditions are checked
separately from the identity evaluation so repeated structurally-identical
updates can amortize the check.

The public tensor functions are thin wrappers over one matrix pipeline: each
validates the paired shapes of its operands at entry, computes on the
flattened ``.matrix`` arrays, and builds an
:class:`~einalg.tensor.EinsteinTensor` only for what it returns, so every
returned tensor is checked to be finite and an identity-path
:func:`update_pinv` call builds 8 tensors (the six split parts, ``b^+`` and
``s^+``), each around the array just computed.  :func:`update_pinv` is the
one split -> check -> identity -> fallback path; the ``einalg smw``
pseudoinverse modes run it too.  Products are written as ``np.matmul`` calls
so that each one can be recorded.
Because the inputs are finite tensors, a non-finite intermediate is an
overflow and raises :class:`~einalg.errors.NumericalError` naming the
function it occurred in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    ShapeError,
    SingularCapacitanceError,
    SingularMatrixError,
)
from .inverses import pinv
from .matkernel import _rank_floor, inv_matrix, pinv_matrix
from .shapes import PairedShape
from .tensor import EinsteinTensor, _adjoint, _frobenius, _relative, zeros

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

CONDITION_LABELS = ("3.1", "3.2", "3.3", "4.1", "4.2", "4.3")


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


def apply_update(a: EinsteinTensor, upd: LowRankUpdate) -> EinsteinTensor:
    """The corrected tensor ``a + u * b * v``."""
    if upd.result_shape != a.shape:
        raise ShapeError(
            f"update of shape {upd.result_shape} does not conform to base {a.shape}"
        )
    corrected = a.matrix + np.matmul(np.matmul(upd.u.matrix, upd.b.matrix), upd.v.matrix)
    return _returned("apply_update", a.shape, corrected)


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
    if upd.result_shape != a_inv.shape:
        raise ShapeError(
            f"update of shape {upd.result_shape} does not conform to base {a_inv.shape}"
        )
    if b_inv.shape != upd.b.shape:
        raise ShapeError(
            f"middle-factor inverse shape {b_inv.shape} != {upd.b.shape}"
        )
    a_inv_mat, u, v = a_inv.matrix, upd.u.matrix, upd.v.matrix
    a_inv_u = np.matmul(a_inv_mat, u)
    v_a_inv = np.matmul(v, a_inv_mat)
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
    correction = np.matmul(np.matmul(a_inv_u, cap_inv), v_a_inv)
    return _returned("smw_invertible", a_inv.shape, a_inv_mat - correction)


def _returned(stage: str, shape: PairedShape, mat: np.ndarray) -> EinsteinTensor:
    """Wrap a result computed from finite tensors, without a copy: a non-finite
    entry is an overflow."""
    try:
        return EinsteinTensor._adopt(shape, mat)
    except DomainError as err:
        raise NumericalError(f"{stage} overflowed: {err}") from err


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
    whole: np.ndarray, x: np.ndarray, pre: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, whole - x, pre)`` with one part within ``floor`` zeroed, ``y`` first:
    both zeroed would make the conditions hold on zeros, and ``y = 0`` falls back.
    ``pre``, the ``a^+`` product ``x`` was made from, is zeroed with ``x``."""
    y = whole - x
    if _frobenius(y) <= floor:
        return x, np.zeros_like(y), pre
    if _frobenius(x) <= floor:
        return np.zeros_like(x), whole, np.zeros_like(pre)
    return x, y, pre


def _scaled_null_part(y: np.ndarray, tol: float, name: str) -> np.ndarray:
    gram = np.matmul(_adjoint(y), y)
    if not np.isfinite(gram).all():
        raise NumericalError(
            f"decompose_update overflowed: the Gram tensor {name}^H {name} is not finite"
        )
    return np.matmul(y, pinv_matrix(gram, tol=tol))


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
    return _decompose(a, a_pinv, upd, tol)[0]


def _decompose(
    a: EinsteinTensor, a_pinv: EinsteinTensor, upd: LowRankUpdate, tol: float = 1.0
) -> tuple[SplitParts, np.ndarray, np.ndarray]:
    """:func:`decompose_update`, plus ``a^+ u`` and ``v a^+`` zeroed with ``x1``
    and ``x2``: they are ``a^+ x1`` and ``x2^H a^+``, as ``a^+ a a^+ = a^+``."""
    if a_pinv.shape != a.shape.transposed:
        raise ShapeError(
            f"pseudoinverse shape {a_pinv.shape} is not the transpose of {a.shape}"
        )
    if upd.result_shape != a.shape:
        raise ShapeError(
            f"update of shape {upd.result_shape} does not conform to base {a.shape}"
        )
    a_mat, ap, u, v = a.matrix, a_pinv.matrix, upd.u.matrix, upd.v.matrix
    floor = _rank_floor(_frobenius(a_mat) * _frobenius(ap), a_mat.shape, tol)
    ap_u, v_ap = np.matmul(ap, u), np.matmul(v, ap)
    x1, y1, ap_u = _split(u, np.matmul(a_mat, ap_u), ap_u, floor * _frobenius(u))
    x2h, y2h, v_ap = _split(v, np.matmul(v_ap, a_mat), v_ap, floor * _frobenius(v))
    x2, y2 = _adjoint(x2h), _adjoint(y2h)
    e1 = _scaled_null_part(y1, tol, "y1")
    e2 = _scaled_null_part(y2, tol, "y2")
    left, right = upd.u.shape, upd.v.shape.transposed
    parts = SplitParts(
        x1=_returned("decompose_update", left, x1),
        y1=_returned("decompose_update", left, y1),
        x2=_returned("decompose_update", right, x2),
        y2=_returned("decompose_update", right, y2),
        e1=_returned("decompose_update", left, e1),
        e2=_returned("decompose_update", right, e2),
    )
    return parts, ap_u, v_ap


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
    x1, y1, x2, y2, e1, e2 = (
        part.matrix for part in (parts.x1, parts.y1, parts.x2, parts.y2, parts.e1, parts.e2)
    )
    b, b_pinv = b.matrix, b_pinv.matrix
    e1h = _adjoint(e1)
    x2h = _adjoint(x2)
    y2h = _adjoint(y2)
    e1h_y1 = np.matmul(e1h, y1)
    e1h_y1_b = np.matmul(e1h_y1, b)
    by2h_e2 = np.matmul(np.matmul(b, y2h), e2)
    x1_b = np.matmul(x1, b)
    b_x2h = np.matmul(b, x2h)
    residuals = {
        "3.1": _relative(np.matmul(np.matmul(e2, b_pinv), e1h_y1_b) - e2, e2),
        "3.2": _relative(np.matmul(x1, e1h_y1_b) - x1_b, x1_b),
        "3.3": _relative(np.matmul(y1, e1h_y1) - y1, y1),
        "4.1": _relative(np.matmul(by2h_e2, np.matmul(b_pinv, e1h)) - e1h, e1h),
        "4.2": _relative(np.matmul(by2h_e2, x2h) - b_x2h, b_x2h),
        "4.3": _relative(np.matmul(e2, np.matmul(y2h, e2)) - e2, e2),
    }
    for label, residual in residuals.items():
        if not math.isfinite(residual):
            raise NumericalError(
                f"check_conditions overflowed: condition {label} residual is {residual}"
            )
    return ConditionReport(residuals=residuals, tol=tol)


def smw_pinv(a_pinv: EinsteinTensor, parts: SplitParts, b_pinv: EinsteinTensor) -> EinsteinTensor:
    """Updated pseudoinverse from a conforming split (conditions assumed checked).

    ``a+ - e2 x2^H a+ - a+ x1 e1^H + e2 (b+ + x2^H a+ x1) e1^H``, evaluated as
    the single rank-2K correction ``a+ + l r`` with

        l = [e2, a+ x1]                                  (N x 2K)
        r = [(b+ + x2^H a+ x1) e1^H - x2^H a+ ; -e1^H]   (2K x N)

    so its N x N work is the two N x N x K products ``a+ x1`` and ``x2^H a+``,
    one N x 2K x N product, one add and the finiteness scan of the result,
    which is returned without a copy.  Nothing is recomputed or validated
    beyond shapes, so callers pair this with :func:`check_conditions`.
    """
    _check_split(parts, b_pinv)
    if a_pinv.row_dims != parts.x2.row_dims or a_pinv.col_dims != parts.x1.row_dims:
        raise ShapeError(
            f"base pseudoinverse of shape {a_pinv.shape} does not conform to the split "
            f"({parts.x2.row_dims} | {parts.x1.row_dims})"
        )
    ap = a_pinv.matrix
    ap_x1 = np.matmul(ap, parts.x1.matrix)
    x2h_ap = np.matmul(_adjoint(parts.x2.matrix), ap)
    return _assembled(a_pinv, parts, b_pinv, ap_x1, x2h_ap)


def _assembled(
    a_pinv: EinsteinTensor,
    parts: SplitParts,
    b_pinv: EinsteinTensor,
    ap_x1: np.ndarray,
    x2h_ap: np.ndarray,
) -> EinsteinTensor:
    """The ``a+ + l r`` of :func:`smw_pinv` given ``a+ x1`` and ``x2^H a+``."""
    ap = a_pinv.matrix
    x2h = _adjoint(parts.x2.matrix)
    e1h = _adjoint(parts.e1.matrix)
    middle = b_pinv.matrix + np.matmul(x2h, ap_x1)
    r_top = np.matmul(middle, e1h) - x2h_ap
    left = np.hstack((parts.e2.matrix, ap_x1))
    right = np.vstack((r_top, -e1h))
    assembled = np.matmul(left, right)
    assembled += ap
    return _returned("smw_pinv", a_pinv.shape, assembled)


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
    """
    parts, ap_x1, x2h_ap = _decompose(a, a_pinv, upd)
    b_pinv = pinv(upd.b)
    report = check_conditions(parts, upd.b, b_pinv, tol=tol)
    if report.applicable:
        s_pinv = _assembled(a_pinv, parts, b_pinv, ap_x1, x2h_ap)
    else:
        del ap_x1, x2h_ap  # not held through the direct pseudoinverse
        s_pinv = pinv(apply_update(a, upd))
    return UpdatedPinv(s_pinv=s_pinv, report=report, parts=parts)
