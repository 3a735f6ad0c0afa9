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
without forming them (``x1 = a * (a^+ * u)``), and the updated pseudoinverse
is ``a^+`` plus one rank-2K correction.  With N the flattened size of the base
tensor, the identity path therefore costs O(N^2 K): its only N x N work is the
one N x 2K x N product of that correction and one add.  Conditions are checked
separately from the identity evaluation so repeated structurally-identical
updates can amortize the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularCapacitanceError, SingularTensorError
from .inverses import _relative, inverse, pinv
from .shapes import PairedShape
from .tensor import EinsteinTensor, einstein_product, fro_norm, zeros

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

#: Split parts smaller than this (relative to their source factor) are
#: floating-point residue of the projection, not structure: they are snapped
#: to exact zeros.  Without the snap, a K-sized Gram pseudoinverse would
#: invert the residue (e.g. e = y / |y|^2 with |y| ~ 1e-16) and the
#: applicability conditions would "hold" on pure noise.
SPLIT_SNAP_TOL = 1e-12

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


def apply_update(a: EinsteinTensor, upd: LowRankUpdate) -> EinsteinTensor:
    """The corrected tensor ``a + u * b * v``."""
    if upd.result_shape != a.shape:
        raise ShapeError(
            f"update of shape {upd.result_shape} does not conform to base {a.shape}"
        )
    return a + einstein_product(einstein_product(upd.u, upd.b), upd.v)


def smw_invertible(a_inv: EinsteinTensor, upd: LowRankUpdate, b_inv: EinsteinTensor) -> EinsteinTensor:
    """Inverse of the corrected tensor from the inverses of its pieces.

    ``a_inv`` and ``b_inv`` must be the inverses of the base tensor and of the
    middle factor (the caller owns that precondition; only shapes are checked
    here).  Inverts the capacitance ``b^-1 + v * a^-1 * u`` and assembles
    ``a^-1 - a^-1 u (b^-1 + v a^-1 u)^-1 v a^-1``.
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
    a_inv_u = einstein_product(a_inv, upd.u)
    capacitance = b_inv + einstein_product(einstein_product(upd.v, a_inv), upd.u)
    try:
        cap_inv = inverse(capacitance)
    except SingularTensorError as err:
        raise SingularCapacitanceError(
            f"capacitance tensor is singular: numerical rank {err.rank} "
            f"of {capacitance.shape.row_size}",
            rank=err.rank,
            sigma_min=err.sigma_min,
        ) from err
    correction = einstein_product(
        einstein_product(a_inv_u, cap_inv), einstein_product(upd.v, a_inv)
    )
    return a_inv - correction


def _snap_residue(part: EinsteinTensor, reference_norm: float) -> EinsteinTensor:
    if fro_norm(part) <= SPLIT_SNAP_TOL * reference_norm:
        return zeros(part.shape)
    return part


def _scaled_null_part(y: EinsteinTensor, tol: float) -> EinsteinTensor:
    gram = einstein_product(y.H, y)
    return einstein_product(y, pinv(gram, tol=tol))


def decompose_update(
    a: EinsteinTensor,
    a_pinv: EinsteinTensor,
    upd: LowRankUpdate,
    tol: float = 1.0,
) -> SplitParts:
    """Split the update factors against the base tensor's column spaces.

    ``x1 = a (a^+ u)`` and ``x2 = a^+ (a v^H)`` are the projections onto the
    left and right column spaces, associated so that every product has K
    columns (O(N^2 K), no N x N projector is formed); the remainders ``y_i``
    are orthogonal to them by construction.  ``tol`` scales the rank
    truncation inside the ``e_i`` pseudoinverses.
    """
    if a_pinv.shape != a.shape.transposed:
        raise ShapeError(
            f"pseudoinverse shape {a_pinv.shape} is not the transpose of {a.shape}"
        )
    if upd.result_shape != a.shape:
        raise ShapeError(
            f"update of shape {upd.result_shape} does not conform to base {a.shape}"
        )
    vh = upd.v.H
    u_norm = fro_norm(upd.u)
    vh_norm = fro_norm(vh)
    x1 = _snap_residue(einstein_product(a, einstein_product(a_pinv, upd.u)), u_norm)
    y1 = _snap_residue(upd.u - x1, u_norm)
    x2 = _snap_residue(einstein_product(a_pinv, einstein_product(a, vh)), vh_norm)
    y2 = _snap_residue(vh - x2, vh_norm)
    return SplitParts(
        x1=x1,
        y1=y1,
        x2=x2,
        y2=y2,
        e1=_scaled_null_part(y1, tol),
        e2=_scaled_null_part(y2, tol),
    )


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
    """
    x1, y1, x2, y2, e1, e2 = parts.x1, parts.y1, parts.x2, parts.y2, parts.e1, parts.e2
    e1h = e1.H
    x2h = x2.H
    e1h_y1 = einstein_product(e1h, y1)
    by2h_e2 = einstein_product(einstein_product(b, y2.H), e2)
    x1_b = einstein_product(x1, b)
    b_x2h = einstein_product(b, x2h)
    residuals = {
        "3.1": _relative(
            einstein_product(
                einstein_product(e2, b_pinv), einstein_product(e1h_y1, b)
            )
            - e2,
            e2,
        ),
        "3.2": _relative(einstein_product(x1, einstein_product(e1h_y1, b)) - x1_b, x1_b),
        "3.3": _relative(einstein_product(y1, e1h_y1) - y1, y1),
        "4.1": _relative(
            einstein_product(by2h_e2, einstein_product(b_pinv, e1h)) - e1h,
            e1h,
        ),
        "4.2": _relative(einstein_product(by2h_e2, x2h) - b_x2h, b_x2h),
        "4.3": _relative(einstein_product(e2, einstein_product(y2.H, e2)) - e2, e2),
    }
    return ConditionReport(residuals=residuals, tol=tol)


def smw_pinv(a_pinv: EinsteinTensor, parts: SplitParts, b_pinv: EinsteinTensor) -> EinsteinTensor:
    """Updated pseudoinverse from a conforming split (conditions assumed checked).

    ``a+ - e2 x2^H a+ - a+ x1 e1^H + e2 (b+ + x2^H a+ x1) e1^H``, evaluated as
    the single rank-2K correction ``a+ + l r`` with

        l = [e2, a+ x1]                                  (N x 2K)
        r = [(b+ + x2^H a+ x1) e1^H - x2^H a+ ; -e1^H]   (2K x N)

    so the only N x N work is one N x 2K x N product and one add.  Nothing is
    recomputed or validated beyond shapes, so callers pair this with
    :func:`check_conditions`.
    """
    apinv_x1 = einstein_product(a_pinv, parts.x1)
    if parts.e2.shape != apinv_x1.shape:
        raise ShapeError(f"split parts disagree: e2 {parts.e2.shape} vs a+ x1 {apinv_x1.shape}")
    x2h = parts.x2.H
    e1h = parts.e1.H
    middle = b_pinv + einstein_product(x2h, apinv_x1)
    r_top = einstein_product(middle, e1h) - einstein_product(x2h, a_pinv)
    left = np.hstack((parts.e2.matrix, apinv_x1.matrix))
    right = np.vstack((r_top.matrix, -e1h.matrix))
    assembled = np.matmul(left, right)
    assembled += a_pinv.matrix
    return EinsteinTensor(a_pinv.shape, assembled)


def smw_pinv_orthogonal(
    a_pinv: EinsteinTensor,
    e1: EinsteinTensor,
    e2: EinsteinTensor,
    b_pinv: EinsteinTensor,
) -> EinsteinTensor:
    """Fast path for updates wholly orthogonal to the base column spaces.

    Valid when the split has ``x1 = x2 = 0``; reduces to ``a+ + e2 b+ e1^H``.
    """
    return a_pinv + einstein_product(einstein_product(e2, b_pinv), e1.H)


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
    if y.shape != x.shape:
        raise ShapeError(f"split parts disagree: {x.shape} vs {y.shape}")
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
    valid pseudoinverse comes back either way (the report says which path ran).
    """
    parts = decompose_update(a, a_pinv, upd)
    b_pinv = pinv(upd.b)
    report = check_conditions(parts, upd.b, b_pinv, tol=tol)
    if report.applicable:
        s_pinv = smw_pinv(a_pinv, parts, b_pinv)
    else:
        s_pinv = pinv(apply_update(a, upd))
    return UpdatedPinv(s_pinv=s_pinv, report=report, parts=parts)
