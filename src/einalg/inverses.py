"""Rank predicates, tensor inverse and Moore-Penrose pseudoinverse, plus the
four-rule verifier.

The rank predicates and both inverses go through the flattened matrix: a
rank is the number of singular values the kernel keeps, and the tensor
pseudoinverse is the fold of the matrix pseudoinverse, so it inherits every
guarantee of the matrix kernel.  ``pinv`` is defined for arbitrary paired
shapes, not only square tensors; low-rank update code relies on
pseudoinverses of rectangular and even scalar-shaped operands.  Both hand
the kernel the tensor's matrix, which is finite complex by construction, with
no second scan of its entries, so a non-finite result is an overflow and
raises :class:`~einalg.errors.NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matkernel
from .errors import ShapeError, SingularTensorError
from .tensor import (
    EinsteinTensor,
    _adjoint,
    _frobenius,
    _nonnegative,
    _quiet_overflow,
    _relative,
    _returned,
    fro_norm,
)

__all__ = [
    "unfold_rank",
    "full_row_rank",
    "full_column_rank",
    "is_invertible",
    "PenroseReport",
    "inverse",
    "pinv",
    "verify_penrose",
]

#: Default relative tolerance for the four pseudoinverse rules.
PENROSE_TOL = 1e-10


@dataclass(frozen=True)
class PenroseReport:
    """Relative residuals of the four pseudoinverse rules for a candidate X.

    Rules, in residual order: (1) a x a = a, (2) x a x = x, (3) a x Hermitian,
    (4) x a Hermitian.  ``passed`` is true iff every residual is <= ``tol``.
    """

    residuals: tuple[float, float, float, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals)


def unfold_rank(a: EinsteinTensor) -> int:
    """Numerical rank of the flattened matrix."""
    return matkernel.numerical_rank(a.matrix)


def full_row_rank(a: EinsteinTensor) -> bool:
    """Whether the flattened matrix has rank equal to the row size."""
    return unfold_rank(a) == a.shape.row_size


def full_column_rank(a: EinsteinTensor) -> bool:
    """Whether the flattened matrix has rank equal to the column size."""
    return unfold_rank(a) == a.shape.col_size


def is_invertible(a: EinsteinTensor) -> bool:
    """Whether the square tensor ``a`` has a numerically full-rank flattening."""
    if not a.shape.is_square:
        raise ShapeError(f"invertibility is defined for square tensors, got {a.shape}")
    return full_row_rank(a)


def inverse(a: EinsteinTensor) -> EinsteinTensor:
    """Inverse of a square, invertible tensor."""
    if not a.shape.is_square:
        raise ShapeError(f"inverse needs a square tensor, got {a.shape}")
    inv = matkernel._inverse(
        a.matrix, error=SingularTensorError, subject=f"tensor of shape {a.shape}"
    )[0]
    return _returned("inverse", a.shape, inv)


def pinv(a: EinsteinTensor, tol: float = 1.0) -> EinsteinTensor:
    """Moore-Penrose pseudoinverse; result has the transposed paired shape.

    ``tol`` multiplies the kernel's rank floor.  Raises
    :class:`~einalg.errors.DomainError` unless it is finite and >= 0: a
    ``nan`` or ``inf`` would cut every singular value, and a negative one
    would act as 0."""
    tol = _nonnegative("tol", tol)
    return _returned("pinv", a.shape.transposed, matkernel._pinv_stack(a.matrix, tol=tol))


@_quiet_overflow
def verify_penrose(a: EinsteinTensor, x: EinsteinTensor, tol: float = PENROSE_TOL) -> PenroseReport:
    """Check the four pseudoinverse rules for the candidate ``x``.

    Residual k is ``|lhs_k - rhs_k| / max(1, |rhs_k|)`` in Frobenius norm.
    Raises :class:`~einalg.errors.DomainError` unless ``tol`` is finite and
    >= 0.
    """
    tol = _nonnegative("tol", tol)
    if x.shape != a.shape.transposed:
        raise ShapeError(
            f"candidate shape {x.shape} is not the transpose of {a.shape}"
        )
    norm_a, norm_x = fro_norm(a), fro_norm(x)
    a, x = a.matrix, x.matrix
    ax = a @ x
    xa = x @ a
    residuals = (
        _relative(ax @ a - a, norm_a),
        _relative(xa @ x - x, norm_x),
        _relative(_adjoint(ax) - ax, _frobenius(ax)),
        _relative(_adjoint(xa) - xa, _frobenius(xa)),
    )
    return PenroseReport(residuals=residuals, tol=tol)
