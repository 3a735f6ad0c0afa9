"""Rank predicates, tensor inverse and Moore-Penrose pseudoinverse, plus the
four-rule verifier.

The rank predicates and both inverses go through the flattened matrix and
the kernel's one rank decision (:func:`einalg.matkernel._cut`): a rank is
the number of singular values it keeps, ``inverse`` raises where it drops
one, and the tensor pseudoinverse is the fold of the matrix pseudoinverse,
so it inherits every guarantee of the matrix kernel.  So the four
predicates agree with ``inverse`` on every finite tensor, a 1 x 1 one near
the largest float included.  ``pinv`` is defined for arbitrary paired
shapes, not only square tensors; low-rank update code relies on
pseudoinverses of rectangular and even scalar-shaped operands.  All of them
hand the kernel the tensor's matrix, which is finite complex by
construction, with no second scan of its entries, so a non-finite result is
an overflow and raises :class:`~einalg.errors.NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matkernel
from .errors import SingularTensorError
from .shapes import _conform
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
    return int(matkernel._cut(a.matrix)[2].sum())


def full_row_rank(a: EinsteinTensor) -> bool:
    """Whether the flattened matrix has rank equal to the row size."""
    return unfold_rank(a) == a.shape.row_size


def full_column_rank(a: EinsteinTensor) -> bool:
    """Whether the flattened matrix has rank equal to the column size."""
    return unfold_rank(a) == a.shape.col_size


def is_invertible(a: EinsteinTensor) -> bool:
    """Whether the square tensor ``a`` has a numerically full-rank flattening."""
    _conform("is_invertible", "the column modes", a.col_dims, a.row_dims)
    return full_row_rank(a)


def inverse(a: EinsteinTensor) -> EinsteinTensor:
    """Inverse of a square, invertible tensor."""
    _conform("inverse", "the column modes", a.col_dims, a.row_dims)
    inv = matkernel._inverse(a.matrix, error=SingularTensorError, subject="tensor", shape=a.shape)[0]
    return _returned("inverse", a.shape, inv)


def pinv(a: EinsteinTensor, tol: float = 1.0) -> EinsteinTensor:
    """Moore-Penrose pseudoinverse; result has the transposed paired shape.

    ``tol`` multiplies the kernel's rank floor.  Raises
    :class:`~einalg.errors.DomainError` unless it is finite and >= 0: a
    ``nan`` or ``inf`` would cut every singular value, and a negative one
    would act as 0."""
    tol = _nonnegative("tol", tol)
    return _returned("pinv", a.shape.transposed, matkernel._cut(a.matrix, tol)[0])


@_quiet_overflow
def verify_penrose(a: EinsteinTensor, x: EinsteinTensor, tol: float = PENROSE_TOL) -> PenroseReport:
    """Check the four pseudoinverse rules for the candidate ``x``.

    Residual k is ``|lhs_k - rhs_k| / max(1, |rhs_k|)`` in Frobenius norm.
    Raises :class:`~einalg.errors.DomainError` unless ``tol`` is finite and
    >= 0.
    """
    tol = _nonnegative("tol", tol)
    _conform("verify_penrose", "the shape of x", (x.row_dims, x.col_dims), (a.col_dims, a.row_dims))
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
