"""Tensor inverse and Moore-Penrose pseudoinverse, plus the four-rule verifier.

Both inverses go through the flattened matrix: the tensor pseudoinverse is the
fold of the matrix pseudoinverse, so it inherits every guarantee of the matrix
kernel.  ``pinv`` is defined for arbitrary paired shapes, not only square
tensors; low-rank update code relies on pseudoinverses of rectangular and even
scalar-shaped operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matkernel
from .errors import ShapeError, SingularMatrixError, SingularTensorError
from .tensor import EinsteinTensor, _adjoint, _relative

__all__ = ["PenroseReport", "inverse", "pinv", "verify_penrose"]

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


def inverse(a: EinsteinTensor) -> EinsteinTensor:
    """Inverse of a square, invertible tensor."""
    if not a.shape.is_square:
        raise ShapeError(f"inverse needs a square tensor, got {a.shape}")
    try:
        inv = matkernel.inv_matrix(a.matrix)
    except SingularMatrixError as err:
        raise SingularTensorError(
            f"tensor of shape {a.shape} is singular: numerical rank "
            f"{err.rank} of {a.shape.row_size}",
            rank=err.rank,
            sigma_min=err.sigma_min,
        ) from err
    return EinsteinTensor._adopt(a.shape, inv)


def pinv(a: EinsteinTensor, tol: float = 1.0) -> EinsteinTensor:
    """Moore-Penrose pseudoinverse; result has the transposed paired shape."""
    return EinsteinTensor._adopt(a.shape.transposed, matkernel.pinv_matrix(a.matrix, tol=tol))


def verify_penrose(a: EinsteinTensor, x: EinsteinTensor, tol: float = PENROSE_TOL) -> PenroseReport:
    """Check the four pseudoinverse rules for the candidate ``x``.

    Residual k is ``|lhs_k - rhs_k| / max(1, |rhs_k|)`` in Frobenius norm.
    """
    if x.shape != a.shape.transposed:
        raise ShapeError(
            f"candidate shape {x.shape} is not the transpose of {a.shape}"
        )
    a, x = a.matrix, x.matrix
    ax = a @ x
    xa = x @ a
    residuals = (
        _relative(ax @ a - a, a),
        _relative(xa @ x - x, x),
        _relative(_adjoint(ax) - ax, ax),
        _relative(_adjoint(xa) - xa, xa),
    )
    return PenroseReport(residuals=residuals, tol=tol)
