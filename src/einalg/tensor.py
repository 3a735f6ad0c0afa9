"""Dense complex tensors under the Einstein product, and their basic algebra.

An :class:`EinsteinTensor` is a dense complex tensor with a
:class:`~einalg.shapes.PairedShape`.  Storage contract: the entries are kept as
the row-major flattened matrix whose element ``(phi(i) - 1, phi(j) - 1)`` is the
tensor entry ``a_{i_1..i_M, j_1..j_N}``.  Flattening a tensor to that matrix is
therefore a reinterpretation of the buffer, never a copy-permute, and every
Einstein product dispatches to one dense matrix-matrix multiply.

Values are immutable after construction and all operations are pure functions,
so tensors can be shared freely between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .shapes import PairedShape, phi_index

__all__ = [
    "EinsteinTensor",
    "zeros",
    "identity",
    "add",
    "scale",
    "einstein_product",
    "conj_transpose",
    "kronecker",
    "trace",
    "inner",
    "fro_norm",
    "is_hermitian",
]


class EinsteinTensor:
    """Immutable dense complex tensor with paired row/column modes."""

    __slots__ = ("_shape", "_mat")

    def __init__(self, shape: PairedShape, matrix):
        if not isinstance(shape, PairedShape):
            shape = PairedShape(*shape)
        self._hold(shape, np.array(matrix, dtype=np.complex128, order="C"))

    @classmethod
    def _adopt(cls, shape: PairedShape, mat: np.ndarray) -> "EinsteinTensor":
        """Tensor that keeps ``mat`` itself, with the constructor's checks but no
        copy: for an array the library has just computed and nothing else writes."""
        tensor = cls.__new__(cls)
        tensor._hold(shape, np.ascontiguousarray(mat, dtype=np.complex128))
        return tensor

    def _hold(self, shape: PairedShape, mat: np.ndarray) -> None:
        if mat.shape != (shape.row_size, shape.col_size):
            raise ShapeError(
                f"matrix of shape {mat.shape} does not fill {shape} "
                f"({shape.row_size} x {shape.col_size})"
            )
        if not np.isfinite(mat).all():
            raise DomainError("tensor entries must be finite")
        mat.flags.writeable = False
        self._shape = shape
        self._mat = mat

    @property
    def shape(self) -> PairedShape:
        return self._shape

    @property
    def row_dims(self) -> tuple[int, ...]:
        return self._shape.row_dims

    @property
    def col_dims(self) -> tuple[int, ...]:
        return self._shape.col_dims

    @property
    def matrix(self) -> np.ndarray:
        """The flattened matrix form (read-only view, no copy)."""
        return self._mat

    @property
    def H(self) -> "EinsteinTensor":
        return conj_transpose(self)

    def entry(self, row_idx=(), col_idx=()) -> complex:
        """Entry at the 1-based multi-indices ``row_idx``, ``col_idx``."""
        p = phi_index(row_idx, self.row_dims)
        q = phi_index(col_idx, self.col_dims)
        return complex(self._mat[p - 1, q - 1])

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, c):
        return scale(self, c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return scale(self, 1.0 / complex(c))

    def __matmul__(self, other):
        return einstein_product(self, other)

    def __eq__(self, other):
        if not isinstance(other, EinsteinTensor):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self._mat, other._mat)

    __hash__ = None

    def __repr__(self):
        return f"EinsteinTensor{self._shape}"


def zeros(shape) -> EinsteinTensor:
    """All-zero tensor of the given paired shape."""
    if not isinstance(shape, PairedShape):
        shape = PairedShape(*shape)
    return EinsteinTensor(shape, np.zeros((shape.row_size, shape.col_size)))


def identity(row_dims) -> EinsteinTensor:
    """Identity tensor on ``(row_dims | row_dims)``: a Kronecker delta per mode."""
    row_dims = tuple(row_dims)
    if not row_dims:
        raise ShapeError("identity needs at least one mode")
    shape = PairedShape(row_dims, row_dims)
    return EinsteinTensor(shape, np.eye(shape.row_size))


def add(a: EinsteinTensor, b: EinsteinTensor) -> EinsteinTensor:
    """Entrywise sum; operands must share one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add {a.shape} and {b.shape}")
    return EinsteinTensor(a.shape, a.matrix + b.matrix)


def scale(a: EinsteinTensor, c) -> EinsteinTensor:
    """Entrywise multiplication by the scalar ``c``."""
    return EinsteinTensor(a.shape, a.matrix * complex(c))


def einstein_product(a: EinsteinTensor, b: EinsteinTensor, order: int | None = None) -> EinsteinTensor:
    """Einstein product contracting ``a``'s column modes against ``b``'s row modes.

    The contraction order is fixed by the operands (all of ``a.col_dims``); an
    explicit ``order`` is validated against it.  On the flattened matrices this
    is exactly a matrix product.
    """
    if a.col_dims != b.row_dims:
        raise ShapeError(
            f"cannot contract {a.shape} with {b.shape}: "
            f"column modes {a.col_dims} != row modes {b.row_dims}"
        )
    if order is not None and order != len(a.col_dims):
        raise ShapeError(
            f"contraction order {order} does not match the {len(a.col_dims)} shared modes"
        )
    shape = PairedShape(a.row_dims, b.col_dims)
    return EinsteinTensor(shape, a.matrix @ b.matrix)


def conj_transpose(a: EinsteinTensor) -> EinsteinTensor:
    """Hermitian transpose: swaps the mode sides and conjugates every entry."""
    return EinsteinTensor(a.shape.transposed, _adjoint(a.matrix))


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix as a C-ordered copy, the layout tensors store."""
    return np.conj(mat.T, order="C")


def kronecker(a: EinsteinTensor, b: EinsteinTensor) -> EinsteinTensor:
    """Kronecker product: modes concatenate as ``(a.rows ++ b.rows | a.cols ++ b.cols)``.

    Because the index map runs fastest over the leading modes, the flattened
    form is ``np.kron`` with the factor order swapped.
    """
    shape = PairedShape(a.row_dims + b.row_dims, a.col_dims + b.col_dims)
    return EinsteinTensor(shape, np.kron(b.matrix, a.matrix))


def trace(a: EinsteinTensor) -> complex:
    """Sum of the diagonal entries ``a_{i..., i...}`` of a square tensor."""
    if not a.shape.is_square:
        raise ShapeError(f"trace needs a square tensor, got {a.shape}")
    return complex(np.trace(a.matrix))


def inner(a: EinsteinTensor, b: EinsteinTensor) -> complex:
    """Inner product ``Tr(a^H * b)``; conjugate-linear in the first argument."""
    if a.shape != b.shape:
        raise ShapeError(f"inner product needs equal shapes, got {a.shape}, {b.shape}")
    return complex(np.vdot(a.matrix, b.matrix))


#: Below this the sum of squares inside ``np.linalg.norm`` is subnormal or zero.
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))


def fro_norm(a: EinsteinTensor) -> float:
    """Frobenius norm: square root of the sum of squared entry magnitudes."""
    return _frobenius(a.matrix)


def _frobenius(mat: np.ndarray) -> float:
    """Frobenius norm of a complex matrix, safe beyond the squared range.

    The plain sum of squares overflows once entries pass about 1e154 and
    underflows below about 1e-154; there the entries are first divided by
    their largest real or imaginary magnitude ``m`` and the norm is ``m``
    times the norm of the quotient.  ``np.vdot`` is a BLAS call, not a ufunc,
    so its overflow to ``inf`` raises no floating-point warning.
    """
    norm = math.sqrt(np.vdot(mat, mat).real)
    if math.isfinite(norm) and norm >= _SQRT_TINY:
        return norm
    m = float(max(np.abs(mat.real).max(), np.abs(mat.imag).max()))
    if m == 0.0:
        return 0.0
    return m * float(np.linalg.norm(mat / m))


def _relative(diff: np.ndarray, reference: np.ndarray) -> float:
    """``|diff| / max(1, |reference|)`` in Frobenius norm, on flattened matrices."""
    return _frobenius(diff) / max(1.0, _frobenius(reference))


def is_hermitian(a: EinsteinTensor, tol: float = 1e-10) -> bool:
    """Whether ``a`` equals its Hermitian transpose up to ``tol`` (relative)."""
    if not a.shape.is_square:
        raise ShapeError(f"hermiticity is defined for square tensors, got {a.shape}")
    return _relative(a.matrix - _adjoint(a.matrix), a.matrix) <= tol
