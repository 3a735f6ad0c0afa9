"""Flattening between paired-mode tensors and matrices, with rank predicates.

Because tensors store their flattened matrix directly (see
:mod:`einalg.tensor`), :func:`unfold` returns a read-only view and :func:`fold`
copies through the tensor constructor, which validates sizes.  The rank and
invertibility predicates run the matrix kernel's SVD on the flattened form.
"""

from __future__ import annotations

import numpy as np

from . import matkernel
from .errors import ShapeError
from .tensor import EinsteinTensor

__all__ = [
    "unfold",
    "fold",
    "unfold_rank",
    "full_row_rank",
    "full_column_rank",
    "is_invertible",
]


def unfold(a: EinsteinTensor) -> np.ndarray:
    """The ``row_size x col_size`` matrix holding ``a``'s entries (no copy)."""
    return a.matrix


def fold(mat, shape) -> EinsteinTensor:
    """Tensor of the given paired shape whose flattened form is ``mat`` (copied)."""
    return EinsteinTensor(shape, mat)


def unfold_rank(a: EinsteinTensor, tol: float = 1.0) -> int:
    """Numerical rank of the flattened matrix."""
    return matkernel.numerical_rank(a.matrix, tol=tol)


def full_row_rank(a: EinsteinTensor, tol: float = 1.0) -> bool:
    """Whether the flattened matrix has rank equal to the row size."""
    return unfold_rank(a, tol=tol) == a.shape.row_size


def full_column_rank(a: EinsteinTensor, tol: float = 1.0) -> bool:
    """Whether the flattened matrix has rank equal to the column size."""
    return unfold_rank(a, tol=tol) == a.shape.col_size


def is_invertible(a: EinsteinTensor, tol: float = 1.0) -> bool:
    """Whether the square tensor ``a`` has a numerically full-rank flattening."""
    if not a.shape.is_square:
        raise ShapeError(f"invertibility is defined for square tensors, got {a.shape}")
    return unfold_rank(a, tol=tol) == a.shape.row_size
