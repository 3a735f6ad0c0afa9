"""Paired mode signatures and the 1-based multi-index <-> flat-offset maps.

A tensor operand is described by a :class:`PairedShape`: the modes are split
into row modes ``(I_1, ..., I_M)`` and column modes ``(J_1, ..., J_N)``, the
structure under which the Einstein product composes like matrix multiplication.

The index map sends a 1-based multi-index ``(i_1, ..., i_M)`` to the flat
offset ``i_1 + sum_{m>=2} (i_m - 1) * I_1 * ... * I_{m-1}`` (first component
fastest), which is a bijection onto ``1 .. I_1*...*I_M``.  All offsets on this
public surface are 1-based; internal array indexing is 0-based.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import IndexOutOfRangeError, ShapeError

__all__ = ["PairedShape", "phi_index", "phi_inverse"]


def _check_dims(dims, what):
    dims = tuple(dims)
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool):
            raise ShapeError(f"{what} must be integers, got {d!r}")
        if d < 1:
            raise ShapeError(f"{what} must be >= 1, got {d}")
    return dims


@dataclass(frozen=True)
class PairedShape:
    """Row/column mode signature ``(I_1...I_M | J_1...J_N)`` of a tensor operand."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_dims", _check_dims(self.row_dims, "row dims"))
        object.__setattr__(self, "col_dims", _check_dims(self.col_dims, "col dims"))
        if not self.row_dims and not self.col_dims:
            raise ShapeError("a paired shape needs at least one mode on some side")
        if self.row_size * self.col_size > sys.maxsize:
            raise ShapeError(
                f"shape ({self.row_dims} | {self.col_dims}) exceeds addressable size"
            )

    @property
    def row_size(self) -> int:
        return math.prod(self.row_dims)

    @property
    def col_size(self) -> int:
        return math.prod(self.col_dims)

    @property
    def transposed(self) -> "PairedShape":
        return PairedShape(self.col_dims, self.row_dims)

    @property
    def is_square(self) -> bool:
        return self.row_dims == self.col_dims

    def __str__(self):
        rows = "x".join(map(str, self.row_dims)) or "-"
        cols = "x".join(map(str, self.col_dims)) or "-"
        return f"({rows} | {cols})"


def _as_index(i, what) -> int:
    """``i`` as an ``int``: anything ``operator.index`` takes (numpy integers
    too) except a bool."""
    if not isinstance(i, bool):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise IndexOutOfRangeError(f"{what} must be an integer, got {i!r}")


def phi_index(idx, dims) -> int:
    """Flat 1-based offset of the 1-based multi-index ``idx`` within ``dims``.

    The first component varies fastest; the empty index maps to 1.  A
    component that is not an integer raises
    :class:`~einalg.errors.IndexOutOfRangeError`.
    """
    idx = tuple(_as_index(i, "an index component") for i in idx)
    dims = tuple(dims)
    if len(idx) != len(dims):
        raise IndexOutOfRangeError(
            f"multi-index has {len(idx)} components for {len(dims)} modes"
        )
    for k, (i, d) in enumerate(zip(idx, dims)):
        if not 1 <= i <= d:
            raise IndexOutOfRangeError(
                f"index component {k + 1} is {i}, valid range is 1..{d}"
            )
    flat = 1
    stride = 1
    for i, d in zip(idx, dims):
        flat += (i - 1) * stride
        stride *= d
    return flat


def phi_inverse(flat: int, dims) -> tuple[int, ...]:
    """Inverse of :func:`phi_index`: the multi-index stored at 1-based ``flat``."""
    flat = _as_index(flat, "a flat offset")
    dims = tuple(dims)
    size = math.prod(dims)
    if not 1 <= flat <= size:
        raise IndexOutOfRangeError(f"flat offset {flat} outside 1..{size}")
    rem = flat - 1
    idx = []
    for d in dims:
        idx.append(rem % d + 1)
        rem //= d
    return tuple(idx)
