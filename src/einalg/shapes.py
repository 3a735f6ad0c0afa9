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


def _shown(value) -> str:
    """``repr(value)`` for a message.  An int whose decimal form passes
    Python's digit limit (``sys.get_int_max_str_digits()``), which ``repr``
    refuses with ``ValueError``, shows as ``<int of more than N digits>``,
    and a list or other object holding one as
    ``<list holding an int of more than N digits>``."""
    try:
        return repr(value)
    except ValueError:
        held = "" if isinstance(value, int) else f"{type(value).__name__} holding an "
        return f"<{held}int of more than {sys.get_int_max_str_digits()} digits>"


def _as_int(value, what, error) -> int:
    """``value`` as an ``int``: anything ``operator.index`` takes (numpy
    integers too) except a bool, the one integer rule of indices, offsets
    and dims; anything else raises ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {_shown(value)}")


def _as_ints(values, what, each, error) -> tuple[int, ...]:
    """``values``, a sequence other than text, as a tuple of ints by
    :func:`_as_int` (``each`` names one of them in a message); anything else
    raises ``error`` naming ``what``.  Bytes are text here, not the ints
    they iterate as."""
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            values = tuple(values)
        except TypeError:
            pass
        else:
            # a tuple of Python ints, what every shape the package builds
            # holds, is kept as it is, with no new object
            for v in values:
                if type(v) is not int:
                    return tuple([_as_int(v, each, error) for v in values])
            return values
    raise error(f"{what} must be a sequence of integers, got {_shown(values)}")


def _check_dims(dims, what: str, each: str) -> tuple[int, ...]:
    """``dims`` as a tuple of Python ints, each >= 1, else
    :class:`~einalg.errors.ShapeError` naming them ``what`` and one of them
    ``each``."""
    dims = _as_ints(dims, what, each, ShapeError)
    for d in dims:
        if d < 1:
            raise ShapeError(f"{each} must be >= 1, got {_shown(d)}")
    return dims


def _paired(shape) -> "PairedShape":
    """``shape`` as a :class:`PairedShape`: one already, or a
    ``(row_dims, col_dims)`` pair; anything else raises
    :class:`~einalg.errors.ShapeError`."""
    if isinstance(shape, PairedShape):
        return shape
    try:
        row_dims, col_dims = shape
    except (TypeError, ValueError):
        raise ShapeError(
            f"a shape is a PairedShape or a (row_dims, col_dims) pair, got {_shown(shape)}"
        ) from None
    return PairedShape(row_dims, col_dims)


@dataclass(frozen=True)
class PairedShape:
    """Row/column mode signature ``(I_1...I_M | J_1...J_N)`` of a tensor operand."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_dims", _check_dims(self.row_dims, "row dims", "a row dim"))
        object.__setattr__(self, "col_dims", _check_dims(self.col_dims, "col dims", "a col dim"))
        if not self.row_dims and not self.col_dims:
            raise ShapeError("a paired shape needs at least one mode on some side")
        if self.row_size * self.col_size > sys.maxsize:
            raise ShapeError(f"shape {self} exceeds addressable size")

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
        rows = "x".join(map(_shown, self.row_dims)) or "-"
        cols = "x".join(map(_shown, self.col_dims)) or "-"
        return f"({rows} | {cols})"


def phi_index(idx, dims) -> int:
    """Flat 1-based offset of the 1-based multi-index ``idx`` within ``dims``.

    The first component varies fastest; the empty index maps to 1.  A
    component that is not an integer raises
    :class:`~einalg.errors.IndexOutOfRangeError`, and ``dims`` that are not
    integers >= 1 a :class:`~einalg.errors.ShapeError`.
    """
    idx = _as_ints(idx, "a multi-index", "an index component", IndexOutOfRangeError)
    dims = _check_dims(dims, "mode dims", "a mode dim")
    if len(idx) != len(dims):
        raise IndexOutOfRangeError(
            f"multi-index has {len(idx)} components for {len(dims)} modes"
        )
    for k, (i, d) in enumerate(zip(idx, dims)):
        if not 1 <= i <= d:
            raise IndexOutOfRangeError(
                f"index component {k + 1} is {_shown(i)}, valid range is 1..{_shown(d)}"
            )
    flat = 1
    stride = 1
    for i, d in zip(idx, dims):
        flat += (i - 1) * stride
        stride *= d
    return flat


def phi_inverse(flat: int, dims) -> tuple[int, ...]:
    """Inverse of :func:`phi_index`: the multi-index stored at 1-based ``flat``."""
    flat = _as_int(flat, "a flat offset", IndexOutOfRangeError)
    dims = _check_dims(dims, "mode dims", "a mode dim")
    size = math.prod(dims)
    if not 1 <= flat <= size:
        raise IndexOutOfRangeError(f"flat offset {_shown(flat)} outside 1..{_shown(size)}")
    rem = flat - 1
    idx = []
    for d in dims:
        idx.append(rem % d + 1)
        rem //= d
    return tuple(idx)
