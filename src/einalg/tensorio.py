"""Tensor file format (JSON) and the block-display transcription helper.

A tensor file is a JSON object with exactly the fields ``row_dims``,
``col_dims`` (lists of positive integers) and ``entries`` (a list of
``[re, im]`` pairs in flattened row-major order, i.e. the C-order flattening of
the tensor's matrix form).  Serialization uses the shortest round-trip decimal
representation, so ``load(save(t)) == t`` bit-exactly.

Fourth-order tensors are conventionally displayed as a single block matrix
that interleaves row and column modes: the entry ``a_{(i1,i2),(j1,j2)}`` sits
at display row ``i1 + I1*(j1 - 1)`` and display column ``i2 + I2*(j2 - 1)``.
That layout differs from the flattened matrix (which groups all row modes on
one axis), and silently confusing the two is the main transcription hazard;
:func:`tensor_from_block_display` performs the conversion.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ShapeError
from .shapes import PairedShape
from .tensor import EinsteinTensor

__all__ = [
    "tensor_to_dict",
    "tensor_from_dict",
    "save_tensor",
    "load_tensor",
    "tensor_from_block_display",
]


def tensor_to_dict(t: EinsteinTensor) -> dict:
    """JSON-ready dict in the tensor file schema."""
    flat = t.matrix.ravel()
    return {
        "row_dims": list(t.row_dims),
        "col_dims": list(t.col_dims),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def tensor_from_dict(data) -> EinsteinTensor:
    """Parse the tensor file schema; raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError("tensor file must be a JSON object")
    extra = set(data) - {"row_dims", "col_dims", "entries"}
    missing = {"row_dims", "col_dims", "entries"} - set(data)
    if extra or missing:
        raise ValueError(
            f"tensor file fields must be row_dims/col_dims/entries "
            f"(missing: {sorted(missing)}, unexpected: {sorted(extra)})"
        )
    for key in ("row_dims", "col_dims"):
        dims = data[key]
        if not isinstance(dims, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in dims
        ):
            raise ValueError(f"{key} must be a list of integers")
    shape = PairedShape(tuple(data["row_dims"]), tuple(data["col_dims"]))
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != shape.row_size * shape.col_size:
        raise ValueError(
            f"entries must hold {shape.row_size * shape.col_size} [re, im] pairs"
        )
    values = np.empty(len(entries), dtype=np.complex128)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ValueError(f"entry {k} is not an [re, im] pair: {pair!r}")
        values[k] = complex(pair[0], pair[1])
    return EinsteinTensor(shape, values.reshape(shape.row_size, shape.col_size))


def save_tensor(path, t: EinsteinTensor) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        data = tensor_to_dict(t)
        fh.write('{\n  "row_dims": %s,\n  "col_dims": %s,\n  "entries": %s\n}\n' % (
            json.dumps(data["row_dims"]),
            json.dumps(data["col_dims"]),
            json.dumps(data["entries"]),
        ))


def load_tensor(path) -> EinsteinTensor:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return tensor_from_dict(data)


def tensor_from_block_display(display, row_dims, col_dims) -> EinsteinTensor:
    """Tensor transcribed from its interleaved block-matrix display.

    ``display`` is the ``(I1*J1) x (I2*J2)`` nested-list/array rendering of a
    fourth-order tensor with ``row_dims = (I1, I2)`` and
    ``col_dims = (J1, J2)``, laid out as described in the module docstring.
    """
    row_dims = tuple(row_dims)
    col_dims = tuple(col_dims)
    if len(row_dims) != 2 or len(col_dims) != 2:
        raise ShapeError("block display transcription is defined for 2+2 mode tensors")
    i1n, i2n = row_dims
    j1n, j2n = col_dims
    display = np.asarray(display, dtype=np.complex128)
    if display.shape != (i1n * j1n, i2n * j2n):
        raise ShapeError(
            f"display must be {i1n * j1n} x {i2n * j2n}, got {display.shape}"
        )
    shape = PairedShape(row_dims, col_dims)
    # display[i1 + I1*j1, i2 + I2*j2] (0-based) is a_{(i1,i2),(j1,j2)}, and the
    # index map runs fastest over the leading mode: matrix[i1 + I1*i2, j1 + J1*j2].
    mat = display.reshape(j1n, i1n, j2n, i2n).transpose(3, 1, 2, 0)
    return EinsteinTensor(shape, mat.reshape(shape.row_size, shape.col_size))
