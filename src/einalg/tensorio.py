"""Tensor file format (JSON) and the block-display transcription helper.

A tensor file is a JSON object with exactly the fields ``row_dims``,
``col_dims`` (lists of positive integers) and ``entries`` (a list of
``[re, im]`` pairs in flattened row-major order, i.e. the C-order flattening of
the tensor's matrix form).  Serialization uses the shortest round-trip decimal
representation, so ``load(save(t)) == t`` bit-exactly.  Both directions work
on the whole entry array at once: :func:`save_tensor` formats the float64 view
of the matrix in one join, writing the bytes ``json.dumps`` would, and
:func:`tensor_from_dict` checks the pair structure and number types in one
pass over an object array before one float conversion; only a malformed file,
or one with an integer beyond the float range, is walked entry by entry, to
name the first bad entry.

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
from .shapes import PairedShape, _shown
from .tensor import EinsteinTensor, _entries, _number

__all__ = [
    "tensor_to_dict",
    "tensor_from_dict",
    "save_tensor",
    "load_tensor",
    "tensor_from_block_display",
]


def tensor_to_dict(t: EinsteinTensor) -> dict:
    """JSON-ready dict in the tensor file schema."""
    return {
        "row_dims": list(t.row_dims),
        "col_dims": list(t.col_dims),
        "entries": t.matrix.view(np.float64).reshape(-1, 2).tolist(),
    }


def _types_are(items, allowed) -> bool:
    """Every item is an instance of ``allowed`` and none is a bool."""
    return all(issubclass(t, allowed) and not issubclass(t, bool) for t in set(map(type, items)))


def _pair_array(entries):
    """``entries`` as an n x 2 object array when every entry is an ``[re, im]``
    list of two numbers (bools excluded), else None."""
    pairs = np.array(entries, dtype=object)
    if (
        pairs.shape == (len(entries), 2)
        and _types_are(entries, list)
        and _types_are(pairs.ravel(), (int, float))
    ):
        return pairs
    return None


def _beyond_float(x) -> bool:
    """Whether the file's number ``x``, an int or a float, is beyond the
    float range: an int that :func:`~einalg.tensor._number` reads as ``inf``."""
    return isinstance(x, int) and np.isinf(_number("an entry", x))


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
        # the entries are checked by PairedShape
        if not isinstance(data[key], list):
            raise ValueError(f"{key} must be a list of integers")
    shape = PairedShape(tuple(data["row_dims"]), tuple(data["col_dims"]))
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != shape.row_size * shape.col_size:
        raise ValueError(
            f"entries must hold {shape.row_size * shape.col_size} [re, im] pairs"
        )
    pairs = _pair_array(entries)
    if pairs is None:
        k = next(k for k, pair in enumerate(entries) if _pair_array([pair]) is None)
        raise ValueError(f"entry {k} is not an [re, im] pair: {_shown(entries[k])}")
    try:
        values = pairs.astype(np.float64).view(np.complex128)
    except OverflowError:
        k = next(k for k, pair in enumerate(entries) if any(map(_beyond_float, pair)))
        raise ValueError(f"entry {k} is beyond the float range: {_shown(entries[k])}") from None
    return EinsteinTensor(shape, values.reshape(shape.row_size, shape.col_size))


def save_tensor(path, t: EinsteinTensor) -> None:
    # The layout is this function's own; each number is %r of a Python float,
    # the shortest round-trip decimal, which is what json.dumps writes for it.
    parts = iter(t.matrix.view(np.float64).ravel().tolist())
    entries = ", ".join(["[%r, %r]" % pair for pair in zip(parts, parts)])
    text = '{\n  "row_dims": %s,\n  "col_dims": %s,\n  "entries": [%s]\n}\n' % (
        json.dumps(list(t.row_dims)),
        json.dumps(list(t.col_dims)),
        entries,
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict.  A repeated key
    raises ``ValueError`` naming it, where ``json`` would keep its last value
    without a word."""
    last = {key: i for i, (key, _) in enumerate(pairs)}
    if len(last) < len(pairs):
        key = next(key for i, (key, _) in enumerate(pairs) if last[key] != i)
        raise ValueError(f"the field {key!r} appears more than once")
    return dict(pairs)


def load_tensor(path) -> EinsteinTensor:
    """The tensor in the file at ``path``.  A malformed file raises
    ``ValueError``, also one that repeats a field, or one nested beyond the
    JSON decoder's recursion limit, which a tensor file (three levels deep)
    never is."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_fields)
        except RecursionError:
            raise ValueError("the JSON nests too deeply for a tensor file") from None
    return tensor_from_dict(data)


def tensor_from_block_display(display, row_dims, col_dims) -> EinsteinTensor:
    """Tensor transcribed from its interleaved block-matrix display.

    ``display`` is the ``(I1*J1) x (I2*J2)`` nested-list/array rendering of a
    fourth-order tensor with ``row_dims = (I1, I2)`` and
    ``col_dims = (J1, J2)``, laid out as described in the module docstring.
    """
    shape = PairedShape(row_dims, col_dims)
    if len(shape.row_dims) != 2 or len(shape.col_dims) != 2:
        raise ShapeError("block display transcription is defined for 2+2 mode tensors")
    (i1n, i2n), (j1n, j2n) = shape.row_dims, shape.col_dims
    display = _entries(display)
    if display.shape != (i1n * j1n, i2n * j2n):
        raise ShapeError(
            f"display must be {i1n * j1n} x {i2n * j2n}, got {display.shape}"
        )
    # display[i1 + I1*j1, i2 + I2*j2] (0-based) is a_{(i1,i2),(j1,j2)}, and the
    # index map runs fastest over the leading mode: matrix[i1 + I1*i2, j1 + J1*j2].
    mat = display.reshape(j1n, i1n, j2n, i2n).transpose(3, 1, 2, 0)
    return EinsteinTensor(shape, mat.reshape(shape.row_size, shape.col_size))
