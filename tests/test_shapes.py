import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from einalg import (
    EinsteinTensor,
    IndexOutOfRangeError,
    LowRankUpdate,
    PairedShape,
    ShapeError,
    fold,
    identity,
    load_tensor,
    phi_index,
    phi_inverse,
    save_tensor,
    tensor_from_block_display,
    tensor_from_dict,
    zeros,
)


class TestPairedShape:
    def test_sizes(self):
        s = PairedShape((2, 3), (4,))
        assert s.row_size == 6
        assert s.col_size == 4
        assert s.transposed == PairedShape((4,), (2, 3))

    def test_is_square(self):
        # the same modes on both sides, in order: equal sizes are not enough
        assert PairedShape((2, 3), (2, 3)).is_square
        assert not PairedShape((2, 3), (3, 2)).is_square
        assert not PairedShape((6,), (2, 3)).is_square

    def test_one_sided_shapes_allowed(self):
        assert PairedShape((2, 2), ()).col_size == 1
        assert PairedShape((), (3,)).row_size == 1

    @pytest.mark.parametrize(
        "row, col",
        [((), ()), ((0,), (2,)), ((2,), (-1,)), ((2.0,), (2,))],
    )
    def test_invalid_dims_rejected(self, row, col):
        with pytest.raises(ShapeError):
            PairedShape(row, col)

    def test_overflowing_shape_rejected(self):
        with pytest.raises(ShapeError):
            PairedShape((2**40, 2**40), (2**40,))

    def test_numpy_integer_dims_stored_as_ints(self, tmp_path):
        # regression: numpy integers were indices but not dims, so
        # identity(np.array([2, 2])) raised ShapeError
        s = PairedShape((np.int64(2), np.int32(3)), np.array([4], dtype=np.uint8))
        assert s == PairedShape((2, 3), (4,))
        assert all(type(d) is int for d in s.row_dims + s.col_dims)
        t = identity(np.array([2, 2]))
        assert t.row_dims == t.col_dims == (2, 2)
        assert all(type(d) is int for d in t.row_dims + t.col_dims)
        save_tensor(tmp_path / "t.json", t)
        assert load_tensor(tmp_path / "t.json") == t
        one = identity((1,))
        assert type(LowRankUpdate(one, one, one, np.int64(1)).order) is int


#: 10**5000 passes Python's 4300-digit limit for int to str, so a message that
#: formats it raises ValueError unless it is shown by its size
_HUGE = 10**5000
_SHOWN = "<int of more than 4300 digits>"


def _update(order):
    one = identity((1,))
    return LowRankUpdate(one, one, one, order)


def _file(**fields):
    return tensor_from_dict({"row_dims": [1], "col_dims": [1], "entries": [[1.0, 0.0]], **fields})


#: Each public reader of a shape, a dim, an index or an offset, given what
#: it cannot read: the call, the error, and the message it starts with
_SHAPE_AND_INDEX_CASES = {
    "zeros-int": (lambda: zeros(5), ShapeError, "a shape is a PairedShape or a (row_dims, col_dims) pair, got 5"),
    "zeros-three-sides": (lambda: zeros(((1,), (1,), (1,))), ShapeError, "a shape is a PairedShape or"),
    "EinsteinTensor-flat-shape": (lambda: EinsteinTensor((1, 2, 3), [[1]]), ShapeError, "a shape is a PairedShape or"),
    "fold-int": (lambda: fold([[1]], 7), ShapeError, "a shape is a PairedShape or"),
    "PairedShape-int-dims": (lambda: PairedShape(5, (1,)), ShapeError, "row dims must be a sequence of integers, got 5"),
    "PairedShape-none-dim": (lambda: PairedShape((1,), (None,)), ShapeError, "a col dim must be an integer, got None"),
    "PairedShape-huge": (lambda: PairedShape((_HUGE,), (1,)), ShapeError, f"shape ({_SHOWN} | 1) exceeds addressable size"),
    "PairedShape-huge-negative": (lambda: PairedShape((-_HUGE,), (1,)), ShapeError, f"a row dim must be >= 1, got {_SHOWN}"),
    "identity-int": (lambda: identity(5), ShapeError, "row dims must be a sequence of integers, got 5"),
    "block-display-dims": (
        lambda: tensor_from_block_display(np.zeros((4, 4)), (None, 2), (2, 2)),
        ShapeError,
        "a row dim must be an integer, got None",
    ),
    "phi_index-huge": (lambda: phi_index((_HUGE,), (2,)), IndexOutOfRangeError, f"index component 1 is {_SHOWN}"),
    "phi_index-int": (lambda: phi_index(1, (2,)), IndexOutOfRangeError, "a multi-index must be a sequence of integers, got 1"),
    "phi_index-dims": (lambda: phi_index((1,), ("2",)), ShapeError, "a mode dim must be an integer, got '2'"),
    "phi_inverse-huge": (lambda: phi_inverse(_HUGE, (2,)), IndexOutOfRangeError, f"flat offset {_SHOWN} outside 1..2"),
    "phi_inverse-dims": (lambda: phi_inverse(1, 2), ShapeError, "mode dims must be a sequence of integers, got 2"),
    "entry-huge": (lambda: identity((2,)).entry((_HUGE,), (1,)), IndexOutOfRangeError, f"index component 1 is {_SHOWN}"),
    "LowRankUpdate-float-order": (lambda: _update(1.0), ShapeError, "order must be an integer, got 1.0"),
    "LowRankUpdate-huge-order": (
        lambda: _update(_HUGE), ShapeError, f"LowRankUpdate: the number of column modes of u must be {_SHOWN}, got 1"
    ),
    "file-dims": (lambda: _file(row_dims=[_HUGE]), ValueError, f"shape ({_SHOWN} | 1) exceeds addressable size"),
    "file-entry": (
        lambda: _file(entries=[[_HUGE, 0]]), ValueError, "entry 0 is beyond the float range: <list holding an int of more than 4300 digits>"
    ),
}


@pytest.mark.parametrize("name", list(_SHAPE_AND_INDEX_CASES))
def test_shape_or_index_rejected_as_its_error(name):
    # regression: a shape that is not a pair, or dims that are not a
    # sequence, leaked Python's TypeError or ValueError, and a message that
    # formatted a 5000-digit int raised Python's ValueError for its digit
    # limit; the file reader keeps its ValueError, with its own message
    call, error, message = _SHAPE_AND_INDEX_CASES[name]
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


_DIMS = st.lists(st.integers(min_value=1, max_value=5), max_size=4).map(tuple)


class TestTransposed:
    @given(st.tuples(_DIMS, _DIMS).filter(any))
    @example(((2, 3), ()))
    @example(((), (4,)))
    def test_swaps_the_sides(self, dims):
        s = PairedShape(*dims)
        assert s.transposed == PairedShape(s.col_dims, s.row_dims)
        assert s.transposed.transposed == s


class TestPhi:
    def test_first_index_maps_to_one(self):
        assert phi_index((1, 1), (2, 2)) == 1

    def test_last_index_maps_to_size(self):
        assert phi_index((2, 2), (2, 2)) == 4

    def test_first_component_varies_fastest(self):
        # i1 + (i2 - 1) * I1 with i = (1, 2): 1 + 1*2 = 3
        assert phi_index((1, 2), (2, 2)) == 3

    def test_inverse_round_trip_small(self):
        assert phi_inverse(3, (2, 2)) == (1, 2)
        assert phi_inverse(1, (3, 4, 5)) == (1, 1, 1)

    @pytest.mark.parametrize(
        "dims",
        [(2, 3, 2), (1,), (4, 4, 4, 4, 4, 4), (16, 16, 16), (7, 5, 3, 2)],
    )
    def test_bijective_exhaustively(self, dims):
        size = math.prod(dims)
        assert size <= 4096
        seen = set()
        for flat in range(1, size + 1):
            idx = phi_inverse(flat, dims)
            assert phi_index(idx, dims) == flat
            seen.add(idx)
        assert len(seen) == size

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            phi_index((0, 1), (2, 2))
        with pytest.raises(IndexOutOfRangeError):
            phi_index((1, 3), (2, 2))
        with pytest.raises(IndexOutOfRangeError):
            phi_index((1,), (2, 2))
        with pytest.raises(IndexOutOfRangeError):
            phi_inverse(0, (2, 2))
        with pytest.raises(IndexOutOfRangeError):
            phi_inverse(5, (2, 2))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: phi_index((1.5,), (2,)),
            lambda: phi_index((True, 2), (2, 2)),
            lambda: phi_inverse(2.0, (2, 2)),
            lambda: EinsteinTensor(PairedShape((2,), (1,)), [[1.0], [2.0]]).entry((1.5,), (1,)),
        ],
        ids=["float-component", "bool-component", "float-offset", "entry"],
    )
    def test_non_integer_rejected(self, call):
        # regression: a float or bool passed as an index (phi_index returned
        # 1.5, and entry raised numpy's bare IndexError)
        with pytest.raises(IndexOutOfRangeError, match="must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        assert phi_index((np.int64(1), np.int32(2)), (2, 2)) == 3
        assert phi_inverse(np.int64(3), (2, 2)) == (1, 2)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5), st.data())
    def test_round_trip_property(self, dims, data):
        dims = tuple(dims)
        flat = data.draw(st.integers(min_value=1, max_value=math.prod(dims)))
        assert phi_index(phi_inverse(flat, dims), dims) == flat
