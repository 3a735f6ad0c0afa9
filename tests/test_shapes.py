import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from einalg import (
    EinsteinTensor,
    IndexOutOfRangeError,
    PairedShape,
    ShapeError,
    phi_index,
    phi_inverse,
)


class TestPairedShape:
    def test_sizes(self):
        s = PairedShape((2, 3), (4,))
        assert s.row_size == 6
        assert s.col_size == 4
        assert s.transposed == PairedShape((4,), (2, 3))

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
