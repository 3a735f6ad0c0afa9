"""Tensor file round-trips, schema validation, and display transcription."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einalg import (
    EinsteinTensor,
    PairedShape,
    ShapeError,
    load_tensor,
    save_tensor,
    tensor_from_block_display,
    tensor_from_dict,
    tensor_to_dict,
)

from conftest import rand_tensor


def reference_bytes(t):
    """The file as the per-entry writer formats it: json.dumps of nested pairs."""
    data = tensor_to_dict(t)
    return '{\n  "row_dims": %s,\n  "col_dims": %s,\n  "entries": %s\n}\n' % (
        json.dumps(data["row_dims"]),
        json.dumps(data["col_dims"]),
        json.dumps(data["entries"]),
    )


def reference_values(entries):
    """Entries parsed one pair at a time."""
    return np.array([complex(re, im) for re, im in entries], dtype=np.complex128)


class TestRoundTrip:
    def test_dict_round_trip_bit_exact(self, rng):
        t = rand_tensor(rng, (2, 3), (2,))
        assert tensor_from_dict(tensor_to_dict(t)) == t

    def test_file_round_trip_bit_exact(self, tmp_path, rng):
        # shortest-round-trip decimals must survive save/load unchanged,
        # including awkward values
        mat = np.array(
            [[0.1 + 0.3j, 1e-300 - 1e308j], [-0.0 + 7j, math.pi * 1e-17 + 0j]]
        )
        t = EinsteinTensor(PairedShape((2,), (2,)), mat)
        path = tmp_path / "t.json"
        save_tensor(path, t)
        assert load_tensor(path) == t

    def test_golden_bytes(self, tmp_path):
        mat = np.array(
            [[complex(-0.0, 5e-324), complex(1e-300, -1e308)],
             [complex(0.1, 2.0), complex(1e16, math.pi * 1e-17)]]
        )
        path = tmp_path / "t.json"
        save_tensor(path, EinsteinTensor(PairedShape((2,), (2,)), mat))
        assert path.read_bytes() == (
            b'{\n  "row_dims": [2],\n  "col_dims": [2],\n  "entries": '
            b'[[-0.0, 5e-324], [1e-300, -1e+308], [0.1, 2.0], [1e+16, 3.1415926535897935e-17]]'
            b'\n}\n'
        )

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
        data=st.data(),
    )
    def test_file_round_trip_keeps_every_bit(self, tmp_path_factory, dims, data):
        rows, cols = (dims[0], dims[1]), (dims[2],)
        n = 2 * math.prod(rows) * math.prod(cols)
        parts = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
            min_size=n, max_size=n,
        ))
        mat = np.array(parts).view(np.complex128).reshape(math.prod(rows), math.prod(cols))
        t = EinsteinTensor(PairedShape(rows, cols), mat)
        path = tmp_path_factory.mktemp("rt") / "t.json"
        save_tensor(path, t)
        assert path.read_text(encoding="utf-8") == reference_bytes(t)
        back = load_tensor(path)
        # == treats -0.0 and 0.0 as equal; the bit patterns do not
        assert np.array_equal(back.matrix.view(np.uint64), t.matrix.view(np.uint64))
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
        assert np.array_equal(
            reference_values(entries).view(np.uint64), back.matrix.ravel().view(np.uint64)
        )

    def test_file_is_valid_json_with_exact_fields(self, tmp_path, rng):
        t = rand_tensor(rng, (2,), (2,), real=True)
        path = tmp_path / "t.json"
        save_tensor(path, t)
        data = json.loads(path.read_text())
        assert set(data) == {"row_dims", "col_dims", "entries"}
        assert data["row_dims"] == [2]
        assert len(data["entries"]) == 4
        assert all(len(pair) == 2 for pair in data["entries"])


class TestValidation:
    def base(self):
        return {"row_dims": [2], "col_dims": [2], "entries": [[1.0, 0.0]] * 4}

    def test_missing_field(self):
        data = self.base()
        del data["entries"]
        with pytest.raises(ValueError):
            tensor_from_dict(data)

    def test_unexpected_field(self):
        data = self.base()
        data["extra"] = 1
        with pytest.raises(ValueError):
            tensor_from_dict(data)

    def test_wrong_entry_count(self):
        data = self.base()
        data["entries"] = data["entries"][:3]
        with pytest.raises(ValueError):
            tensor_from_dict(data)

    def test_malformed_pair(self):
        data = self.base()
        data["entries"][2] = [1.0]
        with pytest.raises(ValueError):
            tensor_from_dict(data)
        data["entries"][2] = [1.0, "x"]
        with pytest.raises(ValueError):
            tensor_from_dict(data)

    @pytest.mark.parametrize(
        "pair", [[True, 0.0], [1.0, "2"], (1.0, 2.0), [1.0, None], [1.0, 2.0, 3.0]]
    )
    def test_rejected_pair_is_named(self, pair):
        data = self.base()
        data["entries"][2] = pair
        with pytest.raises(ValueError, match=r"entry 2 "):
            tensor_from_dict(data)

    @pytest.mark.parametrize("big", [10**400, -(10**309)], ids=["1e400", "-1e309"])
    def test_integer_beyond_float_range_is_named(self, big):
        # regression: the float conversion raised OverflowError, not ValueError
        data = self.base()
        data["entries"][3] = [1.0, big]
        with pytest.raises(ValueError, match=r"entry 3 is beyond the float range"):
            tensor_from_dict(data)

    def test_numpy_floats_accepted(self):
        data = self.base()
        data["entries"] = [[np.float64(k), np.float64(-k)] for k in range(4)]
        t = tensor_from_dict(data)
        assert np.array_equal(t.matrix.ravel(), [k - 1j * k for k in range(4)])

    def test_non_integer_dims(self):
        data = self.base()
        data["row_dims"] = [2.0]
        with pytest.raises(ValueError):
            tensor_from_dict(data)
        data["row_dims"] = 2
        with pytest.raises(ValueError, match="row_dims must be a list of integers"):
            tensor_from_dict(data)

    def test_non_finite_entry(self):
        data = self.base()
        data["entries"][0] = [float("inf"), 0.0]
        with pytest.raises(ValueError):
            tensor_from_dict(data)

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            tensor_from_dict([1, 2, 3])

    def test_deeply_nested_file(self, tmp_path):
        # regression: the JSON decoder's RecursionError escaped load_tensor
        path = tmp_path / "deep.json"
        path.write_text('{"row_dims": [1], "col_dims": [1], "entries": %s}' % ("[" * 5000))
        with pytest.raises(ValueError, match="nests too deeply"):
            load_tensor(path)

    def test_repeated_field(self, tmp_path):
        # regression: json keeps the later value, so this file read as a
        # (3 | 2) tensor, or failed on its entry count, without naming the field
        path = tmp_path / "twice.json"
        path.write_text(
            '{"row_dims": [2], "row_dims": [3], "col_dims": [2], "entries": %s}'
            % ([[1.0, 0.0]] * 6)
        )
        with pytest.raises(ValueError, match="^the field 'row_dims' appears more than once$"):
            load_tensor(path)


class TestBlockDisplay:
    def test_diagonal_entries_agree_with_flat_layout(self):
        # entries with i2 == j1 sit at the same spot in both conventions
        disp = np.zeros((4, 4))
        disp[0, 0] = 5.0
        t = tensor_from_block_display(disp, (2, 2), (2, 2))
        assert t.entry((1, 1), (1, 1)) == 5.0
        assert t.matrix[0, 0] == 5.0

    def test_off_diagonal_entries_move(self):
        # display row 1, col 2 holds a_{(1,2),(1,1)}, which lands at flattened
        # row 1 + 2*(2-1) = 3, column 1
        disp = np.zeros((4, 4))
        disp[0, 1] = 7.0
        t = tensor_from_block_display(disp, (2, 2), (2, 2))
        assert t.entry((1, 2), (1, 1)) == 7.0
        assert t.matrix[2, 0] == 7.0
        assert t.matrix[0, 1] == 0.0

    def test_worked_example_block_rule(self, example_a):
        # display row 4, col 3 is entry a_{(2,1),(2,2)}: flattened (2, 4)
        assert example_a.entry((2, 1), (2, 2)) == 1.0
        assert example_a.matrix[1, 3] == 1.0

    def test_singleton_mode_displays_degenerate(self):
        t = tensor_from_block_display([[0, 1], [0, 2]], (2, 2), (1, 1))
        assert t.entry((1, 2), (1, 1)) == 1.0
        assert t.entry((2, 2), (1, 1)) == 2.0
        assert np.array_equal(t.matrix.real.ravel(), [0, 0, 1, 2])

    def test_wrong_display_size(self):
        with pytest.raises(ShapeError):
            tensor_from_block_display(np.zeros((2, 4)), (2, 2), (2, 2))

    def test_only_two_plus_two_modes(self):
        with pytest.raises(ShapeError):
            tensor_from_block_display(np.zeros((2, 2)), (2,), (2,))
