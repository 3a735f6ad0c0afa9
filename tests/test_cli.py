"""Command-line behavior: exit codes, outputs, determinism.

Commands run in-process through ``main(argv)``, which returns the exit code;
one test drives the installed console entry through a subprocess to cover the
packaging surface.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einalg
from einalg import (
    EinsteinTensor,
    PairedShape,
    fro_norm,
    inverse,
    is_invertible,
    load_tensor,
    save_tensor,
    verify_penrose,
    zeros,
)
from einalg import cli, woodbury
from einalg.cli import main

from conftest import (
    CAPACITANCE_OVERFLOWS,
    COND1E6_REL,
    FIXTURES_DIR,
    ILL_CONDITIONED_BASES,
    cond1e6_base,
    conditioned_tensor,
    rand_tensor,
)

FIX = FIXTURES_DIR


def run(*argv):
    return main([str(a) for a in argv])


def strict_json(text):
    """``json.loads`` that rejects the non-standard ``NaN`` and ``Infinity``."""
    def reject(name):
        raise ValueError(f"not RFC 8259 JSON: {name}")

    return json.loads(text, parse_constant=reject)


class TestPinvCommand:
    def test_worked_example(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run("pinv", FIX / "a.json", "-o", out) == 0
        got = load_tensor(out)
        want = load_tensor(FIX / "a_pinv.json")
        assert np.allclose(got.matrix, want.matrix, atol=1e-10)
        err = capsys.readouterr().err
        assert "penrose residuals:" in err

    def test_repeated_runs_byte_identical(self, tmp_path):
        # the computed entries carry ulp-level deviations from the exact
        # rationals (so they cannot reproduce the fixture file bytes), but the
        # command itself is deterministic
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert run("pinv", FIX / "a.json", "-o", first) == 0
        assert run("pinv", FIX / "a.json", "-o", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_zero_tensor(self, tmp_path):
        src = tmp_path / "z.json"
        save_tensor(src, zeros(((2, 3), (2,))))
        out = tmp_path / "out.json"
        assert run("pinv", src, "-o", out) == 0
        got = load_tensor(out)
        assert got.shape.row_dims == (2,)
        assert got.shape.col_dims == (2, 3)
        assert fro_norm(got) == 0.0

    def test_failed_penrose_check_exits_1(self, tmp_path, capsys):
        # a truncation tolerance this large drops real singular values, so
        # rule 1 (a x a = a) fails; the result is still written
        out = tmp_path / "out.json"
        assert run("pinv", FIX / "a.json", "--tol", "1e15", "-o", out) == 1
        assert load_tensor(out).shape == load_tensor(FIX / "a.json").shape.transposed
        assert "penrose residuals:" in capsys.readouterr().err

    def test_huge_dynamic_range_residuals_finite(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        save_tensor(src, EinsteinTensor(((2,), (2,)), np.diag([1e200, 1e-200])))
        out = tmp_path / "out.json"
        assert run("pinv", src, "-o", out) == 0
        err = capsys.readouterr().err
        residuals = [float(r) for r in err.split("penrose residuals:")[1].split()]
        assert len(residuals) == 4
        assert all(np.isfinite(r) for r in residuals)
        assert np.allclose(
            load_tensor(out).matrix, np.diag([1e-200, 0.0]), rtol=1e-15, atol=0.0
        )

    def test_svd_failure_exits_3(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert run("pinv", FIX / "a.json", "-o", tmp_path / "out.json") == 3

    def test_overflowing_pseudoinverse_exits_3(self, tmp_path, capsys):
        # regression: 1 / 5e-324 overflowed with a warning in the kernel, and
        # the non-finite result was reported as an input error (exit 2)
        src = tmp_path / "a.json"
        save_tensor(src, EinsteinTensor(((1,), (1,)), [[5e-324]]))
        assert run("pinv", src, "-o", tmp_path / "out.json") == 3
        assert "numerical error: pinv overflowed" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_singular_value_beyond_float_range_exits_3(self, tmp_path, capsys):
        # regression: sigma_max of this finite rank-1 tensor is inf, the rank
        # rule cut every value, and the zero tensor was written (exit 1)
        src = tmp_path / "a.json"
        save_tensor(src, EinsteinTensor(((2,), (2,)), np.full((2, 2), 1e308)))
        assert run("pinv", src, "-o", tmp_path / "out.json") == 3
        assert "numerical error: SVD of a 2 x 2 matrix overflowed" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        # regression: the float conversion's OverflowError escaped as a traceback
        src = tmp_path / "a.json"
        src.write_text('{"row_dims": [1], "col_dims": [2], "entries": [[1, 0], [1%s, 0]]}'
                       % ("0" * 400))
        assert run("pinv", src, "-o", tmp_path / "out.json") == 2
        err = capsys.readouterr().err
        assert f"einalg: error: {src}: entry 1 is beyond the float range" in err

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("pinv", bad, "-o", tmp_path / "out.json") == 2

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # regression: the decoder's RecursionError escaped as a traceback with
        # exit 1, the status of a failed verification
        bad = tmp_path / "deep.json"
        bad.write_text('{"row_dims": [1], "col_dims": [1], "entries": %s}' % ("[" * 5000))
        assert run("pinv", bad, "-o", tmp_path / "out.json") == 2
        assert f"einalg: error: {bad}: the JSON nests too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_repeated_field_exits_2(self, tmp_path, capsys):
        # regression: json kept the later row_dims, and the error named the
        # entry count instead
        bad = tmp_path / "twice.json"
        bad.write_text(
            '{"row_dims": [2], "row_dims": [3], "col_dims": [2], "entries": %s}'
            % ([[1.0, 0.0]] * 4)
        )
        assert run("pinv", bad, "-o", tmp_path / "out.json") == 2
        err = capsys.readouterr().err
        assert f"einalg: error: {bad}: the field 'row_dims' appears more than once" in err
        assert not (tmp_path / "out.json").exists()

    def test_schema_violation_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"row_dims": [2], "col_dims": [2], "entries": []}')
        assert run("pinv", bad, "-o", tmp_path / "out.json") == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run("pinv", tmp_path / "nope.json", "-o", tmp_path / "out.json") == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        assert run("pinv", FIX / "a.json", "-o", tmp_path / "missing" / "x.json") == 2
        assert "einalg: error:" in capsys.readouterr().err


class TestSmwCommand:
    def test_example1_pinv_mode(self, tmp_path):
        out = tmp_path / "s_pinv.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "pinv", "-o", out,
        )
        assert code == 0
        got = load_tensor(out)
        want = load_tensor(FIX / "example1_s_pinv.json")
        assert np.allclose(got.matrix, want.matrix, atol=1e-10)
        report = json.loads((tmp_path / "s_pinv.json.report.json").read_text())
        assert report["applicable"] is True
        assert set(report["residuals"]) == {"3.1", "3.2", "3.3", "4.1", "4.2", "4.3"}

    def test_example2_pinv_mode(self, tmp_path):
        out = tmp_path / "s_pinv.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example2_u.json", FIX / "b.json",
            FIX / "example2_v.json", "--mode", "pinv", "-o", out,
        )
        assert code == 0
        got = load_tensor(out)
        want = load_tensor(FIX / "example2_s_pinv.json")
        assert np.allclose(got.matrix, want.matrix, atol=1e-10)

    def test_example1_orthogonal_mode(self, tmp_path):
        out = tmp_path / "s_pinv.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "orthogonal", "-o", out,
            "--report", tmp_path / "rep.json",
        )
        assert code == 0
        got = load_tensor(out)
        want = load_tensor(FIX / "example1_s_pinv.json")
        assert np.allclose(got.matrix, want.matrix, atol=1e-10)
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["path"] == "identity"
        assert report["applicable"] is True

    def test_example2_orthogonal_mode_falls_back(self, tmp_path):
        # example 2 has nonzero column-space parts, so the orthogonal identity
        # does not apply; the six-condition identity wrote the (correct) result
        out = tmp_path / "s_pinv.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example2_u.json", FIX / "b.json",
            FIX / "example2_v.json", "--mode", "orthogonal", "-o", out,
        )
        assert code == 4
        got = load_tensor(out)
        want = load_tensor(FIX / "example2_s_pinv.json")
        assert np.allclose(got.matrix, want.matrix, atol=1e-10)
        report = json.loads((tmp_path / "s_pinv.json.report.json").read_text())
        assert report["applicable"] is False
        assert report["path"] == "identity"
        assert verify_penrose(load_tensor(FIX / "example2_s.json"), got, tol=1e-8).passed

    def test_zero_middle_factor_falls_back(self, tmp_path):
        z = tmp_path / "zero_b.json"
        save_tensor(z, zeros(((1, 1), (1, 1))))
        out = tmp_path / "out.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example2_u.json", z,
            FIX / "example2_v.json", "--mode", "pinv", "-o", out,
        )
        assert code == 4
        # fallback result must still be a valid pseudoinverse of a + u*0*v = a
        got = load_tensor(out)
        base = load_tensor(FIX / "a.json")
        assert verify_penrose(base, got, tol=1e-8).passed
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "fallback"

    def test_invertible_mode(self, tmp_path, rng):
        from einalg import EinsteinTensor

        a = rand_tensor(rng, (2, 2), (2, 2))
        a_path = tmp_path / "a.json"
        save_tensor(a_path, EinsteinTensor(a.shape, a.matrix + 4.0 * np.eye(4)))
        u = rand_tensor(rng, (2, 2), (1,))
        v = rand_tensor(rng, (1,), (2, 2))
        b = EinsteinTensor(((1,), (1,)), [[3.5 + 0.2j]])
        for name, t in [("u", u), ("v", v), ("b", b)]:
            save_tensor(tmp_path / f"{name}.json", t)
        out = tmp_path / "s_inv.json"
        code = run(
            "smw", a_path, tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "invertible", "-o", out,
        )
        assert code == 0
        from einalg import LowRankUpdate, apply_update, inverse, load_tensor as lt

        s = apply_update(lt(a_path), LowRankUpdate(u=u, b=b, v=v, order=1))
        want = inverse(s)
        assert fro_norm(lt(out) - want) <= 1e-8 * fro_norm(want)

    def test_column_space_update_with_subnormal_middle_factor_exits_0(self, tmp_path):
        # regression: b^+ of b = 5e-324 overflows, but with u and v^H inside
        # a's column spaces the capacitance step runs, which needs no b^+;
        # this exited 3
        b = tmp_path / "b.json"
        save_tensor(b, EinsteinTensor(((1, 1), (1, 1)), [[5e-324]]))
        out = tmp_path / "out.json"
        names = [FIX / "a.json", FIX / "example2_x1.json", b, FIX / "example2_x2h.json"]
        code = run("smw", *names, "--mode", "pinv", "-o", out)
        assert code == 0
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "capacitance"
        a, u, b, v = (load_tensor(name).matrix for name in names)
        want = np.linalg.pinv(a + u @ b @ v)
        got = load_tensor(out).matrix
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_full_rank_base_takes_capacitance(self, tmp_path):
        # an invertible base leaves no null-space part: the pseudoinverse mode
        # inverts the K x K C = I + b v a^+ u, and exits 0 (it exited 4); the
        # invertible mode runs the same step on inverse(a), the same bits, so
        # both modes write the same files
        names = [FIX / "example1_s.json", FIX / "example1_u.json", FIX / "b.json",
                 FIX / "example1_v.json"]
        a, u, b, v = (load_tensor(name).matrix for name in names)
        want = np.linalg.inv(a + u @ b @ v)
        written = {}
        for mode in ("pinv", "invertible"):
            out = tmp_path / f"{mode}.json"
            assert run("smw", *names, "--mode", mode, "-o", out) == 0
            report_file = tmp_path / f"{mode}.json.report.json"
            report = strict_json(report_file.read_text())
            assert report["path"] == "capacitance" and report["applicable"] is True
            assert set(report["residuals"]) == {"C"} and report["residuals"]["C"] <= report["tol"]
            assert np.allclose(load_tensor(out).matrix, want, atol=1e-10)
            written[mode] = out.read_bytes(), report_file.read_bytes()
        assert written["invertible"] == written["pinv"]

    def test_singular_capacitance_writes_null(self, tmp_path):
        # C = 1 + b v a^+ u = 0: the rank rule drops C's rank, the residual is
        # inf, and the report writes it as null
        e1 = np.array([[1.0], [0.0]])
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), e1))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[-1.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), e1.T))
        for mode in ("pinv", "invertible"):
            code = run(
                "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
                tmp_path / "v.json", "--mode", mode, "-o", tmp_path / "out.json",
            )
            assert code == 4
            report = strict_json((tmp_path / "out.json.report.json").read_text())
            assert report["residuals"] == {"C": None}
            assert report["path"] == "fallback" and report["applicable"] is False

    @pytest.mark.parametrize("u, b, v, what", CAPACITANCE_OVERFLOWS)
    def test_capacitance_overflow_exits_3(self, tmp_path, capsys, u, b, v, what):
        # finite inputs on an invertible base; C = I + b v a^+ u, or the
        # factor -(C^-1 b) v a^+, overflows
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), np.array(u)[:, None]))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[b]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), np.array(v)[None, :]))
        code = run(
            "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "pinv", "-o", tmp_path / "out.json",
        )
        assert code == 3
        assert f"numerical error: update_pinv overflowed: the {what}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_overflow_in_update_exits_3(self, tmp_path, overflow_update):
        # finite inputs; the update overflows inside the split, which is a
        # numerical failure, not an input error
        for name, t in overflow_update.items():
            save_tensor(tmp_path / f"{name}.json", t)
        code = run(
            "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "pinv", "-o", tmp_path / "out.json",
        )
        assert code == 3

    def test_invertible_overflow_exits_3(self, tmp_path):
        # finite inputs; the capacitance v a^-1 u overflows
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), np.full((2, 1), 1e200)))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[1.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), np.full((1, 2), 1e200)))
        code = run(
            "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "invertible", "-o", tmp_path / "out.json",
        )
        assert code == 3

    def test_invertible_overflowing_base_inverse_exits_3(self, tmp_path, capsys):
        # regression: inverse(a) of a subnormal base overflowed with a warning
        # and was reported as an input error (exit 2)
        argv = self.invertible_argv(tmp_path)
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2) * 1e-310))
        assert run(*argv) == 3
        assert "numerical error: inverse overflowed" in capsys.readouterr().err

    @staticmethod
    def invertible_argv(tmp_path):
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), [[0.5], [0.25]]))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[1.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), [[0.5, 0.25]]))
        return [
            "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "invertible", "-o", tmp_path / "out.json",
        ]

    def test_invertible_mode_writes_report(self, tmp_path):
        # the report of the pseudoinverse modes, with C's residual and the
        # capacitance path; C = 1 + (0.5, 0.25) (0.5, 0.25)^T = 1.3125
        rep = tmp_path / "rep.json"
        assert run(*self.invertible_argv(tmp_path), "--report", rep) == 0
        # C's residual is the larger of the split's floor, 2 max(m, n) 2**-52
        # |a|_F |a^-1|_F = 2 * 2 2**-52 sqrt(2) sqrt(2) (to the last bit of
        # sqrt(2)), and the rank floor 2**-52 (|I| + |b v a^-1 u|) = 2**-52
        # (1 + 0.3125) over C's one singular value, 1.3125
        assert json.loads(rep.read_text()) == {
            "residuals": {"C": pytest.approx(8 * 2.0**-52, rel=1e-15, abs=0.0)},
            "applicable": True,
            "path": "capacitance",
            "tol": woodbury.CONDITION_TOL,
        }
        want = np.eye(2) - np.outer([0.5, 0.25], [0.5, 0.25]) / 1.3125
        assert np.allclose(load_tensor(tmp_path / "out.json").matrix, want, atol=1e-15)

    def test_invertible_mode_tol_gates_the_capacitance(self, tmp_path):
        # the split's floor is above --tol 0, so C is not formed:
        # the direct pseudoinverse is written and the command exits 4, as the
        # pinv mode does on the same files
        assert run(*self.invertible_argv(tmp_path), "--tol", "0") == 4
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report == {
            "residuals": {"C": pytest.approx(8 * 2.0**-52, rel=1e-15, abs=0.0)},
            "applicable": False,
            "path": "fallback",
            "tol": 0.0,
        }
        want = np.eye(2) - np.outer([0.5, 0.25], [0.5, 0.25]) / 1.3125
        assert np.allclose(load_tensor(tmp_path / "out.json").matrix, want, atol=1e-15)

    @pytest.mark.parametrize("mode", ["pinv", "invertible"])
    def test_base_of_the_largest_floats_takes_the_capacitance(self, tmp_path, mode):
        # regression: the rank floor of a = diag(1.2e308, 1.2e308) overflowed,
        # so the pinv mode took a^+ = 0 and wrote diag(1e-306, 0) on the
        # identity path, and the invertible mode exited 3
        argv = self.invertible_argv(tmp_path)
        argv[argv.index("--mode") + 1] = mode
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.diag([1.2e308] * 2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), [[1e153], [0.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), [[1e153, 0.0]]))
        assert run(*argv) == 0
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "capacitance" and report["applicable"] is True
        want = np.diag([1 / 1.21e308, 1 / 1.2e308])
        assert np.allclose(load_tensor(tmp_path / "out.json").matrix, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("base, rel", ILL_CONDITIONED_BASES)
    def test_ill_conditioned_base_falls_back(self, tmp_path, rng, base, rel):
        # neither projection residue nor a split floor above |u| may pass for
        # a usable split (see test_woodbury.py); the file holds the direct
        # pseudoinverse
        from einalg import LowRankUpdate, apply_update

        dims = (4, 4)
        t = {
            "a": base(rng),
            "u": rand_tensor(rng, dims, (1,)),
            "b": rand_tensor(rng, (1,), (1,)),
            "v": rand_tensor(rng, (1,), dims),
        }
        paths = [tmp_path / f"{name}.json" for name in t]
        for path, tensor in zip(paths, t.values()):
            save_tensor(path, tensor)
        s = apply_update(t["a"], LowRankUpdate(u=t["u"], b=t["b"], v=t["v"], order=1))
        want = np.linalg.pinv(s.matrix)
        # the invertible mode is the pinv mode on inverse(a), which raises on
        # the singular base
        for mode in ("pinv", "invertible"):
            out = tmp_path / f"{mode}.json"
            code = run("smw", *paths, "--mode", mode, "-o", out)
            if mode == "invertible" and not is_invertible(t["a"]):
                assert code == 3
                continue
            assert code == 4
            report = json.loads((tmp_path / f"{mode}.json.report.json").read_text())
            assert report["path"] == "fallback"
            got = load_tensor(out).matrix
            assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)

    def test_cond1e6_base_takes_capacitance(self, tmp_path, rng):
        # the split's floor is below the tolerance at cond 1e6: the
        # file holds the capacitance result, and the command exits 0
        from einalg import LowRankUpdate, apply_update

        dims = (4, 4)
        t = {
            "a": cond1e6_base(rng),
            "u": rand_tensor(rng, dims, (1,)),
            "b": rand_tensor(rng, (1,), (1,)),
            "v": rand_tensor(rng, (1,), dims),
        }
        paths = [tmp_path / f"{name}.json" for name in t]
        for path, tensor in zip(paths, t.values()):
            save_tensor(path, tensor)
        out = tmp_path / "out.json"
        assert run("smw", *paths, "--mode", "pinv", "-o", out) == 0
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "capacitance"
        s = apply_update(t["a"], LowRankUpdate(u=t["u"], b=t["b"], v=t["v"], order=1))
        want = np.linalg.pinv(s.matrix)
        got = load_tensor(out).matrix
        assert np.linalg.norm(got - want) <= COND1E6_REL * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(2,), (4,), (2, 2), (4, 4), (8, 8)]),
        st.integers(1, 3),
        st.floats(0.0, 12.0),
        st.sampled_from(["generic", "singular", "cond1e10"]),
    )
    def test_invertible_mode_is_pinv_mode_on_invertible_base(self, seed, dims, k, log_cond, b_kind):
        # inverse(a) and pinv(a) are the same bits on an invertible base, so
        # the two modes run the same update_pinv call: the same exit code,
        # file and report, whichever path ran
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        if b_kind == "cond1e10":
            b = conditioned_tensor(rng, (k,), k, 1e10)
        else:
            b = rand_tensor(rng, (k,), (k,)).matrix.copy()
            if b_kind == "singular":
                b[:, 0] = 0.0
            b = EinsteinTensor(PairedShape((k,), (k,)), b)
        t = {
            "a": conditioned_tensor(rng, dims, n, 10.0**log_cond),
            "u": rand_tensor(rng, dims, (k,)),
            "b": b,
            "v": rand_tensor(rng, (k,), dims),
        }
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = [tmp / f"{name}.json" for name in t]
            for path, tensor in zip(paths, t.values()):
                save_tensor(path, tensor)
            got = {}
            for mode in ("pinv", "invertible"):
                out = tmp / f"{mode}.json"
                code = run("smw", *paths, "--mode", mode, "-o", out, "--report", tmp / f"{mode}.rep")
                got[mode] = code, out.read_bytes(), (tmp / f"{mode}.rep").read_bytes()
        assert got["invertible"] == got["pinv"]

    def test_invertible_mode_singular_base_exits_3(self, tmp_path):
        out = tmp_path / "out.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "invertible", "-o", out,
        )
        assert code == 3

    def test_invertible_mode_zero_middle_factor_gives_base_inverse(self, tmp_path):
        # C = I + b (v a^-1 u) needs no b^-1: b = 0 makes C = I and the
        # correction an exact zero
        e1 = np.array([[1.0], [0.0]])
        a = EinsteinTensor(((2,), (2,)), [[2.0, 1.0], [0.5, 3.0]])
        save_tensor(tmp_path / "a.json", a)
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), e1))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[0.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), e1.T))
        code = run(
            "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "invertible", "-o", tmp_path / "out.json",
        )
        assert code == 0
        assert np.array_equal(load_tensor(tmp_path / "out.json").matrix, inverse(a).matrix)
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "capacitance"

    @pytest.mark.parametrize(
        "b, u",
        [
            # b^-1 = 2**1074 overflows; b = 0, which has none, is tested above
            pytest.param([[5e-324]], [[1.0], [0.0]], id="subnormal"),
            # b^-1 + v a^-1 u has cond 1e10, so its residual was above --tol
            pytest.param([[1.0, 0.0], [0.0, 1e-10]], [[0.5, 0.25], [0.25, 0.5]], id="cond1e10"),
        ],
    )
    def test_invertible_mode_takes_no_middle_inverse(self, tmp_path, b, u):
        # regression: b was inverted first, which failed or lost digits on
        # inputs the pseudoinverse modes handle; a = I_2, v = u^T
        u = np.array(u)
        k = u.shape[1]
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (k,)), u))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((k,), (k,)), b))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((k,), (2,)), u.T))
        code = run(
            "smw", tmp_path / "a.json", tmp_path / "u.json", tmp_path / "b.json",
            tmp_path / "v.json", "--mode", "invertible", "-o", tmp_path / "out.json",
        )
        assert code == 0
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "capacitance"
        assert report["residuals"]["C"] <= report["tol"]
        s = np.eye(2) + u @ np.array(b) @ u.T
        want = np.linalg.inv(s)
        got = load_tensor(tmp_path / "out.json").matrix
        assert np.linalg.norm(got - want) <= 64 * np.linalg.cond(s) * 2.0**-52 * np.linalg.norm(want)

    def test_hermitian_mode_requires_hermitian_base(self, tmp_path):
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "hermitian",
            "-o", tmp_path / "out.json",
        )
        assert code == 2

    def test_hermitian_mode_rejects_u_beyond_the_float_range(self, tmp_path, capsys):
        # regression: |u| and |u - v^H| both overflow to inf, and their nan
        # ratio passed the u == v^H requirement, so the command exited 0
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), [[1.5e308], [1.5e308]]))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[1.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), [[1e-300, 0.0]]))
        code = run(
            "smw", *(tmp_path / f"{name}.json" for name in "aubv"), "--mode", "hermitian",
            "-o", tmp_path / "out.json",
        )
        assert code == 2
        assert "hermitian mode needs a Hermitian base tensor and u == v^H" in capsys.readouterr().err

    def test_hermitian_mode_deviation_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        # regression: u - v^H was built as a tensor, whose add refused the
        # overflow, so an input that only fails the precondition exited 3
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), [[1e308], [0.0]]))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[1.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (2,)), [[-1e308, 0.0]]))
        out = tmp_path / "out.json"
        code = run("smw", *(tmp_path / f"{name}.json" for name in "aubv"), "--mode", "hermitian", "-o", out)
        assert code == 2
        assert "hermitian mode needs a Hermitian base tensor and u == v^H" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.json", "u.json", "v.json"]

    @pytest.mark.parametrize("v_cols", [3, 1])
    def test_hermitian_mode_refuses_u_and_v_adjoint_of_other_shapes(self, tmp_path, capsys, v_cols):
        # regression: u - v^H was compared as matrices before any shape
        # check, so v on (1,)|(3,) raised numpy's broadcast ValueError (a
        # traceback) and v on (1,)|(1,) was broadcast against u
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), np.eye(2)))
        save_tensor(tmp_path / "u.json", EinsteinTensor(((2,), (1,)), [[1.0], [1.0]]))
        save_tensor(tmp_path / "b.json", EinsteinTensor(((1,), (1,)), [[1.0]]))
        save_tensor(tmp_path / "v.json", EinsteinTensor(((1,), (v_cols,)), np.ones((1, v_cols))))
        out = tmp_path / "out.json"
        code = run("smw", *(tmp_path / f"{name}.json" for name in "aubv"), "--mode", "hermitian", "-o", out)
        assert code == 2
        err = capsys.readouterr().err
        assert f"update_pinv: the shape of u b v must be (2 | 2), got (2 | {v_cols})" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.json", "u.json", "v.json"]

    @staticmethod
    def hermitian_files(tmp_path, rng):
        """Hermitian rank-3 base and ``u = v^H`` in its null space, saved as
        files; returns the tensors and the four paths in ``smw`` order."""
        g = rand_tensor(rng, (2, 2), (2, 2))
        mat = g.matrix.copy()
        mat[:, 3] = 0.0
        mat[3, :] = 0.0
        mat = mat + mat.conj().T
        a = EinsteinTensor(PairedShape((2, 2), (2, 2)), mat)
        y_mat = np.zeros((4, 1), dtype=complex)
        y_mat[3, 0] = 2.0
        u = EinsteinTensor(PairedShape((2, 2), (1,)), y_mat)
        b = EinsteinTensor(PairedShape((1,), (1,)), [[1.5]])
        tensors = {"a": a, "u": u, "b": b, "v": u.H}
        for name, t in tensors.items():
            save_tensor(tmp_path / f"{name}.json", t)
        return tensors, [tmp_path / f"{name}.json" for name in tensors]

    def test_hermitian_mode(self, tmp_path, rng):
        from einalg import LowRankUpdate, apply_update

        t, paths = self.hermitian_files(tmp_path, rng)
        out = tmp_path / "out.json"
        code = run("smw", *paths, "--mode", "hermitian", "-o", out)
        assert code == 0
        s = apply_update(t["a"], LowRankUpdate(u=t["u"], b=t["b"], v=t["v"], order=1))
        got = load_tensor(out)
        assert verify_penrose(s, got, tol=1e-8).passed

    def test_one_orchestrator_per_mode(self, tmp_path, rng, monkeypatch):
        # every pseudoinverse mode is one update_pinv call, which splits once
        _, paths = self.hermitian_files(tmp_path, rng)
        calls = []
        for name in ("update_pinv", "_decompose"):
            original = getattr(woodbury, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(woodbury, name, counted)
        outputs = {}
        for mode in ("pinv", "orthogonal", "hermitian"):
            calls.clear()
            out = tmp_path / f"{mode}.json"
            assert run("smw", *paths, "--mode", mode, "-o", out) == 0
            assert sorted(calls) == ["_decompose", "update_pinv"]
            outputs[mode] = load_tensor(out).matrix
        want = outputs["pinv"]
        assert np.linalg.norm(outputs["hermitian"] - want) <= 1e-12 * np.linalg.norm(want)

    def test_shape_mismatch_exits_2(self, tmp_path):
        code = run(
            "smw", FIX / "d.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "pinv", "-o", tmp_path / "out.json",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "report, output",
        [("missing/r.json", "out.json"), ("r.json", "missing/out.json")],
        ids=["report", "output"],
    )
    def test_unwritable_path_writes_neither_file(self, tmp_path, capsys, report, output):
        # regression: an unwritable --report exited 2 with the -o tensor
        # already written
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "-o", tmp_path / output, "--report", tmp_path / report,
        )
        assert code == 2
        assert "einalg: error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []


class TestSolveCommand:
    def test_identity_coefficient(self, tmp_path, rng, capsys):
        from einalg import identity

        a_path = tmp_path / "a.json"
        save_tensor(a_path, identity([2, 2]))
        d = rand_tensor(rng, (2, 2), (1, 1))
        d_path = tmp_path / "d.json"
        save_tensor(d_path, d)
        out = tmp_path / "x.json"
        assert run("solve", a_path, d_path, "-o", out) == 0
        assert np.allclose(load_tensor(out).matrix, d.matrix, atol=1e-12)
        assert "consistent: true" in capsys.readouterr().out

    def test_worked_system_is_inconsistent(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run("solve", FIX / "a.json", FIX / "d.json", "-o", out)
        assert code == 5
        got = load_tensor(out)
        assert np.allclose(got.matrix.ravel(), [1.0, 3.0, -0.5, 0.5], atol=1e-12)
        assert "consistent: false" in capsys.readouterr().out

    def test_shape_mismatch_exits_2(self, tmp_path):
        assert run("solve", FIX / "a.json", FIX / "b.json", "-o", tmp_path / "x.json") == 2

    def test_overflowing_solution_exits_3(self, tmp_path, capsys):
        # regression: x = a^+ d of finite inputs overflowed with a warning and
        # was reported as an input error (exit 2)
        save_tensor(tmp_path / "a.json", EinsteinTensor(((2,), (2,)), 1e-300 * np.eye(2)))
        save_tensor(tmp_path / "d.json", EinsteinTensor(((2,), (1,)), [[1e10], [1.0]]))
        out = tmp_path / "x.json"
        assert run("solve", tmp_path / "a.json", tmp_path / "d.json", "-o", out) == 3
        assert "numerical error: solve (x = a^+ d) overflowed" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def sweep_args(self, out):
        return [
            "sweep", FIX / "a.json", FIX / "d.json",
            "--eps-a", "0.09", "0.05", "0.01",
            "--eps-d", "0.01",
            "--alpha-min", "0.2236", "--alpha-max", "2.2361", "--alpha-steps", "9",
            "-o", out,
        ]

    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(*self.sweep_args(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps_A,eps_D,alpha,norm_A,norm_A_pinv,bound,measured_error"
        assert len(lines) == 1 + 27
        # measured_error column stays empty on bound-only rows
        assert all(line.endswith(",") for line in lines[1:])

    def test_bound_column_monotone_in_eps_a(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(*self.sweep_args(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        series = {}
        for row in rows:
            series.setdefault(float(row[0]), []).append(float(row[5]))
        assert all(h >= l for l, h in zip(series[0.01], series[0.05]))
        assert all(h >= l for l, h in zip(series[0.05], series[0.09]))

    def test_bound_recomputable_from_row(self, tmp_path):
        from einalg import PerturbationSpec, norm_bound

        out = tmp_path / "sweep.csv"
        assert run(*self.sweep_args(out)) == 0
        for line in out.read_text().splitlines()[1:]:
            eps_a, eps_d, _alpha, norm_a, norm_p, bound, _ = line.split(",")
            want = norm_bound(
                float(norm_a), float(norm_p), PerturbationSpec(float(eps_a), float(eps_d))
            )
            assert float(bound) == pytest.approx(want, rel=1e-15)

    def test_byte_identical_across_runs(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        assert run(*self.sweep_args(out1)) == 0
        assert run(*self.sweep_args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_point_zero_eps(self, tmp_path):
        out = tmp_path / "one.csv"
        code = run(
            "sweep", FIX / "a.json", FIX / "d.json",
            "--eps-a", "0", "--eps-d", "0",
            "--alpha-min", "1.0", "--alpha-max", "1.0", "--alpha-steps", "1",
            "-o", out,
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[5]) == 0.0

    def test_one_step_takes_alpha_min(self, tmp_path):
        # one alpha step is --alpha-min, whatever --alpha-max is
        args = self.sweep_args(tmp_path / "wide.csv")
        args[args.index("--alpha-steps") + 1] = "1"
        assert run(*args) == 0
        args[args.index("-o") + 1] = tmp_path / "point.csv"
        args[args.index("--alpha-max") + 1] = args[args.index("--alpha-min") + 1]
        assert run(*args) == 0
        wide = (tmp_path / "wide.csv").read_bytes()
        assert wide == (tmp_path / "point.csv").read_bytes()
        rows = [line.split(",") for line in wide.decode().splitlines()[1:]]
        assert len(rows) == 3
        assert all(float(row[2]) == 0.2236 for row in rows)

    def test_no_alpha_steps_exits_2(self, tmp_path, capsys):
        args = self.sweep_args(tmp_path / "out.csv")
        args[args.index("--alpha-steps") + 1] = "0"
        assert run(*args) == 2
        assert "--alpha-steps" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "steps, error", [(str(10**20), None), ("3", MemoryError)], ids=["index", "memory"]
    )
    def test_grid_numpy_cannot_build_exits_2(self, tmp_path, capsys, monkeypatch, steps, error):
        # regression: np.linspace's ValueError for a count past numpy's index
        # range left a traceback and exit 1; a count numpy would try to
        # allocate (1e9 alphas is 8 GB) is only simulated
        args = self.sweep_args(tmp_path / "out.csv")
        args[args.index("--alpha-steps") + 1] = steps
        if error is not None:

            def linspace(*_):
                raise error("cannot allocate the grid")

            monkeypatch.setattr(np, "linspace", linspace)
        assert run(*args) == 2
        assert capsys.readouterr().err.startswith("einalg: error: --alpha-steps is too large: ")
        assert not (tmp_path / "out.csv").exists()

    def test_bad_alpha_exits_2(self, tmp_path):
        code = run(
            "sweep", FIX / "a.json", FIX / "d.json",
            "--eps-a", "0.01", "--eps-d", "0.01",
            "--alpha-min", "-1.0", "--alpha-max", "1.0", "--alpha-steps", "3",
            "-o", tmp_path / "out.csv",
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--alpha-min", "--alpha-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out.csv"
        args = self.sweep_args(out)
        args[args.index(flag) + 1] = value
        assert run(*args) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, alpha, message",
        [
            # |a|^3 raised an untyped OverflowError: a traceback, and exit 1
            (
                np.diag([1e103, 1.0]), "1",
                "norm_bound overflowed: the bound is inf",
            ),
            # alpha |a| or |a^+| / alpha overflowed, and the row was written
            # with exit 0 and a nan bound
            (None, "1e308", "sweep overflowed: alpha |a| at alpha = 1e+308 is inf"),
            (None, "1e-310", "sweep overflowed: |a^+| / alpha at alpha = 1e-310 is inf"),
        ],
        ids=["norm-1e103", "alpha-1e308", "alpha-1e-310"],
    )
    def test_overflow_exits_3(self, tmp_path, capsys, base, alpha, message):
        a, d = FIX / "a.json", FIX / "d.json"
        if base is not None:
            a, d = tmp_path / "a.json", tmp_path / "d.json"
            save_tensor(a, EinsteinTensor(((2,), (2,)), base))
            save_tensor(d, EinsteinTensor(((2,), (1,)), [[1.0], [1.0]]))
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", a, d, "--eps-a", "0.01", "--eps-d", "0.01",
            "--alpha-min", alpha, "--alpha-max", alpha, "--alpha-steps", "1", "-o", out,
        )
        assert code == 3
        assert capsys.readouterr().err == f"einalg: numerical error: {message}\n"
        assert not out.exists()


class TestVerifyCommand:
    def test_valid_pair_exits_0(self, capsys):
        assert run("verify", FIX / "a.json", FIX / "a_pinv.json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert len(data["residuals"]) == 4

    def test_zero_candidate_exits_1(self, tmp_path):
        z = tmp_path / "z.json"
        save_tensor(z, zeros(((2, 2), (2, 2))))
        assert run("verify", FIX / "a.json", z) == 1

    def test_identity_pair_exits_0(self, tmp_path):
        from einalg import identity

        p = tmp_path / "i.json"
        save_tensor(p, identity([2, 2]))
        assert run("verify", p, p) == 0

    def test_shape_mismatch_exits_2(self):
        assert run("verify", FIX / "a.json", FIX / "d.json") == 2

    def test_overflowing_residuals_write_null(self, tmp_path, capsys):
        # the candidate's products overflow: the NaN residuals fail the check
        # and are written as null, with no RuntimeWarning first
        p = tmp_path / "big.json"
        save_tensor(p, EinsteinTensor(((2,), (2,)), np.full((2, 2), 1e300)))
        assert run("verify", p, p) == 1
        data = strict_json(capsys.readouterr().out)
        assert data["residuals"] == [None] * 4 and data["passed"] is False


class TestReadmeCommands:
    def test_command_block_exit_codes(self, tmp_path, monkeypatch):
        # the README is the one statement of these commands: each line of the
        # sh block under "## Command line" runs here, from a directory where
        # its fixtures/ paths resolve, and exits with the code the README
        # documents (solve's fixture system a x = d is inconsistent); the
        # sweep CSV holds a header and 3 x 25 rows
        text = (FIX.parent / "README.md").read_text(encoding="utf-8")
        block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fixtures").symlink_to(FIX, target_is_directory=True)
        assert [argv[:2] for argv in commands] == [
            ["einalg", name] for name in ("pinv", "smw", "smw", "solve", "sweep", "verify")
        ]
        for argv in commands:
            assert main(argv[1:]) == (5 if argv[1] == "solve" else 0), argv
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 76


class TestTolOption:
    """Every command that takes ``--tol`` rejects a negative or non-finite one."""

    INPUTS = {
        "pinv": ["a.json"],
        "smw": ["a.json", "example1_u.json", "b.json", "example1_v.json"],
        "solve": ["a.json", "d.json"],
        "verify": ["a.json", "a_pinv.json"],
    }

    @pytest.mark.parametrize("command", INPUTS)
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out.json"
        argv = [command, *(FIX / name for name in self.INPUTS[command]), "--tol", tol]
        if command != "verify":
            argv += ["-o", out]
        assert run(*argv) == 2
        assert "tol must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    VERIFY = ("verify", FIX / "a.json", FIX / "a_pinv.json")

    def test_one_parser_per_process(self, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            for _ in range(3):
                assert run(*self.VERIFY) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_handler_looked_up_per_call(self, monkeypatch):
        assert run(*self.VERIFY) == 0
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 42)
        assert run(*self.VERIFY) == 42


class TestOutputsNeverNameInputs:
    """An output path that names an input file, or the other output, exits 2
    and writes nothing; the inputs keep their bytes."""

    SWEEP = ["--eps-a", "0.1", "--eps-d", "0.1", "--alpha-min", "1", "--alpha-max", "2",
             "--alpha-steps", "2"]
    # each command's inputs (copies of fixtures), its other arguments, and the
    # output arguments that clash, written with "{x}" for a named input copy
    CASES = {
        "pinv": (["a"], [], ["-o", "{a}"]),
        "pinv-symlink": (["a"], [], ["-o", "link.json"]),
        "solve": (["a", "d"], [], ["-o", "./{d}"]),
        "sweep": (["a", "d"], SWEEP, ["-o", "{a}"]),
        "smw-output": (["a", "example1_u", "b", "example1_v"], [], ["-o", "{example1_u}"]),
        "smw-report": (["a", "example1_u", "b", "example1_v"], [], ["-o", "out.json", "--report", "{b}"]),
        "smw-default-report": (["a", "example1_u", "b", "example1_v"], [], ["-o", "a"]),
        "smw-both-outputs": (
            ["a", "example1_u", "b", "example1_v"], [], ["-o", "out.json", "--report", "out.json"]
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_clash_exits_2(self, tmp_path, monkeypatch, capsys, case):
        # regression: pinv x.json -o x.json exited 0 and replaced x.json with
        # its pseudoinverse; solve, sweep and smw did the same with -o, and
        # smw --report set to the -o path wrote the report over the tensor
        names, extra, outputs = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        files = {name: f"{name}.json" for name in names}
        if case == "smw-default-report":
            # -o a writes its report to a.report.json, the name of the base
            files["a"] = "a.report.json"
        for name, file in files.items():
            (tmp_path / file).write_bytes((FIX / f"{name}.json").read_bytes())
        if case == "pinv-symlink":
            (tmp_path / "link.json").symlink_to(tmp_path / "a.json")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        command = case.split("-")[0]
        argv = [command, *files.values(), *extra, *(o.format(**files) for o in outputs)]
        assert run(*argv) == 2
        assert "names the same file as" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestEntryPoint:
    def test_console_script_version(self):
        # the child imports the same einalg as this process, installed or not
        package_root = str(Path(einalg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "einalg.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_inputs_never_mutated(self, tmp_path):
        src = (FIX / "a.json").read_bytes()
        out = tmp_path / "o.json"
        assert run("pinv", FIX / "a.json", "-o", out) == 0
        assert (FIX / "a.json").read_bytes() == src
