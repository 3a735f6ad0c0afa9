"""Command-line behavior: exit codes, outputs, determinism.

Commands run in-process through ``main(argv)``, which returns the exit code;
one test drives the installed console entry through a subprocess to cover the
packaging surface.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import einalg
from einalg import (
    EinsteinTensor,
    PairedShape,
    fro_norm,
    load_tensor,
    pinv,
    save_tensor,
    verify_penrose,
    zeros,
)
from einalg import cli, woodbury
from einalg.cli import main

from conftest import FIXTURES_DIR, ILL_CONDITIONED_BASES, rand_tensor

FIX = FIXTURES_DIR


def run(*argv):
    return main([str(a) for a in argv])


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
        # a's column spaces it is not needed, and s^+ = a^+; this exited 3
        b = tmp_path / "b.json"
        save_tensor(b, EinsteinTensor(((1, 1), (1, 1)), [[5e-324]]))
        out = tmp_path / "out.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example2_x1.json", b,
            FIX / "example2_x2h.json", "--mode", "pinv", "-o", out,
        )
        assert code == 0
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "identity"
        want = pinv(load_tensor(FIX / "a.json"))
        assert load_tensor(out).matrix.tobytes() == want.matrix.tobytes()

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

    def test_invertible_mode_rejects_report(self, tmp_path, capsys):
        # the invertible mode writes no condition report, so --report is an
        # input error rather than a flag silently ignored
        rep = tmp_path / "rep.json"
        assert run(*self.invertible_argv(tmp_path), "--report", rep) == 2
        assert "--report" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists() and not rep.exists()

    def test_invertible_mode_rejects_tol(self, tmp_path, capsys):
        # the invertible mode checks no conditions, so it has no tolerance
        assert run(*self.invertible_argv(tmp_path), "--tol", "1e-8") == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

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
        out = tmp_path / "out.json"
        code = run("smw", *paths, "--mode", "pinv", "-o", out)
        assert code == 4
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["path"] == "fallback"
        s = apply_update(t["a"], LowRankUpdate(u=t["u"], b=t["b"], v=t["v"], order=1))
        want = np.linalg.pinv(s.matrix)
        got = load_tensor(out).matrix
        assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)

    def test_invertible_mode_singular_base_exits_3(self, tmp_path):
        out = tmp_path / "out.json"
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "invertible", "-o", out,
        )
        assert code == 3

    def test_hermitian_mode_requires_hermitian_base(self, tmp_path):
        code = run(
            "smw", FIX / "a.json", FIX / "example1_u.json", FIX / "b.json",
            FIX / "example1_v.json", "--mode", "hermitian",
            "-o", tmp_path / "out.json",
        )
        assert code == 2

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

    def test_no_alpha_steps_exits_2(self, tmp_path, capsys):
        args = self.sweep_args(tmp_path / "out.csv")
        args[args.index("--alpha-steps") + 1] = "0"
        assert run(*args) == 2
        assert "--alpha-steps" in capsys.readouterr().err
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
        assert "--tol" in capsys.readouterr().err
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
