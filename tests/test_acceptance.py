"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import einalg as ea
from einalg import (
    LowRankUpdate,
    PairedShape,
    apply_update,
    check_conditions,
    decompose_update,
    einstein_product,
    fold,
    fro_norm,
    identity,
    inverse,
    measure_error,
    pinv,
    scale,
    smw_invertible,
    smw_pinv,
    solve,
    sweep,
    unfold,
    update_pinv,
    verify_penrose,
    zeros,
)
from einalg.cli import main as cli_main

from conftest import FIXTURES_DIR, einsum_product, rand_matrix, rand_tensor, scalar1111


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def entrywise_close(a, b, tol):
    return bool(np.max(np.abs(a.matrix - b.matrix)) <= tol)


def synth_tensor(rng, shape, rank):
    """Random tensor of prescribed flattened rank with singular values in range."""
    return fold(rand_matrix(rng, shape.row_size, shape.col_size, rank), shape)


def projected_part(rng, projector, row_dims, k_dims, keep=True):
    """Random factor inside (keep) or orthogonal to (not keep) a column space."""
    g = rand_tensor(rng, row_dims, k_dims)
    p = einstein_product(projector, g)
    return p if keep else g - p


def test_criterion_1_example1_reproduction(example_a, ex1, example_b):
    with criterion(1, "example-1 pseudoinverse and updated pseudoinverse, < 1 s"):
        start = time.perf_counter()
        a_pinv = pinv(example_a)
        upd = LowRankUpdate(u=ex1["u"], b=example_b, v=ex1["v"], order=2)
        result = update_pinv(example_a, a_pinv, upd)
        elapsed = time.perf_counter() - start
        assert entrywise_close(a_pinv, ea.load_tensor(FIXTURES_DIR / "a_pinv.json"), 1e-10)
        assert result.report.applicable
        assert entrywise_close(result.s_pinv, ex1["s_pinv"], 1e-10)
        assert elapsed < 1.0


def test_criterion_2_example2_reproduction(example_a, ex2, example_b):
    with criterion(2, "example-2 split, conditions, and updated pseudoinverse, < 1 s"):
        start = time.perf_counter()
        a_pinv = pinv(example_a)
        upd = LowRankUpdate(u=ex2["u"], b=example_b, v=ex2["v"], order=2)
        parts = decompose_update(example_a, a_pinv, upd)
        b_pinv = pinv(example_b)
        report = check_conditions(parts, example_b)
        s_pinv = smw_pinv(a_pinv, parts, b_pinv)
        elapsed = time.perf_counter() - start
        assert entrywise_close(parts.x1, ex2["x1"], 1e-12)
        assert entrywise_close(parts.y1, ex2["y1"], 1e-12)
        assert entrywise_close(parts.x2, ex2["x2h"].H, 1e-12)
        assert entrywise_close(parts.y2, ex2["y2h"].H, 1e-12)
        assert entrywise_close(parts.e1, ex2["e1"], 1e-12)
        assert entrywise_close(parts.e2, ex2["e2"], 1e-12)
        assert report.applicable
        assert all(r <= 1e-12 for r in report.residuals.values())
        assert entrywise_close(s_pinv, ex2["s_pinv"], 1e-10)
        assert elapsed < 1.0


def test_criterion_3_invertible_identity_oracle():
    with criterion(3, "invertible identity vs direct inverse on 200 random instances"):
        rng = np.random.default_rng(3)
        shapes = [
            ((2,), (1,)),
            ((3,), (2,)),
            ((2, 2), (1,)),
            ((2, 2), (1, 1)),
            ((3, 2), (2,)),
            ((3, 2), (1, 1)),
        ]
        failures = 0
        checked = 0
        attempts = 0
        while checked < 200:
            attempts += 1
            assert attempts < 400, "too many singular corrections drawn"
            row_dims, k_dims = shapes[attempts % len(shapes)]
            rs = PairedShape(row_dims, row_dims)
            a = synth_tensor(rng, rs, rs.row_size)
            ks = PairedShape(k_dims, k_dims)
            b = synth_tensor(rng, ks, ks.row_size)
            upd = LowRankUpdate(
                u=rand_tensor(rng, row_dims, k_dims),
                b=b,
                v=rand_tensor(rng, k_dims, row_dims),
                order=len(k_dims),
            )
            s = apply_update(a, upd)
            if not ea.is_invertible(s):
                continue  # the random correction may destroy invertibility
            checked += 1
            got = smw_invertible(inverse(a), upd)
            want = inverse(s)
            if fro_norm(got - want) > 1e-8 * fro_norm(want):
                failures += 1
        assert failures == 0


def test_criterion_4_pseudoinverse_identity_oracle():
    with criterion(4, "update identity vs direct pseudoinverse on 200 conforming instances"):
        rng = np.random.default_rng(4)
        cases = [
            (PairedShape((2, 2), (2, 2)), 2, (1,)),
            (PairedShape((2, 2), (2, 2)), 2, (2,)),
            (PairedShape((3, 2), (2, 2)), 2, (1,)),
            (PairedShape((3, 2), (3, 2)), 3, (2,)),
            (PairedShape((2, 2), (3, 2)), 2, (1, 1)),
            (PairedShape((3, 2), (3, 2)), 2, (2,)),
        ]
        applied = 0
        for case in range(200):
            shape, rank, k_dims = cases[case % len(cases)]
            a = synth_tensor(rng, shape, rank)
            a_pinv = pinv(a)
            proj_left = einstein_product(a, a_pinv)
            proj_right = einstein_product(a_pinv, a)
            y1 = projected_part(rng, proj_left, shape.row_dims, k_dims, keep=False)
            y2 = projected_part(rng, proj_right, shape.col_dims, k_dims, keep=False)
            u = y1
            vh = y2
            if case % 2:  # half the instances carry column-space parts too
                u = u + projected_part(rng, proj_left, shape.row_dims, k_dims)
                vh = vh + projected_part(rng, proj_right, shape.col_dims, k_dims)
            ks = PairedShape(k_dims, k_dims)
            b = synth_tensor(rng, ks, ks.row_size)
            upd = LowRankUpdate(u=u, b=b, v=vh.H, order=len(k_dims))
            parts = decompose_update(a, a_pinv, upd)
            report = check_conditions(parts, b)
            assert report.applicable
            assert max(report.residuals.values()) <= 1e-10
            applied += 1
            got = smw_pinv(a_pinv, parts, pinv(b))
            want = pinv(apply_update(a, upd))
            assert fro_norm(got - want) <= 1e-8 * max(1.0, fro_norm(want))
        assert applied == 200

        # non-conforming updates must take the fallback and still verify
        for case in range(40):
            shape, rank, k_dims = cases[case % len(cases)]
            a = synth_tensor(rng, shape, rank)
            a_pinv = pinv(a)
            proj_left = einstein_product(a, a_pinv)
            u = projected_part(rng, proj_left, shape.row_dims, k_dims)  # x-only
            vh = rand_tensor(rng, shape.col_dims, k_dims)
            ks = PairedShape(k_dims, k_dims)
            b = synth_tensor(rng, ks, ks.row_size)
            upd = LowRankUpdate(u=u, b=b, v=vh.H, order=len(k_dims))
            result = update_pinv(a, a_pinv, upd)
            assert not result.report.applicable
            s = apply_update(a, upd)
            assert verify_penrose(s, result.s_pinv, tol=1e-8).passed


def test_criterion_5_penrose_suite():
    with criterion(5, "four-rule residuals at 1e-10 over 500 random tensors"):
        rng = np.random.default_rng(5)
        shapes = [
            PairedShape((2,), (2,)),
            PairedShape((3,), (2,)),
            PairedShape((2, 2), (2,)),
            PairedShape((2, 2), (2, 2)),
            PairedShape((3, 2), (2, 2)),
            PairedShape((2,), (2, 3)),
        ]
        for case in range(500):
            shape = shapes[case % len(shapes)]
            max_rank = min(shape.row_size, shape.col_size)
            rank = case % (max_rank + 1)  # exercises zero and deficient ranks
            t = synth_tensor(rng, shape, rank) if rank else zeros(shape)
            report = verify_penrose(t, pinv(t), tol=1e-10)
            assert report.passed, (shape, rank, report.residuals)


def test_criterion_6_norm_inequalities():
    with criterion(6, "norm submultiplicativity and triangle bound, 1000 pairs each"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            m, n, l = (int(rng.integers(1, 4)) for _ in range(3))
            rd = tuple(int(rng.integers(1, 4)) for _ in range(m))
            cd = tuple(int(rng.integers(1, 4)) for _ in range(n))
            bd = tuple(int(rng.integers(1, 4)) for _ in range(l))
            a = rand_tensor(rng, rd, cd)
            b = rand_tensor(rng, cd, bd)
            assert fro_norm(einstein_product(a, b)) <= fro_norm(a) * fro_norm(b) + 1e-12
            c = rand_tensor(rng, rd, cd)
            assert fro_norm(a + c) <= fro_norm(a) + fro_norm(c) + 1e-12


def test_criterion_7_bound_validity(example_a):
    with criterion(7, "measured error below the bound on 100 conforming scenarios"):
        rng = np.random.default_rng(7)
        norm_a0 = fro_norm(example_a)
        checked = 0
        while checked < 100:
            alpha = float(rng.uniform(0.4, 2.5))
            base = scale(example_a, alpha)
            norm_a = alpha * norm_a0
            eps_a = float(rng.uniform(0.05, 0.6))
            eps_d = float(rng.uniform(0.0, 0.1))
            # null directions of the flattened base: e4 (left), (e3+e4)/sqrt 2
            # (right); factor scales set |e_i| <= eps_a |base|
            e1_target = eps_a * norm_a * float(rng.uniform(0.5, 1.0))
            e2_target = eps_a * norm_a * float(rng.uniform(0.5, 1.0))
            y1 = np.zeros((4, 1))
            y1[3, 0] = 1.0 / e1_target
            y2 = np.zeros((4, 1))
            y2[2, 0] = y2[3, 0] = 1.0 / (math.sqrt(2.0) * e2_target)
            u = fold(y1, PairedShape((2, 2), (1, 1)))
            vh = fold(y2, PairedShape((2, 2), (1, 1)))
            beta = float(rng.uniform(1.0, 3.0)) / max(e1_target, e2_target)
            upd = LowRankUpdate(u=u, b=scalar1111(beta), v=vh.H, order=2)
            x0 = rand_tensor(rng, (2, 2), (1, 1))
            d = einstein_product(base, x0)
            if fro_norm(d) < 1e-9:
                continue
            delta = rand_tensor(rng, (2, 2), (1, 1))
            delta = scale(delta, eps_d * fro_norm(d) / fro_norm(delta))
            report = measure_error(base, d, upd, delta)
            assert report.measured_error <= report.bound
            checked += 1


def test_criterion_8_figure_shape(example_a, example_d):
    with criterion(8, "bound curves ordered by eps levels across the scaling grid"):
        norm_a = fro_norm(example_a)
        alphas = list(np.linspace(0.5 / norm_a, 5.0 / norm_a, 25))
        rows = sweep(example_a, example_d, [0.09, 0.05, 0.01], 0.01, alphas)
        series = {e: [r.bound for r in rows if r.eps_a == e] for e in (0.01, 0.05, 0.09)}
        assert all(h >= l for l, h in zip(series[0.01], series[0.05]))
        assert all(h >= l for l, h in zip(series[0.05], series[0.09]))
        per_eps_d = {
            ed: [r.bound for r in sweep(example_a, example_d, [0.01], ed, alphas)]
            for ed in (0.01, 0.05, 0.09)
        }
        assert all(h >= l for l, h in zip(per_eps_d[0.01], per_eps_d[0.05]))
        assert all(h >= l for l, h in zip(per_eps_d[0.05], per_eps_d[0.09]))
        # no assertion on an interior minimum: under pure scaling the
        # coefficient and pseudoinverse norms trade off exactly, and the
        # closed form admits none


def test_criterion_9_flattening_homomorphism():
    with criterion(9, "flattened product equals matrix product, 1000 random pairs"):
        rng = np.random.default_rng(9)
        for case in range(1000):
            m, n, l = (int(rng.integers(1, 5)) for _ in range(3))
            rd = tuple(int(rng.integers(1, 4)) for _ in range(m))
            cd = tuple(int(rng.integers(1, 4)) for _ in range(n))
            bd = tuple(int(rng.integers(1, 4)) for _ in range(l))
            a = rand_tensor(rng, rd, cd)
            b = rand_tensor(rng, cd, bd)
            prod = einstein_product(a, b)
            lhs = unfold(prod)
            rhs = unfold(a) @ unfold(b)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
            if case % 20 == 0:  # independent contraction oracle on a sample
                want = einsum_product(a, b)
                assert np.allclose(prod.matrix, want.matrix, rtol=0, atol=1e-12)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI fixture flows deterministic and under 10 s"):
        fix = FIXTURES_DIR
        start = time.perf_counter()

        out = tmp_path / "a_pinv.json"
        assert cli_main(["pinv", str(fix / "a.json"), "-o", str(out)]) == 0

        for example in ("example1", "example2"):
            s_out = tmp_path / f"{example}_s_pinv.json"
            code = cli_main([
                "smw", str(fix / "a.json"), str(fix / f"{example}_u.json"),
                str(fix / "b.json"), str(fix / f"{example}_v.json"),
                "--mode", "pinv", "-o", str(s_out),
            ])
            assert code == 0
            got = ea.load_tensor(s_out)
            want = ea.load_tensor(fix / f"{example}_s_pinv.json")
            assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-10

        assert cli_main([
            "smw", str(fix / "a.json"), str(fix / "example1_u.json"),
            str(fix / "b.json"), str(fix / "example1_v.json"),
            "--mode", "orthogonal", "-o", str(tmp_path / "orth.json"),
        ]) == 0

        assert cli_main([
            "solve", str(fix / "a.json"), str(fix / "d.json"),
            "-o", str(tmp_path / "x.json"),
        ]) == 5  # the shipped system is inconsistent by construction

        assert cli_main(["verify", str(fix / "a.json"), str(fix / "a_pinv.json")]) == 0
        assert cli_main([
            "verify", str(fix / "example2_s.json"), str(fix / "example2_s_pinv.json"),
        ]) == 0

        sweep_argv = [
            "sweep", str(fix / "a.json"), str(fix / "d.json"),
            "--eps-a", "0.09", "0.05", "0.01", "--eps-d", "0.01",
            "--alpha-min", "0.2236", "--alpha-max", "2.2361", "--alpha-steps", "25",
        ]
        c1 = tmp_path / "sweep1.csv"
        c2 = tmp_path / "sweep2.csv"
        assert cli_main(sweep_argv + ["-o", str(c1)]) == 0
        assert cli_main(sweep_argv + ["-o", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

        assert time.perf_counter() - start < 10.0
