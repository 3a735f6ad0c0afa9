"""The three benchmark workloads: inputs, ops and output checks.

Each workload builds a seeded op sequence made of whole cycles of a fixed
pattern, so every run with the same ``--seconds`` executes the same number of
ops with exactly the same share of each op class.  The pattern is chosen so
that the reported percentiles (p50, p90) fall well inside one op class, never
on the boundary between two classes of different cost.

An op is a closed-loop call into the library from a single caller.  Its output
is checked against an independent oracle (LAPACK through numpy, or the paper's
worked-example files read with the json module) after the op's timed interval.

Library calls go through module attributes at call time (``woodbury.update_pinv``
and not a name bound at import), so the traced run sees them through its
wrappers.

``nominal_rate`` is a workload's ops per second, checks included, on a 2-core
Xeon at 2.1 GHz; a run executes ``--seconds * nominal_rate`` ops, rounded to
whole cycles.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from einalg import cli, inverses, sensitivity, tensorio, woodbury
from einalg.shapes import PairedShape
from einalg.tensor import EinsteinTensor

#: Relative Frobenius tolerance of every result against its oracle.
ORACLE_RTOL = 1e-8
_EPS = 2.0 ** -52


class SetupError(RuntimeError):
    """The workload's own inputs failed their set-up check."""


@dataclass
class Op:
    """One closed-loop call: ``run`` is timed, ``check`` and ``pinv_pairs`` are not.

    ``check(result)`` returns None when the output is correct, else a reason.
    ``pinv_pairs(result)`` lists the ``(s, s_pinv)`` tensors the op produced,
    for the library's own Penrose verdict in the traced run.
    """

    cls: str
    run: object
    check: object
    pinv_pairs: object = field(default=lambda result: [])


def _gaussian(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _oracle_pinv(mat):
    # Same truncation rule as the library, so both drop the same noise.
    return np.linalg.pinv(mat, max(mat.shape) * _EPS)


def _rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _low_rank_base(rng, size, rank):
    """Flattened ``a`` of the given rank and its exact pseudoinverse, from a seeded SVD."""
    p, _ = np.linalg.qr(_gaussian(rng, size, size))
    q, _ = np.linalg.qr(_gaussian(rng, size, size))
    sigma = np.sort(rng.uniform(1.0, 2.0, rank))[::-1]
    a = (p[:, :rank] * sigma) @ q[:, :rank].conj().T
    a_pinv = (q[:, :rank] / sigma) @ p[:, :rank].conj().T
    return a, a_pinv


def _tensor(rows, cols, mat) -> EinsteinTensor:
    return EinsteinTensor(PairedShape(rows, cols), mat)


def _update(rows, k, u, b, v) -> woodbury.LowRankUpdate:
    return woodbury.LowRankUpdate(
        u=_tensor(rows, k, u), b=_tensor(k, k, b), v=_tensor(k, rows, v), order=len(k)
    )


def _whole_cycles(n_ops: int, cycle_len: int) -> int:
    return max(1, round(n_ops / cycle_len)) * cycle_len


class UpdateN256:
    """``update_pinv(a, a_pinv, upd)`` at N=256 on a rank-252 base.

    Every op gets a fresh seeded correction whose shared modes cycle through
    (1,), (2,), (3,), (2,2), (3,): K = 1..4 never exceeds the rank deficit of
    4, so every op takes the identity path.  K=1, 2 and 3 cost about the same
    and K=4 about 15% more; with K=4 a fifth of the ops, p50 sits inside the
    K=1..3 block and p90 at the middle of the K=4 class.
    """

    name = "update-n256"
    rows = (4, 4, 4, 4)
    rank = 252
    cycle = ((1,), (2,), (3,), (2, 2), (3,))
    nominal_rate = 20.0

    def setup(self, rng, n_ops, workdir):
        size = math.prod(self.rows)
        a_mat, a_pinv_mat = _low_rank_base(rng, size, self.rank)
        a = _tensor(self.rows, self.rows, a_mat)
        a_pinv = _tensor(self.rows, self.rows, a_pinv_mat)
        # The library's SVD takes seconds at this size, so the base is checked
        # with the Penrose rules instead of being recomputed.
        report = inverses.verify_penrose(a, a_pinv)
        if not report.passed:
            raise SetupError(f"base pseudoinverse fails Penrose: {report.residuals}")
        n_ops = _whole_cycles(n_ops, len(self.cycle))
        warmup = [self._op(rng, a, a_pinv, a_mat, self.cycle[i]) for i in range(len(self.cycle))]
        ops = [self._op(rng, a, a_pinv, a_mat, self.cycle[i % len(self.cycle)]) for i in range(n_ops)]
        return warmup, ops

    def _op(self, rng, a, a_pinv, a_mat, k):
        size = a_mat.shape[0]
        order = math.prod(k)
        u, b, v = _gaussian(rng, size, order), _gaussian(rng, order, order), _gaussian(rng, order, size)
        upd = _update(self.rows, k, u, b, v)

        def run():
            return woodbury.update_pinv(a, a_pinv, upd)

        def s_matrix():
            return a_mat + u @ b @ v

        def check(result):
            err = _rel_err(result.s_pinv.matrix, _oracle_pinv(s_matrix()))
            return None if err <= ORACLE_RTOL else f"relative error {err:.3g} vs LAPACK"

        def pinv_pairs(result):
            return [(_tensor(self.rows, self.rows, s_matrix()), result.s_pinv)]

        return Op(cls=f"K={order}", run=run, check=check, pinv_pairs=pinv_pairs)


class SensitivityN16:
    """``measure_error(a, d, upd, delta_d)`` at N=16 on rank-14 bases.

    Generic K=1 and K=2 corrections take the identity path and cost the same.
    One op in five has ``u`` and ``v^H`` inside ``a``'s column spaces; the
    applicability conditions fail there and the direct-``pinv`` fallback runs.
    With identity ops at 80%, p50 sits inside the identity class and p90
    mid-way through the fallback class.

    The Jacobi SVD of a base takes 7 to 9 sweeps depending on the draw.  With
    one base per run that draw set the run's cost, and a few bases split each
    op class into modes the percentiles fell between; so every op solves its
    own seeded system, and each run sees the same mix of sweep counts.
    """

    name = "sensitivity-n16"
    rows = (4, 4)
    rank = 14
    cycle = (
        ("K=1", (1,)), ("K=2", (2,)), ("K=1", (1,)), ("K=2", (2,)), ("fallback", (1,)),
        ("K=1", (1,)), ("K=2", (2,)), ("K=1", (1,)), ("K=2", (2,)), ("fallback", (2,)),
    )
    nominal_rate = 19.0
    update_scale = 0.1
    rhs_perturbation = 1e-3

    def setup(self, rng, n_ops, workdir):
        n = len(self.cycle)
        make = lambda i: self._op(rng, *self._system(rng), *self.cycle[i % n])
        return [make(i) for i in range(n)], [make(i) for i in range(_whole_cycles(n_ops, n))]

    def _system(self, rng):
        size = math.prod(self.rows)
        a_mat, _ = _low_rank_base(rng, size, self.rank)
        d_mat = a_mat @ _gaussian(rng, size, 1)
        oracle_a_pinv = _oracle_pinv(a_mat)
        return (
            _tensor(self.rows, self.rows, a_mat), _tensor(self.rows, (1,), d_mat),
            a_mat, d_mat, oracle_a_pinv, oracle_a_pinv @ d_mat,
        )

    def _op(self, rng, a, d, a_mat, d_mat, oracle_a_pinv, oracle_x, cls, k):
        size = a_mat.shape[0]
        order = math.prod(k)
        u, v = _gaussian(rng, size, order), _gaussian(rng, order, size)
        if cls == "fallback":
            u, v = a_mat @ u, v @ a_mat
        b = _gaussian(rng, order, order)
        # Scale the correction to a fixed share of |a|.
        scale = self.update_scale * np.linalg.norm(a_mat) / np.linalg.norm(u @ b @ v)
        u, v = u * math.sqrt(scale), v * math.sqrt(scale)
        upd = _update(self.rows, k, u, b, v)
        delta = _gaussian(rng, size, 1)
        delta *= self.rhs_perturbation * np.linalg.norm(d_mat) / np.linalg.norm(delta)
        delta_d = _tensor(self.rows, (1,), delta)

        def run():
            return sensitivity.measure_error(a, d, upd, delta_d)

        def s_matrix():
            return a_mat + u @ b @ v

        def check(report):
            y = _oracle_pinv(s_matrix()) @ (d_mat + delta)
            want = float(np.linalg.norm(y - oracle_x) / np.linalg.norm(oracle_x))
            if abs(report.measured_error - want) > ORACLE_RTOL * want + 1e-12:
                return f"measured error {report.measured_error!r} vs LAPACK {want!r}"
            if _rel_err(report.norm_a_pinv, np.linalg.norm(oracle_a_pinv)) > ORACLE_RTOL:
                return f"|a+| {report.norm_a_pinv!r} vs LAPACK"
            if not report.measured_error <= report.bound:
                return f"measured error {report.measured_error!r} above bound {report.bound!r}"
            return None

        def pinv_pairs(report):
            # measure_error does not return s^+; the same update, rerun
            # outside the op, gives the identical tensor.
            updated = woodbury.update_pinv(a, inverses.pinv(a), upd)
            return [(_tensor(self.rows, self.rows, s_matrix()), updated.s_pinv)]

        return Op(cls=cls, run=run, check=check, pinv_pairs=pinv_pairs)


def _read_json_tensor(path):
    """Independent reader of the tensor file schema (no einalg code)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entries = np.asarray(data["entries"], dtype=float)
    rows, cols = math.prod(data["row_dims"]), math.prod(data["col_dims"])
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(rows, cols)


class CliFiles:
    """In-process ``einalg.cli.main(argv)`` calls on JSON files.

    The set-up writes every input through ``einalg.tensorio``: the paper's
    worked examples from ``fixtures/`` and 32 generated N=16 systems.  Each
    20-op cycle runs, by latency class: 6 cheap commands (verify, solve,
    sweep, pinv on the fixtures; about 2-3 ms), 10 ``smw`` commands on the
    fixtures (about 5 ms) and 4 commands on the N=16 files (25-32 ms): two
    ``pinv``, one ``solve``, one ``smw``.  p50 falls inside the ``smw`` class
    and p90 inside the N=16 ``pinv`` class.  The N=16 commands take the
    systems in turn, so no single system's Jacobi sweep count sets the tail.
    """

    name = "cli-files"
    nominal_rate = 100.0
    fixture_names = (
        "a", "a_pinv", "b", "d", "example1_u", "example1_v",
        "example2_u", "example2_v", "example2_s_pinv",
    )
    rows16 = (4, 4)
    rank16 = 14
    systems16 = 32

    def __init__(self, root):
        self.fixtures = os.path.join(root, "fixtures")

    def setup(self, rng, n_ops, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        path = lambda name: os.path.join(workdir, name + ".json")
        for name in self.fixture_names:
            t = tensorio.load_tensor(os.path.join(self.fixtures, name + ".json"))
            tensorio.save_tensor(path(name), t)
        size = math.prod(self.rows16)
        systems = []
        for i in range(self.systems16):
            a16, _ = _low_rank_base(rng, size, self.rank16)
            gen = {
                "a": (self.rows16, self.rows16, a16),
                "d": (self.rows16, (1,), a16 @ _gaussian(rng, size, 1)),
                "u": (self.rows16, (1,), _gaussian(rng, size, 1)),
                "b": ((1,), (1,), _gaussian(rng, 1, 1)),
                "v": ((1,), self.rows16, _gaussian(rng, 1, size)),
            }
            for key, (rows, cols, mat) in gen.items():
                tensorio.save_tensor(path(f"n16_{i}_{key}"), _tensor(rows, cols, mat))
            systems.append({key: mat for key, (_, _, mat) in gen.items()})

        fx = {n: _read_json_tensor(os.path.join(self.fixtures, n + ".json"))
              for n in ("a", "a_pinv", "d", "example1_s_pinv", "example2_s_pinv")}
        pattern = self._pattern(path, fx)
        n16 = {"pinv": self._pinv16, "solve": self._solve16, "smw": self._smw16}
        ops, turn = [], 0
        for slot in range(_whole_cycles(n_ops, len(pattern))):
            op = pattern[slot % len(pattern)]
            if isinstance(op, str):
                i = turn % len(systems)
                op = n16[op](path, i, systems[i])
                turn += 1
            ops.append(op)
        return ops[:len(pattern)], ops

    def _pattern(self, path, fx):
        verify_ok = self._verify(path, "a_pinv", passed=True, code=0)
        verify_bad = self._verify(path, "example2_s_pinv", passed=False, code=1)
        solve_fx = self._solve(path, "a", "d", fx["a_pinv"] @ fx["d"], 5, "fixture:solve")
        sweep = self._sweep(path, fx)
        pinv_fx = self._pinv(path, "a", fx["a_pinv"], "fixture:pinv")

        def smw_fx(example, mode, code):
            names = ("a", f"{example}_u", "b", f"{example}_v")
            return self._smw(path, names, mode, fx[f"{example}_s_pinv"], code, "fixture:smw")

        e1p, e2p = smw_fx("example1", "pinv", 0), smw_fx("example2", "pinv", 0)
        e1o, e2o = smw_fx("example1", "orthogonal", 0), smw_fx("example2", "orthogonal", 4)
        # Strings mark the N=16 slots; each takes the next generated system.
        return (
            verify_ok, e1p, solve_fx, e2p, "pinv", e1o, sweep, e2o, e1p, "smw",
            verify_bad, e2p, "solve", e1o, sweep, e2o, pinv_fx, e1p, "pinv", e2p,
        )

    def _pinv16(self, path, i, m):
        return self._pinv(path, f"n16_{i}_a", _oracle_pinv(m["a"]), "n16:pinv")

    def _solve16(self, path, i, m):
        return self._solve(path, f"n16_{i}_a", f"n16_{i}_d", _oracle_pinv(m["a"]) @ m["d"],
                           0, "n16:solve")

    def _smw16(self, path, i, m):
        want = _oracle_pinv(m["a"] + m["u"] @ m["b"] @ m["v"])
        names = tuple(f"n16_{i}_{key}" for key in "aubv")
        return self._smw(path, names, "pinv", want, 0, "n16:smw")

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _file_op(self, cls, argv, output, want, code, source, extra=None):
        """Op whose result is a tensor file compared with ``want``.

        ``source()`` gives the tensor whose pseudoinverse the file holds, for
        the Penrose verdict, or is None when the file is not a pseudoinverse.
        """

        def check(result):
            try:
                got_code, _, err = result
                if got_code != code:
                    return f"exit {got_code}, expected {code}: {err.strip()[:200]}"
                err_rel = _rel_err(_read_json_tensor(output), want)
                if err_rel > ORACLE_RTOL:
                    return f"output relative error {err_rel:.3g}"
                return extra() if extra else None
            finally:
                # The next run of this op must not find this run's files.
                for leftover in (output, output + ".report.json"):
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(leftover)

        def pinv_pairs(result):
            if source is None or not os.path.exists(output):
                return []
            return [(source(), tensorio.load_tensor(output))]

        return Op(cls=cls, run=lambda: self._call(argv), check=check, pinv_pairs=pinv_pairs)

    def _pinv(self, path, name, want, cls):
        out = path(f"out_pinv_{name}")
        argv = ["pinv", path(name), "-o", out]
        source = lambda: tensorio.load_tensor(path(name))
        return self._file_op(cls, argv, out, want, 0, source)

    def _solve(self, path, a, d, want, code, cls):
        out = path(f"out_solve_{a}")
        argv = ["solve", path(a), path(d), "-o", out]
        return self._file_op(cls, argv, out, want, code, None)

    def _smw(self, path, names, mode, want, code, cls):
        out = path(f"out_smw_{names[1]}_{mode}")
        argv = ["smw", *(path(n) for n in names), "--mode", mode, "-o", out]
        applicable = code == 0

        def source():
            a, u, b, v = (tensorio.load_tensor(path(n)) for n in names)
            return woodbury.apply_update(a, woodbury.LowRankUpdate(u, b, v, len(u.col_dims)))

        def report_check():
            with open(out + ".report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            if report["applicable"] is not applicable:
                return f"report says applicable={report['applicable']}"
            return None

        return self._file_op(cls, argv, out, want, code, source, extra=report_check)

    def _verify(self, path, candidate, passed, code):
        argv = ["verify", path("a"), path(candidate)]

        def check(result):
            got_code, out, err = result
            if got_code != code:
                return f"exit {got_code}, expected {code}: {err.strip()[:200]}"
            if json.loads(out)["passed"] is not passed:
                return f"verify reported passed={not passed}"
            return None

        return Op(cls="fixture:verify", run=lambda: self._call(argv), check=check)

    def _sweep(self, path, fx):
        out = os.path.splitext(path("out_sweep"))[0] + ".csv"
        eps_a, eps_d, alphas = (0.01, 0.1), 0.01, (0.5, 1.0, 1.5, 2.0)
        argv = ["sweep", path("a"), path("d"), "--eps-a", *map(str, eps_a),
                "--eps-d", str(eps_d), "--alpha-min", "0.5", "--alpha-max", "2",
                "--alpha-steps", "4", "-o", out]
        norm_a, norm_a_pinv = np.linalg.norm(fx["a"]), np.linalg.norm(fx["a_pinv"])

        def bound(na, nap, ea):
            terms = 2 * ea**2 * nap + ea**3 * na + ea**4 * na**2 * nap
            return (1 + eps_d) * na**3 * terms + eps_d * na * nap

        want = [bound(al * norm_a, norm_a_pinv / al, ea) for ea in eps_a for al in alphas]

        def check(result):
            try:
                got_code, _, err = result
                if got_code != 0:
                    return f"exit {got_code}: {err.strip()[:200]}"
                with open(out, encoding="utf-8") as fh:
                    got = [float(line.split(",")[5]) for line in fh.read().splitlines()[1:]]
                if len(got) != len(want) or _rel_err(np.array(got), np.array(want)) > ORACLE_RTOL:
                    return f"sweep bounds {got} vs {want}"
                return None
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)

        return Op(cls="fixture:sweep", run=lambda: self._call(argv), check=check)


def build(name, root):
    if name == UpdateN256.name:
        return UpdateN256()
    if name == SensitivityN16.name:
        return SensitivityN16()
    if name == CliFiles.name:
        return CliFiles(root)
    raise KeyError(name)


NAMES = (UpdateN256.name, SensitivityN16.name, CliFiles.name)
