"""Benchmark of einalg: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload update-n256 --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller.  The run prepares its inputs from
``--seed`` (``setup_s`` is the median of several preparations, each ending
with one warm-up cycle of ops), then executes a fixed count of ops derived
from ``--seconds`` and the workload's nominal rate, checking every output
against an independent oracle between ops.  Only the ops themselves are
timed.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics.  With ``--trace 1`` the op sequence runs twice, first
untraced and then with every public library function wrapped in a span
recorder; the last line holds the per-layer metrics (per-op means over the
traced pass) and ``trace.overhead_ratio``.  Spans are written to
``.bench_out/``, together with the full result and the environment record.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: one caller, one BLAS thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import importlib.util
import json
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
# Probe units timed on each side of each preparation to scale set-up time.
SETUP_PROBES = 10
# The traced run makes two passes over the op sequence; each gets half the time.
TRACE_PASS_SHARE = 0.5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    src = ROOT / "src"
    if not (src / "einalg" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"perfbench: no einalg sources or fixtures under {ROOT}")
    sys.path.insert(0, str(src))
    import einalg

    if Path(einalg.__file__).resolve().parent != src / "einalg":
        raise SystemExit(f"perfbench: imported einalg from {einalg.__file__}, not {src}")


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def _run_ops(ops, probe=None, recorder=None, verdicts=None):
    """Run the ops in order; returns per-op latencies (s), failures and probe times.

    Every op's output is checked after its timed interval, then one probe
    unit is timed.  With a recorder, each op is one root span; the library's
    Penrose verdict on the op's pseudoinverses is taken untraced and appended
    to ``verdicts``.
    """
    latencies, failures, probe_times = [], [], []
    clock = time.perf_counter
    for index, op in enumerate(ops):
        span = recorder.begin_op(index) if recorder else None
        start = clock()
        try:
            result = op.run()
        except Exception as err:  # a failing op is reported, not fatal
            result, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        latencies.append(clock() - start)
        if span is not None:
            recorder.close(span)
        if error is None and verdicts is not None:
            verdicts.extend(_penrose_verdicts(op, result, recorder))
        if error is None:
            error = op.check(result)
        if error is not None:
            failures.append(f"op {index} ({op.cls}): {error}")
        if probe is not None:
            probe_times.append(probe.time_one())
    return latencies, failures, probe_times


def _penrose_verdicts(op, result, recorder):
    from spans import paused

    from einalg import inverses

    with paused(recorder):
        return [inverses.verify_penrose(s, s_pinv).passed for s, s_pinv in op.pinv_pairs(result)]


def _p50_p90(values):
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def _class_shares(ops) -> dict:
    counts = {}
    for op in ops:
        counts[op.cls] = counts.get(op.cls, 0) + 1
    return {cls: n / len(ops) for cls, n in sorted(counts.items())}


def _setup(workload, seed, n_ops, workdir, np, probe, repeats):
    """Prepare the workload ``repeats`` times.

    Returns the last warm-up cycle and op sequence, each preparation's raw
    time, the probe times taken around each preparation, and the last
    warm-up's failures.
    """
    raw, probe_times = [], []
    for _ in range(repeats):
        # Each preparation starts from the same heap: the previous one's ops
        # are released first.
        warmup = ops = None
        gc.collect()
        around = probe.time_many(SETUP_PROBES)
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        warmup, ops = workload.setup(rng, n_ops, workdir)
        _, warm_failures, _ = _run_ops(warmup)
        raw.append(time.perf_counter() - start)
        probe_times.append(around + probe.time_many(SETUP_PROBES))
    return warmup, ops, raw, probe_times, warm_failures


def op_peak_mib(ops) -> float:
    """Largest memory one op allocates above its starting level, in MiB.

    Measured with ``tracemalloc``, which numpy reports its array buffers to,
    over an untimed pass: the interpreter, the imported modules and the
    benchmark's own inputs are below each op's starting level and do not count.
    """
    peaks = []
    gc.collect()
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = op.run()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            del result
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20


def end_to_end(warmup, ops, probe, setup_raw, setup_probes) -> tuple[dict, dict, list]:
    gc.collect()
    phase_start = time.perf_counter()
    latencies, failures, probe_times = _run_ops(ops, probe)
    phase_wall = time.perf_counter() - phase_start
    attempted = len(ops)
    ms = [x * f * 1e3 for x, f in zip(latencies, hostspeed.scales(probe_times))]
    p50, p90 = _p50_p90(ms)
    raw_p50, raw_p90 = _p50_p90([x * 1e3 for x in latencies])
    metrics = {
        "setup_s": (statistics.median(setup_raw) * hostspeed.scale(sum(setup_probes, [])), "s"),
        "ops_per_s": (attempted / sum(ms) * 1e3, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        # One cycle of the op pattern, after the timed phase.
        "op_peak_mib": (op_peak_mib(warmup), "MiB"),
    }
    shares = _class_shares(ops)
    details = {
        "latency_samples": attempted,
        "samples_above_p90": sum(1 for x in ms if x > p90),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": raw_p50,
            "latency_p90_ms": raw_p90,
        },
        "phase_wall_s": phase_wall,
        "setup_raw_s": setup_raw,
        "setup_probe_s": setup_probes,
        "class_shares": shares,
        "class_p50_ms": {
            cls: statistics.median(x for x, op in zip(ms, ops) if op.cls == cls) for cls in shares
        },
        "op_latency_s": latencies,
        "probe_s": probe_times,
    }
    return metrics, details, failures


def traced(ops, probe) -> tuple[dict, dict, list, object]:
    from layers import per_layer
    from spans import Recorder, installed

    gc.collect()
    plain, plain_failures, plain_probes = _run_ops(ops, probe)
    recorder = Recorder()
    verdicts = []
    gc.collect()
    with installed(recorder):
        latencies, failures, probes = _run_ops(ops, probe, recorder, verdicts)
    op_scales = hostspeed.scales(probes)
    metrics = per_layer(recorder.spans, [op.cls for op in ops], verdicts, op_scales)
    plain_s = sum(x * f for x, f in zip(plain, hostspeed.scales(plain_probes)))
    traced_s = sum(x * f for x, f in zip(latencies, op_scales))
    # ops per second traced over untraced, both scaled to reference host speed
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    details = {"spans": len(recorder.spans), "penrose_verdicts": len(verdicts)}
    return metrics, details, plain_failures + failures, recorder


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    import numpy as np

    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    workload = workloads.build(args.workload, str(ROOT))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = str(OUT_DIR / f"work-{args.workload}-{os.getpid()}")
    share = TRACE_PASS_SHARE if args.trace else 1.0
    n_ops = int(args.seconds * share * workload.nominal_rate)
    probe = hostspeed.Probe(np)
    try:
        warmup, ops, setup_raw, setup_probes, warm_failures = _setup(
            workload, args.seed, n_ops, workdir, np, probe, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            metrics, details, failures, recorder = traced(ops, probe)
            attempted = 2 * len(ops)
        else:
            metrics, details, failures = end_to_end(warmup, ops, probe, setup_raw, setup_probes)
            attempted = len(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.write_jsonl(OUT_DIR / f"spans-{stem}.jsonl.gz")
    # Warm-up ops are not counted as attempted, but a failing one still makes
    # the run incorrect.
    details["warmup_failures"] = warm_failures[:20]
    result = {
        "correct": not failures and not warm_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, details=details, failures=failures[:20], environment=env)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {len(failures)} failed")
    print("environment: " + json.dumps(env))
    # Per-op latencies and probe times are in the result file only.
    print("details: " + json.dumps(
        {k: v for k, v in details.items() if k not in ("op_latency_s", "probe_s")}))
    for failure in (warm_failures + failures)[:5]:
        print("FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
