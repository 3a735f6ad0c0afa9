"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload sensitivity-n16 --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric the median of its values and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  That share is compared with the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        elapsed = time.monotonic() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({elapsed:.0f} s): " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':40s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:40s} {median:12.6g} {spread:11.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
