"""Check that the traced run's counts repeat exactly, and record them.

Usage, from the root of a checkout:

    python3 perfbench/exact_counts.py --seed 1            # check only
    python3 perfbench/exact_counts.py --seed 1 --write    # check, then record

For each workload, runs ``perfbench/run.py --trace 1`` twice with the same
seed and the ``run_seconds`` of BENCHMARK.json, one run at a time, and
compares every metric in ``layers.EXACT`` (the ``.calls`` counts,
``computed_*``, ``tensorio.bytes_*`` and ``woodbury.identity_ratio``).  Exits
1 if any differs.  With ``--write`` the values go to
``perfbench/exact_counts.json``, the record later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import EXACT  # noqa: E402


def _traced(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} ops failed")
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    record, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = _traced(workload, args.seed, seconds), _traced(workload, args.seed, seconds)
        for name in EXACT:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:16s} {name:34s} {first[name]!r:>22} {'same' if same else 'DIFFERS: ' + repr(second[name])}")
        record[workload] = first
    if ok and args.write:
        (HERE / "exact_counts.json").write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "counts": record}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
