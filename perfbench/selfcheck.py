"""Check that the benchmark's count metrics repeat exactly.

Runs ``perfbench/run.py --trace 1`` twice with the same seed and
compares every count metric (see ``COUNT_UNITS`` in ``workload.py``)
for exact equality.  Exits non-zero if any differs or a run fails::

    python3 perfbench/selfcheck.py --workload store_delta_query --seed 3
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workload import COUNT_UNITS, WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stdout}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append",
                        help="workload to check (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    status = 0
    for workload in args.workload or sorted(WORKLOADS):
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        differ = sorted(name for name in first if first[name] != second[name])
        for name in differ:
            print(f"{workload}: {name} {first[name]!r} != {second[name]!r}")
        print(f"{workload}: {len(first) - len(differ)}/{len(first)} count "
              f"metrics repeat exactly")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
