"""The repository benchmark: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload case_grid_rows_store --seed 1 \\
        --seconds 15 --trace 0

Each workload runs in fresh processes (``perfbench/workload.py``) on the
default backend.  ``--trace 0`` reports the end-to-end metrics, with
set-up time as the median of three fresh set-ups; ``--trace 1`` reports
the per-layer metrics of a traced run instead.  Every output is checked;
the command prints each metric by name and unit, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits non-zero when any operation failed or any output
was wrong, and refuses to run (exit 2, no result) outside a checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

WORKLOADS = ("case_grid_rows_store", "lw_sampling_rows", "store_delta_query")
SETUP_SAMPLES = 3
STATE_DIR = ".perfbench"
CHILD_TIMEOUT_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


def git(*args: str):
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(args) -> dict:
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": bool(status) if commit else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "mode": "traced" if args.trace else "timed",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def child(args, workdir: str, deadline: float, setup_only: bool = False,
          trace_out: str = "") -> dict:
    """Run ``workload.py`` once in a fresh process; its last stdout line
    is its result."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        # --t0 is taken just before the process starts, so set-up time
        # includes interpreter start-up.
        proc = subprocess.run(
            cmd + ["--t0", repr(time.monotonic())], env=env,
            capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    state = os.path.abspath(STATE_DIR)
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(state, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(child(args, os.path.join(work, f"setup{i}"),
                                    deadline, setup_only=True)["setup_s"])
        trace_out = (os.path.join(state,
                                  f"trace-{args.workload}-{args.seed}.jsonl")
                     if args.trace else "")
        main_run = child(args, os.path.join(work, "main"), deadline,
                         trace_out=trace_out)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(main_run["metrics"])
    if not args.trace:
        setups.append(main_run["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = main_run["attempted"], main_run["failed"]
    record = {"provenance": {**provenance(args), "sizes": main_run["sizes"]},
              "setup_samples_s": setups if not args.trace else None,
              "absent_layers": main_run.get("absent"),
              "failures": main_run["failures"],
              "correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(state, "results.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"provenance: {json.dumps(record['provenance'])}")
    for name in record["absent_layers"] or ():
        print(f"absent layer target: {name}")
    for message in main_run["failures"]:
        print(f"FAILED {message}")
    for name, metric in sorted(metrics.items()):
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed_frac = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
