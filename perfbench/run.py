"""chainsim benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload logical-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is the
``src/chainsim`` package next to this directory, used straight from
source. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run. Each metric is printed by name
with its unit, and the last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits non-zero, without that line, when there is nothing to measure.

Set-up (interpreter start, imports, inputs from the seed, one warm-up
run) is repeated in fresh processes and setup_s is their median; the
last of those processes goes on to measure. On logical workloads times
are scaled to a reference host speed (see worker.SpeedProbe). Workloads, metrics and the
checks behind ``correct`` are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("logical-deep", "logical-wide", "network-small")
SETUPS = 3  # set-up samples per invocation; setup_s is their median
TIME_LIMIT = 170.0  # wall seconds for the whole invocation


def run_worker(argv: list[str], deadline: float) -> tuple[float | None, list[str], int]:
    """Start worker.py; returns its set-up time, its other output lines and
    its exit status. The set-up time runs from the start of the process
    until it reports ready, scaled by the host speed it reports. The worker
    and everything it started are killed if the deadline passes."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    watchdog = threading.Timer(
        max(deadline - time.monotonic(), 0.0), os.killpg, (proc.pid, signal.SIGKILL)
    )
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if line.startswith("ready ") and ready is None:
                ready = (time.perf_counter() - start) * float(line.split()[1])
            else:
                lines.append(line.rstrip("\n"))
    finally:
        proc.stdout.close()
        status = proc.wait()
        watchdog.cancel()
    return ready, lines, status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "chainsim", "__init__.py")):
        print(f"no chainsim source under {ROOT}/src: nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    setups = []
    # setup_s is an end-to-end metric only, so traced runs set up once
    for _ in range(0 if args.trace else SETUPS - 1):
        ready, lines, status = run_worker(worker_args + ["--setup-only"], deadline)
        if status != 0 or ready is None:
            print(f"set-up failed with status {status}", file=sys.stderr)
            return 1
        setups.append(ready)
    ready, lines, status = run_worker(worker_args, deadline)
    if status != 0 or not lines:
        print(f"benchmark worker failed with status {status}", file=sys.stderr)
        return 1
    setups.append(ready)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setup_s = statistics.median(setups)
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
        print(f"set-up: median {setup_s:.4f} s of {len(setups)} "
              f"({', '.join(f'{s:.4f}' for s in setups)})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
