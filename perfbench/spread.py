"""Run one workload over several seeds and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload aio-single --seeds 1 2 3 4 5 --seconds 15

Spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median: the figure ``BENCHMARK.json`` bounds are checked against.
Only end-to-end metrics (``--trace 0``) are collected, since only they
have bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    values = {}
    for seed in args.seeds:
        command = [
            sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        began = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        elapsed = time.monotonic() - began
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        steal = info["extra"].get("host_steal_share", 0.0)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} steal={steal:.1%} run={elapsed:.0f}s "
              f"flags={info['flags']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:32s} median {median:12.6g}  spread {spread:7.2%}  "
              f"min {min(series):.6g} max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
