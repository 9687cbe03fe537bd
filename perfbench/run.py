"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload aio-single --seed 1 --seconds 15 --trace 0

Workloads: ``aio-single``, ``inproc-trace``, ``sharded-refresh`` (see
``NOTES.md``). With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, plus the tracing overhead against an untraced run of the same
length. The program is imported from ``src/`` next to this directory and
driven only through its public API.

Output: one line per metric (``name value unit``), then one JSON line
with the environment, the workload-specific metrics and flags, and as the
last line the result object ``{"correct", "attempted", "failed",
"metrics"}``. The run is correct only when no request failed and no
answer differs from the reference service; a failed request counts
because a broken path that answers nothing would otherwise read as a
speed-up (an unacknowledged update leaves every later query at an older
day, whose answers still match). The exit status is 1 when the run is
not correct, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("aio-single", "inproc-trace", "sharded-refresh"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import layers
    import procstat
    import workloads

    environment = procstat.environment()
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        units = dict(layers.PER_LAYER)
        printed = metrics = outcome.per_layer
    else:
        units = dict(workloads.REPORTED)
        printed = outcome.metrics
        metrics = {name: printed[name] for name, _ in workloads.END_TO_END}
    failed = outcome.failed + outcome.mismatched
    for name, value in printed.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, (value, unit) in outcome.extra.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / max(outcome.attempted, 1):.6g} 1")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "environment": environment,
                "extra": {name: value for name, (value, _) in outcome.extra.items()},
                "mismatched": outcome.mismatched,
                "flags": outcome.flags,
                "windows": outcome.windows,
            }
        )
    )
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
