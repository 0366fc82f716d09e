"""Complexity-shape report: the paper's bounds, measured rather than assumed.

    python3 ledger/shape.py [--seed N] [--reps R]

Times the untraced end-to-end check (``ledger/child.py e2e``, median of
``--reps`` fresh processes) at four points and prints microseconds per
operation:

* batch engine, k=8 sessions, at n and 4n transactions (15k and 60k).
  RC/RA/CC are linear in n for bounded k, so the ideal ratio is 1.0;
* stream CC with n fixed (10k transactions) at k=32 and k=128 sessions.
  O(n*k) bounds the ratio by 4.0; the measured ratio says how much of the
  k term this history size exposes.

Not a gated workload: the report records drift from both shapes.  The last
line of output is one JSON object with every point and both ratios.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import CACHE, SRC, WORKLOADS, generate  # noqa: E402

POINTS = (
    ("batch", "n", dataclasses.replace(WORKLOADS["batch-fig9"], transactions=15_000)),
    ("batch", "n", dataclasses.replace(WORKLOADS["batch-fig9"], transactions=60_000)),
    ("stream_cc", "k", dataclasses.replace(WORKLOADS["stream-k128"], sessions=32)),
    ("stream_cc", "k", dataclasses.replace(WORKLOADS["stream-k128"], sessions=128)),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"shape: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run.pin_to_one_cpu()
    work = os.path.join(CACHE, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = run.child_env(work)
    report: dict = {}
    try:
        for series, axis, workload in POINTS:
            path, meta = generate(workload, args.seed)
            times = []
            for _ in range(args.reps):
                result = run.run_child("e2e", run.fresh_spec(workload, path, work), env)
                if run.verify(workload, meta, result):
                    print(f"shape: wrong verdict at {workload}", file=sys.stderr)
                    return 1
                times.append(result["check_s"])
            us_per_op = statistics.median(times) / meta["operations"] * 1e6
            value = workload.transactions if axis == "n" else workload.sessions
            report.setdefault(series, {"axis": axis, "points": []})["points"].append(
                {axis: value, "operations": meta["operations"], "us_per_op": us_per_op}
            )
            print(f"  {series:<10} {axis}={value:<6} {us_per_op:8.2f} us/op", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for series, ideal in (("batch", 1.0), ("stream_cc", 4.0)):
        low, high = report[series]["points"]
        report[series]["ratio"] = high["us_per_op"] / low["us_per_op"]
        report[series]["bound"] = ideal
    print(
        f"  batch 4n/n = {report['batch']['ratio']:.2f} (linear: 1.0); "
        f"stream CC k128/k32 = {report['stream_cc']['ratio']:.2f} (O(n*k): <= 4.0)"
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
