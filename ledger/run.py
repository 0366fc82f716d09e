"""The performance ledger: one workload, one seed, end-to-end or per-layer.

    python3 ledger/run.py --workload batch-fig9 --seed 1 --seconds 30 --trace 0
    python3 ledger/run.py --workload all --seed 1     # every workload in turn

The input is generated (or taken from the cache) before anything is timed.
Then, until ``--seconds`` have passed (and at least ``MIN_REPS`` times),
the check runs in a fresh single-threaded interpreter, one at a time, as a
closed loop with one client and no queue: ``ledger/child.py``.  Every
repetition's verdicts and operation count are compared with what the
generator guarantees; a wrong, missing or crashed verdict counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over repetitions):
``setup_s`` (process start until ``repro.cli`` and the kernels are
imported), ``check_s`` (opening the file to the last verdict) and
``peak_rss_mb`` (VmHWM of the check process).

The two times are reported at a fixed reference speed of the CPU.  A
shared host slows each vCPU by up to ~1.8x for seconds at a time, so the
wall times of one check spread far more than any bound a benchmark can
hold.  The parent and the check process are therefore pinned to one CPU,
and while the check runs the parent samples that CPU's speed every
``PROBE_PERIOD`` with a fixed interpreter-bound chunk (``probe``).  A
reported time is the wall time times the mean sampled speed over that
interval, i.e. the time the same work takes on a CPU that runs the chunk in
``PROBE_REFERENCE_S``.  The wall times are printed beside them.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, with ``trace.overhead_s`` = median over neighbouring
pairs of traced total minus untraced ``check_s`` (both at the reference
speed).

Output: a table of every metric with its unit, a ``{"meta": ...}`` line
(numpy, ``AWDIT_NO_NUMPY``, the kernels that ran, Python, nproc), and last
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CACHE, ROOT, SRC, WITNESSES, WORKLOADS, Workload  # noqa: E402

#: Fewest repetitions a run makes, even when ``--seconds`` is shorter.
MIN_REPS = 3

#: Seconds past the deadline after which no new repetition starts, even
#: below ``MIN_REPS`` (keeps a slow check inside the run-time limit).
GRACE = 45

#: Wall-clock limit for one check process.
CHILD_TIMEOUT = 150

#: Seconds between speed samples while a child runs.
PROBE_PERIOD = 0.02

#: Time of one probe chunk at the reference speed the times are reported at:
#: about an uncontended 2.1 GHz Xeon vCPU under Python 3.11, so that on an
#: idle host of that kind a reported time is close to the wall time.
PROBE_REFERENCE_S = 65e-6

END_TO_END = (("setup_s", "s"), ("check_s", "s"), ("peak_rss_mb", "MiB"))

PER_LAYER = (
    ("formats.parse_s", "s"),
    ("formats.batches", "count"),
    ("ir.build_s", "s"),
    ("ir.interned_values", "count"),
    ("checkers.read_consistency_s", "s"),
    ("checkers.repeatable_reads_s", "s"),
    ("checkers.happens_before_s", "s"),
    ("checkers.level_self_s", "s"),
    ("kernels.rc_saturation_s", "s"),
    ("kernels.ra_saturation_s", "s"),
    ("kernels.cc_saturation_s", "s"),
    ("kernels.inferred_edges", "count"),
    ("commit.freeze_s", "s"),
    ("commit.acyclicity_s", "s"),
    ("commit.witness_s", "s"),
    ("commit.co_edges", "count"),
    ("online.fold_s", "s"),
    ("online.intern_s", "s"),
    ("online.dispatch_s", "s"),
    ("online.classify_s", "s"),
    ("online.clock_join_s", "s"),
    ("online.join_vectorized_ratio", "ratio"),
    ("online.resolve_fast", "count"),
    ("online.resolve_slow", "count"),
    ("online.resolve_parked", "count"),
    ("online.fast_path_ratio", "ratio"),
    ("online.peak_pending_reads", "count"),
    ("online.finalize_s", "s"),
    ("online.fold_peak_rss_mb", "MiB"),
    ("online.resident_txns", "count"),
    ("retire.passes", "count"),
    ("retire.retired_txns", "count"),
    ("retire.spilled_edges", "count"),
    ("checkpoint.saves", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("runtime.gc_collections_fold", "count"),
    ("runtime.gc_collections_check", "count"),
    ("trace.total_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """Input generation failed, or a check never produced a correct result."""


def child_env(work: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = work
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts) to one CPU; returns it.

    The probe then samples the CPU the check runs on.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _probe_chunk() -> float:
    table = {}
    start = time.perf_counter()
    for i in range(1500):
        table[i & 255] = i
    return time.perf_counter() - start


def probe() -> float:
    """Speed of this CPU now, relative to the reference speed.

    The fastest of four chunks, so that a chunk cut by a context switch
    does not count.
    """
    return PROBE_REFERENCE_S / min(_probe_chunk() for _ in range(4))


def _speed(samples: list, low: float, high: float) -> float:
    """Mean sampled speed over ``[low, high]`` (a fresh sample if none)."""
    inside = [speed for at, speed in samples if low <= at <= high]
    return statistics.mean(inside) if inside else probe()


def _watch(proc, deadline: float):
    """Read the child's stdout to EOF, sampling the CPU's speed meanwhile.

    Returns the output, the time its first line arrived, the time of EOF
    and the ``(time, speed)`` samples; ``None`` past ``deadline``.
    """
    fd = proc.stdout.fileno()
    output = bytearray()
    first_line = None
    samples = []
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while time.perf_counter() < deadline:
            if not selector.select(PROBE_PERIOD):
                samples.append((time.perf_counter(), probe()))
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                return output.decode(), first_line, time.perf_counter(), samples
            output += data
            if first_line is None and b"\n" in output:
                first_line = time.perf_counter()
    return None


def run_child(kind: str, spec: dict, env: dict) -> dict:
    """One check in a fresh interpreter; returns its result plus ``setup_s``.

    ``setup_s`` and ``check_s`` are at the reference speed; the wall times
    are kept as ``setup_wall_s`` and ``check_wall_s``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), kind, json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        watched = _watch(proc, start + CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if watched is None:
        return {"crashed": f"no result within {CHILD_TIMEOUT} s"}
    output, ready_at, end, samples = watched
    lines = output.strip().splitlines()
    if len(lines) < 2 or lines[0].strip() != "ready" or proc.returncode != 0:
        return {"crashed": f"exit {proc.returncode}"}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"crashed": f"unreadable result: {lines[-1][:200]!r}"}
    result["setup_wall_s"] = ready_at - start
    result["check_wall_s"] = result["check_s"]
    result["setup_s"] = result["setup_wall_s"] * _speed(samples, start, ready_at)
    result["speed"] = _speed(samples, ready_at, end)
    result["check_s"] = result["check_wall_s"] * result["speed"]
    return result


def fresh_spec(workload: Workload, path: str, work: str) -> dict:
    """Per-repetition spec: a clean checkpoint file and segment directory."""
    for name in ("checkpoint", "segments"):
        target = os.path.join(work, name)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.exists(target):
            os.unlink(target)
    return {
        "path": path,
        "mode": workload.mode,
        "witnesses": WITNESSES,
        "retire": workload.retire,
        "checkpoint": os.path.join(work, "checkpoint") if workload.checkpoint else None,
        "segment_dir": os.path.join(work, "segments"),
    }


def verify(workload: Workload, input_meta: dict, result: dict) -> int:
    """Failed verdicts of one repetition (all of them when it crashed)."""
    expected = workload.expected_kinds()
    if "crashed" in result:
        return len(expected)
    verdicts = result.get("verdicts", {})
    if result.get("operations") != input_meta["operations"]:
        return len(expected)
    return sum(
        1 for level, kinds in expected.items() if set(verdicts.get(level, ["<missing>"])) != kinds
    )


def generate_input(workload: Workload, seed: int, env: dict) -> dict:
    """Generate (or reuse) the input in its own process; returns path + counts.

    This also compiles the bytecode cache, so the first timed repetition's
    setup is typical.
    """
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), workload.name, str(seed)]
    done = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if done.returncode != 0:
        raise BenchError(f"input generation failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(CACHE, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        env = child_env(work)
        input_meta = generate_input(workload, seed, env)
        path = input_meta["path"]
        plain, traced = [], []
        failed = attempted = 0
        deadline = time.perf_counter() + seconds
        while True:
            kinds = ("e2e", "trace") if trace else ("e2e",)
            for kind in kinds:
                result = run_child(kind, fresh_spec(workload, path, work), env)
                bad = verify(workload, input_meta, result)
                attempted += len(workload.expected_kinds())
                failed += bad
                kept = traced if kind == "trace" else plain
                if not bad:
                    kept.append(result)
                elif not kept:
                    raise BenchError(
                        f"{workload.name}: {kind} check crashed or gave wrong verdicts: "
                        f"{result.get('crashed') or result.get('verdicts')}"
                    )
            reps = min(len(plain), len(traced)) if trace else len(plain)
            now = time.perf_counter()
            if reps >= MIN_REPS and now >= deadline or now >= deadline + GRACE:
                break
        return {
            "plain": plain,
            "traced": traced,
            "attempted": attempted,
            "failed": failed,
            "input": input_meta,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(runs: dict, trace: bool) -> dict:
    plain, traced = runs["plain"], runs["traced"]
    metrics = {}
    if trace:
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            # A layer the workload never calls reports 0.  median_low keeps
            # counts whole: every value is one repetition's measurement.
            values = [r["layers"].get(name, 0) for r in traced]
            metrics[name] = {"value": statistics.median_low(values), "unit": unit}
        # Untraced and traced repetitions alternate.  Both times are at the
        # reference speed, which cancels the CPU's speed changes between
        # the two; pairing neighbours cancels what drift is left.
        overhead = statistics.median(t["check_s"] - p["check_s"] for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}
    return metrics


def run_metadata(runs: dict, cpus: dict) -> dict:
    kernels = {}
    for result in runs["plain"] + runs["traced"]:
        for level, stats in result["kernels"].items():
            for name, value in stats.items():
                kernels.setdefault(f"{level}.{name}", set()).add(value)
    return {
        "numpy": importlib.util.find_spec("numpy") is not None,
        "AWDIT_NO_NUMPY": bool(os.environ.get("AWDIT_NO_NUMPY")),
        "kernels": {name: "/".join(sorted(values)) for name, values in sorted(kernels.items())},
        "python": platform.python_version(),
        "nproc": cpus["nproc"],
        "pinned_cpu": cpus["pinned"],
        "input": dict(runs["input"], path=os.path.relpath(runs["input"]["path"], ROOT)),
        "reps": {"untraced": len(runs["plain"]), "traced": len(runs["traced"])},
        "check_s_samples": {
            "untraced": [round(r["check_s"], 4) for r in runs["plain"]],
            "traced": [round(r["check_s"], 4) for r in runs["traced"]],
        },
        "check_wall_s_samples": {
            "untraced": [round(r["check_wall_s"], 4) for r in runs["plain"]],
            "traced": [round(r["check_wall_s"], 4) for r in runs["traced"]],
        },
    }


def report(
    workload: Workload, seed: int, runs: dict, metrics: dict, trace: bool, cpus: dict
) -> dict:
    """Print the human table and the meta line; return the result object."""
    failed, attempted = runs["failed"], runs["attempted"]
    shown = {}
    for name, metric in metrics.items():
        shown[name] = metric
        if name == "online.fold_peak_rss_mb":
            # The whole-run peak of the same traced processes, side by side.
            whole = statistics.median(r["peak_rss_mb"] for r in runs["traced"])
            shown["peak_rss_mb"] = {"value": whole, "unit": "MiB"}
    if not trace:
        for name in ("setup_wall_s", "check_wall_s", "speed"):
            unit = "ratio" if name == "speed" else "s"
            value = statistics.median(r[name] for r in runs["plain"])
            shown[name] = {"value": value, "unit": unit}
        shown["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
        sizes = [r["checkpoint_bytes"] for r in runs["plain"] if "checkpoint_bytes" in r]
        if sizes:
            shown["checkpoint_mb"] = {"value": statistics.median(sizes) / 2**20, "unit": "MiB"}
    print(f"# {workload.name} seed={seed} ({'traced' if trace else 'untraced'})")
    for name, metric in shown.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"meta": run_metadata(runs, cpus)}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no source tree at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    cpus = {"nproc": len(os.sched_getaffinity(0))}
    cpus["pinned"] = pin_to_one_cpu()
    results = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            runs = measure(workload, args.seed, args.seconds, bool(args.trace))
            metrics = summarize(runs, bool(args.trace))
            results[name] = report(workload, args.seed, runs, metrics, bool(args.trace), cpus)
    except BenchError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
