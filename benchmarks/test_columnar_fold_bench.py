"""Columnar fold-state benchmarks and the cross-PR ``BENCH_10.json``.

PR 10 retired the per-transaction object heap from
``CompiledIncrementalChecker``: resident state is structure-of-arrays
columns indexed by ``tid - txns_base`` (flags/session/summary-run
arrays), the park queue is ``kernels.ParkQueue`` (one flat ``array('q')``
of interleaved pairs per packed wid), and the CC clocks are two flat
row-major matrices joined by ``kernels.join_clocks``.  This module
records what that bought, measured the way the earlier snapshots
measure (paired calibration/measurement rounds so container throttling
cancels out):

* the end-to-end ``fold`` lap vs the committed BENCH_9 number -- the
  tentpole gate, >= 1.25x paired.  The win is allocator- and GC-shaped:
  no ``_Txn``/``_Read`` objects, no per-transaction dicts for the hb
  clocks or wr maps, so the fold loop stops paying per-record allocation
  and the collector stops walking ~100k live objects per gen-2 pass;
* the ``batch_ops`` sweep re-measured (identical verdict per column);
* the ``--gc-tune`` experiment, honestly: fold seconds and collector
  interruptions with and without ``gc.freeze()`` + a raised gen-2
  threshold.  With the object heap gone the collector has little left
  to walk, so the further win is expected to be small -- the snapshot
  records whatever it is;
* ``join_clocks`` in isolation on a wide (64-session) synthetic join,
  vectorized vs its own fallback.  The fig9 stream itself runs the
  scalar path on purpose (its 8-session joins of up to 7 writer rows
  stay below the 64-cell ``_MIN_JOIN_CELLS`` cutoff), so the stream's
  ``join_kernel`` stat says ``fallback`` without that being a
  regression -- the micro bench plus the ``perf_guard`` tripwire (which
  also joins one 128-session row, the common ``stream-k128`` join) cover
  the vectorized path;
* the streaming-phase peak RSS (VmHWM, subprocess probe identical to
  BENCH_8's) with retirement on, gated no worse than BENCH_8's retiring
  baseline -- columnar state must not trade speed for memory;
* the 5x-fig9 arrival-stream fold laps that ``benchmarks/perf_guard.py``
  re-measures and gates against.

Everything lands in the repo-root ``BENCH_10.json``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from array import array

import pytest
from _calibration import calibration_seconds

from repro.core import IsolationLevel
from repro.core.compiled import kernels
from repro.histories.formats import plume_text, save_history
from repro.histories.formats._raw import DEFAULT_BATCH_OPS
from repro.histories.generator import (
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
)
from repro.stream import check_stream_file

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH10_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_10.json"))

pytestmark = pytest.mark.bench

CC = IsolationLevel.CAUSAL_CONSISTENCY

#: The tentpole gate: the whole fold lap, best calibration-paired round
#: vs the committed BENCH_9 lap.
FOLD_GATE = 1.25

#: The wide-join micro bench only has to beat its own fallback -- the
#: vectorized path exists for many-session streams, not for fig9.
JOIN_MICRO_GATE = 1.05

ROUNDS = 5

#: BENCH_8's RSS probe, verbatim shape: reset the peak-RSS counter after
#: the imports, fold the stream, read VmHWM back *before* finalize.
_FOLD_PROBE = """\
import json, resource, sys, time
from repro.core import IsolationLevel
from repro.core.compiled.online import CompiledIncrementalChecker
from repro.histories.formats import stream_raw_history

def peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

try:
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
except OSError:
    pass
retire = None
if sys.argv[2] == "on":
    from repro.core.compiled.retire import RetirementPolicy
    retire = RetirementPolicy()
CC = IsolationLevel.CAUSAL_CONSISTENCY
checker = CompiledIncrementalChecker(levels=(CC,), retire=retire)
start = time.perf_counter()
for sid, (label, committed, ops) in stream_raw_history(sys.argv[1], fmt="plume"):
    checker.append_raw(sid, label, committed, ops)
fold_seconds = time.perf_counter() - start
rss_kb = peak_rss_kb()
stats = checker.live_stats()
result = checker.finalize()[CC]
stats["fold_rss_kb"] = rss_kb
stats["fold_seconds"] = round(fold_seconds, 3)
stats["consistent"] = result.is_consistent
print(json.dumps(stats))
"""


def _committed(name: str):
    with open(os.path.abspath(os.path.join(_ROOT, name)), encoding="utf-8") as f:
        return json.load(f)


def _fig9_history(num_transactions: int = 15_000, seed: int = 11):
    return generate_random_history(
        RandomHistoryConfig(
            num_sessions=8,
            num_transactions=num_transactions,
            num_keys=500,
            min_ops_per_txn=6,
            max_ops_per_txn=10,
            read_fraction=0.5,
            mode="serializable",
            seed=seed,
        )
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeats: int = 3) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _rss_probe(stream_path: str, retire: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _FOLD_PROBE, stream_path, retire],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _join_micro(repeats: int = 200) -> dict:
    """Time the wide-join kernel against its own fallback, same inputs."""
    stride = 64
    rows = list(range(64))
    hb = array("q", ((j * s * 2654435761) % 199 - 1 for j in rows for s in range(stride)))
    sc = array("q", ((s * 40503) % 151 - 1 for s in range(stride)))
    wsids = [j % stride for j in rows]
    wsidxs = [(j * 7919) % 211 for j in rows]

    def run_vectorized():
        for _ in range(repeats):
            row, vectorized = kernels.join_clocks(hb, stride, sc, 0, rows, wsids, wsidxs)
            assert vectorized
        return row

    def run_fallback():
        for _ in range(repeats):
            row = kernels._join_clocks_fallback(hb, stride, sc, 0, rows, wsids, wsidxs)
        return row

    assert list(run_vectorized()) == list(run_fallback())
    vec = _best_of(run_vectorized)
    fb = _best_of(run_fallback)
    return {
        "note": "64 sessions x 64 writer rows (4096 cells, above "
        "_MIN_JOIN_CELLS) x 200 joins; the fig9 stream itself stays on "
        "the scalar path by design (8-session joins are below the "
        "cutoff), so this is where the vectorized join is measured",
        "cells": 64 * stride,
        "vectorized_seconds": round(vec, 4),
        "fallback_seconds": round(fb, 4),
        "vectorized_speedup": round(fb / vec, 3),
    }


def test_bench10_snapshot(tmp_path, results):
    """Record the columnar-fold perf snapshot in ``BENCH_10.json``."""
    bench9 = _committed("BENCH_9.json")
    fold_baseline = bench9["stream_fold_phase_seconds"]["fold"]
    bench9_cal = bench9["machine_calibration_seconds"]
    sweep_baseline = bench9["stream_cc_seconds_by_batch_ops"]
    bench8 = _committed("BENCH_8.json")
    rss_baseline_kb = bench8["streaming_phase_peak_rss_kb"]["retire_on"]["base"]

    if not kernels.HAVE_NUMPY:
        pytest.skip("the vectorized kernels need numpy; no perf gate")

    history = _fig9_history()
    txns, ops = history.num_transactions, history.num_operations
    path = str(tmp_path / "fig9.plume")
    save_history(history, path, fmt="plume")
    del history
    gc.collect()

    def _pipeline(**kwargs):
        return check_stream_file(path, CC, fmt="plume", engine="compiled", **kwargs)

    # -- the fold gate: paired calibration/pipeline rounds ---------------------
    rounds = []
    for _ in range(ROUNDS):
        cal = calibration_seconds(repeats=3)
        timings: dict = {}
        result = _pipeline(timings=timings)
        rounds.append((dict(timings), cal))
    fold_seconds = min(laps["fold"] for laps, _ in rounds)
    fold_speedup = max(
        (fold_baseline * cal / bench9_cal) / laps["fold"] for laps, cal in rounds
    )
    cal_seconds = min(cal for _, cal in rounds)
    fold_laps = {
        key: round(value, 4)
        for key, value in min(rounds, key=lambda r: r[0]["fold"])[0].items()
        if key.startswith("fold") or key == "parse"
    }
    join_kernel = result.stats.get("join_kernel")

    # -- the --gc-tune experiment, before/after --------------------------------
    gc_rows = {}
    for label, tune in (("off", False), ("on", True)):
        best = None
        for _ in range(3):
            timings = {}
            _pipeline(timings=timings, gc_tune=tune)
            if best is None or timings["fold"] < best["fold"]:
                best = timings
        gc_rows[label] = {
            "fold_seconds": round(best["fold"], 4),
            "fold_gc_collections": best["fold_gc_collections"],
        }

    # -- batch_ops sensitivity (same verdict for every value) ------------------
    by_batch_ops = {
        str(batch_ops): round(_best_of(lambda: _pipeline(batch_ops=batch_ops)), 4)
        for batch_ops in (1, 64, DEFAULT_BATCH_OPS, 65536)
    }

    # -- join_clocks in isolation ----------------------------------------------
    join_micro = _join_micro()

    # -- the perf-guard workload + the RSS probe: 5x-fig9 arrival stream -------
    stream_history, order = generate_random_stream(
        RandomHistoryConfig(
            num_sessions=8,
            num_transactions=75_000,
            num_keys=500,
            min_ops_per_txn=6,
            max_ops_per_txn=10,
            read_fraction=0.5,
            mode="serializable",
            seed=11,
        )
    )
    stream_txns = stream_history.num_transactions
    stream_ops = stream_history.num_operations
    stream_path = str(tmp_path / "fig9x5_arrival.plume")
    with open(stream_path, "w", encoding="utf-8") as handle:
        handle.write(plume_text.dumps(stream_history, order=order))
    del stream_history, order
    gc.collect()
    stream_fold = float("inf")
    stream_classify = float("inf")
    for _ in range(3):
        timings = {}
        check_stream_file(
            stream_path, CC, fmt="plume", engine="compiled", timings=timings
        )
        stream_fold = min(stream_fold, timings["fold"])
        stream_classify = min(stream_classify, timings["fold_classify"])

    retiring = _rss_probe(stream_path, "on")
    assert retiring["consistent"] and retiring["retired_transactions"] > 0
    rss_on_kb = retiring["fold_rss_kb"]

    snapshot = {
        "generated_by":
            "benchmarks/test_columnar_fold_bench.py::test_bench10_snapshot",
        "machine_calibration_seconds": round(cal_seconds, 4),
        "history": {
            "transactions": txns,
            "operations": ops,
            "sessions": 8,
            "mode": "serializable",
        },
        "stream_fold_phase_seconds": {
            "note": "fig9 file-order stream; fold_speedup is the best "
            "calibration-paired round of the whole fold lap vs the BENCH_9 "
            "lap.  The columnar rewrite removes per-transaction objects "
            "and dicts from every sub-lap at once (allocation, pointer "
            "chasing, GC traversal), which is why the end-to-end lap moves "
            "rather than one sub-lap",
            **fold_laps,
            "fold_pr9_baseline": fold_baseline,
            "pr9_baseline_calibration_seconds": bench9_cal,
            "fold_speedup": round(fold_speedup, 3),
        },
        "join_kernel_stream": join_kernel,
        "join_clocks_micro": join_micro,
        "gc_tune_fig9": {
            "note": "--gc-tune (gc.freeze after the first folded batch + "
            "gen-2 threshold x8, restored before exit) on the fig9 stream; "
            "with the object heap gone the collector has little left to "
            "walk, so the delta is honestly small -- the flag stays "
            "default-off",
            **gc_rows,
        },
        "stream_cc_seconds_by_batch_ops": {
            "note": "best-of-3 wall seconds; identical verdict per column",
            "pr9_baseline": {
                key: sweep_baseline[key]
                for key in ("1", "64", str(DEFAULT_BATCH_OPS), "65536")
            },
            **by_batch_ops,
        },
        "streaming_phase_peak_rss_kb": {
            "note": "peak RSS (VmHWM) right after the fold loop on the "
            "5x-fig9 arrival stream with --retire, BENCH_8's probe "
            "verbatim; gated no worse than BENCH_8's retiring baseline",
            "retire_on_base": rss_on_kb,
            "bench8_retire_on_base": rss_baseline_kb,
        },
        "stream_5x_fold_phase_seconds": {
            "note": "5x-fig9 arrival-order stream (the perf-guard "
            "workload, regenerated from seed 11); perf_guard re-measures "
            "the fold lap against this",
            "transactions": stream_txns,
            "operations": stream_ops,
            "fold": round(stream_fold, 4),
            "fold_classify": round(stream_classify, 4),
        },
    }
    with open(BENCH10_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    results.record("bench10", "snapshot", snapshot)

    assert fold_speedup >= FOLD_GATE, (
        f"the columnar fold must beat BENCH_9's fold lap by {FOLD_GATE}x "
        f"paired ({fold_baseline}s at calibration {bench9_cal}s); best "
        f"round gave {fold_speedup:.2f}x ({fold_seconds:.3f}s at "
        f"calibration {cal_seconds:.4f}s)"
    )
    assert join_micro["vectorized_speedup"] >= JOIN_MICRO_GATE, (
        f"join_clocks must beat its own fallback on a wide join: "
        f"{join_micro}"
    )
    assert rss_on_kb <= rss_baseline_kb, (
        f"columnar state must not regress the retiring streaming peak: "
        f"{rss_on_kb} kB vs BENCH_8's {rss_baseline_kb} kB"
    )
    worst = max(by_batch_ops.values())
    assert by_batch_ops[str(DEFAULT_BATCH_OPS)] < worst, (
        f"the default batch_ops ({DEFAULT_BATCH_OPS}) must never be the "
        f"worst sweep column: {by_batch_ops}"
    )
