"""One check in a fresh interpreter: the unit of work the ledger times.

Run as ``python ledger/child.py {e2e,trace} SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  ``SPEC_JSON`` holds ``path`` (the generated history),
``mode`` (``batch`` or ``stream``), ``witnesses``, and for streams
``retire``, ``checkpoint`` (a file path or null) and ``segment_dir``.

Protocol on stdout: the line ``ready`` once ``repro.cli``, the kernels and
the entry points are imported (the parent times process start to this line
as ``setup_s``), then one JSON line with the verdicts and measurements.

``e2e`` calls the user-facing entry points with no tracing:
``load_compiled`` + ``check_all_levels`` for batch, ``check_stream_file``
for streams.  ``trace`` drives the same work through the layers' public
functions with a span around every call, keeps the spans in memory, and
derives per-layer numbers from the spans, the phase laps in
``CheckResult.stats``, and the online core's ``enable_fold_profile()`` /
``live_stats()`` hooks.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

CC = "CAUSAL_CONSISTENCY"


def peak_rss_mb() -> float:
    """VmHWM of this process in MiB (ru_maxrss where /proc is unavailable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gc_collections() -> int:
    """Collections run so far, all generations."""
    return sum(gen["collections"] for gen in gc.get_stats())


def _verdict(result) -> list:
    return sorted({violation.kind.name for violation in result.violations})


def _kernels(stats: dict) -> dict:
    return {
        name: stats[name]
        for name in ("saturation_kernel", "classify_kernel", "join_kernel")
        if name in stats
    }


class Tracer:
    """Spans ``[name, start, end, parent]`` held in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []

    def open(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def _retire_policy(spec: dict):
    from repro.core.compiled.retire import RetirementPolicy

    return RetirementPolicy(segment_dir=spec["segment_dir"]) if spec["retire"] else None


# -- end to end, untraced --------------------------------------------------------


def e2e_batch(spec: dict) -> dict:
    from repro.core import check_all_levels
    from repro.histories.formats import load_compiled

    start = time.perf_counter()
    compiled = load_compiled(spec["path"])
    results = check_all_levels(compiled, max_witnesses=spec["witnesses"])
    check_s = time.perf_counter() - start
    any_result = next(iter(results.values()))
    return {
        "check_s": check_s,
        "verdicts": {level.name: _verdict(result) for level, result in results.items()},
        "operations": any_result.num_operations,
        "kernels": {level.name: _kernels(result.stats) for level, result in results.items()},
    }


def e2e_stream(spec: dict) -> dict:
    from repro.core import IsolationLevel
    from repro.stream.runner import check_stream_file

    start = time.perf_counter()
    result = check_stream_file(
        spec["path"],
        IsolationLevel.CAUSAL_CONSISTENCY,
        max_witnesses=spec["witnesses"],
        checkpoint=spec["checkpoint"],
        retire=_retire_policy(spec),
    )
    check_s = time.perf_counter() - start
    out = {
        "check_s": check_s,
        "verdicts": {CC: _verdict(result)},
        "operations": result.num_operations,
        "kernels": {CC: _kernels(result.stats)},
    }
    if spec["checkpoint"]:
        out["checkpoint_bytes"] = os.path.getsize(spec["checkpoint"])
    return out


# -- traced, layer by layer ------------------------------------------------------

#: Laps a level checker reports in ``CheckResult.stats``; ``cycle_check``
#: is left out because freeze/acyclicity/witness subdivide it.
_LEVEL_LAPS = (
    "read_consistency",
    "repeatable_reads",
    "happens_before",
    "saturation",
    "freeze",
    "acyclicity",
    "witness",
)


def _commit_layers(results) -> dict:
    """freeze/acyclicity/witness laps and co edges summed over the levels."""
    return {
        "commit.freeze_s": sum(r.stats.get("freeze", 0.0) for r in results),
        "commit.acyclicity_s": sum(r.stats.get("acyclicity", 0.0) for r in results),
        "commit.witness_s": sum(r.stats.get("witness", 0.0) for r in results),
        "commit.co_edges": sum(r.stats.get("co_edges", 0) for r in results),
        "kernels.inferred_edges": sum(r.stats.get("inferred_edges", 0) for r in results),
    }


def trace_batch(spec: dict) -> dict:
    from repro.core.compiled.checkers import (
        check_cc_compiled,
        check_ra_compiled,
        check_rc_compiled,
        check_read_consistency_compiled,
    )
    from repro.core.compiled.ir import CompiledHistoryBuilder
    from repro.histories.formats import plume_text, stream_raw_batches

    witnesses = spec["witnesses"]
    tracer = Tracer()
    gc_start = gc_collections()
    root = tracer.open("check")
    builder = CompiledHistoryBuilder()
    batches = stream_raw_batches(spec["path"])
    while True:
        span = tracer.open("formats.parse", root)
        batch = next(batches, None)
        tracer.close(span)
        if batch is None:
            break
        span = tracer.open("ir.build", root)
        builder.add_batch(batch)
        tracer.close(span)
    span = tracer.open("ir.build", root)
    compiled = builder.finalize(
        sort_sessions=True, fill_gaps=plume_text.COMPILED_SESSION_GAPS
    )
    tracer.close(span)
    gc_ingest = gc_collections() - gc_start
    span = tracer.open("checkers.read_consistency", root)
    report = check_read_consistency_compiled(compiled)
    tracer.close(span)
    results = {}
    # check_all_levels' dispatch for k > 1 sessions (no single-session RA).
    for level, check in (
        ("READ_COMMITTED", check_rc_compiled),
        ("READ_ATOMIC", check_ra_compiled),
        (CC, check_cc_compiled),
    ):
        span = tracer.open(f"checkers.{level}", root)
        results[level] = check(compiled, max_witnesses=witnesses, report=report)
        tracer.close(span)
    tracer.close(root)
    gc_check = gc_collections() - gc_start

    rc, ra, cc = (results[name] for name in ("READ_COMMITTED", "READ_ATOMIC", CC))
    layers = {
        "formats.parse_s": tracer.total("formats.parse"),
        "formats.batches": tracer.count("formats.parse") - 1,
        "ir.build_s": tracer.total("ir.build"),
        "ir.interned_values": compiled.num_values,
        "checkers.read_consistency_s": tracer.total("checkers.read_consistency")
        + sum(r.stats.get("read_consistency", 0.0) for r in results.values()),
        "checkers.repeatable_reads_s": ra.stats.get("repeatable_reads", 0.0),
        "checkers.happens_before_s": cc.stats.get("happens_before", 0.0),
        "kernels.rc_saturation_s": rc.stats.get("saturation", 0.0),
        "kernels.ra_saturation_s": ra.stats.get("saturation", 0.0),
        "kernels.cc_saturation_s": cc.stats.get("saturation", 0.0),
        "checkers.level_self_s": sum(
            tracer.total(f"checkers.{level}")
            - sum(result.stats.get(lap, 0.0) for lap in _LEVEL_LAPS)
            for level, result in results.items()
        ),
        "runtime.gc_collections_fold": gc_ingest,
        "runtime.gc_collections_check": gc_check,
    }
    layers.update(_commit_layers(results.values()))
    self_times = (
        "formats.parse_s",
        "ir.build_s",
        "checkers.read_consistency_s",
        "checkers.repeatable_reads_s",
        "checkers.happens_before_s",
        "checkers.level_self_s",
        "kernels.rc_saturation_s",
        "kernels.ra_saturation_s",
        "kernels.cc_saturation_s",
        "commit.freeze_s",
        "commit.acyclicity_s",
        "commit.witness_s",
    )
    return _traced(tracer, root, layers, self_times, results, compiled.num_operations)


def trace_stream(spec: dict) -> dict:
    from repro.core import IsolationLevel
    from repro.core.compiled.online import CompiledIncrementalChecker, source_fingerprint
    from repro.histories.formats import stream_raw_batches
    from repro.stream.runner import DEFAULT_CHECKPOINT_EVERY

    checkpoint = spec["checkpoint"]
    checker = CompiledIncrementalChecker(
        levels=(IsolationLevel.CAUSAL_CONSISTENCY,),
        max_witnesses=spec["witnesses"],
        retire=_retire_policy(spec),
    )
    fold_laps = checker.enable_fold_profile()
    tracer = Tracer()
    gc_start = gc_collections()
    root = tracer.open("check")
    source = None if checkpoint is None else source_fingerprint(spec["path"])
    since_checkpoint = 0
    batches = stream_raw_batches(spec["path"])
    while True:
        span = tracer.open("formats.parse", root)
        batch = next(batches, None)
        tracer.close(span)
        if batch is None:
            break
        span = tracer.open("online.fold", root)
        checker.append_batch(batch)
        tracer.close(span)
        if checkpoint is not None:
            since_checkpoint += len(batch.txn_end)
            if since_checkpoint >= DEFAULT_CHECKPOINT_EVERY:
                span = tracer.open("checkpoint.save", root)
                checker.save_checkpoint(checkpoint, source=source)
                tracer.close(span)
                since_checkpoint = 0
    if checkpoint is not None:
        span = tracer.open("checkpoint.save", root)
        checker.save_checkpoint(checkpoint, source=source)
        tracer.close(span)
    gc_fold = gc_collections() - gc_start
    # Fold-phase peak: everything up to here, before finalize reloads
    # retired segments and replays the edge logs.
    fold_peak = peak_rss_mb()
    live = checker.live_stats()
    span = tracer.open("online.finalize", root)
    result = checker.finalize()[IsolationLevel.CAUSAL_CONSISTENCY]
    tracer.close(span)
    tracer.close(root)
    gc_check = gc_collections() - gc_start

    fast = live["resolve_fast_path"]
    resolved = fast + live["resolve_slow_path"] + live["resolve_parked"]
    joins = live["cc_joins_vectorized"] + live["cc_joins_fallback"]
    layers = {
        "formats.parse_s": tracer.total("formats.parse"),
        "formats.batches": tracer.count("formats.parse") - 1,
        "ir.interned_values": live["interned_values"],
        "online.fold_s": tracer.total("online.fold"),
        "online.intern_s": fold_laps["intern"],
        "online.dispatch_s": fold_laps["dispatch"],
        "online.classify_s": fold_laps["classify"],
        "online.clock_join_s": fold_laps["clock_join"],
        "online.join_vectorized_ratio": live["cc_joins_vectorized"] / joins if joins else 0.0,
        "online.resolve_fast": fast,
        "online.resolve_slow": live["resolve_slow_path"],
        "online.resolve_parked": live["resolve_parked"],
        "online.fast_path_ratio": fast / resolved if resolved else 0.0,
        "online.peak_pending_reads": live["peak_pending_reads"],
        "online.finalize_s": tracer.total("online.finalize"),
        "online.fold_peak_rss_mb": fold_peak,
        "online.resident_txns": live["resident_transactions"],
        "retire.passes": live["retire_passes"],
        "retire.retired_txns": live["retired_transactions"],
        "retire.spilled_edges": live["spilled_edges"],
        "checkpoint.saves": tracer.count("checkpoint.save"),
        "checkpoint.save_s": tracer.total("checkpoint.save"),
        "checkpoint.bytes": os.path.getsize(checkpoint) if checkpoint else 0,
        "runtime.gc_collections_fold": gc_fold,
        "runtime.gc_collections_check": gc_check,
    }
    layers.update(_commit_layers([result]))
    # The fold's sub-laps and finalize's commit laps are nested in their
    # spans, so the top-level spans alone partition the traced total.
    self_times = ("formats.parse_s", "online.fold_s", "checkpoint.save_s", "online.finalize_s")
    return _traced(tracer, root, layers, self_times, {CC: result}, result.num_operations)


def _traced(tracer, root, layers, self_times, results, operations) -> dict:
    _, start, end, _ = tracer.spans[root]
    total = end - start
    layers["trace.total_s"] = total
    layers["trace.unaccounted_s"] = total - sum(layers[name] for name in self_times)
    return {
        "check_s": total,
        "verdicts": {level: _verdict(result) for level, result in results.items()},
        "operations": operations,
        "kernels": {level: _kernels(result.stats) for level, result in results.items()},
        "layers": layers,
    }


RUNNERS = {
    ("e2e", "batch"): e2e_batch,
    ("e2e", "stream"): e2e_stream,
    ("trace", "batch"): trace_batch,
    ("trace", "stream"): trace_stream,
}


def main(argv) -> int:
    spec = json.loads(argv[2])
    runner = RUNNERS[(argv[1], spec["mode"])]
    # Setup: the CLI, the kernels, and every module a check imports.
    import repro.cli  # noqa: F401
    import repro.core.compiled.kernels  # noqa: F401
    import repro.histories.formats  # noqa: F401
    import repro.stream.runner  # noqa: F401

    print("ready", flush=True)
    result = runner(spec)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
