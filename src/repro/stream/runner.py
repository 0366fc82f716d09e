"""Streaming-mode dispatch: engines and checkpoints.

The batch side of the repo dispatches one *engine* axis
(``object | compiled``); this module gives streaming (*mode*) the same
orthogonal treatment:

* ``engine="compiled"`` (the default via ``"auto"``) checks with the
  :class:`~repro.core.compiled.online.CompiledIncrementalChecker` -- raw
  parser records in, no model objects on the hot path;
* ``engine="object"`` keeps the original
  :class:`~repro.stream.incremental.IncrementalChecker` as the independent
  reference implementation for parity testing.

:func:`check_stream_file` is the CLI's ``awdit check --stream`` entry point
and carries the checkpoint/resume surface: ``checkpoint=`` serializes the
online state every ``checkpoint_every`` transactions (and once more before
finalizing), ``resume=True`` restores it and skips the records the
checkpoint already consumed.  :func:`check_history_stream` runs the same
engines over an in-memory history (the parity harness behind
``check(..., mode="stream")``).
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.core.compiled.ir import CompiledHistory
from repro.core.compiled.online import (
    CompiledIncrementalChecker,
    check_stream_compiled,
    load_checkpoint,
    source_fingerprint,
)
from repro.core.compiled.retire import RetirementPolicy
from repro.core.isolation import IsolationLevel
from repro.core.model import History
from repro.core.result import CheckResult
from repro.histories.formats._raw import RawTransaction, RecordBatch
from repro.stream.incremental import IncrementalChecker

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "STREAM_ENGINES",
    "check_all_levels_history_stream",
    "check_history_stream",
    "check_stream_file",
    "history_records",
    "iter_raw_batches",
    "iter_raw_records",
    "stream_live_stats",
]

#: Engines accepted by the streaming mode.  ``auto`` resolves to
#: ``compiled``.
STREAM_ENGINES = ("auto", "compiled", "object")

#: Default checkpoint cadence (transactions between saves).
DEFAULT_CHECKPOINT_EVERY = 10_000

_RawRecord = Tuple[object, RawTransaction]


def history_records(
    history: Union[History, CompiledHistory],
) -> Iterator[_RawRecord]:
    """Raw ``(session, (label, committed, ops))`` records of an in-memory history.

    Records come in the on-disk file order (session by session), which is
    the order the streaming parsers would deliver them.
    """
    if isinstance(history, CompiledHistory):
        key_objs = history.key_table.values
        value_objs = history.value_table.values
        op_kind = history.op_kind
        op_key = history.op_key
        op_value = history.op_value
        txn_start = history.txn_start
        for sid, session in enumerate(history.sessions):
            for tid in session:
                lo, hi = txn_start[tid], txn_start[tid + 1]
                ops = [
                    (bool(op_kind[i]), key_objs[op_key[i]], value_objs[op_value[i]])
                    for i in range(lo, hi)
                ]
                yield sid, (
                    history.labels.get(tid),
                    bool(history.txn_committed[tid]),
                    ops,
                )
        return
    for sid, session in enumerate(history.sessions):
        for tid in session:
            txn = history.transactions[tid]
            ops = [(op.is_write, op.key, op.value) for op in txn.operations]
            yield sid, (txn.label, txn.committed, ops)


def iter_raw_batches(
    path: str,
    fmt: Optional[str] = None,
    batch_ops: Optional[int] = None,
) -> Iterator[RecordBatch]:
    """Record batches of ``path`` in file order (the streaming parse)."""
    from repro.histories.formats import stream_raw_batches

    return stream_raw_batches(path, fmt, batch_ops=batch_ops)


def iter_raw_records(
    path: str,
    fmt: Optional[str] = None,
    batch_ops: Optional[int] = None,
) -> Iterator[_RawRecord]:
    """Raw records of ``path`` in file order.

    The record-at-a-time wrapper over :func:`iter_raw_batches`; consumers
    that can fold whole batches should use :func:`iter_raw_batches`
    directly.
    """
    for batch in iter_raw_batches(path, fmt=fmt, batch_ops=batch_ops):
        for record in batch.iter_records():
            yield record


def _gc_collections() -> int:
    """Total collector runs across all generations (``--profile`` deltas)."""
    return sum(entry["collections"] for entry in gc.get_stats())


def _resolve_stream_engine(engine: str) -> str:
    if engine not in STREAM_ENGINES:
        raise ValueError(
            f"unknown streaming engine {engine!r}; expected one of {STREAM_ENGINES}"
        )
    return "compiled" if engine == "auto" else engine


def check_history_stream(
    history: Union[History, CompiledHistory],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    engine: str = "auto",
    max_witnesses: Optional[int] = None,
    retire: Optional[RetirementPolicy] = None,
) -> CheckResult:
    """Stream an in-memory history through the chosen online engine.

    This is ``check(history, level, mode="stream")``: the history's
    transactions are replayed in file order into the online checker.
    ``retire`` enables watermark-based retirement on either engine.
    """
    resolved = _resolve_stream_engine(engine)
    if resolved == "object":
        if isinstance(history, CompiledHistory):
            raise ValueError("a CompiledHistory requires a compiled-IR engine")
        checker = IncrementalChecker(
            levels=(level,),
            num_sessions=history.num_sessions,
            max_witnesses=max_witnesses,
            retire=retire,
        )
        for sid, session in enumerate(history.sessions):
            for tid in session:
                checker.append(sid, history.transactions[tid])
        return checker.finalize()[level]
    return check_stream_compiled(
        history_records(history),
        level,
        max_witnesses=max_witnesses,
        num_sessions=history.num_sessions,
        retire=retire,
    )


def check_all_levels_history_stream(
    history: Union[History, CompiledHistory],
    engine: str = "auto",
    max_witnesses: Optional[int] = None,
    retire: Optional[RetirementPolicy] = None,
) -> dict:
    """Stream an in-memory history once, checking all three levels together.

    The all-levels analogue of :func:`check_history_stream`
    (``check_all_levels(..., mode="stream")``): one online pass maintains
    RC, RA, and CC state simultaneously and one finalize emits all three
    results.
    """
    resolved = _resolve_stream_engine(engine)
    if resolved == "object":
        if isinstance(history, CompiledHistory):
            raise ValueError("a CompiledHistory requires a compiled-IR engine")
        checker: object = IncrementalChecker(
            num_sessions=history.num_sessions,
            max_witnesses=max_witnesses,
            retire=retire,
        )
        for sid, session in enumerate(history.sessions):
            for tid in session:
                checker.append(sid, history.transactions[tid])
        return checker.finalize()
    compiled_checker = CompiledIncrementalChecker(
        num_sessions=history.num_sessions, max_witnesses=max_witnesses, retire=retire
    )
    compiled_checker.extend_raw(history_records(history))
    return compiled_checker.finalize()


def check_stream_file(
    path: str,
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    fmt: Optional[str] = None,
    engine: str = "auto",
    max_witnesses: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = False,
    batch_ops: Optional[int] = None,
    timings: Optional[Dict[str, float]] = None,
    retire: Optional[RetirementPolicy] = None,
    gc_tune: bool = False,
) -> CheckResult:
    """One-pass check of an on-disk history (``awdit check --stream``).

    Every engine folds the parsers' record batches (``batch_ops`` operations
    per batch; the verdict is identical for any value).  ``checkpoint`` periodically serializes the online state -- at the first
    batch boundary past every ``checkpoint_every`` transactions, and once
    more before finalizing -- so ``resume=True`` can continue an
    interrupted check, including after completion, when resuming simply
    skips every record and re-finalizes.  ``retire`` bounds resident memory
    via watermark-based retirement; on resume it enables (or re-tunes)
    retirement on the restored checker.  ``timings`` (``--profile``) receives ``parse`` /
    ``fold`` wall seconds, the fold's ``fold_intern`` / ``fold_dispatch`` /
    ``fold_classify`` / ``fold_clock_join`` sub-laps, and per-phase
    ``gc.get_stats()`` collection deltas (``parse_gc_collections`` /
    ``fold_gc_collections``).  ``gc_tune`` freezes the interpreter heap
    after the first folded batch and raises the gen-2 threshold for the
    rest of the stream (``--gc-tune``); thresholds, the freeze, and the
    collector's enabled state are restored before returning.
    """
    if batch_ops is not None and batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    resolved = _resolve_stream_engine(engine)
    if resolved == "object":
        if checkpoint is not None or resume:
            raise ValueError(
                "checkpoint/resume require the compiled streaming engine"
            )
        from repro.histories.formats import stream_raw_batches

        object_checker = IncrementalChecker(
            levels=(level,), max_witnesses=max_witnesses, retire=retire
        )
        for batch in stream_raw_batches(path, fmt, batch_ops=batch_ops):
            object_checker.append_batch(batch)
        return object_checker.finalize()[level]
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if resume:
        if checkpoint is None:
            raise ValueError("resume requires a checkpoint path")
        checker = load_checkpoint(checkpoint, source_path=path)
        if level not in checker.levels:
            raise ValueError(
                f"checkpoint tracks {[lvl.short_name for lvl in checker.levels]}, "
                f"not {level.short_name}; re-run without --resume"
            )
        # The resumed run's witness budget wins over the one pickled with
        # the original checker.
        checker._max_witnesses = max_witnesses
        if retire is not None:
            checker.enable_retirement(retire)
    else:
        checker = CompiledIncrementalChecker(
            levels=(level,), max_witnesses=max_witnesses, retire=retire
        )
    skip = checker.num_transactions
    profile = timings is not None
    if profile:
        laps = checker.enable_fold_profile()
        parse_lap = 0.0
        fold_lap = 0.0
        parse_gc = 0
        fold_gc = 0
    source = None if checkpoint is None else source_fingerprint(path)
    since_checkpoint = 0
    gc_was_enabled = gc.isenabled()
    gc_thresholds = None
    try:
        batches = iter_raw_batches(path, fmt=fmt, batch_ops=batch_ops)
        while True:
            if profile:
                gc_mark = _gc_collections()
                mark = time.perf_counter()
                batch = next(batches, None)
                parse_lap += time.perf_counter() - mark
                parse_gc += _gc_collections() - gc_mark
            else:
                batch = next(batches, None)
            if batch is None:
                break
            if skip:
                # Resume: drop whole batches the checkpoint already consumed,
                # then cut the straddling batch at the resume point.
                num_records = len(batch.txn_end)
                if num_records <= skip:
                    skip -= num_records
                    continue
                batch = batch.tail(skip)
                skip = 0
            if profile:
                gc_mark = _gc_collections()
                mark = time.perf_counter()
                checker.append_batch(batch)
                fold_lap += time.perf_counter() - mark
                fold_gc += _gc_collections() - gc_mark
            else:
                checker.append_batch(batch)
            if gc_tune and gc_thresholds is None:
                # Warmup done: the first folded batch has populated the
                # intern tables, kernel registries, and column arrays.
                # Everything alive now is effectively immortal, so move it
                # out of the collector's reach and make full (gen-2)
                # collections 8x rarer -- the columnar fold allocates so
                # few tracked objects that the remaining gen-2 walks are
                # almost entirely survivors being re-scanned.
                gc.collect()
                gc.freeze()
                gc_thresholds = gc.get_threshold()
                gc.set_threshold(
                    gc_thresholds[0], gc_thresholds[1], gc_thresholds[2] * 8
                )
            if checkpoint is not None:
                since_checkpoint += len(batch.txn_end)
                if since_checkpoint >= checkpoint_every:
                    checker.save_checkpoint(checkpoint, source=source)
                    since_checkpoint = 0
    finally:
        if gc_thresholds is not None:
            gc.set_threshold(*gc_thresholds)
            gc.unfreeze()
        if gc_was_enabled and not gc.isenabled():  # pragma: no cover - defensive
            gc.enable()
        # --gc-tune must never leak a disabled collector into library
        # callers (freeze/threshold tuning does not disable it; this
        # pins that invariant).
        assert gc.isenabled() == gc_was_enabled
    if checkpoint is not None:
        checker.save_checkpoint(checkpoint, source=source)
    if profile:
        timings["parse"] = parse_lap
        timings["fold"] = fold_lap
        timings["fold_intern"] = laps["intern"]
        timings["fold_dispatch"] = laps["dispatch"]
        timings["fold_classify"] = laps["classify"]
        timings["fold_clock_join"] = laps["clock_join"]
        timings["parse_gc_collections"] = parse_gc
        timings["fold_gc_collections"] = fold_gc
    return checker.finalize()[level]


def stream_live_stats(
    path: str,
    fmt: Optional[str] = None,
    levels: Optional[Iterable[IsolationLevel]] = None,
    batch_ops: Optional[int] = None,
    retire: Optional[RetirementPolicy] = None,
) -> dict:
    """Feed ``path`` through the online core and return its live-state peaks.

    Powers ``awdit stats --stream``: the returned dict is
    :meth:`CompiledIncrementalChecker.live_stats` after the whole stream has
    been folded (but before finalize, so the reported footprint is the
    online state itself).  With ``retire`` the retirement counters show how
    much of the history has rotated into segments.
    """
    from repro.histories.formats import stream_raw_batches

    checker = CompiledIncrementalChecker(
        levels=tuple(levels) if levels is not None else None, retire=retire
    )
    for batch in stream_raw_batches(path, fmt, batch_ops=batch_ops):
        checker.append_batch(batch)
    stats = checker.live_stats()
    if checker._segments is not None:
        # Stats-only run: never finalized, so drop owned segment tempdirs.
        checker._segments.cleanup()
    return stats
