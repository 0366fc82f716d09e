"""A line-oriented text format in the style of Plume's history files.

One transaction per line::

    # comments and blank lines are ignored
    session=0 txn=t1 committed ops= W(x,1) W(y,1)
    session=1 txn=t2 committed ops= R(x,1) W(x,2)
    session=1 txn=t3 aborted   ops= W(z,9)

Transactions appear in session order within each session (lines of the same
session are taken in file order).  Values are parsed as integers when
possible and kept as strings otherwise.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.exceptions import ParseError
from repro.core.model import History, Transaction
from repro.histories.formats._raw import (
    DEFAULT_BATCH_OPS,
    RawTransaction,
    RecordBatch,
    transaction_from_raw,
)

__all__ = ["dumps", "loads", "stream", "stream_batches", "stream_ops"]

#: Sparse session ids are compacted, not filled (matching ``loads``).
COMPILED_SESSION_GAPS = False

_OP_PATTERN = re.compile(r"([RW])\(([^,()]+),([^()]*)\)")
_LINE_PATTERN = re.compile(
    r"session=(\d+)\s+txn=(\S+)\s+(committed|aborted)\s+ops=\s*(.*)"
)
#: Fast-path check: the whole ops field is well-formed operations and
#: whitespace, so the malformed-gap bookkeeping below can be skipped.
_OPS_WELL_FORMED = re.compile(r"\s*(?:[RW]\([^,()]+,[^()]*\)\s*)*\Z")


def _render_value(value: object) -> str:
    return str(value)


def _parse_value(text: str) -> object:
    # int() tolerates surrounding whitespace itself, so the common
    # integer-valued case skips the strip.
    try:
        return int(text)
    except ValueError:
        return text.strip()


def dumps(history: History, order: Optional[Iterable[int]] = None) -> str:
    """Serialize ``history`` to the line-oriented text format.

    Every line carries its ``session=`` tag, so interleaved files are
    expressible: ``order`` optionally lists the dense transaction ids in the
    file order to emit (e.g. an arrival order from the generator).
    Transactions of one session must stay in session order within ``order``
    (arrival orders always do).  The default is session-blocked order.
    """
    lines = ["# AWDIT reproduction history (plume-style text format)"]
    if order is None:
        order = (tid for session in history.sessions for tid in session)
    sid_of = [0] * len(history.transactions)
    for sid, session in enumerate(history.sessions):
        for tid in session:
            sid_of[tid] = sid
    for tid in order:
        txn = history.transactions[tid]
        ops = " ".join(
            f"{op.kind.value}({op.key},{_render_value(op.value)})"
            for op in txn.operations
        )
        status = "committed" if txn.committed else "aborted"
        label = txn.label if txn.label is not None else f"t{tid}"
        lines.append(f"session={sid_of[tid]} txn={label} {status} ops= {ops}")
    return "\n".join(lines) + "\n"


def _parse_line_into(batch: RecordBatch, line_number: int, raw_line: str) -> bool:
    """Parse one line straight into ``batch``'s columns.

    Returns ``False`` for comments and blank lines.  On a parse error the
    batch may hold a partially-appended record; the caller discards the
    whole batch on error, so no rollback is needed.
    """
    line = raw_line.strip()
    if not line or line.startswith("#"):
        return False
    match = _LINE_PATTERN.match(line)
    if match is None:
        raise ParseError(f"line {line_number}: cannot parse {line!r}")
    sid = int(match.group(1))
    ops_text = match.group(4)
    kinds = batch.kinds
    keys = batch.keys
    values = batch.values
    if _OPS_WELL_FORMED.match(ops_text):
        # Hot path: no gaps or truncation possible, so findall's C loop
        # replaces the per-match slicing below, and the operations land in
        # the batch columns with no per-op tuples at all.
        for kind, key, value in _OP_PATTERN.findall(ops_text):
            kinds.append(1 if kind == "W" else 0)
            keys.append(key.strip())
            values.append(_parse_value(value))
    else:
        # Anything between or after the matched operations is a malformed or
        # truncated operation (e.g. a mid-record EOF cutting `W(y,` off);
        # dropping it silently would pass a damaged capture as consistent.
        pos = 0
        appended = 0
        for op_match in _OP_PATTERN.finditer(ops_text):
            gap = ops_text[pos : op_match.start()].strip()
            if gap:
                raise ParseError(
                    f"line {line_number}: malformed or truncated operation {gap!r}"
                )
            kind, key, value = op_match.groups()
            kinds.append(1 if kind == "W" else 0)
            keys.append(key.strip())
            values.append(_parse_value(value))
            appended += 1
            pos = op_match.end()
        if ops_text.strip() and not appended:
            raise ParseError(
                f"line {line_number}: no operations parsed from {ops_text!r}"
            )
        leftover = ops_text[pos:].strip()
        if leftover:
            raise ParseError(
                f"line {line_number}: malformed or truncated operation {leftover!r}"
            )
    batch.txn_session.append(sid)
    batch.txn_labels.append(match.group(2))
    batch.txn_committed.append(1 if match.group(3) == "committed" else 0)
    batch.txn_line.append(line_number)
    batch.txn_end.append(len(kinds))
    return True


def stream_batches(
    handle: Iterable[str],
    batch_ops: Optional[int] = None,
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns of up to ``batch_ops`` operations.

    One line is one transaction, so the parse is naturally one-pass; lines of
    one session must appear in session order (they always do in files written
    by :func:`dumps`).  Like :func:`loads`, a file with no transactions at
    all is rejected (a truncated capture must not pass as consistent), and a
    ``txn=`` id repeated within one session is rejected as a duplicate
    transaction id (memory cost: one label reference per transaction).
    Errors surface immediately with the offending line's context; the
    partially-filled batch holding earlier, well-formed records is
    discarded, never yielded.
    """
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    if batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    empty = True
    seen_labels: Dict[int, set] = {}
    batch = RecordBatch()
    for line_number, raw_line in enumerate(handle, start=1):
        if not _parse_line_into(batch, line_number, raw_line):
            continue
        sid = batch.txn_session[-1]
        label = batch.txn_labels[-1]
        session_labels = seen_labels.setdefault(sid, set())
        if label in session_labels:
            raise ParseError(
                f"line {line_number}: duplicate transaction id {label!r} "
                f"in session {sid}"
            )
        session_labels.add(label)
        empty = False
        if batch.full(batch_ops):
            yield batch
            batch = RecordBatch()
    if len(batch.txn_end):
        yield batch
    if empty:
        raise ParseError("history file contains no transactions")


def stream_ops(handle: Iterable[str]) -> Iterator[Tuple[int, RawTransaction]]:
    """Iterate raw ``(session_id, (label, committed, ops))`` records.

    The per-record unbatching shim over :func:`stream_batches`;
    ``batch_ops=1`` keeps the legacy error timing exactly (every record is
    yielded before the line after it can raise).
    """
    for batch in stream_batches(handle, batch_ops=1):
        for record in batch.iter_records():
            yield record


def stream(handle: Iterable[str]) -> Iterator[Tuple[int, Transaction]]:
    """Iterate ``(session_id, transaction)`` pairs off an open plume-style file.

    The object-yielding wrapper over :func:`stream_ops`.
    """
    for sid, raw in stream_ops(handle):
        yield sid, transaction_from_raw(raw)


def loads(text: str) -> History:
    """Parse a history from the line-oriented text format."""
    sessions: Dict[int, List[Transaction]] = {}
    # stream() rejects input with no transactions, so `sessions` is non-empty.
    for sid, transaction in stream(text.splitlines()):
        sessions.setdefault(sid, []).append(transaction)
    ordered = [sessions[sid] for sid in sorted(sessions)]
    return History.from_sessions(ordered)
