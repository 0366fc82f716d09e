"""Byte-range splitting of line-oriented history files.

Parallel ingestion used to replicate the parse: every worker read the whole
file and kept only its own sessions' records.  For the line-oriented formats
(plume, cobra) the file can instead be cut into byte regions aligned to
*record boundaries*, so each region is parsed exactly once, by one worker,
and the regions concatenate back to the original record sequence (regions
are in file order, and a session's records keep their relative order across
regions).

Formats opt in with a ``BYTE_RANGE_RECORDS`` module attribute:

* ``"line"`` (plume): one transaction per line -- any newline is a boundary.
* ``"cobra"``: a transaction is a run of lines sharing a ``(session,
  txn_index)`` ident -- a candidate cut is advanced line by line until the
  ident changes, so no transaction is ever split across regions.

Two validations the serial parsers run per file must instead run *across*
regions at merge time (each region parser only sees its slice):
plume's duplicate-``txn=`` check and cobra's per-session index-contiguity
check.  The region parsers export the needed per-session state
(``labels_out`` / ``spans_out``) in a :class:`RangeSummary`;
:func:`validate_range_summaries` chains them in region order and raises the
same :class:`~repro.core.exceptions.ParseError` the serial parse would.
Error messages carry the region's byte offsets instead of absolute line
numbers (a region parser cannot know how many lines precede it without
re-reading the prefix, which is exactly what splitting avoids).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.exceptions import ParseError
from repro.histories.formats import _module_for, _utf8_error
from repro.histories.formats._raw import RawTransaction, RecordBatch

__all__ = [
    "RangeSummary",
    "parse_byte_range",
    "parse_byte_range_batches",
    "split_byte_ranges",
    "splittable",
    "validate_range_summaries",
]


def splittable(path: str, fmt: Optional[str] = None) -> bool:
    """Whether the (detected) format of ``path`` supports byte-range splits."""
    module = _module_for(fmt, path)
    return getattr(module, "BYTE_RANGE_RECORDS", None) is not None


@dataclass
class RangeSummary:
    """Per-region record counts plus the cross-region validation state."""

    start: int
    end: int
    records: int = 0
    #: plume: per-session sets of ``txn=`` labels seen in this region.
    labels: Dict[int, Set[str]] = field(default_factory=dict)
    #: cobra: per-session ``(first, last)`` txn indices seen in this region.
    spans: Dict[int, Tuple[int, int]] = field(default_factory=dict)


def _align_to_line(handle, offset: int) -> int:
    """The first line-start position at or after ``offset``."""
    if offset <= 0:
        return 0
    handle.seek(offset)
    handle.readline()  # discard the (possibly partial) current line
    return handle.tell()


def _cobra_ident(line: bytes) -> Optional[Tuple[bytes, bytes]]:
    """The ``(session, txn_index)`` ident of a cobra line (None for blanks)."""
    stripped = line.strip()
    if not stripped:
        return None
    fields = stripped.split(b",", 2)
    if len(fields) < 2:
        return (stripped, b"")
    return (fields[0], fields[1])


def _align_to_record(handle, offset: int, size: int, kind: str) -> int:
    """The first record-boundary position at or after ``offset``."""
    position = _align_to_line(handle, offset)
    if kind == "line" or position >= size:
        return min(position, size)
    # cobra: advance past the lines that continue the transaction the
    # previous region will finish (same (session, txn_index) ident).
    first_ident = None
    while position < size:
        line = handle.readline()
        if not line:
            break
        ident = _cobra_ident(line)
        if ident is not None:
            if first_ident is None:
                first_ident = ident
            elif ident != first_ident:
                return position
        position += len(line)
    return min(position, size)


def _contains_byte(path: str, needle: bytes) -> bool:
    """Whether the file contains ``needle`` (chunked scan, C-level find)."""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return False
            if needle in chunk:
                return True


def split_byte_ranges(
    path: str, parts: int, fmt: Optional[str] = None
) -> Optional[List[Tuple[int, int]]]:
    """Split ``path`` into up to ``parts`` record-aligned byte ranges.

    Returns ``None`` when the file cannot be safely split: the JSON formats
    have no line-level record boundaries, and a cobra file containing any
    CSV quoting (``"``) may hold values with embedded newlines, which only
    the serial csv parse can cross -- a newline inside a quoted field is
    not a record boundary.  The returned ranges are non-empty, contiguous,
    in file order, and cover the file exactly; fewer than ``parts`` ranges
    come back when record boundaries are sparse (e.g. one huge
    transaction).
    """
    module = _module_for(fmt, path)
    kind = getattr(module, "BYTE_RANGE_RECORDS", None)
    if kind is None:
        return None
    if kind == "cobra" and _contains_byte(path, b'"'):
        return None
    size = os.path.getsize(path)
    if parts <= 1 or size == 0:
        return [(0, size)]
    cuts = {0, size}
    with open(path, "rb") as handle:
        for i in range(1, parts):
            target = size * i // parts
            cuts.add(_align_to_record(handle, target, size, kind))
    ordered = sorted(cuts)
    return [
        (lo, hi) for lo, hi in zip(ordered, ordered[1:]) if hi > lo
    ]


def parse_byte_range_batches(
    path: str,
    start: int,
    end: int,
    fmt: Optional[str] = None,
    batch_ops: Optional[int] = None,
) -> Tuple[List[RecordBatch], RangeSummary]:
    """Parse the byte region ``[start, end)`` of ``path`` into record batches.

    The columnar sibling of :func:`parse_byte_range` and the worker body of
    parallel sharded ingestion: the region's records come back as
    :class:`RecordBatch` columns of up to ``batch_ops`` operations (in file
    order), which pickle far smaller across the worker pool than per-record
    tuples, plus the :class:`RangeSummary` that
    :func:`validate_range_summaries` chains.  Parse failures carry the
    region's byte offsets for context.
    """
    module = _module_for(fmt, path)
    kind = getattr(module, "BYTE_RANGE_RECORDS", None)
    if kind is None:
        raise ParseError(f"{path}: format does not support byte-range parsing")
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read(end - start)
    # Split on '\n' only, exactly like text-mode file iteration: splitlines()
    # would additionally cut on unicode line separators (U+2028 etc.) inside
    # values, diverging from the serial parse.  A trailing '\r' (CRLF files)
    # is stripped like universal-newlines decoding would.
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    if lines and lines[-1] == "":
        lines.pop()
    lines = [
        line[:-1] if line.endswith("\r") else line for line in lines
    ]
    summary = RangeSummary(start=start, end=end)
    try:
        if kind == "line":
            batches = list(
                module.stream_batches(
                    lines,
                    batch_ops=batch_ops,
                    allow_empty=True,
                    labels_out=summary.labels,
                )
            )
        else:
            batches = list(
                module.stream_batches(
                    lines,
                    batch_ops=batch_ops,
                    allow_empty=True,
                    spans_out=summary.spans,
                )
            )
    except ParseError as exc:
        raise ParseError(f"byte range {start}-{end}: {exc}") from exc
    summary.records = sum(len(batch.txn_end) for batch in batches)
    return batches, summary


def parse_byte_range(
    path: str, start: int, end: int, fmt: Optional[str] = None
) -> Tuple[List[Tuple[int, RawTransaction]], RangeSummary]:
    """Parse the record-aligned byte region ``[start, end)`` of ``path``.

    The record-at-a-time wrapper over :func:`parse_byte_range_batches`:
    returns the region's raw records (in file order) plus the
    :class:`RangeSummary` that :func:`validate_range_summaries` chains.
    """
    batches, summary = parse_byte_range_batches(path, start, end, fmt=fmt)
    records: List[Tuple[int, RawTransaction]] = []
    for batch in batches:
        records.extend(batch.iter_records())
    return records, summary


def validate_range_summaries(
    path: str, summaries: List[RangeSummary], fmt: Optional[str] = None
) -> None:
    """Run the cross-region validations the serial parsers do per file.

    ``summaries`` must be in region (= file) order.  Raises the same
    :class:`ParseError` kinds the serial parse would: an entirely empty
    history, a ``txn=`` label repeated within one session (plume), or
    per-session txn indices that do not increase across regions (cobra).
    """
    module = _module_for(fmt, path)
    kind = getattr(module, "BYTE_RANGE_RECORDS", None)
    if sum(summary.records for summary in summaries) == 0:
        if kind == "cobra":
            raise ParseError("empty cobra-style history")
        raise ParseError("history file contains no transactions")
    if kind == "line":
        merged: Dict[int, Set[str]] = {}
        for summary in summaries:
            for sid, labels in summary.labels.items():
                seen = merged.setdefault(sid, set())
                duplicates = seen & labels
                if duplicates:
                    label = sorted(duplicates)[0]
                    raise ParseError(
                        f"byte range {summary.start}-{summary.end}: duplicate "
                        f"transaction id {label!r} in session {sid}"
                    )
                seen |= labels
    else:
        last_index: Dict[int, int] = {}
        for summary in summaries:
            for sid, (first, last) in summary.spans.items():
                previous = last_index.get(sid)
                if previous is not None and first <= previous:
                    raise ParseError(
                        f"byte range {summary.start}-{summary.end}: rows of "
                        f"session {sid} are not contiguous per transaction "
                        f"(saw txn index {first} after {previous})"
                    )
                last_index[sid] = last
