"""Watermark-based retirement: bounded resident state for eternal streams.

The online folds (:class:`repro.core.compiled.online.CompiledIncrementalChecker`
and the object-path :class:`repro.stream.incremental.IncrementalChecker`) drop
per-operation data as soon as a transaction resolves, but their *summary*
state -- transaction records, the duplicate-write registry, the CC writer
registry, and the retained packed-edge logs -- still grows with history
length.  This module holds everything the two engines share to turn that into
memory bounded by the *live window*:

* :class:`RetirementPolicy` -- the knobs (``lag``, ``every``, ``segment_dir``).
* :func:`low_watermark` -- the global low-watermark over the per-session
  vector clocks: ``wm[s] = min over all sessions s' of clock[s'][s]``.  A
  committed transaction whose session index is at or below the watermark of
  its session has been passed by *every* frontier; no future causal probe can
  bind later than it.
* :class:`SegmentStore` -- the archival segment format.  Each retirement pass
  rotates the retired transactions' metadata, their write-read edges, the
  finalized portion of the edge logs, and the digests of evicted write
  identities into one segment file of raw columns under a versioned header
  and a blake2b checksum (:func:`encode_segment`; no pickle, so loading one
  runs no code, and a truncated or garbled file is a one-line refusal);
  finalize reloads the segments as columns (:class:`RetiredState`) to
  render verdicts and witnesses byte-identical to a never-evicting run.
* :func:`stable_digest` -- a 64-bit blake2b digest of a ``(key, value)``
  write identity.  Digests live *on disk only* (inside segments), so the
  resident overhead of remembering every evicted write is zero; the
  duplicate-identity and retired-read refusal scans run once at finalize
  against the reloaded runs.  ``hash()`` would not do: it varies per process
  (``PYTHONHASHSEED``), and the scans must survive checkpoint/resume.
* :class:`RetiredAccessError` -- raised at finalize when the history turned
  out to need retired state (a read of an evicted write, or a re-write of an
  evicted ``(key, value)`` identity).  Retirement trades the silent-divergence
  risk for an explicit refusal: re-check without ``--retire`` or with a larger
  ``--retire-lag``.

Why refusal is sound: a write identity registered twice with an eviction in
between necessarily leaves its digest in two places -- the first eviction's
segment, plus either a later segment or the still-resident registry -- so the
finalize merge sees a duplicate.  (Two evictions of one identity land in
*different* segments because passes are temporally ordered.)  A pending read
whose value matches no resident write is probed against the merged digests
before it is reported as thin-air.  The probability of a spurious collision
between two honest 64-bit digests is ~3e-8 at a million evicted identities.
"""

from __future__ import annotations

import os
import struct
import sys
import tempfile
from array import array
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.compiled.kernels import EdgeLog
from repro.core.model import HistoryFormatError

#: Default number of most-recent transactions exempt from retirement.  Keeping
#: a tail resident costs little and keeps the common "read something written a
#: moment ago" out of the refusal path entirely.
DEFAULT_LAG = 4096

#: Default retirement cadence: attempt a pass every this many appended
#: transactions.  A pass costs work proportional to what it retires (the
#: eligibility scan, the segment columns, the evicted writes), plus numpy
#: masks over the resident kernel mirrors; the shared run arrays, the
#: writer registry and the value-intern table compact only once their
#: garbage reaches their live size, so that O(live) rebuild amortizes to
#: O(1) per retired entry.  The cadence batches the per-pass overhead.
DEFAULT_EVERY = 1024


class RetiredAccessError(HistoryFormatError):
    """The history needed state that retirement already evicted.

    Raised at finalize, before any verdict is reported, so an evicting run
    never *silently* diverges from a non-evicting run: it either matches it
    byte for byte or refuses with this error.
    """


@dataclass(frozen=True)
class RetirementPolicy:
    """Knobs for watermark-based retirement.

    ``lag`` is the number of most-recent transactions never retired;
    ``every`` is the pass cadence in appended transactions; ``segment_dir``
    is where archival segments rotate (``None`` means a private temporary
    directory that finalize deletes).
    """

    lag: int = DEFAULT_LAG
    every: int = DEFAULT_EVERY
    segment_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.lag < 0:
            raise ValueError("retirement lag must be >= 0")
        if self.every < 1:
            raise ValueError("retirement cadence must be >= 1")


@dataclass
class RetireStats:
    """Counters surfaced through ``live_stats()`` / ``awdit stats --stream``."""

    retired_transactions: int = 0
    passes: int = 0  # retirement passes that retired at least one transaction
    remap_epochs: int = 0  # value-intern/registry renumbering compactions
    segments: int = 0
    evicted_writes: int = 0
    spilled_edges: int = 0
    #: High-water mark of resident transaction summaries measured immediately
    #: after each compaction -- the honest "how big does the live window stay"
    #: number (mid-pass growth between passes is bounded by ``every + lag``).
    post_compaction_peak: int = 0
    #: Wall seconds spent inside retirement passes (eligibility scan
    #: included), so the cost of ``--retire`` is visible without a profiler.
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "retired_transactions": self.retired_transactions,
            "retire_passes": self.passes,
            "remap_epochs": self.remap_epochs,
            "retire_segments": self.segments,
            "evicted_writes": self.evicted_writes,
            "spilled_edges": self.spilled_edges,
            "post_compaction_peak_resident": self.post_compaction_peak,
            "retire_seconds": self.seconds,
        }


def low_watermark(
    session_clock: Sequence[Sequence[int]], num_sessions: int
) -> List[int]:
    """Per-session global low-watermark over the happens-before clocks.

    ``wm[s]`` is the largest session index of ``s`` that *every* session's
    clock has reached: ``min over s' of session_clock[s'][s]``, with a clock
    too short to mention ``s`` contributing ``-1``.  A committed transaction
    at ``sidx <= wm[sid]`` can never again be the answer to a causal
    latest-writer probe strictly *after* the watermark, because every future
    probe's bound is at least the watermark.  Sessions that fall idle freeze
    the watermark (their clocks stop advancing); that is the documented cost
    of a non-communicating participant.
    """
    wm = [-1] * num_sessions
    for s in range(num_sessions):
        best: Optional[int] = None
        for clock in session_clock:
            value = clock[s] if s < len(clock) else -1
            if best is None or value < best:
                best = value
                if best < 0:
                    break
        wm[s] = -1 if best is None else best
    return wm


def low_watermark_flat(data, stride: int, num_sessions: int) -> List[int]:
    """:func:`low_watermark` over the flat row-major session-clock matrix.

    ``data`` is one ``array('q')`` of ``num_sessions`` rows, each ``stride``
    wide and ``-1``-padded ("missing" has the same ``-1`` semantics as a
    too-short clock list), so ``wm[s]`` is the column minimum with the same
    early ``-1`` break as the list form.  Value-identical to
    :func:`low_watermark` on the equivalent list-of-lists state.
    """
    wm = [-1] * num_sessions
    for s in range(num_sessions):
        best = data[s]
        if best >= 0:
            for r in range(1, num_sessions):
                value = data[r * stride + s]
                if value < best:
                    best = value
                    if best < 0:
                        break
        wm[s] = best
    return wm


def stable_digest(key: object, value: object) -> int:
    """64-bit process-stable digest of a ``(key, value)`` write identity."""
    payload = f"{key!r}\x1f{value!r}".encode("utf-8", "backslashreplace")
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


#: Segment file header: magic, format version, then the row counts
#: ``first_tid, txns, label_bytes, any, good, rc, ra, ra_so, cc, digests``.
SEGMENT_MAGIC = b"AWDITSEG"
SEGMENT_VERSION = 1
_HEADER = struct.Struct("<8sB7x10q")
_CHECKSUM_BYTES = 32
_SEGMENT_SUFFIX = ".seg"
#: The spilled edge logs, in file order.
LOG_NAMES = ("rc", "ra", "ra_so", "cc")

#: Segment row flags: bit 0 committed, bit 1 the good map is stored apart
#: from the any map (otherwise the two are equal).
FLAG_COMMITTED = 1
FLAG_OWN_GOOD = 2

_BIG_ENDIAN = sys.byteorder == "big"


def _le(column, typecode: str) -> bytes:
    """Little-endian bytes of an ``array`` or numpy column."""
    data = column if isinstance(column, bytes) else column.tobytes()
    if _BIG_ENDIAN and typecode != "B":  # pragma: no cover - little-endian CI
        swapped = array(typecode)
        swapped.frombytes(data)
        swapped.byteswap()
        data = swapped.tobytes()
    return data


def _corrupt_segment(path: str) -> HistoryFormatError:
    return HistoryFormatError(
        f"{path}: retirement segment is truncated or corrupt; re-run without --resume"
    )


def encode_segment(
    first_tid: int,
    sid,
    sidx,
    flags,
    labels: Sequence[Optional[str]],
    wr_any: Tuple[object, object, object],
    wr_good: Tuple[object, object, object],
    logs: Dict[str, Tuple[bytes, bytes, bytes]],
    digests: Sequence[int],
) -> bytes:
    """One retirement pass as a segment file's bytes.

    The columns are ``array``s or numpy vectors: per retired transaction
    (transaction ``first_tid + i`` is row ``i``) its session id, session
    index and :data:`FLAG_COMMITTED`/:data:`FLAG_OWN_GOOD` flags (int64,
    int64, uint8) and its label; the first-read-per-writer maps as
    ``(reader, writer, kid)`` int64 triples in reader order (``wr_good``
    holds only the rows flagged :data:`FLAG_OWN_GOOD`); the spilled
    edge-log rows as :meth:`~repro.core.compiled.kernels.EdgeLog.spill`
    payloads; and the sorted digests of the evicted write identities.
    Labels are UTF-8 (lone surrogates pass through) with a per-row byte
    length, ``-1`` for no label.  A blake2b checksum of everything before
    it closes the file.
    """
    count = len(sid)
    if labels.count(None) == count:
        lengths = array("q", [-1]) * count
        blob = b""
    else:
        encoded = [
            None if label is None else str(label).encode("utf-8", "surrogatepass")
            for label in labels
        ]
        lengths = array("q", [-1 if e is None else len(e) for e in encoded])
        blob = b"".join(e for e in encoded if e is not None)
    log_rows = [logs.get(name, (b"", b"", b"")) for name in LOG_NAMES]
    parts = [
        _HEADER.pack(
            SEGMENT_MAGIC,
            SEGMENT_VERSION,
            first_tid,
            count,
            len(blob),
            len(wr_any[0]),
            len(wr_good[0]),
            *(len(rows[0]) // 8 for rows in log_rows),
            len(digests),
        ),
        _le(sid, "q"),
        _le(sidx, "q"),
        _le(lengths, "q"),
        _le(flags, "B"),
        blob,
    ]
    parts.extend(_le(column, "q") for column in wr_any)
    parts.extend(_le(column, "q") for column in wr_good)
    for rows in log_rows:
        parts.extend(_le(column, code) for column, code in zip(rows, "Qqq"))
    parts.append(_le(array("Q", digests), "Q"))
    body = b"".join(parts)
    return body + blake2b(body, digest_size=_CHECKSUM_BYTES).digest()


class Segment:
    """One decoded segment: the columns :func:`encode_segment` wrote."""

    __slots__ = (
        "path", "first_tid", "sid", "sidx", "flags", "labels",
        "wr_any", "wr_good", "logs", "digests",
    )


def read_segment(path: str) -> Segment:
    """Decode and verify one segment file.

    A missing file, a short or long one, a bad header or a checksum
    mismatch all raise the same one-line
    :class:`~repro.core.exceptions.HistoryFormatError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise _corrupt_segment(path) from None
    if len(data) < _HEADER.size + _CHECKSUM_BYTES:
        raise _corrupt_segment(path)
    body = memoryview(data)[:-_CHECKSUM_BYTES]
    if blake2b(body, digest_size=_CHECKSUM_BYTES).digest() != data[-_CHECKSUM_BYTES:]:
        raise _corrupt_segment(path)
    magic, version, first_tid, count, blob_len, n_any, n_good, *counts = (
        _HEADER.unpack_from(data)
    )
    n_digests = counts.pop()
    if magic != SEGMENT_MAGIC or version != SEGMENT_VERSION:
        raise _corrupt_segment(path)
    sizes = [8 * count] * 3 + [count, blob_len] + [8 * n_any] * 3 + [8 * n_good] * 3
    for n in counts:
        sizes.extend([8 * n] * 3)
    sizes.append(8 * n_digests)
    if min(sizes) < 0 or _HEADER.size + sum(sizes) != len(body):
        raise _corrupt_segment(path)
    codes = "qqqB" + "s" + "qqq" * 2 + "Qqq" * len(LOG_NAMES) + "Q"
    columns = []
    offset = _HEADER.size
    for code, size in zip(codes, sizes):
        chunk = body[offset : offset + size]
        offset += size
        if code == "s":
            columns.append(chunk.tobytes())
            continue
        column = array(code)
        column.frombytes(chunk)
        if _BIG_ENDIAN and code != "B":  # pragma: no cover - little-endian CI
            column.byteswap()
        columns.append(column)
    segment = Segment()
    segment.path = path
    segment.first_tid = first_tid
    segment.sid, segment.sidx, lengths, segment.flags, blob = columns[:5]
    segment.wr_any = tuple(columns[5:8])
    segment.wr_good = tuple(columns[8:11])
    segment.logs = {
        name: tuple(columns[11 + 3 * i : 14 + 3 * i])
        for i, name in enumerate(LOG_NAMES)
        if counts[i]
    }
    segment.digests = columns[-1]
    if lengths.count(-1) == count:
        segment.labels = [None] * count
    else:
        labels: List[Optional[str]] = []
        at = 0
        try:
            for n in lengths:
                if n < 0:
                    labels.append(None)
                else:
                    labels.append(blob[at : at + n].decode("utf-8", "surrogatepass"))
                    at += n
        except UnicodeDecodeError:
            raise _corrupt_segment(path) from None
        if at != blob_len:
            raise _corrupt_segment(path)
        segment.labels = labels
    return segment


class SegmentStore:
    """Archival segments for retired history.

    One checksummed column file per retirement pass (:func:`encode_segment`).
    The store is itself picklable (it keeps only the directory path and
    the manifest), so it rides inside checkpoints; resuming from an older
    checkpoint simply overwrites the stale later segments as the re-fold
    re-retires the same prefix.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._dir = directory
        self._owned = directory is None  # lazily created tempdir, ours to delete
        self._manifest: List[str] = []

    @property
    def directory(self) -> Optional[str]:
        return self._dir

    def __len__(self) -> int:
        return len(self._manifest)

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="awdit-segments-")
        else:
            os.makedirs(self._dir, exist_ok=True)
        return self._dir

    def write(self, *columns, **named) -> str:
        """Write one pass; the arguments are :func:`encode_segment`'s."""
        data = encode_segment(*columns, **named)
        directory = self._ensure_dir()
        name = f"segment-{len(self._manifest):06d}{_SEGMENT_SUFFIX}"
        path = os.path.join(directory, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        self._manifest.append(name)
        return path

    def load_all(self) -> Iterator[Segment]:
        if self._manifest and self._dir is None:
            raise HistoryFormatError(
                "retirement segments have no directory (the checkpoint is "
                "corrupt); re-run without --resume"
            )
        for name in self._manifest:
            yield read_segment(os.path.join(self._dir, name))

    def cleanup(self) -> None:
        """Delete owned (temporary) segment directories; keep explicit ones."""
        if not self._owned or self._dir is None:
            return
        for name in self._manifest:
            try:
                os.unlink(os.path.join(self._dir, name))
            except OSError:
                pass
        try:
            os.rmdir(self._dir)
        except OSError:
            pass
        self._manifest = []
        self._dir = None


class RetiredState:
    """Everything finalize needs from the segments, loaded once as columns.

    Retired transactions are the dense tid prefix ``[0, len(labels))``.
    ``sessions[sid]`` lists the retired tids of session ``sid`` in session
    order; ``flags`` (the segment row flags) and ``labels`` are indexed by
    tid.  ``wr_any`` is the ``(readers, writers, kids)`` column triple of
    every retired first-read-per-writer pair in reader order (each reader's
    pairs in first-read order), and :meth:`wr_good` the same for the good
    maps.  ``logs[name]`` concatenates the spilled edge-log rows of every
    segment; the log's drain reduces them together with the live rows,
    which restores the exact drain order of a never-evicting log.
    ``digests`` merges every evicted identity digest.
    """

    __slots__ = ("sessions", "flags", "labels", "wr_any", "_own_good", "logs", "digests")

    def __init__(self, num_sessions: int) -> None:
        self.sessions: List[array] = [array("q") for _ in range(num_sessions)]
        self.flags = array("B")
        self.labels: List[Optional[str]] = []
        self.wr_any = (array("q"), array("q"), array("q"))
        self._own_good: Dict[int, List[Tuple[int, int]]] = {}
        self.logs: Dict[str, EdgeLog] = {}
        self.digests: Set[int] = set()

    def wr_good(self) -> Tuple[array, array, array]:
        """The retired good-read pairs, laid out like ``wr_any``."""
        own = self._own_good
        if not own:
            return self.wr_any
        out = (array("q"), array("q"), array("q"))
        previous = -1
        for reader, writer, kid in zip(*self.wr_any):
            pairs = own.get(reader)
            if pairs is None:
                pairs = ((writer, kid),)
            elif reader == previous:
                continue
            previous = reader
            for good_writer, good_kid in pairs:
                out[0].append(reader)
                out[1].append(good_writer)
                out[2].append(good_kid)
        return out


def load_retired_state(store: SegmentStore, num_sessions: int) -> RetiredState:
    """Reload every segment into the finalize-time view (with reuse check).

    Raises :class:`RetiredAccessError` when the same write identity digest
    appears in more than one segment: the history re-registered a retired
    ``(key, value)`` pair, which the duplicate-write diagnostic could not see
    while streaming.  A segment that does not continue the retired prefix
    (wrong first tid, a session index out of order) is refused like a
    corrupt one.
    """
    state = RetiredState(num_sessions)
    sessions = state.sessions
    own_good = state._own_good
    digests = state.digests
    for segment in store.load_all():
        first = segment.first_tid
        if first != len(state.labels):
            raise _corrupt_segment(segment.path)
        try:
            for tid, sid, sidx in zip(range(first, first + len(segment.sid)), segment.sid, segment.sidx):
                rows = sessions[sid]
                if sidx != len(rows):
                    raise _corrupt_segment(segment.path)
                rows.append(tid)
            if segment.flags.count(FLAG_COMMITTED | FLAG_OWN_GOOD):
                for row, flag in enumerate(segment.flags):
                    if flag & FLAG_OWN_GOOD:
                        own_good[first + row] = []
                for reader, writer, kid in zip(*segment.wr_good):
                    own_good[reader].append((writer, kid))
        except (IndexError, KeyError):
            raise _corrupt_segment(segment.path) from None
        for column, more in zip(state.wr_any, segment.wr_any):
            column.extend(more)
        state.flags.extend(segment.flags)
        state.labels.extend(segment.labels)
        for name, rows in segment.logs.items():
            state.logs.setdefault(name, EdgeLog()).load(tuple(r.tobytes() for r in rows))
        before = len(digests)
        digests.update(segment.digests)
        if len(digests) != before + len(segment.digests):
            raise RetiredAccessError(
                "history writes a (key, value) identity that retirement "
                "already evicted; duplicate-write detection cannot see "
                "evicted writes mid-stream -- re-check without --retire "
                "(or with a larger --retire-lag) for an exact diagnostic"
            )
    return state


def check_identity_reuse(
    retired_digests: Set[int], live_identities: Iterable[Tuple[object, object]]
) -> None:
    """Refuse when a still-resident write identity was evicted earlier."""
    for key, value in live_identities:
        if stable_digest(key, value) in retired_digests:
            raise RetiredAccessError(
                f"history writes ({key!r}, {value!r}) again after retirement "
                "evicted an identical write; duplicate-write detection cannot "
                "see evicted writes mid-stream -- re-check without --retire "
                "(or with a larger --retire-lag) for an exact diagnostic"
            )


def check_retired_reads(
    retired_digests: Set[int], pending_reads: Iterable[Tuple[object, object]]
) -> None:
    """Refuse when an unresolved read's identity matches an evicted write."""
    for key, value in pending_reads:
        if stable_digest(key, value) in retired_digests:
            raise RetiredAccessError(
                f"a read of ({key!r}, {value!r}) resolves to a write that "
                "retirement already evicted -- increase --retire-lag or "
                "re-check without --retire"
            )
