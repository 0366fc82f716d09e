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
  identities into one pickled segment file; finalize reloads the segments to
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
import pickle
import tempfile
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.compiled.kernels import EdgeLog
from repro.core.model import HistoryFormatError

#: Default number of most-recent transactions exempt from retirement.  Keeping
#: a tail resident costs little and keeps the common "read something written a
#: moment ago" out of the refusal path entirely.
DEFAULT_LAG = 4096

#: Default retirement cadence: attempt a pass every this many appended
#: transactions.  Each pass is O(resident state), so the cadence amortizes it
#: against the appends that funded the growth.
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

    def as_dict(self) -> Dict[str, int]:
        return {
            "retired_transactions": self.retired_transactions,
            "retire_passes": self.passes,
            "remap_epochs": self.remap_epochs,
            "retire_segments": self.segments,
            "evicted_writes": self.evicted_writes,
            "spilled_edges": self.spilled_edges,
            "post_compaction_peak_resident": self.post_compaction_peak,
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


#: Segment payload keys (one pickled dict per retirement pass):
#:   ``txns``    -- ``[(tid, sid, sidx, committed, label), ...]`` in tid order
#:   ``wr``      -- ``[(reader_tid, [(writer, kid)...], [(writer, kid)...])]``
#:                  (first-any then first-good per key, committed readers only)
#:   ``logs``    -- ``{log_name: (edge, rank, sub)}`` raw bytes of the
#:                  edge-log rows whose low endpoint retired (see
#:                  :meth:`~repro.core.compiled.kernels.EdgeLog.spill`)
#:   ``digests`` -- sorted 64-bit digests of the write identities evicted by
#:                  this pass
_SEGMENT_SUFFIX = ".seg.pkl"


class SegmentStore:
    """Archival segments for retired history.

    One pickle per retirement pass.  The store is itself picklable (it keeps
    only the directory path and the manifest), so it rides inside checkpoints;
    resuming from an older checkpoint simply overwrites the stale later
    segments as the re-fold re-retires the same prefix.
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

    def write(self, payload: dict) -> str:
        directory = self._ensure_dir()
        name = f"segment-{len(self._manifest):06d}{_SEGMENT_SUFFIX}"
        path = os.path.join(directory, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._manifest.append(name)
        return path

    def load_all(self) -> Iterator[dict]:
        for name in self._manifest:
            assert self._dir is not None
            with open(os.path.join(self._dir, name), "rb") as handle:
                yield pickle.load(handle)

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
    """Everything finalize needs from the segments, loaded once.

    ``records[sid]`` lists the retired transactions of session ``sid`` in
    session order as lightweight stand-ins exposing the attributes the
    finalize loops read off live records (``tid``/``committed``/``label``/
    ``wr_first_any``/``wr_first_good``).  ``logs[name]`` concatenates the
    spilled edge-log rows of every segment; the log's drain reduces them
    together with the live rows, which restores the exact drain order of a
    never-evicting log.  ``digests`` merges every evicted identity digest.
    """

    __slots__ = ("records", "logs", "digests")

    def __init__(self, num_sessions: int) -> None:
        self.records: List[List[RetiredRec]] = [[] for _ in range(num_sessions)]
        self.logs: Dict[str, EdgeLog] = {}
        self.digests: Set[int] = set()


class RetiredRec:
    """Stand-in for a retired transaction in the finalize loops."""

    __slots__ = ("tid", "committed", "label", "wr_first_any", "wr_first_good")

    def __init__(
        self,
        tid: int,
        committed: bool,
        label: object,
        wr_first_any: Dict[int, int],
        wr_first_good: Dict[int, int],
    ) -> None:
        self.tid = tid
        self.committed = committed
        self.label = label
        self.wr_first_any = wr_first_any
        self.wr_first_good = wr_first_good


def load_retired_state(store: SegmentStore, num_sessions: int) -> RetiredState:
    """Reload every segment into the finalize-time view (with reuse check).

    Raises :class:`RetiredAccessError` when the same write identity digest
    appears in more than one segment: the history re-registered a retired
    ``(key, value)`` pair, which the duplicate-write diagnostic could not see
    while streaming.
    """
    state = RetiredState(num_sessions)
    wr_map: Dict[int, Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = {}
    staged: List[List[Tuple[int, int, bool, object]]] = [
        [] for _ in range(num_sessions)
    ]
    for payload in store.load_all():
        for reader_tid, any_items, good_items in payload["wr"]:
            wr_map[reader_tid] = (any_items, good_items)
        for tid, sid, sidx, committed, label in payload["txns"]:
            staged[sid].append((sidx, tid, committed, label))
        for name, rows in payload["logs"].items():
            state.logs.setdefault(name, EdgeLog()).load(rows)
        for digest in payload["digests"]:
            if digest in state.digests:
                raise RetiredAccessError(
                    "history writes a (key, value) identity that retirement "
                    "already evicted; duplicate-write detection cannot see "
                    "evicted writes mid-stream -- re-check without --retire "
                    "(or with a larger --retire-lag) for an exact diagnostic"
                )
            state.digests.add(digest)
    for sid, items in enumerate(staged):
        items.sort(key=lambda item: item[0])
        for sidx, tid, committed, label in items:
            any_items, good_items = wr_map.get(tid, ((), ()))
            state.records[sid].append(
                RetiredRec(tid, committed, label, dict(any_items), dict(good_items))
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
