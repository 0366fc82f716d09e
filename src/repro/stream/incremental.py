"""Streaming one-pass isolation checking.

AWDIT's algorithms (Algorithms 1-3 of the paper) are one-pass over session
order with monotone per-session pointers, so they admit an *online*
formulation: this module maintains the checkers' state incrementally while
transactions are appended to sessions, instead of materializing the whole
history first.

:class:`IncrementalChecker` consumes ``(session, transaction)`` pairs (for
example from the streaming parsers in :mod:`repro.histories.formats`) and
keeps, per appended transaction, only a transaction-level summary: the keys
it writes, its final write per key, and its distinct read-from writers.  The
operation list itself is dropped as soon as the transaction has been folded
into the online state, so checking a multi-gigabyte log needs memory
proportional to the live state (the writes index, the transaction-level
``so ∪ wr`` structure, and one vector clock per transaction), not to the
operation count of the history.

The online state mirrors the batch algorithms exactly:

* *Read consistency* (Algorithm 4) is tracked incrementally.  Reads that
  observe a write that has not arrived yet are parked in a pending table and
  classified the moment the write arrives (or as thin-air reads at
  :meth:`~IncrementalChecker.finalize`); all other axioms are decided as soon
  as the read resolves, which is when the violation first becomes
  witnessable.
* *RC saturation* (Algorithm 1) is per-transaction and runs the moment all of
  a transaction's reads are resolved.
* *RA saturation* (Algorithm 2) runs behind a per-session frontier that
  advances in session order, maintaining the per-session ``lastWrite`` map
  online; repeatable reads are checked per transaction on resolution.
* *CC* (Algorithm 3) runs behind a causal frontier: a transaction's vector
  clock (``ComputeHB``) is computed once its session predecessor and all its
  read-from writers are processed, and the monotone per-(session, key)
  saturation pointers of ``saturate_cc`` advance exactly as in the batch
  algorithm.  A causal frontier that cannot drain at ``finalize`` is a
  ``so ∪ wr`` cycle, reported with the same witnesses as the batch checker.

``finalize()`` replays the recorded commit-order edges in the batch
algorithms' insertion order, so verdicts, violation kinds, inferred-edge
counts, and cycle witnesses are identical to the batch
:func:`repro.core.check` (property-tested in ``tests/test_stream.py``).
Duplicate ``(key, value)`` writes resolve exactly like batch's unique-writes
convention -- the last write in transaction-id order wins: a later-ordered
duplicate supersedes the registry entry and rebinds the already-resolved
reads of transactions that have not been folded into the frontiers yet.  (A
duplicate arriving only after a reading transaction was folded can no longer
rebind it; observing such a write would need a second pass, and a stream
that replays a history in session-blocked order with writes ahead of their
readers resolves identically to batch.)  One documented divergence remains:
transactions in violation messages are named ``t<arrival id>`` when
unlabeled, while batch numbering is session-blocked.  Pass ``num_sessions``
when the session count is known up front so session numbering (and thus
witness selection) matches the batch checker exactly even when sessions
first appear out of order.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cc import causality_cycles, causality_labels
from repro.core.commit import CommitRelation
from repro.core.compiled.ir import Intern
from repro.core.compiled.kernels import EdgeLog
from repro.core.compiled.retire import (
    FLAG_COMMITTED,
    FLAG_OWN_GOOD,
    LOG_NAMES,
    RetirementPolicy,
    RetireStats,
    SegmentStore,
    check_identity_reuse,
    check_retired_reads,
    load_retired_state,
    low_watermark,
    stable_digest,
)
from repro.core.isolation import IsolationLevel
from repro.core.model import OpRef, Transaction
from repro.core.result import CheckResult
from repro.core.violations import (
    ReadConsistencyViolation,
    RepeatableReadViolation,
    Violation,
    ViolationKind,
)
from repro.graph.csr import freeze_packed
from repro.graph.digraph import EDGE_SHIFT, pack_edge

__all__ = ["IncrementalChecker", "check_stream"]

ALL_LEVELS: Tuple[IsolationLevel, ...] = (
    IsolationLevel.READ_COMMITTED,
    IsolationLevel.READ_ATOMIC,
    IsolationLevel.CAUSAL_CONSISTENCY,
)


class _Read:
    """A read awaiting (or holding) its write-read resolution.

    ``key`` keeps the original string (needed only for violation messages);
    ``kid`` is its interned id, which is what the online state uses.
    """

    __slots__ = ("index", "key", "kid", "value", "own_prev", "writer", "writer_index", "bad")

    def __init__(
        self, index: int, key: str, kid: int, value: object, own_prev: Optional[int]
    ) -> None:
        self.index = index
        self.key = key
        self.kid = kid
        self.value = value
        # Program-order index of the latest own write to `key` before this
        # read (None when there is none); fixes the observe-own-writes axiom.
        self.own_prev = own_prev
        self.writer: Optional[int] = None
        self.writer_index = -1
        self.bad = False


class _Txn:
    """Transaction-level summary retained by the streaming checker."""

    __slots__ = (
        "tid",
        "sid",
        "sidx",
        "committed",
        "label",
        "keys_written",
        "keys_written_ordered",
        "reads",
        "unresolved",
        "resolved",
        "rebindable",
        "cc_done",
        "cc_pending",
        "cc_registered",
        "good_reads",
        "wr_first_any",
        "wr_first_good",
    )

    def __init__(self, tid: int, sid: int, sidx: int, committed: bool, label: Optional[str]) -> None:
        self.tid = tid
        self.sid = sid
        self.sidx = sidx
        self.committed = committed
        self.label = label
        # Distinct written key ids: a frozenset for membership plus a tuple in
        # first-write order for deterministic iteration (matching the batch
        # checkers' keys_written / keys_written_ordered pair).
        self.keys_written: frozenset = frozenset()
        self.keys_written_ordered: Tuple[int, ...] = ()
        self.reads: List[_Read] = []
        self.unresolved = 0
        self.resolved = False
        #: True while this transaction's resolved reads sit in the checker's
        #: rebind table (set only for transactions that park reads).
        self.rebindable = False
        self.cc_done = False
        self.cc_pending = 0
        self.cc_registered = False
        # (po index, key id, writer tid) per good external read, in program order.
        self.good_reads: List[Tuple[int, int, int]] = []
        # First read per distinct committed writer: writer -> witnessing key id.
        # `any` ignores read-consistency badness (the commit relation keeps
        # those wr edges); `good` is restricted to clean reads (the causality
        # graph drops bad reads).
        self.wr_first_any: Dict[int, int] = {}
        self.wr_first_good: Dict[int, int] = {}


class IncrementalChecker:
    """Online checker for RC / RA / CC over a stream of transactions.

    Parameters
    ----------
    levels:
        The isolation levels to maintain online state for (default: all
        three).  Read consistency is always tracked.
    num_sessions:
        Optional expected session count.  When given, integer session ids
        ``0..num_sessions-1`` are pre-registered so internal session
        numbering matches :meth:`History.from_sessions` regardless of the
        order sessions first appear in the stream.
    max_witnesses:
        Passed through to the cycle extraction at :meth:`finalize`.
    retire:
        Optional :class:`~repro.core.compiled.retire.RetirementPolicy`.
        When given, the same watermark-based retirement protocol as the
        compiled core runs here: fully folded transactions below the global
        low-watermark rotate into archival segments and their resident
        summaries, registry rows, and finalized edge-log entries are
        compacted away.  Output stays byte-identical to a non-evicting run,
        or finalize refuses with
        :class:`~repro.core.compiled.retire.RetiredAccessError`.
    """

    def __init__(
        self,
        levels: Optional[Sequence[IsolationLevel]] = None,
        num_sessions: Optional[int] = None,
        max_witnesses: Optional[int] = None,
        retire: Optional[RetirementPolicy] = None,
    ) -> None:
        chosen = tuple(levels) if levels is not None else ALL_LEVELS
        for level in chosen:
            if level not in ALL_LEVELS:
                raise ValueError(f"unsupported isolation level: {level!r}")
        self._levels = chosen
        self._rc_enabled = IsolationLevel.READ_COMMITTED in chosen
        self._ra_enabled = IsolationLevel.READ_ATOMIC in chosen
        self._cc_enabled = IsolationLevel.CAUSAL_CONSISTENCY in chosen
        self._max_witnesses = max_witnesses

        self._txns: List[_Txn] = []
        self._session_ids: Dict[object, int] = {}
        self._by_session: List[List[_Txn]] = []
        # Key strings are interned once on arrival; all online state below is
        # keyed by dense key ids.
        self._key_table = Intern()
        # (key id, value) -> (writer tid, op index, is the writer's final
        # write to the key); the last write in transaction-id (batch) order
        # wins, exactly like History._infer_wr.
        self._writes: Dict[Tuple[int, object], Tuple[int, int, bool]] = {}
        # (key id, value) -> reads waiting for that write to arrive.
        self._pending: Dict[Tuple[int, object], List[Tuple[_Txn, _Read]]] = {}
        # (key id, value) -> resolved reads of still-parked transactions,
        # rebindable when a later-ordered duplicate write supersedes the
        # registry entry (removed when the transaction folds).
        self._rebindable: Dict[
            Tuple[int, object], Dict[Tuple[int, int], Tuple[_Txn, _Read]]
        ] = {}

        # RA state: per-session frontier and lastWrite map (Algorithm 2).
        self._ra_next: List[int] = []
        self._ra_last_write: List[Dict[int, int]] = []

        # CC state (Algorithm 3): per-session causal frontier, session clocks,
        # per-(session, key) writer lists, and monotone saturation pointers
        # (dicts keyed by packed ``(session << EDGE_SHIFT) | key id`` ints).
        self._cc_next: List[int] = []
        self._session_clock: List[List[int]] = []
        self._writers_by_key: Dict[int, Tuple[List[int], Dict[int, Tuple[List[int], List[int]]]]] = {}
        self._cc_last_write: List[Dict[int, int]] = []
        self._cc_ptr: List[Dict[int, int]] = []
        self._cc_waiters: Dict[int, List[_Txn]] = {}
        self._hb: Dict[int, List[int]] = {}

        # Recorded inferred edges, one row per emission (keys interned in the
        # key table), reduced and replayed in batch order at finalize.
        self._rc_log = EdgeLog()
        self._ra_log = EdgeLog()
        self._ra_so_log = EdgeLog()
        self._cc_log = EdgeLog()

        # Violations discovered so far, plus their batch-order sort keys.
        self._rc_axiom: List[Tuple[Tuple[int, int, int], Violation]] = []
        self._rr: List[Tuple[Tuple[int, int, int], Violation]] = []
        self._live: List[Violation] = []

        self._num_operations = 0
        self._elapsed = 0.0
        self._results: Optional[Dict[IsolationLevel, CheckResult]] = None

        # Watermark-based retirement (see repro.core.compiled.retire).  Tids
        # and session indices stay absolute; only list indexing is offset by
        # the bases, so every recorded edge and witness survives compaction.
        self._retire = retire
        self._retire_stats = RetireStats()
        self._segments = SegmentStore(retire.segment_dir) if retire is not None else None
        self._txns_base = 0
        self._next_tid = 0
        self._sess_base: List[int] = []
        self._latest_writer: Dict[int, int] = {}
        self._retire_last = 0
        self._retired_final = None

        if num_sessions is not None:
            for sid in range(num_sessions):
                self._register_session(sid)

    # -- public surface --------------------------------------------------------

    @property
    def levels(self) -> Tuple[IsolationLevel, ...]:
        """The isolation levels this checker maintains."""
        return self._levels

    @property
    def num_transactions(self) -> int:
        """Number of transactions appended so far."""
        return self._next_tid

    @property
    def num_operations(self) -> int:
        """Number of operations appended so far."""
        return self._num_operations

    @property
    def num_sessions(self) -> int:
        """Number of sessions seen (or pre-registered) so far."""
        return len(self._by_session)

    @property
    def violations(self) -> List[Violation]:
        """Violations witnessed so far, in discovery order.

        Read-consistency and repeatable-read anomalies appear here as soon as
        the offending read resolves; cycle witnesses require the global
        acyclicity check and are added by :meth:`finalize`.
        """
        return list(self._live)

    def append_batch(self, batch) -> None:
        """Feed one columnar :class:`~repro.histories.formats._raw.RecordBatch`.

        The object engine has no bulk fold -- each record is materialized
        into a :class:`Transaction` and appended in order -- so this is a
        convenience unbatcher keeping the engine pluggable behind the same
        batched runner as the compiled cores.
        """
        from repro.histories.formats._raw import transaction_from_raw

        for session, raw in batch.iter_records():
            self.append(session, transaction_from_raw(raw))

    def append(self, session: object, transaction: Transaction) -> None:
        """Feed one transaction appended to ``session``.

        Transactions of one session must arrive in session order; sessions
        may interleave arbitrarily.  Only ``operations``, ``committed`` and
        ``label`` of the transaction are used, so both parser-produced and
        history-owned transactions are accepted.
        """
        if self._results is not None:
            raise RuntimeError("cannot append to a finalized IncrementalChecker")
        start = time.perf_counter()
        sid = self._dense_sid(session)
        records = self._by_session[sid]
        tid = self._next_tid
        rec = _Txn(
            tid,
            sid,
            self._sess_base[sid] + len(records),
            transaction.committed,
            transaction.label,
        )
        self._txns.append(rec)
        records.append(rec)
        self._next_tid = tid + 1

        ops = transaction.operations
        self._num_operations += len(ops)
        intern_key = self._key_table.intern
        own_latest: Dict[int, int] = {}
        final_write: Dict[int, int] = {}
        reads: List[_Read] = []
        writes = self._writes
        txn_writes: List[Tuple[int, object, int]] = []
        for index, op in enumerate(ops):
            kid = intern_key(op.key)
            if op.is_write:
                final_write[kid] = index
                own_latest[kid] = index
                txn_writes.append((kid, op.value, index))
            elif rec.committed:
                reads.append(_Read(index, op.key, kid, op.value, own_latest.get(kid)))
        rec.keys_written = frozenset(final_write)
        rec.keys_written_ordered = tuple(final_write)
        rec.reads = reads

        # Register writes only once the whole transaction is scanned, so the
        # index can record whether each write is the final one to its key.
        # Duplicate (key, value) writes resolve to the last write in batch
        # transaction-id order, like History._infer_wr.
        new_writes: List[Tuple[int, object]] = []
        superseded: List[Tuple[int, object]] = []
        for kid, value, index in txn_writes:
            wkey = (kid, value)
            current = writes.get(wkey)
            if current is None:
                writes[wkey] = (tid, index, final_write[kid] == index)
                new_writes.append(wkey)
            elif self._batch_order(tid, index) > self._batch_order(*current[:2]):
                writes[wkey] = (tid, index, final_write[kid] == index)
                superseded.append(wkey)

        if self._retire is not None and final_write:
            # Latest-writer pins: a transaction owning the current latest
            # write to any key (aborted writes are readable too) must stay
            # resident so future reads can still resolve against it.
            latest_writer = self._latest_writer
            for kid in rec.keys_written_ordered:
                latest_writer[kid] = tid

        if rec.committed and self._cc_enabled and final_write:
            for key in rec.keys_written_ordered:
                sids, per_sid = self._writers_by_key.setdefault(key, ([], {}))
                entry = per_sid.get(sid)
                if entry is None:
                    entry = ([], [])
                    per_sid[sid] = entry
                    insort(sids, sid)
                entry[0].append(tid)
                entry[1].append(rec.sidx)

        # A later-ordered duplicate write rebinds the resolved reads of
        # transactions that have not been folded yet.
        for wkey in superseded:
            rebinds = self._rebindable.get(wkey)
            if rebinds:
                hit = writes[wkey]
                for other, read in list(rebinds.values()):
                    self._unclassify(other, read)
                    self._classify(other, read, hit)

        # Resolve earlier reads that were waiting for this transaction's writes.
        for wkey in new_writes:
            waiters = self._pending.pop(wkey, None)
            if not waiters:
                continue
            hit = writes[wkey]
            for other, read in waiters:
                self._classify(other, read, hit)
                other.unresolved -= 1
                if other.unresolved == 0:
                    self._on_resolved(other)
                else:
                    self._track_rebindable(other, read)

        # Resolve this transaction's own reads against everything seen so far.
        if rec.committed:
            for read in reads:
                hit = writes.get((read.kid, read.value))
                if hit is None:
                    rec.unresolved += 1
                    self._pending.setdefault((read.kid, read.value), []).append((rec, read))
                else:
                    self._classify(rec, read, hit)
            if rec.unresolved == 0:
                self._on_resolved(rec)
            else:
                for read in reads:
                    if read.writer is not None or read.bad:
                        self._track_rebindable(rec, read)
        else:
            rec.resolved = True
            self._advance_ra(rec.sid)
            self._advance_cc(rec.sid)
        for log in (self._rc_log, self._ra_log, self._ra_so_log, self._cc_log):
            log.settle()
        if self._retire is not None:
            self._maybe_retire()
        self._elapsed += time.perf_counter() - start

    def extend(self, pairs: Iterable[Tuple[object, Transaction]]) -> None:
        """Feed many ``(session, transaction)`` pairs in stream order."""
        for session, transaction in pairs:
            self.append(session, transaction)

    def finalize(self) -> Dict[IsolationLevel, CheckResult]:
        """Flush pending state and return one :class:`CheckResult` per level.

        Unresolved reads become thin-air violations, the remaining frontiers
        drain, and the recorded commit-order edges are replayed in the batch
        algorithms' order so the returned results match the batch checkers.
        Idempotent: subsequent calls return the same results.
        """
        if self._results is not None:
            return self._results
        start = time.perf_counter()

        key_names = self._key_table.values
        if self._segments is not None and len(self._segments):
            # Reload the archival segments and refuse -- before any verdict
            # -- if the history turned out to need evicted state: a pending
            # read whose identity matches an evicted write, or a live
            # re-registration of an evicted (key, value) identity.
            retired = load_retired_state(self._segments, len(self._by_session))
            check_retired_reads(
                retired.digests,
                ((key_names[kid], value) for (kid, value) in self._pending),
            )
            check_identity_reuse(
                retired.digests,
                ((key_names[kid], value) for (kid, value) in self._writes),
            )
            self._retired_final = retired

        # Reads whose write never arrived are thin-air reads (axiom (a)).
        for (kid, value), waiters in list(self._pending.items()):
            key = key_names[kid]
            for rec, read in waiters:
                read.bad = True
                self._add_rc_violation(
                    rec,
                    read,
                    ViolationKind.THIN_AIR_READ,
                    f"{self._name(rec)} reads R({key}, {value!r}) but no transaction "
                    f"writes {value!r} to {key!r}",
                    write=None,
                )
                rec.unresolved -= 1
                if rec.unresolved == 0:
                    self._on_resolved(rec)
        self._pending.clear()

        if self._ra_enabled:
            for sid in range(len(self._by_session)):
                if self._ra_next[sid] != self._sess_base[sid] + len(self._by_session[sid]):
                    raise AssertionError("RA frontier failed to drain at finalize")

        cc_complete = all(
            self._cc_next[sid] == self._sess_base[sid] + len(self._by_session[sid])
            for sid in range(len(self._by_session))
        )
        mapping, names, committed_ids, so_edges = self._batch_numbering()
        rc_violations = [v for _, v in sorted(self._rc_axiom, key=lambda item: item[0])]

        # The online state is no longer needed; release it before rebuilding
        # the commit relations so peak memory stays close to one relation.
        self._writes = {}
        self._pending = {}
        self._rebindable = {}
        self._hb = {}
        self._latest_writer = {}
        self._session_clock = []
        self._writers_by_key = {}
        self._cc_last_write = []
        self._cc_ptr = []
        self._cc_waiters = {}
        self._ra_last_write = []

        results: Dict[IsolationLevel, CheckResult] = {}
        if self._rc_enabled:
            relation = self._build_relation(
                mapping, names, committed_ids, so_edges, self._rc_log,
                spilled=self._spilled_run("rc"),
            )
            violations = rc_violations + relation.find_cycles(max_witnesses=self._max_witnesses)
            results[IsolationLevel.READ_COMMITTED] = self._result(
                IsolationLevel.READ_COMMITTED, violations, "awdit-stream", relation
            )
            del relation
        if self._ra_enabled:
            rr_violations = [v for _, v in sorted(self._rr, key=lambda item: item[0])]
            single = len(self._by_session) <= 1
            log = self._ra_so_log if single else self._ra_log
            relation = self._build_relation(
                mapping, names, committed_ids, so_edges, log,
                spilled=self._spilled_run("ra_so" if single else "ra"),
            )
            self._ra_log.clear()
            self._ra_so_log.clear()
            violations = (
                rc_violations
                + rr_violations
                + relation.find_cycles(max_witnesses=self._max_witnesses)
            )
            checker = "awdit-stream-1session" if single else "awdit-stream"
            results[IsolationLevel.READ_ATOMIC] = self._result(
                IsolationLevel.READ_ATOMIC, violations, checker, relation, co_edges=not single
            )
            del relation
        if self._cc_enabled:
            if not cc_complete:
                # so ∪ wr is cyclic: report causality cycles and skip the
                # CC saturation output, exactly like the batch checker.
                graph, labels = self._causality_graph(mapping)
                violations = rc_violations + causality_cycles(names, graph, labels)
                results[IsolationLevel.CAUSAL_CONSISTENCY] = self._result(
                    IsolationLevel.CAUSAL_CONSISTENCY, violations, "awdit-stream", None
                )
            else:
                relation = self._build_relation(
                    mapping, names, committed_ids, so_edges, self._cc_log,
                    spilled=self._spilled_run("cc"),
                )
                violations = rc_violations + relation.find_cycles(
                    max_witnesses=self._max_witnesses
                )
                results[IsolationLevel.CAUSAL_CONSISTENCY] = self._result(
                    IsolationLevel.CAUSAL_CONSISTENCY, violations, "awdit-stream", relation
                )
                del relation
        for result in results.values():
            self._live.extend(
                v for v in result.violations if v.kind
                in (ViolationKind.CAUSALITY_CYCLE, ViolationKind.COMMIT_ORDER_CYCLE)
                and v not in self._live
            )
        self._retired_final = None
        if self._segments is not None:
            self._segments.cleanup()
        self._elapsed += time.perf_counter() - start
        for result in results.values():
            result.elapsed_seconds = self._elapsed
        self._results = results
        return results

    # -- session bookkeeping ---------------------------------------------------

    def _register_session(self, external: object) -> int:
        dense = len(self._by_session)
        self._session_ids[external] = dense
        self._by_session.append([])
        self._sess_base.append(0)
        self._ra_next.append(0)
        self._ra_last_write.append({})
        self._cc_next.append(0)
        self._session_clock.append([])
        self._cc_last_write.append({})
        self._cc_ptr.append({})
        return dense

    def _dense_sid(self, external: object) -> int:
        dense = self._session_ids.get(external)
        if dense is None:
            dense = self._register_session(external)
        return dense

    def _name(self, rec: _Txn) -> str:
        return rec.label if rec.label is not None else f"t{rec.tid}"

    # -- read classification (Algorithm 4, incremental) ------------------------

    def _batch_order(self, tid: int, index: int) -> Tuple[int, int, int]:
        """A write's position in batch transaction-id order."""
        rec = self._txns[tid - self._txns_base]
        return (rec.sid, rec.sidx, index)

    def _track_rebindable(self, rec: _Txn, read: _Read) -> None:
        """Register a resolved read of a still-parked transaction for rebinds."""
        rec.rebindable = True
        self._rebindable.setdefault((read.kid, read.value), {})[
            (rec.tid, read.index)
        ] = (rec, read)

    def _untrack_rebindable(self, rec: _Txn) -> None:
        """Drop a folding transaction's reads from the rebind table."""
        rebindable = self._rebindable
        for read in rec.reads:
            wkey = (read.kid, read.value)
            waiters = rebindable.get(wkey)
            if waiters is not None:
                waiters.pop((rec.tid, read.index), None)
                if not waiters:
                    del rebindable[wkey]
        rec.rebindable = False

    def _unclassify(self, rec: _Txn, read: _Read) -> None:
        """Withdraw a read's previous classification before rebinding it."""
        if read.bad:
            sort_key = (rec.sid, rec.sidx, read.index)
            for i, (key, violation) in enumerate(self._rc_axiom):
                if key == sort_key and violation.read == OpRef(rec.tid, read.index):
                    del self._rc_axiom[i]
                    try:
                        self._live.remove(violation)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    break
        read.bad = False
        read.writer = None
        read.writer_index = -1

    def _add_rc_violation(
        self,
        rec: _Txn,
        read: _Read,
        kind: ViolationKind,
        message: str,
        write: Optional[OpRef],
    ) -> None:
        read.bad = True
        violation = ReadConsistencyViolation(
            kind=kind, message=message, read=OpRef(rec.tid, read.index), write=write
        )
        self._rc_axiom.append(((rec.sid, rec.sidx, read.index), violation))
        self._live.append(violation)

    def _classify(self, rec: _Txn, read: _Read, hit: Tuple[int, int, bool]) -> None:
        """Classify a freshly resolved read against the five RC axioms."""
        writer_tid, writer_index, is_final = hit
        read.writer = writer_tid
        read.writer_index = writer_index
        op_repr = f"R({read.key}, {read.value!r})"
        if writer_tid == rec.tid:
            if writer_index > read.index:
                self._add_rc_violation(
                    rec,
                    read,
                    ViolationKind.FUTURE_READ,
                    f"{self._name(rec)} reads {op_repr} before writing it "
                    f"(write at position {writer_index}, read at {read.index})",
                    write=OpRef(writer_tid, writer_index),
                )
            elif read.own_prev is not None and read.own_prev != writer_index:
                self._add_rc_violation(
                    rec,
                    read,
                    ViolationKind.NOT_LATEST_WRITE,
                    f"{self._name(rec)} reads {op_repr} from a stale own write to "
                    f"{read.key!r} (a later own write precedes the read)",
                    write=OpRef(writer_tid, writer_index),
                )
            return
        writer = self._txns[writer_tid - self._txns_base]
        if not writer.committed:
            self._add_rc_violation(
                rec,
                read,
                ViolationKind.ABORTED_READ,
                f"{self._name(rec)} reads {op_repr} written by aborted "
                f"transaction {self._name(writer)}",
                write=OpRef(writer_tid, writer_index),
            )
        elif read.own_prev is not None:
            self._add_rc_violation(
                rec,
                read,
                ViolationKind.NOT_OWN_WRITE,
                f"{self._name(rec)} reads {op_repr} from {self._name(writer)} "
                f"although it wrote {read.key!r} earlier itself",
                write=OpRef(writer_tid, writer_index),
            )
        elif not is_final:
            self._add_rc_violation(
                rec,
                read,
                ViolationKind.NOT_LATEST_WRITE,
                f"{self._name(rec)} reads {op_repr} from a non-final write "
                f"of {self._name(writer)} to {read.key!r}",
                write=OpRef(writer_tid, writer_index),
            )

    def _on_resolved(self, rec: _Txn) -> None:
        """All reads of ``rec`` are classified: fold it into the online state."""
        rec.resolved = True
        if rec.rebindable:
            self._untrack_rebindable(rec)
        txns = self._txns
        tbase = self._txns_base
        good: List[Tuple[int, int, int]] = []
        wr_any: Dict[int, int] = {}
        wr_good: Dict[int, int] = {}
        for read in rec.reads:
            writer = read.writer
            if writer is None or writer == rec.tid:
                continue
            if not txns[writer - tbase].committed:
                continue
            if writer not in wr_any:
                wr_any[writer] = read.kid
            if read.bad:
                continue
            good.append((read.index, read.kid, writer))
            if writer not in wr_good:
                wr_good[writer] = read.kid
        rec.good_reads = good
        rec.wr_first_any = wr_any
        rec.wr_first_good = wr_good
        if self._ra_enabled:
            self._check_repeatable_reads(rec)
        rec.reads = []
        if self._rc_enabled:
            self._rc_saturate(rec)
            if not self._ra_enabled and not self._cc_enabled:
                rec.good_reads = []
        self._advance_ra(rec.sid)
        self._advance_cc(rec.sid)

    def _check_repeatable_reads(self, rec: _Txn) -> None:
        """Per-transaction repeatable-reads check (Algorithm 2's pre-pass)."""
        last_writer: Dict[int, int] = {}
        for read in rec.reads:
            if read.bad or read.writer is None:
                continue
            writer = read.writer
            previous = last_writer.get(read.kid)
            if writer != rec.tid and previous is not None and previous != writer:
                violation = RepeatableReadViolation(
                    kind=ViolationKind.NON_REPEATABLE_READ,
                    message=(
                        f"{self._name(rec)} reads {read.key!r} from both "
                        f"{self._name(self._txns[previous - self._txns_base])} and "
                        f"{self._name(self._txns[writer - self._txns_base])}"
                    ),
                    txn=rec.tid,
                    key=read.key,
                    writers=(previous, writer),
                )
                self._rr.append(((rec.sid, rec.sidx, read.index), violation))
                self._live.append(violation)
            else:
                last_writer[read.kid] = writer

    # -- watermark-based retirement (see repro.core.compiled.retire) ------------

    def _maybe_retire(self) -> None:
        """Attempt one retirement pass (end of :meth:`append`).

        The guard mirrors the compiled core: a pass runs only on a fully
        drained fold -- no parked or rebindable reads (which also implies no
        unresolved transactions), every enabled frontier caught up, and no
        CC waiters.  Under the guard no later fold can dereference a retired
        summary except through the writes index, whose evicted identities are
        caught by the finalize-time digest scans.
        """
        policy = self._retire
        if self._next_tid - self._retire_last < policy.every:
            return
        self._retire_last = self._next_tid
        if self._pending or self._rebindable:
            return
        by_session = self._by_session
        sess_base = self._sess_base
        if self._ra_enabled:
            ra_next = self._ra_next
            for sid, records in enumerate(by_session):
                if ra_next[sid] != sess_base[sid] + len(records):
                    return
        if self._cc_enabled:
            if self._cc_waiters:
                return
            cc_next = self._cc_next
            for sid, records in enumerate(by_session):
                if cc_next[sid] != sess_base[sid] + len(records):
                    return
        limit = self._next_tid - policy.lag
        base = self._txns_base
        if limit <= base:
            return
        start = time.perf_counter()
        # Eligibility scan, strictly in tid order: the retired set is always
        # a prefix, so tids stay dense below the base.  A committed
        # transaction must sit at or below the global low-watermark of its
        # session, and no transaction may own a current latest-writer pin.
        wm = (
            low_watermark(self._session_clock, len(by_session))
            if self._cc_enabled
            else None
        )
        txns = self._txns
        latest_writer = self._latest_writer
        new_base = base
        while new_base < limit:
            rec = txns[new_base - base]
            if rec.committed and wm is not None and rec.sidx > wm[rec.sid]:
                break
            pinned = False
            for kid in rec.keys_written_ordered:
                if latest_writer.get(kid) == rec.tid:
                    pinned = True
                    break
            if pinned:
                break
            new_base += 1
        if new_base > base:
            self._retire_to(new_base)
        self._retire_stats.seconds += time.perf_counter() - start

    def _retire_to(self, new_base: int) -> None:
        """Retire every transaction below ``new_base`` into one segment."""
        base = self._txns_base
        count = new_base - base
        txns = self._txns
        retiring = txns[:count]
        stats = self._retire_stats

        seg_sid = array("q")
        seg_sidx = array("q")
        seg_flags = array("B")
        seg_labels: List[Optional[str]] = []
        wr_any = (array("q"), array("q"), array("q"))
        wr_good = (array("q"), array("q"), array("q"))
        per_session: Dict[int, int] = {}
        hb = self._hb
        for rec in retiring:
            seg_sid.append(rec.sid)
            seg_sidx.append(rec.sidx)
            seg_labels.append(rec.label)
            flag = FLAG_COMMITTED if rec.committed else 0
            if rec.committed:
                any_items = list(rec.wr_first_any.items())
                good_items = list(rec.wr_first_good.items())
                rows = [(wr_any, any_items)]
                if good_items != any_items:
                    flag |= FLAG_OWN_GOOD
                    rows.append((wr_good, good_items))
                for columns, items in rows:
                    for writer, kid in items:
                        columns[0].append(rec.tid)
                        columns[1].append(writer)
                        columns[2].append(kid)
            seg_flags.append(flag)
            per_session[rec.sid] = per_session.get(rec.sid, 0) + 1
            hb.pop(rec.tid, None)
        del txns[:count]
        self._txns_base = new_base
        by_session = self._by_session
        sess_base = self._sess_base
        for sid, removed in per_session.items():
            # Within a session tids ascend with the session index, so the
            # retiring transactions are exactly its oldest ``removed``.
            del by_session[sid][:removed]
            sess_base[sid] += removed

        # Evict writes whose writer retired; their identities survive only
        # as digests inside the segment.
        writes = self._writes
        key_names = self._key_table.values
        digests: List[int] = []
        evicted = [wkey for wkey, entry in writes.items() if entry[0] < new_base]
        for wkey in evicted:
            del writes[wkey]
            digests.append(stable_digest(key_names[wkey[0]], wkey[1]))
        digests.sort()

        # Spill edge-log rows whose low endpoint retired: that endpoint is the
        # writer the emitting transaction read from, and no later read can
        # resolve to a retired writer (finalize refuses such a history), so
        # those edges gain no more rows.  Rows serialize as-is (tids are
        # absolute) and finalize reduces them together with the live rows.
        spilled_logs: Dict[str, Tuple[bytes, bytes, bytes]] = {}
        total_spilled = 0
        for name, log in zip(
            LOG_NAMES, (self._rc_log, self._ra_log, self._ra_so_log, self._cc_log)
        ):
            payload = log.spill(new_base)
            if payload is not None:
                spilled_logs[name] = payload
                total_spilled += len(payload[0]) // 8

        # Compact the CC writer registry: inside each (key, session) slot the
        # retired rows form a prefix (rows append in arrival order); keep only
        # the *last* retired row.  Any future probe's bound is at least the
        # watermark and the kept row's session index is at most the watermark,
        # so the kept row answers every probe a removed row could have.
        # Saturation pointers shift down by the removed count (a pointer
        # landing at 0 re-advances on its next probe).
        removed_per_state: Dict[int, int] = {}
        if self._cc_enabled:
            for key, (_sids, per_sid) in self._writers_by_key.items():
                for other, slot in per_sid.items():
                    retired_rows = bisect_left(slot[0], new_base)
                    if retired_rows > 1:
                        removed = retired_rows - 1
                        del slot[0][:removed]
                        del slot[1][:removed]
                        removed_per_state[(other << EDGE_SHIFT) | key] = removed
            if removed_per_state:
                for pointer in self._cc_ptr:
                    for state, removed in removed_per_state.items():
                        ptr = pointer.get(state)
                        if ptr:
                            pointer[state] = ptr - removed if ptr > removed else 0

        self._segments.write(
            base, seg_sid, seg_sidx, seg_flags, seg_labels, wr_any, wr_good,
            spilled_logs, digests,
        )

        stats.retired_transactions += count
        stats.passes += 1
        stats.segments = len(self._segments)
        stats.evicted_writes += len(digests)
        stats.spilled_edges += total_spilled
        if removed_per_state:
            stats.remap_epochs += 1
        resident = len(txns)
        if resident > stats.post_compaction_peak:
            stats.post_compaction_peak = resident

    # -- inferred-edge recording -----------------------------------------------

    @staticmethod
    def _record(
        log: EdgeLog, t2: int, t1: int, kid: int, rank: int, attempt: int
    ) -> None:
        """Append one emission; the log keeps the earliest row per edge."""
        log.append(pack_edge(t2, t1), rank, (attempt << EDGE_SHIFT) | (kid + 1))

    def _rc_saturate(self, rec: _Txn) -> None:
        """Per-transaction RC saturation (the body of Algorithm 1's main loop)."""
        reads = rec.good_reads
        if not reads:
            return
        seen_txns: Set[int] = set()
        first_txn_reads: Set[int] = set()
        for index, _key, writer in reads:
            if writer not in seen_txns:
                seen_txns.add(writer)
                first_txn_reads.add(index)
        earliest: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        read_keys: Dict[int, None] = {}
        rank = (rec.sid << EDGE_SHIFT) | rec.sidx
        seq = 0
        for index, key, t2 in reversed(reads):
            if index in first_txn_reads:
                writer_rec = self._txns[t2 - self._txns_base]
                if len(writer_rec.keys_written) <= len(read_keys):
                    candidates = [
                        x for x in writer_rec.keys_written_ordered if x in read_keys
                    ]
                else:
                    keys_written = writer_rec.keys_written
                    candidates = [x for x in read_keys if x in keys_written]
                for x in candidates:
                    older, newer = earliest[x]
                    t1 = newer
                    if t1 == t2:
                        t1 = older
                    if t1 is not None and t1 != t2:
                        self._record(self._rc_log, t2, t1, x, rank, seq)
                        seq += 1
            pair = earliest.get(key)
            if pair is None:
                earliest[key] = (None, t2)
            elif pair[1] != t2:
                earliest[key] = (pair[1], t2)
            read_keys[key] = None

    # -- RA frontier (Algorithm 2, online) --------------------------------------

    def _advance_ra(self, sid: int) -> None:
        if not self._ra_enabled:
            return
        records = self._by_session[sid]
        base = self._sess_base[sid]
        index = self._ra_next[sid]
        last_write = self._ra_last_write[sid]
        while index - base < len(records):
            rec = records[index - base]
            if rec.committed:
                if not rec.resolved:
                    break
                self._ra_process(rec, last_write)
            index += 1
        self._ra_next[sid] = index

    def _ra_process(self, rec: _Txn, last_write: Dict[int, int]) -> None:
        reads = rec.good_reads
        rank = (rec.sid << EDGE_SHIFT) | rec.sidx
        seq = 0
        reader_of_key: Dict[int, int] = {}
        distinct_writers: List[int] = []
        seen_writers: Set[int] = set()
        for _index, key, writer in reads:
            reader_of_key.setdefault(key, writer)
            if writer not in seen_writers:
                seen_writers.add(writer)
                distinct_writers.append(writer)

        # Case t2 -so-> t3 (also the whole single-session specialization).
        for _index, key, t1 in reads:
            t2 = last_write.get(key)
            if t2 is not None and t2 != t1:
                self._record(self._ra_so_log, t2, t1, key, rank, seq)
                self._record(self._ra_log, t2, t1, key, rank, seq)
                seq += 1

        # Case t2 -wr-> t3: intersect writer keys with read keys, iterating
        # the smaller side in deterministic order (as the batch checker does).
        keys_read = reader_of_key.keys()
        for t2 in distinct_writers:
            writer_rec = self._txns[t2 - self._txns_base]
            keys_written = writer_rec.keys_written
            if len(keys_written) <= len(keys_read):
                candidates = (
                    x for x in writer_rec.keys_written_ordered if x in reader_of_key
                )
            else:
                candidates = (x for x in keys_read if x in keys_written)
            for x in candidates:
                t1 = reader_of_key[x]
                if t1 != t2:
                    self._record(self._ra_log, t2, t1, x, rank, seq)
                    seq += 1

        for key in rec.keys_written_ordered:
            last_write[key] = rec.tid
        if not self._cc_enabled:
            rec.good_reads = []

    # -- CC frontier (Algorithm 3, online) --------------------------------------

    def _advance_cc(self, sid: int) -> None:
        if not self._cc_enabled:
            return
        queue = [sid]
        tbase = self._txns_base
        while queue:
            current = queue.pop()
            records = self._by_session[current]
            base = self._sess_base[current]
            index = self._cc_next[current]
            while index - base < len(records):
                rec = records[index - base]
                if rec.committed:
                    if not rec.resolved:
                        break
                    if not rec.cc_registered:
                        rec.cc_registered = True
                        seen: Set[int] = set()
                        pending = 0
                        for _i, _key, writer in rec.good_reads:
                            if writer in seen:
                                continue
                            seen.add(writer)
                            if not self._txns[writer - tbase].cc_done:
                                pending += 1
                                self._cc_waiters.setdefault(writer, []).append(rec)
                        rec.cc_pending = pending
                    if rec.cc_pending > 0:
                        break
                    queue.extend(self._cc_process(rec))
                index += 1
            self._cc_next[current] = index

    def _cc_process(self, rec: _Txn) -> List[int]:
        """ComputeHB + saturate_cc for one transaction; returns sessions to poke."""
        txns = self._txns
        tbase = self._txns_base
        clock = list(self._session_clock[rec.sid])
        seen: Set[int] = set()
        for _index, _key, writer in rec.good_reads:
            if writer in seen:
                continue
            seen.add(writer)
            wrec = txns[writer - tbase]
            wclock = self._hb[writer]
            if len(wclock) > len(clock):
                clock.extend([-1] * (len(wclock) - len(clock)))
            for s2, value in enumerate(wclock):
                if value > clock[s2]:
                    clock[s2] = value
            if wrec.sid >= len(clock):
                clock.extend([-1] * (wrec.sid + 1 - len(clock)))
            if wrec.sidx > clock[wrec.sid]:
                clock[wrec.sid] = wrec.sidx
        self._hb[rec.tid] = clock

        last_write = self._cc_last_write[rec.sid]
        pointer = self._cc_ptr[rec.sid]
        rank = (rec.sid << EDGE_SHIFT) | rec.sidx
        seq = 0
        for _index, key, t1 in rec.good_reads:
            key_writers = self._writers_by_key.get(key)
            if not key_writers:
                continue
            sids, per_sid = key_writers
            for other in sids:
                writer_list, writer_indices = per_sid[other]
                state = (other << EDGE_SHIFT) | key
                ptr = pointer.get(state, 0)
                bound = clock[other] if other < len(clock) else -1
                if ptr < len(writer_list) and writer_indices[ptr] <= bound:
                    while ptr < len(writer_list) and writer_indices[ptr] <= bound:
                        ptr += 1
                    last_write[state] = writer_list[ptr - 1]
                    pointer[state] = ptr
                t2 = last_write.get(state)
                if t2 is not None and t2 != t1:
                    self._record(self._cc_log, t2, t1, key, rank, seq)
                    seq += 1

        next_clock = list(clock)
        if rec.sid >= len(next_clock):
            next_clock.extend([-1] * (rec.sid + 1 - len(next_clock)))
        if rec.sidx > next_clock[rec.sid]:
            next_clock[rec.sid] = rec.sidx
        self._session_clock[rec.sid] = next_clock

        rec.cc_done = True
        rec.good_reads = []
        waiters = self._cc_waiters.pop(rec.tid, None)
        poke: List[int] = []
        if waiters:
            for waiter in waiters:
                waiter.cc_pending -= 1
                if waiter.cc_pending == 0:
                    poke.append(waiter.sid)
        return poke

    # -- finalize helpers --------------------------------------------------------

    def _final_rows(self, sid: int):
        """``(tid, label, committed)`` of session ``sid``'s transactions.

        Without retirement these are the resident records; with retirement
        the session's retired prefix (reloaded from the segments) comes
        first, so the loops below see every transaction of the history in
        session order exactly as a never-evicting run would.
        """
        retired = self._retired_final
        if retired is not None:
            front = retired.sessions[sid]
            if len(front) != self._sess_base[sid]:  # pragma: no cover - defensive
                raise AssertionError("segment store lost retired transactions")
            flags = retired.flags
            labels = retired.labels
            for tid in front:
                yield tid, labels[tid], flags[tid] & 1
        for rec in self._by_session[sid]:
            yield rec.tid, rec.label, rec.committed

    def _final_wr(self, good: bool) -> Iterator[Tuple[int, int, int]]:
        """``(reader, writer, kid)`` of every committed first-read-per-writer pair.

        The retired pairs first, as one block in reader order, then the
        resident records session by session; ``good`` selects the good-read
        maps.  No packed wr edge occurs twice (a reader's pairs name
        distinct writers), so the block order cannot change the frozen
        relation or any first-wins label.
        """
        retired = self._retired_final
        if retired is not None:
            yield from zip(*(retired.wr_good() if good else retired.wr_any))
        for records in self._by_session:
            for rec in records:
                if rec.committed:
                    pairs = rec.wr_first_good if good else rec.wr_first_any
                    for writer, kid in pairs.items():
                        yield rec.tid, writer, kid

    def _spilled_run(self, name: str) -> Optional[EdgeLog]:
        """The segments' spilled rows of one edge log."""
        retired = self._retired_final
        if retired is None:
            return None
        return retired.logs.get(name)

    def _batch_numbering(self):
        """Renumber transactions the way ``History.from_sessions`` would.

        Returns ``(mapping, names, committed_ids, so_edges)`` where
        ``mapping[streaming tid] = batch tid``; this makes the rebuilt commit
        relations (and hence witnesses) identical to the batch checkers'.
        """
        mapping = [0] * self._next_tid
        names = [""] * self._next_tid
        committed_ids: List[int] = []
        so_edges: List[Tuple[int, int]] = []
        batch_tid = 0
        for sid in range(len(self._by_session)):
            previous = -1
            for tid, label, committed in self._final_rows(sid):
                mapping[tid] = batch_tid
                names[batch_tid] = label if label is not None else f"t{batch_tid}"
                if committed:
                    committed_ids.append(batch_tid)
                    if previous >= 0:
                        so_edges.append((previous, batch_tid))
                    previous = batch_tid
                batch_tid += 1
        return mapping, names, committed_ids, so_edges

    def _wr_any_edges(self, mapping: List[int]) -> Iterator[Tuple[int, int, int]]:
        for reader, writer, kid in self._final_wr(good=False):
            yield (mapping[writer], mapping[reader], kid)

    def _build_relation(
        self,
        mapping: List[int],
        names: List[str],
        committed_ids: List[int],
        so_edges: List[Tuple[int, int]],
        log: EdgeLog,
        spilled: Optional[EdgeLog] = None,
    ) -> CommitRelation:
        relation = CommitRelation.from_edges(
            names,
            committed_ids,
            so_edges,
            self._wr_any_edges(mapping),
            key_names=self._key_table.values,
        )
        log.drain(mapping, relation, spilled)
        return relation

    def _causality_graph(self, mapping: List[int]):
        """The committed ``so ∪ good-wr`` graph, frozen to CSR rows."""
        so_log: List[int] = []
        wr_log: List[int] = []
        wr_keys: List[int] = []
        for sid in range(len(self._by_session)):
            previous = -1
            for tid, _label, committed in self._final_rows(sid):
                if not committed:
                    continue
                current = mapping[tid]
                if previous >= 0:
                    so_log.append((previous << EDGE_SHIFT) | current)
                previous = current
        for reader, writer, kid in self._final_wr(good=True):
            wr_log.append((mapping[writer] << EDGE_SHIFT) | mapping[reader])
            wr_keys.append(kid)
        graph = freeze_packed(self._next_tid, (so_log, wr_log))
        labels = causality_labels(
            so_log, wr_log, wr_keys, key_names=self._key_table.values
        )
        return graph, labels

    def _result(
        self,
        level: IsolationLevel,
        violations: List[Violation],
        checker: str,
        relation: Optional[CommitRelation],
        co_edges: bool = True,
    ) -> CheckResult:
        stats: Dict[str, float] = {}
        if relation is not None:
            stats["inferred_edges"] = relation.num_inferred_edges
            if co_edges:
                stats["co_edges"] = relation.num_edges
            # freeze/acyclicity/witness wall laps, for `--stream --profile`.
            stats.update(relation.timings)
        return CheckResult(
            level=level,
            violations=violations,
            checker=checker,
            elapsed_seconds=self._elapsed,
            num_operations=self._num_operations,
            num_transactions=self._next_tid,
            num_sessions=len(self._by_session),
            stats=stats,
        )


def check_stream(
    pairs: Iterable[Tuple[object, Transaction]],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
    num_sessions: Optional[int] = None,
    retire: Optional[RetirementPolicy] = None,
) -> CheckResult:
    """One-pass check of a ``(session, transaction)`` stream against ``level``.

    Convenience wrapper over :class:`IncrementalChecker` for the common
    single-level case (used by ``awdit check --stream``).
    """
    checker = IncrementalChecker(
        levels=(level,),
        num_sessions=num_sessions,
        max_witnesses=max_witnesses,
        retire=retire,
    )
    checker.extend(pairs)
    return checker.finalize()[level]
