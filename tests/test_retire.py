"""Tests for watermark-based retirement (repro.core.compiled.retire).

The contract under test: with ``--retire`` the streaming checkers either
produce output byte-identical to a non-retiring run (verdicts, witness
messages, inferred-edge counts), or refuse with
:class:`RetiredAccessError` when the history genuinely needed evicted
state -- never a silently different answer.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import IsolationLevel
from repro.core.compiled import kernels, online
from repro.core.compiled.retire import (
    FLAG_COMMITTED,
    FLAG_OWN_GOOD,
    RetiredAccessError,
    RetirementPolicy,
    SegmentStore,
    low_watermark,
    read_segment,
    stable_digest,
)
from repro.core.exceptions import HistoryFormatError, ParseError
from repro.histories.formats import plume_text
from repro.core.model import History, Transaction, read, write
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
    inject_anomaly,
)
from repro.stream import (
    CompiledIncrementalChecker,
    IncrementalChecker,
    check_stream_file,
    load_checkpoint,
)

from test_resolve_kernel import fallback_modules, needs_numpy, vector_floor

LEVELS = list(IsolationLevel)

#: Retire as hard as the policy allows: every transaction past the fold is
#: a candidate on every append.
AGGRESSIVE = RetirementPolicy(lag=0, every=1)


def raw_of(txn):
    return (
        txn.label,
        txn.committed,
        [(op.is_write, op.key, op.value) for op in txn.operations],
    )


def arrival_records(history, order):
    """``(session, transaction)`` pairs of ``history`` in ``order``."""
    sid_of = [0] * len(history.transactions)
    for sid, session in enumerate(history.sessions):
        for tid in session:
            sid_of[tid] = sid
    for tid in order:
        yield sid_of[tid], history.transactions[tid]


def interleaved_order(history, seed=0):
    """A random arrival order that respects per-session order."""
    rng = random.Random(seed)
    positions = [0] * history.num_sessions
    order = []
    live = [sid for sid in range(history.num_sessions) if history.sessions[sid]]
    while live:
        sid = rng.choice(live)
        order.append(history.sessions[sid][positions[sid]])
        positions[sid] += 1
        if positions[sid] == len(history.sessions[sid]):
            live.remove(sid)
    return order


def run_compiled(history, order, retire=None):
    checker = CompiledIncrementalChecker(
        num_sessions=history.num_sessions, retire=retire
    )
    for sid, txn in arrival_records(history, order):
        checker.append_raw(sid, *raw_of(txn))
    return checker.finalize(), checker


def run_object(history, order, retire=None):
    checker = IncrementalChecker(num_sessions=history.num_sessions, retire=retire)
    for sid, txn in arrival_records(history, order):
        checker.append(sid, txn)
    return checker.finalize(), checker


def assert_identical(got, want):
    for level in LEVELS:
        assert got[level].is_consistent == want[level].is_consistent, level
        assert [v.message for v in got[level].violations] == [
            v.message for v in want[level].violations
        ], level
        assert got[level].stats.get("inferred_edges") == want[level].stats.get(
            "inferred_edges"
        ), level


def single_session_history(prefix_ops, fillers, suffix_ops):
    """One session: ``prefix_ops`` txns, ``fillers`` fresh-key writers, ``suffix_ops``.

    Single-session histories are the sharpest retirement stress: the
    session's own clock is the whole watermark, so everything past the lag
    retires (multi-session watermarks wait for cross-session reads).
    """
    txns = [Transaction(ops) for ops in prefix_ops]
    txns.extend(
        Transaction([write(f"filler{i}", i + 1)]) for i in range(fillers)
    )
    txns.extend(Transaction(ops) for ops in suffix_ops)
    return History.from_sessions([txns])


class TestRetireParity:
    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies_both_engines(self, kind):
        """At every lag, both engines refuse together or match the oracle.

        Small lags may legitimately refuse (a read in the random
        interleaving reaches past the watermark); the scan asserts the
        refusal is policy-monotone enough to find a workable lag, and that
        the first workable one reproduces the non-retiring answer exactly.
        """
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=30, seed=5)
        )
        history = inject_anomaly(base, kind)
        order = interleaved_order(history, seed=7)
        want, _ = run_compiled(history, order)
        matched = False
        for lag in (0, 4, 16, len(history.transactions)):
            policy = RetirementPolicy(lag=lag, every=1)
            try:
                got_c, _ = run_compiled(history, order, retire=policy)
            except RetiredAccessError:
                got_c = None
            try:
                got_o, _ = run_object(history, order, retire=policy)
            except RetiredAccessError:
                got_o = None
            assert (got_c is None) == (got_o is None), lag
            if got_c is not None:
                assert_identical(got_c, want)
                assert_identical(got_o, want)
                matched = True
        # The widest lag keeps every read inside the resident window.
        assert matched

    def test_arrival_stream_parity_both_engines(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=6,
                num_transactions=600,
                num_keys=30,
                abort_probability=0.05,
                seed=13,
            )
        )
        policy = RetirementPolicy(lag=64, every=16)
        want, _ = run_compiled(history, order)
        got_c, checker_c = run_compiled(history, order, retire=policy)
        got_o, checker_o = run_object(history, order, retire=policy)
        assert_identical(got_c, want)
        assert_identical(got_o, want)
        # The arrival order keeps the fold drained, so both engines really
        # did retire most of the stream (not a vacuous pass).
        assert checker_c._retire_stats.retired_transactions > 300
        assert checker_o._retire_stats.retired_transactions > 300

    def test_inconsistent_stream_parity(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=150,
                num_keys=12,
                mode="random_reads",
                seed=21,
            )
        )
        want, _ = run_compiled(history, order)
        # random_reads histories reach arbitrarily far back, so retirement
        # under a tight lag refuses; scan up to a lag that works and pin
        # byte-identity there.
        matched = False
        for lag in (16, 64, len(history.transactions)):
            policy = RetirementPolicy(lag=lag, every=4)
            try:
                got_c, _ = run_compiled(history, order, retire=policy)
            except RetiredAccessError:
                got_c = None
            try:
                got_o, _ = run_object(history, order, retire=policy)
            except RetiredAccessError:
                got_o = None
            assert (got_c is None) == (got_o is None), lag
            if got_c is not None:
                assert_identical(got_c, want)
                assert_identical(got_o, want)
                matched = True
        assert matched

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        sessions=st.integers(1, 5),
        txns=st.integers(10, 120),
        keys=st.integers(2, 15),
        lag=st.integers(0, 64),
        every=st.integers(1, 32),
        mode=st.sampled_from(["serializable", "random_reads"]),
    )
    def test_retiring_run_is_identical_or_refuses(
        self, seed, sessions, txns, keys, lag, every, mode
    ):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=sessions,
                num_transactions=txns,
                num_keys=keys,
                abort_probability=0.05,
                mode=mode,
                seed=seed,
            )
        )
        want, _ = run_compiled(history, order)
        policy = RetirementPolicy(lag=lag, every=every)
        try:
            got_c, _ = run_compiled(history, order, retire=policy)
        except RetiredAccessError:
            got_c = None
        try:
            got_o, _ = run_object(history, order, retire=policy)
        except RetiredAccessError:
            got_o = None
        # The two engines must agree on whether the policy was too tight.
        assert (got_c is None) == (got_o is None)
        if got_c is not None:
            assert_identical(got_c, want)
            assert_identical(got_o, want)


@contextmanager
def compaction_floor(n):
    """Compact runs and the registry and renumber values at ``n`` entries."""
    saved = (online._RUN_COMPACT_MIN, online._VALUE_REMAP_MIN)
    online._RUN_COMPACT_MIN = online._VALUE_REMAP_MIN = n
    try:
        yield
    finally:
        online._RUN_COMPACT_MIN, online._VALUE_REMAP_MIN = saved


def kernel_path(fallback):
    """The pure-Python twins, or numpy forced on even for tiny inputs."""
    if fallback:
        return fallback_modules()
    if not kernels.HAVE_NUMPY:
        pytest.skip("numpy is not installed")
    return vector_floor(0)


class TestCompactionPaths:
    """Run compaction, value remap and mirror filtering keep refuse-or-identical.

    The default floors (1024 entries) never fire on histories this small,
    so the floors drop to 1 and 8 here.
    """

    @pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "fallback"])
    @pytest.mark.parametrize("floor", [1, 8])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        sessions=st.integers(1, 5),
        txns=st.integers(10, 120),
        keys=st.integers(2, 15),
        lag=st.integers(0, 64),
        every=st.integers(1, 32),
        mode=st.sampled_from(["serializable", "random_reads"]),
    )
    def test_retiring_run_is_identical_or_refuses_at_low_floors(
        self, floor, fallback, seed, sessions, txns, keys, lag, every, mode
    ):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=sessions,
                num_transactions=txns,
                num_keys=keys,
                abort_probability=0.05,
                mode=mode,
                seed=seed,
            )
        )
        with kernel_path(fallback):
            want, _ = run_compiled(history, order)
            policy = RetirementPolicy(lag=lag, every=every)
            with compaction_floor(floor):
                try:
                    got_c, _ = run_compiled(history, order, retire=policy)
                except RetiredAccessError:
                    got_c = None
                try:
                    got_o, _ = run_object(history, order, retire=policy)
                except RetiredAccessError:
                    got_o = None
        assert (got_c is None) == (got_o is None)
        if got_c is not None:
            assert_identical(got_c, want)
            assert_identical(got_o, want)

    @pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "fallback"])
    @pytest.mark.parametrize("floor", [1, 8])
    def test_every_compaction_path_fires(self, monkeypatch, floor, fallback):
        # The property above is only as strong as the paths it reaches:
        # on this stream every deferred compaction really runs.
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=6, num_transactions=600, num_keys=30,
                abort_probability=0.05, seed=13,
            )
        )
        calls = {"runs": 0, "registry": 0, "remap": 0, "probe": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                calls[name] += result is not False
                return result
            return wrapper

        monkeypatch.setattr(kernels, "compact_runs", counting("runs", kernels.compact_runs))
        for name, method in (("registry", "_compact_registry"), ("remap", "_remap_values")):
            real = getattr(CompiledIncrementalChecker, method)
            monkeypatch.setattr(CompiledIncrementalChecker, method, counting(name, real))
        monkeypatch.setattr(
            kernels.WriterProbeIndex, "drop_retired",
            counting("probe", kernels.WriterProbeIndex.drop_retired),
        )
        with kernel_path(fallback):
            want, _ = run_compiled(history, order)
            with compaction_floor(floor):
                got, checker = run_compiled(
                    history, order, retire=RetirementPolicy(lag=64, every=16)
                )
        assert_identical(got, want)
        assert calls["runs"] and calls["registry"] and calls["remap"]
        assert bool(calls["probe"]) == (not fallback)
        assert checker.live_stats()["remap_epochs"] > 0


#: One session: T1's read of T0's overwritten x=1 is an intermediate read,
#: so T1's any map witnesses T0 by x and its good map by y; T2 takes T0's
#: pin so both retire.
INTERMEDIATE_READ = History.from_sessions(
    [
        [
            Transaction([write("x", 1), write("x", 2), write("y", 5)]),
            Transaction([read("x", 1), read("y", 5)]),
            Transaction([write("x", 3), write("y", 6)]),
        ]
        + [Transaction([read("x", 3)]) for _ in range(40)]
    ]
)


class TestSegmentFiles:
    def _retiring_run(self, segment_dir, history=None, order=None, policy=None):
        if history is None:
            history, order = generate_random_stream(
                RandomHistoryConfig(
                    num_sessions=6, num_transactions=600, num_keys=30,
                    abort_probability=0.05, seed=13,
                )
            )
            policy = RetirementPolicy(lag=64, every=16)
        policy = RetirementPolicy(policy.lag, policy.every, str(segment_dir))
        checker = CompiledIncrementalChecker(
            num_sessions=history.num_sessions, retire=policy
        )
        for sid, txn in arrival_records(history, order):
            checker.append_raw(sid, *raw_of(txn))
        checker.finalize()
        return sorted(segment_dir.iterdir())

    @needs_numpy
    def test_numpy_and_python_writers_write_identical_bytes(self, tmp_path):
        order = list(range(len(INTERMEDIATE_READ.transactions)))
        runs = {}
        for name, ctx in (("numpy", vector_floor(0)), ("python", fallback_modules())):
            with ctx:
                runs[name] = self._retiring_run(tmp_path / name) + self._retiring_run(
                    tmp_path / f"{name}-bad", INTERMEDIATE_READ, order, AGGRESSIVE
                )
        vectorized, scalar = runs["numpy"], runs["python"]
        assert len(vectorized) > 3
        assert [p.name for p in vectorized] == [p.name for p in scalar]
        for a, b in zip(vectorized, scalar):
            assert a.read_bytes() == b.read_bytes(), a
        # Non-vacuous: the segments hold an explicit good map, derived any
        # maps and spilled edge rows.
        segments = [read_segment(str(p)) for p in vectorized]
        assert any(FLAG_COMMITTED | FLAG_OWN_GOOD in seg.flags for seg in segments)
        assert sum(len(seg.wr_any[0]) for seg in segments) > 100
        assert any(seg.logs for seg in segments)

    def test_own_good_map_survives_retirement(self):
        order = list(range(len(INTERMEDIATE_READ.transactions)))
        want, _ = run_compiled(INTERMEDIATE_READ, order)
        for run in (run_compiled, run_object):
            got, checker = run(INTERMEDIATE_READ, order, retire=AGGRESSIVE)
            assert checker._retire_stats.retired_transactions >= 2
            assert_identical(got, want)

    def test_segment_round_trip(self, tmp_path):
        paths = self._retiring_run(tmp_path / "segs")
        first = 0
        for path in paths:
            segment = read_segment(str(path))
            assert segment.first_tid == first
            first += len(segment.sid)
            assert len(segment.sidx) == len(segment.flags) == len(segment.labels)
            assert all(label is not None for label in segment.labels)
            assert list(segment.digests) == sorted(segment.digests)
        assert first > 300

    def test_cut_or_garbled_segment_is_one_line_diagnostic(self, tmp_path):
        path = self._retiring_run(tmp_path / "segs")[0]
        blob = path.read_bytes()
        message = (
            f"{path}: retirement segment is truncated or corrupt; "
            "re-run without --resume"
        )
        for cut in (0, 9, 96, 200, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(HistoryFormatError) as excinfo:
                read_segment(str(path))
            assert str(excinfo.value) == message
        flipped = bytearray(blob)
        flipped[len(blob) // 3] ^= 0x40
        path.write_bytes(bytes(flipped))
        with pytest.raises(HistoryFormatError) as excinfo:
            read_segment(str(path))
        assert str(excinfo.value) == message
        path.unlink()
        with pytest.raises(HistoryFormatError) as excinfo:
            read_segment(str(path))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_resume_over_a_damaged_segment_exits_two(self, tmp_path, capsys, damage):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=6, num_transactions=600, num_keys=30,
                abort_probability=0.05, seed=13,
            )
        )
        source = tmp_path / "h.plume"
        source.write_text(plume_text.dumps(history, order=order))
        segs = tmp_path / "segs"
        argv = [
            "check", str(source), "-i", "cc", "--stream", "--retire",
            "--retire-lag", "64", "--retire-every", "16",
            "--checkpoint", str(tmp_path / "state.awd"), "--segment-dir", str(segs),
        ]
        assert main(argv) == 0
        assert main(argv + ["--resume"]) == 0
        victim = sorted(segs.iterdir())[0]
        if damage == "truncate":
            victim.write_bytes(victim.read_bytes()[:100])
        else:
            victim.unlink()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        assert capsys.readouterr().err == (
            f"awdit: error: {victim}: retirement segment is truncated or "
            "corrupt; re-run without --resume\n"
        )


class TestRetireRefusal:
    def test_read_of_evicted_write_refuses(self):
        # W(x,1) is superseded by W(x,2), loses its latest-writer pin,
        # retires under the fillers, and the final R(x,1) can no longer be
        # classified: the check must refuse, not guess.
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[read("x", 1)]]
        )
        order = list(range(len(history.transactions)))
        policy = RetirementPolicy(lag=32, every=8)
        for run in (run_compiled, run_object):
            with pytest.raises(RetiredAccessError):
                run(history, order, retire=policy)

    def test_write_identity_reuse_refuses(self):
        # A later write re-mints the evicted (x, 1) identity; reads of it
        # would be ambiguous between the two writers, so the check refuses.
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[write("x", 1)]]
        )
        order = list(range(len(history.transactions)))
        policy = RetirementPolicy(lag=32, every=8)
        for run in (run_compiled, run_object):
            with pytest.raises(RetiredAccessError):
                run(history, order, retire=policy)

    def test_generous_lag_keeps_the_same_history_checkable(self):
        # The refusal above is the policy's fault, not the history's: with
        # the lag wider than the read's reach the run completes identically.
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[read("x", 1)]]
        )
        order = list(range(len(history.transactions)))
        want, _ = run_compiled(history, order)
        got, _ = run_compiled(
            history, order, retire=RetirementPolicy(lag=500, every=8)
        )
        assert_identical(got, want)


class TestOwnedSegmentCleanup:
    """``--retire`` without ``--segment-dir`` leaves no tempdir behind.

    ``tempfile.tempdir`` points at ``tmp_path``, so every owned
    ``awdit-segments-*`` directory lands where the test can see it.
    """

    @pytest.fixture
    def owned_dirs(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return lambda: sorted(tmp_path.glob("awdit-segments-*"))

    @pytest.mark.parametrize("engine", ["compiled", "object"])
    def test_refused_finalize_deletes_owned_segments(self, owned_dirs, engine):
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[read("x", 1)]]
        )
        policy = RetirementPolicy(lag=32, every=8)
        records = arrival_records(history, range(len(history.transactions)))
        if engine == "compiled":
            checker = CompiledIncrementalChecker(num_sessions=1, retire=policy)
            for sid, txn in records:
                checker.append_raw(sid, *raw_of(txn))
        else:
            checker = IncrementalChecker(num_sessions=1, retire=policy)
            for sid, txn in records:
                checker.append(sid, txn)
        assert owned_dirs()  # retirement really wrote segments
        with pytest.raises(RetiredAccessError):
            checker.finalize()
        assert owned_dirs() == []
        # The segments are gone, so a retry must refuse again, not answer.
        with pytest.raises(RetiredAccessError):
            checker.finalize()

    @pytest.mark.parametrize("engine", ["compiled", "object"])
    def test_parse_error_mid_stream_deletes_owned_segments(
        self, tmp_path, monkeypatch, owned_dirs, engine
    ):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=600, num_keys=30, seed=13
            )
        )
        source = tmp_path / "h.plume"
        source.write_text(plume_text.dumps(history, order=order) + "not a plume line\n")
        written = []
        real_write = SegmentStore.write

        def spy(store, *args, **kwargs):
            written.append(store.directory)
            return real_write(store, *args, **kwargs)

        monkeypatch.setattr(SegmentStore, "write", spy)
        with pytest.raises(ParseError):
            check_stream_file(
                str(source),
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                engine=engine,
                batch_ops=64,
                retire=RetirementPolicy(lag=32, every=8),
            )
        assert written  # segments were written before the bad line
        assert owned_dirs() == []


class TestRetireMemoryBounded:
    def test_resident_state_stays_bounded(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=4000, num_keys=40, seed=3
            )
        )
        policy = RetirementPolicy(lag=128, every=32)
        checker = CompiledIncrementalChecker(
            num_sessions=history.num_sessions, retire=policy
        )
        peak_resident = 0
        for sid, txn in arrival_records(history, order):
            checker.append_raw(sid, *raw_of(txn))
            peak_resident = max(peak_resident, len(checker._t_sid))
        # Live state is O(lag + cadence + pinned writers), not O(history).
        bound = policy.lag + policy.every + 40 + 4 * history.num_sessions
        assert peak_resident <= bound
        stats = checker.live_stats()
        assert stats["retired_transactions"] >= 4000 - bound
        assert stats["post_compaction_peak_resident"] <= bound
        assert_identical(checker.finalize(), run_compiled(history, order)[0])

    def test_object_checker_resident_state_stays_bounded(self, tmp_path):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=2000, num_keys=40, seed=3
            )
        )
        # Never finalized, so the segments go under tmp_path.
        policy = RetirementPolicy(lag=128, every=32, segment_dir=str(tmp_path))
        checker = IncrementalChecker(
            num_sessions=history.num_sessions, retire=policy
        )
        peak_resident = 0
        for sid, txn in arrival_records(history, order):
            checker.append(sid, txn)
            peak_resident = max(peak_resident, len(checker._txns))
        bound = policy.lag + policy.every + 40 + 4 * history.num_sessions
        assert peak_resident <= bound
        assert checker._retire_stats.retired_transactions >= 2000 - bound

    def test_retire_seconds_is_reported(self, capsys, tmp_path):
        history, order = generate_random_stream(
            RandomHistoryConfig(num_sessions=4, num_transactions=400, num_keys=30, seed=3)
        )
        _, checker = run_compiled(history, order, retire=RetirementPolicy(lag=32, every=16))
        stats = checker.live_stats()
        assert stats["retire_passes"] > 0
        assert isinstance(stats["retire_seconds"], float)
        assert stats["retire_seconds"] >= 0.0
        _, idle = run_compiled(history, order)
        assert idle.live_stats()["retire_seconds"] == 0.0
        source = tmp_path / "h.plume"
        source.write_text(plume_text.dumps(history, order=order))
        assert main(["stats", str(source), "--stream", "--retire"]) == 0
        assert "time in retire passes" in capsys.readouterr().out

    def test_non_retiring_checker_keeps_everything(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(num_sessions=4, num_transactions=500, seed=3)
        )
        _, checker = run_compiled(history, order)
        assert checker.live_stats()["retired_transactions"] == 0


class TestCheckpointAcrossRetirement:
    def _stream(self, txns=800):
        return generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=txns,
                num_keys=40,
                abort_probability=0.02,
                seed=17,
            )
        )

    def test_resume_straddles_a_compaction(self, tmp_path):
        history, order = self._stream()
        want, _ = run_compiled(history, order)
        policy = RetirementPolicy(
            lag=192, every=16, segment_dir=str(tmp_path / "segs")
        )
        records = list(arrival_records(history, order))
        half = CompiledIncrementalChecker(
            num_sessions=history.num_sessions, retire=policy
        )
        for sid, txn in records[:500]:
            half.append_raw(sid, *raw_of(txn))
        # The checkpoint must straddle real evictions, or this test is void.
        assert half.live_stats()["retire_passes"] > 0
        assert half._txns_base > 0
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == 500
        resumed.enable_retirement(policy)
        for sid, txn in records[500:]:
            resumed.append_raw(sid, *raw_of(txn))
        assert_identical(resumed.finalize(), want)

    def test_resume_without_retirement_stays_off(self, tmp_path):
        history, order = self._stream(txns=200)
        want, _ = run_compiled(history, order)
        records = list(arrival_records(history, order))
        half = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, txn in records[:120]:
            half.append_raw(sid, *raw_of(txn))
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == 120
        assert resumed._retire is None
        assert resumed.live_stats()["retire_enabled"] == 0
        for sid, txn in records[120:]:
            resumed.append_raw(sid, *raw_of(txn))
        assert_identical(resumed.finalize(), want)

    def test_resume_can_enable_retirement(self, tmp_path):
        history, order = self._stream()
        want, _ = run_compiled(history, order)
        records = list(arrival_records(history, order))
        half = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, txn in records[:400]:
            half.append_raw(sid, *raw_of(txn))
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        resumed.enable_retirement(RetirementPolicy(lag=128, every=16))
        for sid, txn in records[400:]:
            resumed.append_raw(sid, *raw_of(txn))
        assert_identical(resumed.finalize(), want)
        assert resumed._retire_stats.retired_transactions > 0

    def test_check_stream_file_resume_with_retire(self, tmp_path):
        from repro.histories.formats import plume_text

        history, order = self._stream(txns=300)
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=order))
        state = tmp_path / "state.awd"
        policy = RetirementPolicy(
            lag=128, every=16, segment_dir=str(tmp_path / "segs")
        )
        want = check_stream_file(
            str(path), IsolationLevel.CAUSAL_CONSISTENCY, fmt="plume"
        )
        first = check_stream_file(
            str(path),
            IsolationLevel.CAUSAL_CONSISTENCY,
            fmt="plume",
            checkpoint=str(state),
            retire=policy,
        )
        resumed = check_stream_file(
            str(path),
            IsolationLevel.CAUSAL_CONSISTENCY,
            fmt="plume",
            checkpoint=str(state),
            resume=True,
            retire=policy,
        )
        for got in (first, resumed):
            assert got.is_consistent == want.is_consistent
            assert [v.message for v in got.violations] == [
                v.message for v in want.violations
            ]


class TestRetireHelpers:
    def test_low_watermark_takes_the_component_minimum(self):
        clocks = [[3, 7, 2], [5, 4, 9], [4, 6, 2]]
        assert low_watermark(clocks, 3) == [3, 4, 2]

    def test_low_watermark_treats_short_clocks_as_unseen(self):
        # A session that has never joined another's clock holds it at -1,
        # which pins that session's watermark below every transaction.
        assert low_watermark([[2, 5], [1]], 2) == [1, -1]

    def test_stable_digest_distinguishes_key_value_splits(self):
        assert stable_digest("x", 1) == stable_digest("x", 1)
        assert stable_digest("x", 12) != stable_digest("x1", 2)
        assert stable_digest("x", "1") != stable_digest("x", 1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetirementPolicy(lag=-1)
        with pytest.raises(ValueError):
            RetirementPolicy(every=0)


class TestFallbackParity:
    def test_no_numpy_retiring_run_matches(self, tmp_path):
        """AWDIT_NO_NUMPY=1 retires through the pure-Python kernels identically."""
        from repro.histories.formats import plume_text

        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=300,
                num_keys=20,
                mode="random_reads",
                seed=29,
            )
        )
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=order))
        want, _ = run_compiled(history, order)
        # The fallback acyclicity kernel may start a cycle witness at a
        # different (equivalent) rotation than numpy, so the byte-identity
        # oracle for the fallback retiring run is the fallback non-retiring
        # run in the same process; the verdict and violation count are
        # still pinned against the numpy run.
        script = (
            "import sys\n"
            "from repro.core import IsolationLevel\n"
            "from repro.core.compiled import online\n"
            "assert online._np is None\n"
            "from repro.core.compiled.retire import RetirementPolicy\n"
            "from repro.stream import check_stream_file\n"
            "plain = check_stream_file(sys.argv[1], IsolationLevel.CAUSAL_CONSISTENCY,\n"
            "    fmt='plume')\n"
            "retiring = check_stream_file(sys.argv[1], IsolationLevel.CAUSAL_CONSISTENCY,\n"
            "    fmt='plume', retire=RetirementPolicy(lag=32, every=8))\n"
            "assert retiring.is_consistent == plain.is_consistent\n"
            "assert [v.message for v in retiring.violations] == \\\n"
            "    [v.message for v in plain.violations]\n"
            "print(int(retiring.is_consistent), len(retiring.violations))\n"
        )
        env = dict(os.environ)
        env["AWDIT_NO_NUMPY"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        level = IsolationLevel.CAUSAL_CONSISTENCY
        assert proc.stdout.strip() == (
            f"{int(want[level].is_consistent)} {len(want[level].violations)}"
        )
