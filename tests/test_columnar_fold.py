"""Columnar fold state: clock-join kernel parity, park-queue and edge-log
behavior, checkpoint versions, GC tuning, and batch-size validation.

The tentpole contract: the structure-of-arrays fold is answer-identical
to the retired object-heap fold -- verdicts, witness messages, park and
rebind ordering, refusal text -- at every ``batch_ops`` and on both
kernel paths.  The pieces pinned here are the ones the columnar rewrite
introduced: ``kernels.join_clocks`` (batched CC clock join),
``kernels.ParkQueue`` (columnar park multimap), ``kernels.EdgeLog``
(columnar inferred-edge log), checkpoint format v7 with every older
version refused, and the ``--gc-tune`` collector experiment.
"""

import gc
import json
import os
import pickle
import subprocess
import sys
from array import array
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.commit import CommitRelation
from repro.core.compiled import kernels, online
from repro.core.exceptions import HistoryFormatError
from repro.core.compiled.retire import RetirementPolicy
from repro.cli import main
from repro.histories.formats import save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, check_stream_file, load_checkpoint

from repro.core.violations import ViolationKind
from test_resolve_kernel import (
    arrival_raw,
    fallback_modules,
    interleaved_raw,
    needs_numpy,
    raw_of,
    run_stream,
)

LEVELS = list(IsolationLevel)


# -- join_clocks: the batched CC clock join ------------------------------------


@contextmanager
def join_floor(n=0):
    """Make the vectorized clock join run even on tiny inputs."""
    saved = kernels._MIN_JOIN_CELLS
    kernels._MIN_JOIN_CELLS = n
    try:
        yield
    finally:
        kernels._MIN_JOIN_CELLS = saved


@st.composite
def join_inputs(draw):
    stride = draw(st.sampled_from([4, 8, 16]))
    nrows = draw(st.integers(1, 8))
    cells = draw(
        st.lists(
            st.integers(-1, 40), min_size=nrows * stride, max_size=nrows * stride
        )
    )
    base = draw(st.lists(st.integers(-1, 40), min_size=stride, max_size=stride))
    k = draw(st.integers(1, nrows))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=k, max_size=k))
    wsids = draw(st.lists(st.integers(0, stride - 1), min_size=k, max_size=k))
    wsidxs = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k))
    return array("q", cells), stride, array("q", base), rows, wsids, wsidxs


class TestJoinClocks:
    """Both implementations compute the identical elementwise maximum."""

    @needs_numpy
    @settings(deadline=None, max_examples=120)
    @given(inputs=join_inputs())
    def test_vectorized_matches_fallback_bit_for_bit(self, inputs):
        hb, stride, sc, rows, wsids, wsidxs = inputs
        want = kernels._join_clocks_fallback(hb, stride, sc, 0, rows, wsids, wsidxs)
        with join_floor(0):
            row, vectorized = kernels.join_clocks(
                hb, stride, sc, 0, rows, wsids, wsidxs
            )
        assert vectorized
        assert list(row) == list(want)

    @settings(deadline=None, max_examples=40)
    @given(inputs=join_inputs())
    def test_inputs_never_mutated(self, inputs):
        hb, stride, sc, rows, wsids, wsidxs = inputs
        hb_before, sc_before = list(hb), list(sc)
        kernels.join_clocks(hb, stride, sc, 0, rows, wsids, wsidxs)
        with join_floor(0):
            kernels.join_clocks(hb, stride, sc, 0, rows, wsids, wsidxs)
        assert list(hb) == hb_before and list(sc) == sc_before

    def test_small_joins_stay_scalar(self):
        # 2 rows x 4 stride = 8 cells, far below _MIN_JOIN_CELLS: the
        # dispatch must keep the interpreted loop (fig9's 8-session shape
        # reports ``fallback`` legitimately -- see the join_kernel stat).
        hb = array("q", [1, -1, 3, -1, 0, 5, -1, -1])
        sc = array("q", [2, 2, -1, -1])
        row, vectorized = kernels.join_clocks(hb, 4, sc, 0, [0, 1], [0, 1], [4, 6])
        assert not vectorized
        assert list(row) == [4, 6, 3, -1]

    @needs_numpy
    def test_large_joins_vectorize_by_default(self):
        stride = 64
        hb = array("q", [-1]) * (64 * stride)
        for j in range(64):
            hb[j * stride + (j % stride)] = j
        sc = array("q", [-1]) * stride
        rows = list(range(64))
        row, vectorized = kernels.join_clocks(
            hb, stride, sc, 0, rows, [j % stride for j in rows], [100] * 64
        )
        assert vectorized
        assert all(v == 100 for v in row)

    def test_no_numpy_forces_fallback_even_above_floor(self):
        saved = kernels._np
        kernels._np = None
        try:
            stride = 64
            hb = array("q", [7]) * (64 * stride)
            sc = array("q", [-1]) * stride
            row, vectorized = kernels.join_clocks(
                hb, stride, sc, 0, list(range(64)), [0], [9]
            )
        finally:
            kernels._np = saved
        assert not vectorized
        assert row[0] == 9 and all(v == 7 for v in row[1:])


class TestParkQueue:
    """The columnar park multimap preserves the scalar queue's ordering."""

    def test_pop_preserves_arrival_order(self):
        pq = kernels.ParkQueue()
        pq.add(5, 10, 0)
        pq.add(5, 12, 3)
        pq.add(5, 11, 1)
        assert list(pq.pop(5)) == [10, 0, 12, 3, 11, 1]
        assert pq.pop(5) is None
        assert not pq

    def test_wids_iterate_in_first_park_order(self):
        pq = kernels.ParkQueue()
        for wid in (9, 2, 7, 2, 9):
            pq.add(wid, wid * 10, 0)
        assert list(pq.wids()) == [9, 2, 7]
        assert len(pq) == 3 and 7 in pq and 3 not in pq

    def test_clean_slot_round_trip(self):
        # slot < 0 encodes a clean-parked read as -(index) - 1.
        pq = kernels.ParkQueue()
        for index in (0, 4, 17):
            pq.add(1, 2, -(index) - 1)
        row = pq.pop(1)
        assert [-(row[p + 1]) - 1 for p in range(0, len(row), 2)] == [0, 4, 17]

    def test_pickles_as_plain_rows(self):
        pq = kernels.ParkQueue()
        pq.add(3, 8, 2)
        pq.add(1, 9, -1)
        clone = pickle.loads(pickle.dumps(pq, protocol=pickle.HIGHEST_PROTOCOL))
        assert {wid: list(row) for wid, row in clone.items()} == {
            3: [8, 2],
            1: [9, -1],
        }
        clone.clear()
        assert len(clone) == 0


# -- EdgeLog: the columnar inferred-edge log ------------------------------------

#: Sort-key components straddling the 2^24 bound of the retired packed-int
#: metas (``((sid << 24 | sidx) << 24) + attempt``), where they collided.
_WIDE = st.sampled_from([0, 1, 2, (1 << 24) - 1, 1 << 24, (1 << 24) + 1, (1 << 31) - 1])


@st.composite
def edge_log_rows(draw):
    """Rows ``(t2, t1, sid, sidx, attempt, kid)``, spill cuts and reduce points.

    Tids are drawn from a small range so edges repeat; the sort key
    ``(sid, sidx, attempt, kid)`` is unique per row, as it is per emission
    in the checkers.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, 9),
                st.integers(0, 3),
                _WIDE,
                _WIDE,
                st.integers(-1, 6),
            ),
            max_size=60,
            unique_by=lambda row: row[2:],
        )
    )
    cut = st.integers(0, max(len(rows) - 1, 0))
    spills = draw(st.dictionaries(cut, st.integers(0, 10)))
    reduces = draw(st.sets(cut))
    return rows, spills, reduces


def _drain_rows(rows, spills, reduces=()):
    """Feed ``rows`` to an EdgeLog, spilling at ``spills``, and drain it.

    The log reduces itself in place after each row index in ``reduces``.
    """
    log = kernels.EdgeLog()
    spilled = kernels.EdgeLog()
    for i, (t2, t1, sid, sidx, attempt, kid) in enumerate(rows):
        log.append((t2 << 32) | t1, (sid << 32) | sidx, (attempt << 32) | (kid + 1))
        if i in reduces:
            log.reduce()
        if i in spills:
            payload = log.spill(spills[i])
            if payload is not None:
                spilled.load(payload)
    relation = CommitRelation(
        names=[f"t{i}" for i in range(10)], committed=range(10), key_names=[]
    )
    mapping = [9 - tid for tid in range(10)]
    log.drain(mapping, relation, spilled if len(spilled) else None)
    assert len(log) == 0
    return list(relation._co_log), list(relation._co_keys)


class TestEdgeLog:
    """Numpy drain, Python twin and a sorted reference agree row for row."""

    @settings(deadline=None, max_examples=150)
    @given(case=edge_log_rows())
    def test_drain_matches_sorted_reference(self, case):
        rows, spills, reduces = case
        want_edges, want_keys, seen = [], [], set()
        for t2, t1, _sid, _sidx, _attempt, kid in sorted(rows, key=lambda r: r[2:]):
            if (t2, t1) not in seen:
                seen.add((t2, t1))
                want_edges.append(((9 - t2) << 32) | (9 - t1))
                want_keys.append(kid)
        with fallback_modules():
            twin = _drain_rows(rows, spills, reduces)
        assert twin == (want_edges, want_keys)
        if kernels.HAVE_NUMPY:
            assert _drain_rows(rows, spills, reduces) == twin

    def test_spill_takes_rows_by_low_endpoint(self):
        log = kernels.EdgeLog()
        for t2, t1 in ((5, 1), (1, 5), (7, 2), (2, 7)):
            log.append((t2 << 32) | t1, t2, t1)
        payload = log.spill(3)
        back = kernels.EdgeLog()
        back.load(payload)
        assert list(back.edge) == [(5 << 32) | 1, (7 << 32) | 2]
        assert list(log.edge) == [(1 << 32) | 5, (2 << 32) | 7]
        assert list(log.rank) == [1, 2] and list(log.sub) == [5, 7]
        assert log.spill(3) is None

    @pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "fallback"])
    def test_settle_reduces_once_rows_double(self, monkeypatch, fallback):
        if not fallback and not kernels.HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        monkeypatch.setattr(kernels, "_REDUCE_MIN_ROWS", 4)
        with fallback_modules() if fallback else nullcontext():
            log = kernels.EdgeLog()
            for edge, rank in ((7, 5), (7, 3), (9, 4)):
                log.append(edge, rank, 0)
            log.settle()
            assert len(log) == 3  # below the floor
            log.append(7, 4, 0)
            log.settle()
            # First row per edge by rank, in append order; next reduce at
            # max(floor, 2 * 2) rows.
            assert (list(log.edge), list(log.rank)) == ([7, 9], [3, 4])
            log.append(9, 1, 0)
            log.settle()
            assert len(log) == 3
            log.append(9, 2, 0)
            log.settle()
            assert (list(log.edge), list(log.rank)) == ([7, 9], [3, 1])

    def test_checkpoint_stores_reduced_logs(self, tmp_path):
        checker = CompiledIncrementalChecker(num_sessions=1)
        checker._cc_log.append(5, 2, 1)
        checker._cc_log.append(5, 1, 1)
        checker.save_checkpoint(str(tmp_path / "state.awd"))
        clone = load_checkpoint(str(tmp_path / "state.awd"))
        for log in (checker._cc_log, clone._cc_log):
            assert (list(log.edge), list(log.rank), list(log.sub)) == ([5], [1], [1])

    def test_pickles_as_columns(self):
        log = kernels.EdgeLog()
        log.append((3 << 32) | 1, 7, 9)
        log.reduce()
        clone = pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL))
        assert (list(clone.edge), list(clone.rank), list(clone.sub)) == ([(3 << 32) | 1], [7], [9])
        assert clone._reduce_at == log._reduce_at == kernels._REDUCE_MIN_ROWS


# -- checkpoint versions and whole-check identity ---------------------------------


def _stream_with_gadget(txns=800, seed=17):
    """A causally ordered stream with a commit-order-cycle gadget at its end.

    Returns ``(history, raw records)``; the arrival order lets retirement
    evict (and spill edge-log rows) mid-stream, and the gadget makes every
    level report a violation with a witness.
    """
    base, order = generate_random_stream(
        RandomHistoryConfig(
            num_sessions=4,
            num_transactions=txns,
            num_keys=40,
            abort_probability=0.02,
            seed=seed,
        )
    )
    history = inject_anomaly(base, ViolationKind.COMMIT_ORDER_CYCLE)
    records = arrival_raw(base, order)
    for sid, session in enumerate(history.sessions):
        fed = len(base.sessions[sid]) if sid < base.num_sessions else 0
        records.extend((sid, raw_of(history.transactions[tid])) for tid in session[fed:])
    return history, records


class TestCrossVersionCheckpoints:
    """v7 checkpoints resume answer-identical; every older version is refused."""

    def _history(self, txns=300, seed=29):
        return generate_random_history(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=txns,
                num_keys=12,
                min_ops_per_txn=1,
                max_ops_per_txn=6,
                read_fraction=0.5,
                abort_probability=0.05,
                mode="random_reads",
                seed=seed,
            )
        )

    def _checkpoint(self, tmp_path):
        checker = CompiledIncrementalChecker(num_sessions=2)
        checker.append_raw(0, "t0", True, [(True, "x", 1)])
        path = tmp_path / "state.awd"
        checker.save_checkpoint(str(path))
        return path

    def test_saved_checkpoints_are_v8(self, tmp_path):
        blob = self._checkpoint(tmp_path).read_bytes()
        assert blob.startswith(online.CHECKPOINT_MAGIC)
        assert blob[len(online.CHECKPOINT_MAGIC)] == online.CHECKPOINT_VERSION == 8

    @pytest.mark.parametrize("version", [4, 5, 6, 7])
    def test_older_versions_are_refused(self, tmp_path, capsys, version):
        path = self._checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(online.CHECKPOINT_MAGIC)] = version
        path.write_bytes(bytes(blob))
        with pytest.raises(HistoryFormatError) as excinfo:
            load_checkpoint(str(path))
        message = str(excinfo.value)
        assert f"unsupported checkpoint version {version}" in message
        assert message.endswith("re-run without --resume")
        history = tmp_path / "h.plume"
        save_history(self._history(txns=10), str(history), fmt="plume")
        argv = ["check", str(history), "--stream", "--checkpoint", str(path), "--resume"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unsupported checkpoint version" in err

    def _resume_matches_batch(self, tmp_path, monkeypatch, batch_ops, fallback,
                              retire, eager):
        # RC, RA and CC at once: a mid-stream checkpoint, resumed on
        # either kernel path, with and without retirement spilling
        # edge-log rows into segments, reproduces the batch engine's
        # verdicts, witnesses and inferred-edge counts.  ``eager`` drops
        # the in-place reduce floor so the logs settle mid-stream too.
        settled = []
        real_settle = kernels.EdgeLog.settle

        def counting_settle(log):
            if len(log) >= log._reduce_at:
                settled.append(len(log))
            real_settle(log)

        monkeypatch.setattr(kernels.EdgeLog, "settle", counting_settle)
        if eager:
            monkeypatch.setattr(kernels, "_REDUCE_MIN_ROWS", 8)
        history, records = _stream_with_gadget()
        want = [
            (level.name, r.is_consistent, [v.message for v in r.violations],
             r.stats.get("inferred_edges"))
            for level in LEVELS
            for r in [check(history, level)]
        ]
        policy = (
            RetirementPolicy(lag=192, every=16, segment_dir=str(tmp_path / "segs"))
            if retire
            else None
        )
        got, checker = run_stream(
            records,
            history.num_sessions,
            batch_ops,
            fallback=fallback,
            retire=policy,
            resume=(str(tmp_path / "state.awd"), 500),
        )
        assert got == want
        assert (checker.live_stats()["spilled_edges"] > 0) == retire
        assert bool(settled) == eager

    @pytest.mark.parametrize("retire", [False, True], ids=["keep", "retire"])
    @pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "fallback"])
    @pytest.mark.parametrize("batch_ops", [1, 64, 4096])
    def test_v7_resume(self, tmp_path, monkeypatch, batch_ops, fallback, retire):
        self._resume_matches_batch(
            tmp_path, monkeypatch, batch_ops, fallback, retire, eager=False
        )

    @pytest.mark.parametrize("retire", [False, True], ids=["keep", "retire"])
    @pytest.mark.parametrize("fallback", [False, True], ids=["numpy", "fallback"])
    @pytest.mark.parametrize("batch_ops", [1, 64, 4096])
    def test_v7_resume_reducing_in_place(self, tmp_path, monkeypatch, batch_ops,
                                         fallback, retire):
        self._resume_matches_batch(
            tmp_path, monkeypatch, batch_ops, fallback, retire, eager=True
        )

    @pytest.mark.parametrize("batch_ops", [1, 64, 4096])
    def test_fallback_path_answers_identical(self, batch_ops):
        # The kernel-path half of the contract: the columnar fold with
        # every numpy kernel disabled matches the vectorized fold exactly.
        history = inject_anomaly(self._history(seed=41), INJECTABLE_ANOMALIES[0])
        records = interleaved_raw(history, 11)
        want, _ = run_stream(records, history.num_sessions, batch_ops)
        got, _ = run_stream(records, history.num_sessions, batch_ops, fallback=True)
        assert got == want


class TestCorruptCheckpoint:
    """A truncated checkpoint is a one-line diagnostic, not a traceback."""

    def test_truncated_checkpoint_is_refused(self, tmp_path, capsys):
        history, _ = _stream_with_gadget(txns=200)
        source = tmp_path / "h.plume"
        save_history(history, str(source), fmt="plume")
        state = tmp_path / "state.awd"
        argv = ["check", str(source), "--stream", "--checkpoint", str(state)]
        assert main(argv + ["--checkpoint-every", "100"]) == 1
        blob = state.read_bytes()
        capsys.readouterr()
        header = len(online.CHECKPOINT_MAGIC) + 1
        cut_path = tmp_path / "cut.awd"
        for cut in (header, header + 1, header + 40, 500, len(blob) // 2, len(blob) - 1):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(HistoryFormatError) as excinfo:
                load_checkpoint(str(cut_path))
            assert str(excinfo.value) == (
                f"{cut_path}: checkpoint is truncated or corrupt; re-run without --resume"
            )
            code = main(["check", str(source), "--stream", "--checkpoint",
                         str(cut_path), "--resume"])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"awdit: error: {excinfo.value}\n"


    def test_garbled_checkpoint_quotes_the_error(self, tmp_path, capsys):
        # A body naming a module that does not exist -- what a bit flip in
        # a global opcode, or a class moved by a defect, looks like.
        path = tmp_path / "garbled.awd"
        header = online.CHECKPOINT_MAGIC + bytes([online.CHECKPOINT_VERSION])
        path.write_bytes(header + b"cno_such_module\nThing\n.")
        with pytest.raises(HistoryFormatError) as excinfo:
            load_checkpoint(str(path))
        message = str(excinfo.value)
        assert "ModuleNotFoundError: No module named 'no_such_module'" in message
        assert message.endswith("re-run without --resume")
        history, _ = _stream_with_gadget(txns=20)
        source = tmp_path / "h.plume"
        save_history(history, str(source), fmt="plume")
        argv = ["check", str(source), "--stream", "--checkpoint", str(path), "--resume"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"awdit: error: {message}\n"


# -- AWDIT_NO_NUMPY subprocess parity ------------------------------------------


@needs_numpy
class TestNoNumpySubprocessColumnar:
    """join_clocks and the park-heavy fold are answer-identical without numpy."""

    _SCRIPT = (
        "import json, sys\n"
        "from array import array\n"
        "from repro.core import IsolationLevel\n"
        "from repro.core.compiled import kernels\n"
        "from repro.stream import check_stream_file\n"
        "stride = 64\n"
        "hb = array('q', ((j * s * 2654435761) % 97 - 1\n"
        "                 for j in range(64) for s in range(stride)))\n"
        "sc = array('q', ((s * 40503) % 89 - 1 for s in range(stride)))\n"
        "rows = list(range(0, 64, 1))\n"
        "wsids = [j % stride for j in rows]\n"
        "wsidxs = [(j * 7919) % 101 for j in rows]\n"
        "row, vectorized = kernels.join_clocks(hb, stride, sc, 0, rows,\n"
        "                                      wsids, wsidxs)\n"
        "out = {'join': list(row), 'vectorized': vectorized, 'stream': []}\n"
        "for level in IsolationLevel:\n"
        "    r = check_stream_file(sys.argv[1], level, fmt='plume',\n"
        "                          engine='compiled', batch_ops=1)\n"
        "    out['stream'].append([level.name, r.is_consistent,\n"
        "                          [v.message for v in r.violations]])\n"
        "print(json.dumps(out))\n"
    )

    def _run_subprocess(self, path, no_numpy):
        env = dict(os.environ)
        if no_numpy:
            env["AWDIT_NO_NUMPY"] = "1"
        else:
            env.pop("AWDIT_NO_NUMPY", None)
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, path],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_join_and_park_parity(self, tmp_path):
        # batch_ops=1 maximizes cross-batch parking: every read of a
        # not-yet-arrived writer goes through the columnar ParkQueue.
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4,
                    num_transactions=200,
                    num_keys=8,
                    min_ops_per_txn=2,
                    max_ops_per_txn=6,
                    read_fraction=0.6,
                    mode="random_reads",
                    seed=23,
                )
            ),
            INJECTABLE_ANOMALIES[0],
        )
        path = tmp_path / "parity.plume"
        save_history(history, str(path), fmt="plume")
        with_numpy = self._run_subprocess(str(path), no_numpy=False)
        without = self._run_subprocess(str(path), no_numpy=True)
        assert with_numpy["join"] == without["join"]
        assert with_numpy["vectorized"] is True
        assert without["vectorized"] is False
        assert with_numpy["stream"] == without["stream"]


# -- batch_ops validation ------------------------------------------------------


class TestBatchOpsValidation:
    """Nonsensical batch sizes are rejected up front, not silently folded."""

    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "h.plume"
        save_history(
            generate_random_history(
                RandomHistoryConfig(num_sessions=2, num_transactions=20, seed=1)
            ),
            str(path),
            fmt="plume",
        )
        return str(path)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cli_rejects_bad_batch_ops(self, history_path, capsys, value):
        assert main(["check", history_path, "--stream", "--batch-ops", value]) == 2
        err = capsys.readouterr().err
        assert "awdit: error:" in err
        assert f"--batch-ops must be >= 1, got {value}" in err

    def test_cli_gc_tune_requires_stream(self, history_path, capsys):
        assert main(["check", history_path, "--gc-tune"]) == 2
        err = capsys.readouterr().err
        assert "awdit: error:" in err and "--gc-tune" in err and "--stream" in err

    @pytest.mark.parametrize("value", [0, -1])
    def test_extend_raw_rejects_bad_batch_ops(self, value):
        checker = CompiledIncrementalChecker(num_sessions=1)
        with pytest.raises(ValueError, match=f"batch_ops must be >= 1, got {value}"):
            checker.extend_raw(iter([]), batch_ops=value)

    @pytest.mark.parametrize("engine", ["compiled", "object"])
    def test_check_stream_file_rejects_bad_batch_ops(self, history_path, engine):
        with pytest.raises(ValueError, match="batch_ops must be >= 1, got 0"):
            check_stream_file(
                history_path,
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                engine=engine,
                batch_ops=0,
            )


# -- --gc-tune -----------------------------------------------------------------


class TestGcTune:
    """The collector experiment never changes answers or leaks GC state."""

    def _history_path(self, tmp_path):
        path = tmp_path / "h.plume"
        save_history(
            inject_anomaly(
                generate_random_history(
                    RandomHistoryConfig(
                        num_sessions=3,
                        num_transactions=120,
                        num_keys=8,
                        read_fraction=0.5,
                        mode="random_reads",
                        seed=13,
                    )
                ),
                INJECTABLE_ANOMALIES[0],
            ),
            str(path),
            fmt="plume",
        )
        return str(path)

    def test_same_answers_and_collector_fully_restored(self, tmp_path):
        path = self._history_path(tmp_path)
        thresholds = gc.get_threshold()
        enabled = gc.isenabled()
        frozen = gc.get_freeze_count()
        for level in LEVELS:
            plain = check_stream_file(path, level, fmt="plume", engine="compiled")
            tuned = check_stream_file(
                path, level, fmt="plume", engine="compiled", gc_tune=True
            )
            assert tuned.is_consistent == plain.is_consistent
            assert [v.message for v in tuned.violations] == [
                v.message for v in plain.violations
            ]
        assert gc.get_threshold() == thresholds
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == frozen

    def test_cli_gc_tune_runs_and_profiles(self, tmp_path, capsys):
        path = self._history_path(tmp_path)
        code = main(["check", path, "-i", "cc", "--stream", "--gc-tune", "--profile"])
        assert code == 1  # the injected anomaly is a real violation
        err = capsys.readouterr().err  # --profile reports on stderr
        assert "fold_dispatch" in err
        assert "parse_gc_collections" in err and "fold_gc_collections" in err
