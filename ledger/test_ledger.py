"""Tests of the ledger itself: its verdict oracle and its per-layer schema.

Run with ``python -m pytest ledger -q`` from the repository root (tier-1
collects only ``tests/``).  Inputs are small (a few hundred transactions),
generated into a temporary directory, never into the ledger's cache.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import child
import run
from workloads import CC, GADGET_KINDS, ROOT, WITNESSES, WORKLOADS, _cache_key, build_history

from repro.core import IsolationLevel, check, check_all_levels
from repro.histories.formats import plume_text

SMALL = 400


def _kinds(result) -> frozenset:
    return frozenset(v.kind.name for v in result.violations)


def _write(tmp_path, workload, seed, transactions=SMALL):
    history, order = build_history(workload, seed, transactions)
    path = tmp_path / f"{workload.name}-{seed}.plume"
    path.write_text(plume_text.dumps(history, order=order), encoding="utf-8")
    operations = sum(len(t.operations) for t in history.transactions)
    return str(path), {"operations": operations}


def _spec(tmp_path, workload, path):
    return {
        "path": path,
        "mode": workload.mode,
        "witnesses": WITNESSES,
        "retire": workload.retire,
        "checkpoint": str(tmp_path / "checkpoint") if workload.checkpoint else None,
        "segment_dir": str(tmp_path / "segments"),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gadget_kinds_match_the_object_reference_engine(seed):
    history, _ = build_history(WORKLOADS["batch-fig9"], seed, SMALL)
    results = check_all_levels(history, max_witnesses=WITNESSES, engine="object")
    assert {level.name: _kinds(r) for level, r in results.items()} == GADGET_KINDS


@pytest.mark.parametrize("name", ["stream-retire", "stream-k128"])
def test_stream_workloads_are_consistent_under_the_object_engine(name):
    history, _ = build_history(WORKLOADS[name], 5, SMALL)
    result = check(history, IsolationLevel.CAUSAL_CONSISTENCY, engine="object")
    assert result.is_consistent


def test_expected_kinds_cover_the_checked_levels():
    assert WORKLOADS["batch-fig9"].expected_kinds() == GADGET_KINDS
    for name in ("stream-retire", "stream-k128"):
        assert WORKLOADS[name].expected_kinds() == {CC: frozenset()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ["e2e", "trace"])
def test_runners_pass_the_oracle_and_report_every_layer(tmp_path, name, kind):
    workload = WORKLOADS[name]
    if workload.retire:
        # Small enough to run fast, large enough that retirement and the
        # checkpoint cadence both fire.
        transactions = 12_000
    else:
        transactions = SMALL
    path, meta = _write(tmp_path, workload, 7, transactions)
    result = child.RUNNERS[(kind, workload.mode)](_spec(tmp_path, workload, path))
    assert run.verify(workload, meta, result) == 0
    if kind == "e2e":
        assert result["check_s"] > 0
        return
    layers = result["layers"]
    assert set(layers) <= {name for name, _ in run.PER_LAYER}
    total = layers["trace.total_s"]
    assert 0 <= layers["trace.unaccounted_s"] < 0.05 * total + 0.01
    if workload.retire:
        assert layers["retire.retired_txns"] > 0
        assert layers["checkpoint.saves"] >= 2
        assert layers["checkpoint.bytes"] > 0


def test_run_child_reports_times_at_the_sampled_speed(tmp_path):
    workload = WORKLOADS["batch-fig9"]
    path, meta = _write(tmp_path, workload, 4)
    env = run.child_env(str(tmp_path))
    result = run.run_child("e2e", _spec(tmp_path, workload, path), env)
    assert run.verify(workload, meta, result) == 0
    assert result["speed"] > 0
    assert result["check_s"] == pytest.approx(result["check_wall_s"] * result["speed"])
    assert result["setup_wall_s"] > 0 and result["setup_s"] > 0


def test_speed_is_the_mean_of_the_samples_in_the_interval():
    samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 1.5), (4.0, 9.0)]
    assert run._speed(samples, 1.5, 3.5) == pytest.approx(1.25)
    assert run.probe() > 0


def test_verify_counts_wrong_missing_and_crashed_verdicts():
    workload = WORKLOADS["batch-fig9"]
    meta = {"operations": 10}
    good = {"operations": 10, "verdicts": {k: sorted(v) for k, v in GADGET_KINDS.items()}}
    assert run.verify(workload, meta, good) == 0
    wrong = dict(good, verdicts=dict(good["verdicts"], READ_ATOMIC=[]))
    assert run.verify(workload, meta, wrong) == 1
    missing = dict(good, verdicts={"READ_COMMITTED": ["COMMIT_ORDER_CYCLE"]})
    assert run.verify(workload, meta, missing) == 2
    assert run.verify(workload, meta, dict(good, operations=9)) == 3
    assert run.verify(workload, meta, {"crashed": "exit 1"}) == 3


def test_cache_key_changes_with_parameters_and_seed():
    workload = WORKLOADS["stream-k128"]
    base = _cache_key(workload, 1)
    assert _cache_key(workload, 2) != base
    assert _cache_key(dataclasses.replace(workload, transactions=200), 1) != base
    assert _cache_key(dataclasses.replace(workload, sessions=32), 1) != base


def test_every_per_layer_metric_is_measured_on_some_workload(tmp_path):
    measured = set()
    for name, workload in WORKLOADS.items():
        path, _ = _write(tmp_path, workload, 3)
        measured |= set(child.RUNNERS[("trace", workload.mode)](
            _spec(tmp_path, workload, path)
        )["layers"])
    assert measured == {name for name, _ in run.PER_LAYER} - {"trace.overhead_s"}


def test_benchmark_json_declares_what_the_ledger_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
