"""The ledger's fixed workloads, their generated inputs, and their verdict oracle.

Every workload uses the Fig. 9 generator shape (500 keys, 6-10 operations
per transaction, 50% reads, serializable mode) and differs in size, session
count, file order, and the streaming options the check runs with.  Inputs
are plume text files keyed by (workload parameters, seed, generator source)
and cached under ``.ledger_cache/`` in the repository root, so generation
never lands in a timed region and the checker under test only ever sees
the file.

The oracle is what the generator guarantees: a serializable history is
consistent at every level, and the one injected ``COMMIT_ORDER_CYCLE``
gadget of ``batch-fig9`` yields exactly the kinds in ``GADGET_KINDS``
(pinned against the object reference engine by ``test_ledger.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".ledger_cache")

#: Files whose content defines the generated bytes; part of the cache key.
_GENERATOR_SOURCES = (
    os.path.join(SRC, "repro", "histories", "generator.py"),
    os.path.join(SRC, "repro", "histories", "formats", "plume_text.py"),
)

#: Generated inputs kept in the cache; older entries are pruned.
_CACHE_ENTRIES = 12

#: The CLI's default witness budget (``awdit check --witnesses``).
WITNESSES = 5

RC, RA, CC = "READ_COMMITTED", "READ_ATOMIC", "CAUSAL_CONSISTENCY"

#: Violation kinds per level of a serializable history plus one injected
#: Fig. 4a commit-order-cycle gadget.
GADGET_KINDS: Dict[str, FrozenSet[str]] = {
    RC: frozenset({"COMMIT_ORDER_CYCLE"}),
    RA: frozenset({"NON_REPEATABLE_READ"}),
    CC: frozenset({"COMMIT_ORDER_CYCLE"}),
}


@dataclass(frozen=True)
class Workload:
    """One ledger workload: generator shape, file order, and check options."""

    name: str
    mode: str  # "batch" (load_compiled + check_all_levels) or "stream"
    sessions: int
    transactions: int
    arrival_order: bool  # file in generation order; else session-blocked
    inject_gadget: bool  # append one COMMIT_ORDER_CYCLE gadget
    retire: bool = False  # stream with the default RetirementPolicy
    checkpoint: bool = False  # stream with a checkpoint at the CLI cadence
    why: str = ""

    def generator_config(self, seed: int, transactions: Optional[int] = None):
        from repro.histories.generator import RandomHistoryConfig

        return RandomHistoryConfig(
            num_sessions=self.sessions,
            num_transactions=self.transactions if transactions is None else transactions,
            num_keys=500,
            min_ops_per_txn=6,
            max_ops_per_txn=10,
            read_fraction=0.5,
            mode="serializable",
            seed=seed,
        )

    def expected_kinds(self) -> Dict[str, FrozenSet[str]]:
        """Violation kinds per checked level that the generator guarantees."""
        levels = (RC, RA, CC) if self.mode == "batch" else (CC,)
        return {
            level: GADGET_KINDS[level] if self.inject_gadget else frozenset()
            for level in levels
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="batch-fig9",
            mode="batch",
            sessions=8,
            transactions=15_000,
            arrival_order=False,
            inject_gadget=True,
            why="Fig. 9 shape through the default batch engine at RC/RA/CC, "
            "with a commit-order-cycle witness to extract",
        ),
        Workload(
            name="stream-retire",
            mode="stream",
            sessions=8,
            transactions=30_000,
            arrival_order=True,
            inject_gadget=False,
            retire=True,
            checkpoint=True,
            why="long-running monitor: arrival-order CC stream with retirement "
            "and checkpoints, fast-path reads",
        ),
        Workload(
            name="stream-k128",
            mode="stream",
            sessions=128,
            # 10k, not fig9's 15k: at 15k one check takes ~7 s and ~830 MiB,
            # too few repetitions per run for a steady median.
            transactions=10_000,
            arrival_order=False,
            inject_gadget=False,
            why="the O(n*k) term: 128 sessions, session-blocked CC stream that "
            "parks cross-session reads",
        ),
    )
}


def build_history(workload: Workload, seed: int, transactions: Optional[int] = None):
    """The workload's history and file order (``None`` = session-blocked)."""
    from repro.core.violations import ViolationKind
    from repro.histories.generator import generate_random_stream, inject_anomaly

    history, order = generate_random_stream(workload.generator_config(seed, transactions))
    if workload.inject_gadget:
        history = inject_anomaly(
            history, ViolationKind.COMMIT_ORDER_CYCLE, rng=random.Random(seed)
        )
    return history, (order if workload.arrival_order else None)


def _cache_key(workload: Workload, seed: int) -> str:
    digest = hashlib.sha256()
    params = asdict(workload)
    params.pop("why")
    digest.update(json.dumps([params, seed], sort_keys=True).encode())
    for path in _GENERATOR_SOURCES:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:20]


def generate(workload: Workload, seed: int) -> Tuple[str, dict]:
    """Path of the cached input file and its metadata, generating on a miss.

    The metadata records the operation and transaction counts the checker
    must report back.  Entries are written atomically (temp file + rename).
    """
    from repro.histories.formats import plume_text

    key = _cache_key(workload, seed)
    path = os.path.join(CACHE, f"{workload.name}-{seed}-{key}.plume")
    meta_path = path + ".json"
    if os.path.exists(path) and os.path.exists(meta_path):
        with open(meta_path) as handle:
            return path, json.load(handle)
    os.makedirs(CACHE, exist_ok=True)
    history, order = build_history(workload, seed)
    meta = {
        "operations": sum(len(t.operations) for t in history.transactions),
        "transactions": len(history.transactions),
        "sessions": history.num_sessions,
    }
    text = plume_text.dumps(history, order=order)
    for target, content in ((path, text), (meta_path, json.dumps(meta))):
        with open(target + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(target + ".tmp", target)
    _prune()
    return path, meta


def _prune() -> None:
    inputs = sorted(
        (os.path.join(CACHE, name) for name in os.listdir(CACHE) if name.endswith(".plume")),
        key=os.path.getmtime,
    )
    for path in inputs[:-_CACHE_ENTRIES]:
        for victim in (path, path + ".json"):
            try:
                os.unlink(victim)
            except FileNotFoundError:
                pass


def main(argv) -> int:
    """``python ledger/workloads.py NAME SEED``: print the input's path and counts."""
    path, meta = generate(WORKLOADS[argv[1]], int(argv[2]))
    print(json.dumps({"path": path, **meta}))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv))
