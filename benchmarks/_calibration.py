"""A fixed single-thread calibration kernel for cross-machine perf gating.

``BENCH_5.json`` records wall seconds measured on one machine; CI runners
are a different hardware class, so comparing absolute seconds against the
committed baselines would conflate "this runner is slower" with "the code
regressed".  The perf guard therefore scales the committed baselines by the
ratio of this kernel's runtime on the two machines: the kernel is
deterministic, dependency-free, and exercises the same primitive mix as the
checkers' hot loops (int hashing into dicts, flat appends, a C-level sort,
an indexing scan), so its runtime tracks single-thread Python speed rather
than any code under test.
"""

from __future__ import annotations

import os
import time

_KERNEL_OPS = 200_000


def _kernel() -> int:
    acc = {}
    append_log = []
    log_append = append_log.append
    for i in range(_KERNEL_OPS):
        packed = ((i * 2654435761) & 0xFFFFF) << 32 | i
        if packed not in acc:
            acc[packed] = i
        log_append(packed)
    append_log.sort()
    total = 0
    previous = -1
    for value in append_log:
        if value != previous:
            total += value & 0xFFFF
            previous = value
    return total


def calibration_seconds(repeats: int = 5) -> float:
    """Best-of-``repeats`` wall seconds of the calibration kernel."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def effective_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1
