"""Streaming (online) isolation checking.

Public surface:

* :class:`IncrementalChecker` -- the object-model online checker: consumes
  ``(session, transaction)`` pairs as they are appended and maintains the
  AWDIT checkers' state online, reporting read-level violations as soon as
  they become witnessable.  Kept as the reference streaming engine
  (``engine="object"``).
* :class:`CompiledIncrementalChecker` -- the compiled streaming core
  (:mod:`repro.core.compiled.online`): the same online algorithms fed raw
  parser records on packed interned ids, with checkpoint/resume.  The
  default streaming engine.
* :func:`check_stream` -- one-shot wrapper over the object checker.
* :func:`check_stream_file` -- the file-level entry point behind ``awdit
  check --stream``: engine dispatch and checkpoint/resume.
* :func:`check_history_stream` -- stream an in-memory history through an
  online engine (the ``check(..., mode="stream")`` implementation).

Pair with the iterator-based parsers
(:func:`repro.histories.formats.stream_history` /
:func:`~repro.histories.formats.stream_raw_history`) to check on-disk logs
in a single pass without materializing the history.
"""

from repro.core.compiled.online import (
    CompiledIncrementalChecker,
    check_stream_compiled,
    load_checkpoint,
)
from repro.stream.incremental import IncrementalChecker, check_stream
from repro.stream.runner import (
    DEFAULT_CHECKPOINT_EVERY,
    STREAM_ENGINES,
    check_all_levels_history_stream,
    check_history_stream,
    check_stream_file,
    history_records,
    iter_raw_batches,
    iter_raw_records,
    stream_live_stats,
)

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "STREAM_ENGINES",
    "CompiledIncrementalChecker",
    "IncrementalChecker",
    "check_all_levels_history_stream",
    "check_history_stream",
    "check_stream",
    "check_stream_compiled",
    "check_stream_file",
    "history_records",
    "iter_raw_batches",
    "iter_raw_records",
    "load_checkpoint",
    "stream_live_stats",
]
