"""Byte-level mutation fuzz over every on-disk format and entry point.

A valid small history is saved in each of the five formats, then bytes are
flipped, the file is truncated, and bytes are inserted.  Whatever the
result, the batch loader and the streaming parser may only succeed or raise
:class:`HistoryFormatError`, and ``awdit check`` (run in process) may only
return an exit status, with a usage error reported as one
``awdit: error:`` line and exit 2.  A per-example deadline catches hangs.
"""

import contextlib
import io
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.exceptions import HistoryFormatError
from repro.histories.formats import load_compiled, save_history, stream_raw_batches
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)

FORMATS = ("plume", "cobra", "dbcop", "json", "native")
ENTRIES = ("load_compiled", "stream_raw_batches", "cli")


def _seed_bytes(fmt: str) -> bytes:
    history = inject_anomaly(
        generate_random_history(
            RandomHistoryConfig(
                num_sessions=3,
                num_transactions=6,
                num_keys=3,
                max_ops_per_txn=3,
                abort_probability=0.2,
                seed=5,
            )
        ),
        INJECTABLE_ANOMALIES[0],
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"seed.{fmt}")
        save_history(history, path, fmt=fmt)
        with open(path, "rb") as handle:
            return handle.read()


SEEDS = {fmt: _seed_bytes(fmt) for fmt in FORMATS}

#: Bytes that matter to the parsers' grammars, plus a few that are not UTF-8.
_INTERESTING = st.sampled_from(
    [b"\n", b"\r", b",", b'"', b"{", b"}", b"[", b"]", b":", b"=", b"(", b")",
     b"-", b"0", b"9", b"R", b"W", b" ", b"\x00", b"\xff", b"\xc3", b"\xe2\x80\xa8"]
)

_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(
        st.just("insert"),
        st.floats(0, 1),
        st.one_of(_INTERESTING, st.binary(min_size=1, max_size=4)),
    ),
)


def _mutate(blob: bytes, mutations) -> bytes:
    data = bytearray(blob)
    for mutation in mutations:
        at = int(mutation[1] * len(data))
        if mutation[0] == "flip":
            if data:
                at = min(at, len(data) - 1)
                data[at] ^= mutation[2]
        elif mutation[0] == "truncate":
            del data[at:]
        else:
            data[at:at] = mutation[2]
    return bytes(data)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("fmt", FORMATS)
@settings(
    max_examples=60,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    mutations=st.lists(_MUTATION, min_size=1, max_size=4),
    stream=st.booleans(),
)
def test_mutated_file_fails_cleanly(fmt, entry, mutations, stream):
    blob = _mutate(SEEDS[fmt], mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"fuzz.{fmt}")
        with open(path, "wb") as handle:
            handle.write(blob)
        if entry == "cli":
            out, err = io.StringIO(), io.StringIO()
            argv = ["check", path, "--format", fmt] + (["--stream"] if stream else [])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("awdit: error: "), lines
            else:
                assert code in (0, 1) and not err.getvalue()
            return
        try:
            if entry == "load_compiled":
                load_compiled(path, fmt=fmt)
            else:
                for _batch in stream_raw_batches(path, fmt=fmt):
                    pass
        except HistoryFormatError:
            pass
