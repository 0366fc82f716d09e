"""Malformed / truncated input handling in the four ``stream()`` parsers.

A corrupt capture must fail loudly with :class:`HistoryFormatError`
(:class:`ParseError` is a subclass) carrying file/line context -- never leak
``KeyError`` / ``StopIteration`` / ``TypeError`` from parser internals, and
never silently pass a truncated log as consistent.
"""

import io

import pytest

from repro.cli import main
from repro.core.exceptions import HistoryFormatError, ParseError
from repro.histories.formats import (
    cobra,
    dbcop,
    load_compiled,
    native,
    plume_text,
    save_history,
    stream_history,
    stream_raw_batches,
    stream_raw_history,
)

from helpers import all_paper_histories


def test_parse_error_is_a_history_format_error():
    """Callers can harden against bad input by catching one base class."""
    assert issubclass(ParseError, HistoryFormatError)


def _drain(iterator):
    return list(iterator)


class TestMidRecordEOF:
    """Truncation mid-record must raise, with line context."""

    def test_native_truncated_mid_transaction(self):
        text = native.dumps(all_paper_histories()["fig_1b"])
        cut = text[: text.rindex("ops") + 6]  # inside a transaction object
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(native.stream(io.StringIO(cut)))
        assert "line" in str(excinfo.value)

    def test_dbcop_truncated_mid_transaction(self):
        text = dbcop.dumps(all_paper_histories()["fig_1b"])
        cut = text[: text.rindex("variable") + 4]
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(dbcop.stream(io.StringIO(cut)))
        assert "line" in str(excinfo.value)

    def test_plume_truncated_line(self):
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream(io.StringIO("session=0 txn=t0 comm")))
        assert "line 1" in str(excinfo.value)

    def test_plume_truncated_mid_operation(self):
        """A cut inside the last op must not silently drop the partial op."""
        line = "session=0 txn=t0 committed ops= W(x,1) W(y,"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream(io.StringIO(line)))
        assert "truncated" in str(excinfo.value)

    def test_plume_garbage_between_operations(self):
        line = "session=0 txn=t0 committed ops= W(x,1) junk W(y,2)"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream(io.StringIO(line)))
        assert "junk" in str(excinfo.value)

    def test_cobra_truncated_row(self):
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(cobra.stream(io.StringIO("0,0,W,x,1,1\n0,1,W,y")))
        assert "line 2" in str(excinfo.value)

    def test_empty_input_rejected_everywhere(self):
        for module in (native, dbcop, plume_text, cobra):
            with pytest.raises(HistoryFormatError):
                _drain(module.stream(io.StringIO("")))


class TestBadOpKind:
    def test_native_bad_kind(self):
        text = '{"sessions": [[{"ops": [["X", "x", 1]]}]]}'
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(native.stream(io.StringIO(text)))
        assert "'R' or 'W'" in str(excinfo.value)
        assert "line" in str(excinfo.value)

    def test_native_malformed_op_shape(self):
        text = '{"sessions": [[{"ops": [["W", "x"]]}]]}'
        with pytest.raises(HistoryFormatError):
            _drain(native.stream(io.StringIO(text)))

    def test_dbcop_event_missing_fields_is_not_a_key_error(self):
        text = '{"sessions": [[{"events": [{"write": true}], "success": true}]]}'
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(dbcop.stream(io.StringIO(text)))
        assert "variable" in str(excinfo.value)

    def test_dbcop_non_object_event(self):
        text = '{"sessions": [[{"events": [17], "success": true}]]}'
        with pytest.raises(HistoryFormatError):
            _drain(dbcop.stream(io.StringIO(text)))

    def test_plume_bad_kind_in_ops(self):
        line = "session=0 txn=t0 committed ops= Q(x,1)"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream(io.StringIO(line)))
        assert "line 1" in str(excinfo.value)

    def test_cobra_bad_kind(self):
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(cobra.stream(io.StringIO("0,0,Q,x,1,1\n")))
        assert "R or W" in str(excinfo.value)


class TestDuplicateTxnId:
    def test_plume_duplicate_label_in_one_session(self):
        text = (
            "session=0 txn=t0 committed ops= W(x,1)\n"
            "session=0 txn=t0 committed ops= W(x,2)\n"
        )
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream(io.StringIO(text)))
        assert "duplicate" in str(excinfo.value)
        assert "line 2" in str(excinfo.value)

    def test_plume_same_label_in_different_sessions_is_fine(self):
        text = (
            "session=0 txn=a committed ops= W(x,1)\n"
            "session=1 txn=a committed ops= R(x,1)\n"
        )
        assert len(_drain(plume_text.stream(io.StringIO(text)))) == 2

    def test_cobra_duplicate_txn_index(self):
        text = "0,0,W,x,1,1\n0,1,W,y,1,1\n0,0,W,z,1,1\n"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(cobra.stream(io.StringIO(text)))
        assert "line 3" in str(excinfo.value)

    def test_cobra_negative_session_rejected_by_both_loaders(self):
        # loads' positional session assembly would silently drop session -1
        # rows while the compiled path would keep them; both must reject,
        # so the engines can never disagree on such a file.
        text = "-1,0,W,x,1,1\n0,0,R,x,1,1\n"
        with pytest.raises(HistoryFormatError):
            _drain(cobra.stream(io.StringIO(text)))
        with pytest.raises(HistoryFormatError):
            cobra.loads(text)


class TestFileContext:
    """stream_history / stream_raw_history prefix errors with the file path."""

    def test_stream_history_reports_the_path(self, tmp_path):
        path = tmp_path / "broken.plume"
        path.write_text("session=0 txn=t0 garbage\n")
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(stream_history(str(path)))
        message = str(excinfo.value)
        assert "broken.plume" in message and "line 1" in message

    def test_stream_raw_history_reports_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        save_history(all_paper_histories()["fig_4a"], str(path))
        path.write_text(path.read_text()[:-30])  # truncate mid-record
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(stream_raw_history(str(path)))
        assert "broken.json" in str(excinfo.value)


class TestInvalidUtf8:
    """A byte that is not UTF-8 is a one-line file:line diagnostic everywhere."""

    @pytest.mark.parametrize("entry", ["load_compiled", "stream_raw_batches", "cli"])
    @pytest.mark.parametrize("fmt", ["plume", "cobra", "dbcop", "json", "native"])
    def test_invalid_byte_is_a_format_error(self, tmp_path, capsys, fmt, entry):
        path = tmp_path / f"bad.{fmt}"
        save_history(all_paper_histories()["fig_1b"], str(path), fmt=fmt)
        blob = path.read_bytes()
        # Corrupt the end of the second line.
        at = blob.index(b"\n", blob.index(b"\n") + 1)
        path.write_bytes(blob[:at] + b"\xff" + blob[at:])
        want = f"{path}:2: invalid UTF-8 byte 0xff at byte offset {at}"
        if entry == "cli":
            # --stream --jobs 2 parses byte ranges where the format allows it.
            for extra in ([], ["--stream"], ["--stream", "--jobs", "2"]):
                assert main(["check", str(path), "--format", fmt, *extra]) == 2
                assert capsys.readouterr().err == f"awdit: error: {want}\n"
            return
        with pytest.raises(HistoryFormatError) as excinfo:
            if entry == "load_compiled":
                load_compiled(str(path), fmt=fmt)
            else:
                _drain(stream_raw_batches(str(path), fmt=fmt))
        assert str(excinfo.value) == want
