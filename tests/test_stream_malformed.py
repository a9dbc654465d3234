"""Malformed / truncated input handling in the four ``stream_batches`` parsers.

A corrupt capture must fail loudly with :class:`HistoryFormatError`
(:class:`ParseError` is a subclass) carrying file/line context -- never leak
``KeyError`` / ``StopIteration`` / ``TypeError`` from parser internals, and
never silently pass a truncated log as consistent.
"""

import io

import pytest

from repro.core.exceptions import HistoryFormatError, ParseError
from repro.histories.formats import (
    cobra,
    dbcop,
    native,
    plume_text,
    load_history,
    save_history,
    stream_raw_batches,
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
            _drain(native.stream_batches(io.StringIO(cut)))
        assert "line" in str(excinfo.value)

    def test_dbcop_truncated_mid_transaction(self):
        text = dbcop.dumps(all_paper_histories()["fig_1b"])
        cut = text[: text.rindex("variable") + 4]
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(dbcop.stream_batches(io.StringIO(cut)))
        assert "line" in str(excinfo.value)

    def test_plume_truncated_line(self):
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream_batches(io.StringIO("session=0 txn=t0 comm")))
        assert "line 1" in str(excinfo.value)

    def test_plume_truncated_mid_operation(self):
        """A cut inside the last op must not silently drop the partial op."""
        line = "session=0 txn=t0 committed ops= W(x,1) W(y,"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream_batches(io.StringIO(line)))
        assert "truncated" in str(excinfo.value)

    def test_plume_garbage_between_operations(self):
        line = "session=0 txn=t0 committed ops= W(x,1) junk W(y,2)"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream_batches(io.StringIO(line)))
        assert "junk" in str(excinfo.value)

    def test_cobra_truncated_row(self):
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(cobra.stream_batches(io.StringIO("0,0,W,x,1,1\n0,1,W,y")))
        assert "line 2" in str(excinfo.value)

    def test_empty_input_rejected_everywhere(self):
        for module in (native, dbcop, plume_text, cobra):
            with pytest.raises(HistoryFormatError):
                _drain(module.stream_batches(io.StringIO("")))


class TestBadOpKind:
    def test_native_bad_kind(self):
        text = '{"sessions": [[{"ops": [["X", "x", 1]]}]]}'
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(native.stream_batches(io.StringIO(text)))
        assert "'R' or 'W'" in str(excinfo.value)
        assert "line" in str(excinfo.value)

    def test_native_malformed_op_shape(self):
        text = '{"sessions": [[{"ops": [["W", "x"]]}]]}'
        with pytest.raises(HistoryFormatError):
            _drain(native.stream_batches(io.StringIO(text)))

    def test_dbcop_event_missing_fields_is_not_a_key_error(self):
        text = '{"sessions": [[{"events": [{"write": true}], "success": true}]]}'
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(dbcop.stream_batches(io.StringIO(text)))
        assert "variable" in str(excinfo.value)

    def test_dbcop_non_object_event(self):
        text = '{"sessions": [[{"events": [17], "success": true}]]}'
        with pytest.raises(HistoryFormatError):
            _drain(dbcop.stream_batches(io.StringIO(text)))

    def test_plume_bad_kind_in_ops(self):
        line = "session=0 txn=t0 committed ops= Q(x,1)"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream_batches(io.StringIO(line)))
        assert "line 1" in str(excinfo.value)

    def test_cobra_bad_kind(self):
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(cobra.stream_batches(io.StringIO("0,0,Q,x,1,1\n")))
        assert "R or W" in str(excinfo.value)


class TestDuplicateTxnId:
    def test_plume_duplicate_label_in_one_session(self):
        text = (
            "session=0 txn=t0 committed ops= W(x,1)\n"
            "session=0 txn=t0 committed ops= W(x,2)\n"
        )
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(plume_text.stream_batches(io.StringIO(text)))
        assert "duplicate" in str(excinfo.value)
        assert "line 2" in str(excinfo.value)

    def test_plume_same_label_in_different_sessions_is_fine(self):
        text = (
            "session=0 txn=a committed ops= W(x,1)\n"
            "session=1 txn=a committed ops= R(x,1)\n"
        )
        batches = _drain(plume_text.stream_batches(io.StringIO(text)))
        assert sum(len(batch) for batch in batches) == 2

    def test_cobra_duplicate_txn_index(self):
        text = "0,0,W,x,1,1\n0,1,W,y,1,1\n0,0,W,z,1,1\n"
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(cobra.stream_batches(io.StringIO(text)))
        assert "line 3" in str(excinfo.value)

    def test_cobra_negative_session_rejected_by_both_loaders(self, tmp_path):
        # Sessions number from 0, so a negative id has no place; both
        # loaders must reject it, so the engines can never disagree.
        text = "-1,0,W,x,1,1\n0,0,R,x,1,1\n"
        with pytest.raises(HistoryFormatError):
            _drain(cobra.stream_batches(io.StringIO(text)))
        path = tmp_path / "negative.cobra"
        path.write_text(text)
        with pytest.raises(HistoryFormatError):
            load_history(str(path))


class TestFileContext:
    """load_history / stream_raw_batches prefix errors with the file path."""

    def test_load_history_reports_the_path(self, tmp_path):
        path = tmp_path / "broken.plume"
        path.write_text("session=0 txn=t0 garbage\n")
        with pytest.raises(HistoryFormatError) as excinfo:
            load_history(str(path))
        message = str(excinfo.value)
        assert "broken.plume" in message and "line 1" in message

    def test_stream_raw_batches_reports_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        save_history(all_paper_histories()["fig_4a"], str(path))
        path.write_text(path.read_text()[:-30])  # truncate mid-record
        with pytest.raises(HistoryFormatError) as excinfo:
            _drain(stream_raw_batches(str(path), batch_ops=1))
        assert "broken.json" in str(excinfo.value)
