"""Tests for the on-disk history formats and the load/save dispatch."""

import pytest

from repro.core import IsolationLevel, check
from repro.core.exceptions import ParseError, UsageError
from repro.histories.formats import (
    FORMATS,
    detect_format,
    load_compiled,
    load_history,
    save_history,
)
from repro.histories.formats import cobra, dbcop, native, plume_text
from repro.histories.generator import RandomHistoryConfig, generate_random_history

from helpers import all_paper_histories, fig_1a, fig_4b


def verdicts(history):
    return tuple(
        check(history, level).is_consistent
        for level in IsolationLevel
    )


ALL_FORMAT_MODULES = {
    "native": native,
    "plume": plume_text,
    "dbcop": dbcop,
    "cobra": cobra,
}


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", sorted(ALL_FORMAT_MODULES))
    @pytest.mark.parametrize("name", sorted(all_paper_histories()))
    def test_paper_histories_round_trip(self, fmt, name):
        module = ALL_FORMAT_MODULES[fmt]
        history = all_paper_histories()[name]
        reloaded = module.loads(module.dumps(history))
        assert reloaded.num_sessions == history.num_sessions
        assert reloaded.num_operations == history.num_operations
        assert verdicts(reloaded) == verdicts(history)

    @pytest.mark.parametrize("fmt", sorted(ALL_FORMAT_MODULES))
    def test_random_history_round_trip_preserves_structure(self, fmt):
        module = ALL_FORMAT_MODULES[fmt]
        history = generate_random_history(
            RandomHistoryConfig(seed=3, num_transactions=30, abort_probability=0.2)
        )
        reloaded = module.loads(module.dumps(history))
        assert reloaded.num_transactions == history.num_transactions
        assert len(reloaded.aborted) == len(history.aborted)
        assert reloaded.keys == history.keys

    def test_native_preserves_labels(self):
        history = fig_1a()
        reloaded = native.loads(native.dumps(history))
        assert [t.label for t in reloaded.transactions] == [
            t.label for t in history.transactions
        ]


class TestParseErrors:
    def test_native_rejects_bad_json(self):
        with pytest.raises(ParseError):
            native.loads("{not json")

    def test_native_rejects_non_object(self):
        with pytest.raises(ParseError):
            native.loads("[1, 2, 3]")

    def test_native_rejects_bad_operation(self):
        with pytest.raises(ParseError):
            native.loads('{"sessions": [[{"ops": [["X", "x", 1]]}]]}')

    def test_plume_rejects_garbage_line(self):
        with pytest.raises(ParseError):
            plume_text.loads("this is not a history line")

    def test_plume_rejects_empty_file(self):
        with pytest.raises(ParseError):
            plume_text.loads("# only a comment\n")

    def test_plume_unicode_line_separator_values_load_like_the_stream(self, tmp_path):
        # Records end at newlines only: a U+2028 inside a value must reach
        # the object engine's loader intact, as it does the streaming readers.
        path = tmp_path / "u2028.plume"
        path.write_text(
            "session=0 txn=a committed ops= W(x,weird\u2028value)\n"
            "session=1 txn=b committed ops= R(x,weird\u2028value)\n",
            encoding="utf-8",
        )
        history = load_history(str(path))
        assert history.transactions[0].operations[0].value == "weird\u2028value"
        compiled = load_compiled(str(path))
        for level in IsolationLevel:
            assert check(history, level, engine="object").is_consistent
            assert check(compiled, level).is_consistent

    def test_cobra_rejects_wrong_column_count(self):
        with pytest.raises(ParseError):
            cobra.loads("session,txn_index,op,key,value,committed\n0,0,W,x\n")

    def test_cobra_rejects_bad_op(self):
        with pytest.raises(ParseError):
            cobra.loads("0,0,Q,x,1,1\n")

    def test_cobra_rejects_inconsistent_commit_flags(self):
        text = "0,0,W,x,1,1\n0,0,W,y,2,0\n"
        with pytest.raises(ParseError):
            cobra.loads(text)

    def test_cobra_rejects_empty(self):
        with pytest.raises(ParseError):
            cobra.loads("")

    def test_dbcop_rejects_bad_json(self):
        with pytest.raises(ParseError):
            dbcop.loads("oops")

    def test_dbcop_rejects_missing_sessions(self):
        with pytest.raises(ParseError):
            dbcop.loads('{"id": 0}')


class TestFormatSpecificBehaviour:
    def test_plume_values_parse_as_ints_when_possible(self):
        text = "session=0 txn=a committed ops= W(x,1) W(y,hello)\n"
        history = plume_text.loads(text)
        ops = history.transactions[0].operations
        assert ops[0].value == 1
        assert ops[1].value == "hello"

    def test_dbcop_drops_failed_events(self):
        text = (
            '{"sessions": [[{"events": ['
            '{"write": true, "variable": "x", "value": 1, "success": true},'
            '{"write": true, "variable": "y", "value": 2, "success": false}'
            '], "success": true}]]}'
        )
        history = dbcop.loads(text)
        assert history.transactions[0].keys_written == {"x"}

    def test_cobra_committed_flag_spellings(self):
        history = cobra.loads("0,0,W,x,1,true\n0,1,W,x,2,True\n1,0,W,y,1,false\n1,1,W,y,2,False\n")
        assert [t.committed for t in history.transactions] == [True, True, False, False]

    def test_cobra_header_is_optional(self):
        with_header = cobra.loads("session,txn_index,op,key,value,committed\n0,0,W,x,1,1\n")
        without_header = cobra.loads("0,0,W,x,1,1\n")
        assert with_header.num_operations == without_header.num_operations == 1


class TestDispatch:
    def test_detect_format_by_extension(self):
        assert detect_format("h.json") == "native"
        assert detect_format("h.plume") == "plume"
        assert detect_format("h.txt") == "plume"
        assert detect_format("h.cobra") == "cobra"
        assert detect_format("h.csv") == "cobra"
        assert detect_format("h.dbcop") == "dbcop"

    def test_detect_format_unknown_extension(self):
        with pytest.raises(UsageError):
            detect_format("history.xyz")

    def test_save_and_load_round_trip(self, tmp_path):
        history = fig_4b()
        for fmt, extension in [("native", "json"), ("plume", "plume"), ("cobra", "cobra"), ("dbcop", "dbcop")]:
            path = tmp_path / f"history.{extension}"
            save_history(history, str(path), fmt=fmt)
            reloaded = load_history(str(path))
            assert reloaded.num_operations == history.num_operations

    def test_unknown_format_name_rejected(self, tmp_path):
        path = tmp_path / "h.json"
        with pytest.raises(UsageError):
            save_history(fig_4b(), str(path), fmt="parquet")

    def test_registry_contains_expected_formats(self):
        assert {"native", "plume", "dbcop", "cobra"} <= set(FORMATS)
