"""Tests for the on-disk history formats and the load/save dispatch."""

import pytest

from repro.cli import main
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

from helpers import all_paper_histories, fig_1a, fig_4b, history_records


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


def load_text(tmp_path, fmt, text):
    """``text`` read back as a ``fmt`` history file by :func:`load_history`."""
    path = tmp_path / f"h.{fmt}"
    path.write_text(text, encoding="utf-8")
    return load_history(str(path), fmt=fmt)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", sorted(ALL_FORMAT_MODULES))
    @pytest.mark.parametrize("name", sorted(all_paper_histories()))
    def test_paper_histories_round_trip(self, tmp_path, fmt, name):
        module = ALL_FORMAT_MODULES[fmt]
        history = all_paper_histories()[name]
        reloaded = load_text(tmp_path, fmt, module.dumps(history))
        assert reloaded.num_sessions == history.num_sessions
        assert reloaded.num_operations == history.num_operations
        assert verdicts(reloaded) == verdicts(history)

    @pytest.mark.parametrize("fmt", sorted(ALL_FORMAT_MODULES))
    def test_random_history_round_trip_preserves_structure(self, tmp_path, fmt):
        module = ALL_FORMAT_MODULES[fmt]
        history = generate_random_history(
            RandomHistoryConfig(seed=3, num_transactions=30, abort_probability=0.2)
        )
        reloaded = load_text(tmp_path, fmt, module.dumps(history))
        assert reloaded.num_transactions == history.num_transactions
        assert len(reloaded.aborted) == len(history.aborted)
        assert reloaded.keys == history.keys

    def test_native_preserves_labels(self, tmp_path):
        history = fig_1a()
        reloaded = load_text(tmp_path, "native", native.dumps(history))
        assert [t.label for t in reloaded.transactions] == [
            t.label for t in history.transactions
        ]


class TestParseErrors:
    def test_native_rejects_bad_json(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "native", "{not json")

    def test_native_rejects_non_object(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "native", "[1, 2, 3]")

    def test_native_rejects_bad_operation(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "native", '{"sessions": [[{"ops": [["X", "x", 1]]}]]}')

    def test_plume_rejects_garbage_line(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "plume", "this is not a history line")

    def test_plume_rejects_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "plume", "# only a comment\n")

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

    def test_cobra_rejects_wrong_column_count(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "cobra", "session,txn_index,op,key,value,committed\n0,0,W,x\n")

    def test_cobra_rejects_bad_op(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "cobra", "0,0,Q,x,1,1\n")

    def test_cobra_rejects_inconsistent_commit_flags(self, tmp_path):
        text = "0,0,W,x,1,1\n0,0,W,y,2,0\n"
        with pytest.raises(ParseError):
            load_text(tmp_path, "cobra", text)

    def test_cobra_rejects_empty(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "cobra", "")

    def test_dbcop_rejects_bad_json(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "dbcop", "oops")

    def test_dbcop_rejects_missing_sessions(self, tmp_path):
        with pytest.raises(ParseError):
            load_text(tmp_path, "dbcop", '{"id": 0}')


class TestFormatSpecificBehaviour:
    def test_plume_values_parse_as_ints_when_possible(self, tmp_path):
        text = "session=0 txn=a committed ops= W(x,1) W(y,hello)\n"
        history = load_text(tmp_path, "plume", text)
        ops = history.transactions[0].operations
        assert ops[0].value == 1
        assert ops[1].value == "hello"

    def test_dbcop_drops_failed_events(self, tmp_path):
        text = (
            '{"sessions": [[{"events": ['
            '{"write": true, "variable": "x", "value": 1, "success": true},'
            '{"write": true, "variable": "y", "value": 2, "success": false}'
            '], "success": true}]]}'
        )
        history = load_text(tmp_path, "dbcop", text)
        assert history.transactions[0].keys_written == {"x"}

    def test_cobra_committed_flag_spellings(self, tmp_path):
        history = load_text(
            tmp_path, "cobra", "0,0,W,x,1,true\n0,1,W,x,2,True\n1,0,W,y,1,false\n1,1,W,y,2,False\n"
        )
        assert [t.committed for t in history.transactions] == [True, True, False, False]

    def test_cobra_header_is_optional(self, tmp_path):
        with_header = load_text(
            tmp_path, "cobra", "session,txn_index,op,key,value,committed\n0,0,W,x,1,1\n"
        )
        without_header = load_text(tmp_path, "cobra", "0,0,W,x,1,1\n")
        assert with_header.num_operations == without_header.num_operations == 1


#: Edge-case files every reader must read alike: rows a per-record parser
#: must refuse, a session that leaves no record, and errors whose line
#: numbers count a header or blank lines.  ``(format, text, expected)``,
#: where ``expected`` is the session count every reader sees, or the error
#: message every reader prints.
PROBES = {
    "cobra-interleaved-rows": (
        "cobra",
        "0,0,W,x,1,1\n1,0,R,x,1,1\n0,0,W,y,2,1\n",
        "line 3: rows of session 0 are not contiguous per transaction "
        "(saw txn index 0 after 0)",
    ),
    "cobra-index-goes-backwards": (
        "cobra",
        "0,1,W,x,1,1\n0,0,W,y,1,1\n1,0,R,x,1,1\n",
        "line 2: rows of session 0 are not contiguous per transaction "
        "(saw txn index 0 after 1)",
    ),
    "native-duplicate-sessions": (
        "native",
        '{"sessions": [[{"ops": [["W", "x", 1]]}]], '
        '"sessions": [[{"ops": [["W", "x", 1]]}], [{"ops": [["R", "x", 1]]}]]}\n',
        "duplicate 'sessions' field",
    ),
    "native-trailing-empty-session": (
        "native",
        '{"sessions": [[{"ops": [["W", "x", 1]]}], [{"ops": [["R", "x", 1]]}], []]}\n',
        2,
    ),
    "dbcop-trailing-empty-session": (
        "dbcop",
        '{"id": 0, "sessions": ['
        '[{"events": [{"write": true, "variable": "x", "value": 1}], "success": true}], '
        '[{"events": [{"write": false, "variable": "x", "value": 1}], "success": true}], '
        "[]]}\n",
        2,
    ),
    "native-no-transactions": (
        "native",
        '{"format": "awdit-native", "version": 1, "sessions": [[], []]}\n',
        "history file contains no transactions",
    ),
    "dbcop-no-transactions": (
        "dbcop",
        '{"id": 0, "sessions": []}\n',
        "history file contains no transactions",
    ),
    "native-no-sessions": (
        "native",
        '{"sessions": []}\n',
        "history file contains no transactions",
    ),
    "dbcop-only-empty-sessions": (
        "dbcop",
        '{"id": 0, "sessions": [[], []]}\n',
        "history file contains no transactions",
    ),
    "cobra-error-after-header": (
        "cobra",
        "session,txn_index,op,key,value,committed\n0,0,W,x,1,1\n0,0,Q,y,1,1\n",
        "line 3: op must be R or W, got 'Q'",
    ),
    "cobra-error-after-blank-lines": (
        "cobra",
        "\n\n0,0,W,x,1,1\n0,0,W,y\n",
        "line 4: expected 6 columns, got 4",
    ),
}

#: Every ``awdit check`` reader: the compiled batch and streaming engines,
#: the object engine (at the default and the smallest batch) and a baseline.
CHECK_MODES = (
    [],
    ["--stream"],
    ["--engine", "object"],
    ["--engine", "object", "--batch-ops", "1"],
    ["--checker", "plume"],
)


class TestOneParserPerFormat:
    """Every reader reads a file through its format's one parser.

    ``load_history`` and ``load_compiled`` raise one message or hold one
    history, and every ``awdit check`` mode and ``awdit convert`` print
    the same error line or see the same sessions.
    """

    @pytest.fixture(params=sorted(PROBES))
    def probe(self, request, tmp_path):
        fmt, text, expected = PROBES[request.param]
        path = tmp_path / f"probe.{fmt}"
        path.write_text(text, encoding="utf-8")
        return str(path), fmt, expected

    def test_both_loaders_read_one_history(self, probe):
        path, fmt, expected = probe
        outcomes = []
        for load in (load_history, load_compiled):
            try:
                history = load(path, fmt)
            except ParseError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((history.num_sessions, list(history_records(history))))
        assert outcomes[0] == outcomes[1]
        if isinstance(expected, int):
            assert outcomes[0][0] == expected
        else:
            assert outcomes[0] == f"{path}: {expected}"

    def test_every_reader_exits_alike(self, probe, tmp_path, capsys):
        path, fmt, expected = probe
        runs = []
        for mode in CHECK_MODES:
            code = main(["check", path, "-f", fmt, "-i", "cc"] + mode)
            runs.append((code, capsys.readouterr()))
        destination = str(tmp_path / "converted.plume")
        code = main(["convert", path, destination, "--from-format", fmt])
        runs.append((code, capsys.readouterr()))
        if isinstance(expected, int):
            for code, captured in runs[:-1]:
                assert code == 0 and captured.err == ""
                assert f", {expected} sessions)" in captured.out
            code, captured = runs[-1]
            assert code == 0 and f"History(sessions={expected}," in captured.out
        else:
            for code, captured in runs:
                assert code == 2 and captured.out == ""
                assert captured.err == f"awdit: error: {path}: {expected}\n"


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
