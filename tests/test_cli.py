"""End-to-end tests for the ``awdit`` command-line interface."""

import json
import re

import pytest

from repro.baselines import BASELINE_REGISTRY
from repro.cli import build_parser, main
from repro.core import IsolationLevel, check
from repro.core.model import History, Transaction, read, write
from repro.histories.formats import load_history, save_history

from helpers import fig_4a, fig_4d

#: A JSON value nested far deeper than the decoder's recursion limit.
_DEEP = "[" * 5000 + "]" * 5000


def _native(ops):
    return '{"sessions": [[{"ops": %s}]]}' % ops


def _dbcop(variable, value):
    event = '{"write": true, "variable": %s, "value": %s}' % (variable, value)
    return '{"sessions": [[{"events": [%s]}]]}' % event


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["check", "h.json", "-i", "rc"])
        assert args.command == "check" and args.isolation == "rc"

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCheckCommand:
    def test_consistent_history_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "-i", "cc"]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_inconsistent_history_exits_one_and_prints_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_history(fig_4a(), str(path))
        assert main(["check", str(path), "-i", "rc"]) == 1
        output = capsys.readouterr().out
        assert "VIOLATION" in output
        assert "cycle" in output

    def test_baseline_checker_selectable(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "-i", "cc", "--checker", "plume"]) == 0
        assert "plume" in capsys.readouterr().out

    def test_unknown_checker_exits_two(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "--checker", "mystery"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        known = ", ".join(["awdit"] + sorted(BASELINE_REGISTRY))
        assert captured.err == (
            f"awdit: error: unknown checker 'mystery'; known: {known}\n"
        )

    def test_isolation_aliases(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "-i", "read atomic"]) == 0

    @pytest.mark.parametrize("engine", ["auto", "compiled", "object"])
    def test_engines_agree_on_verdict_and_witnesses(self, tmp_path, capsys, engine):
        path = tmp_path / "bad.json"
        save_history(fig_4a(), str(path))
        assert main(["check", str(path), "-i", "rc", "--engine", engine]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "cycle" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--jobs", "2"],
            ["check", "-j", "2"],
            ["check", "--engine", "sharded"],
            ["stats", "--jobs", "2"],
            ["check", "--stream", "--retire"],
            ["check", "--stream", "--retire-lag", "64"],
            ["check", "--stream", "--retire-every", "16"],
            ["check", "--stream", "--segment-dir", "D"],
            ["stats", "--stream", "--retire"],
            ["stats", "--stream", "--retire-lag", "64"],
            ["stats", "--stream", "--retire-every", "16"],
            ["stats", "--stream"],
            ["check", "--stream", "--checkpoint", "PATH"],
            ["check", "--stream", "--checkpoint-every", "5"],
            ["check", "--stream", "--resume"],
            ["check", "--checkpoint", "PATH"],
            ["check", "--checkpoint-every", "5"],
            ["check", "--resume"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_engine_options_rejected_by_argparse(self, tmp_path, capsys, argv):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(path)] + argv[1:])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("level", ["rc", "ra", "cc"])
    def test_stream_profile_prints_the_batch_phases(self, tmp_path, capsys, level):
        path = tmp_path / "bad.plume"
        save_history(fig_4a(), str(path), fmt="plume")
        phases = []
        for mode in ([], ["--stream"]):
            assert main(["check", str(path), "-i", level, "--profile"] + mode) == 1
            err = capsys.readouterr().err  # --profile reports on stderr
            phases.append(re.findall(r"^ +(\w+) +\d+\.\d+$", err, re.M))
        assert phases[0] == phases[1]
        assert phases[0][:3] == ["parse", "build", "read_consistency"]

    def test_stream_profile_reports_finalize_laps(self, tmp_path, capsys):
        # The stream's finalize runs the batch checker functions, so its
        # profile shows their laps, as a batch check's does.
        path = tmp_path / "ok.plume"
        save_history(fig_4d(), str(path), fmt="plume")
        assert main(["check", str(path), "-i", "cc", "--stream", "--profile"]) == 0
        err = capsys.readouterr().err
        for phase in ("build", "happens_before", "saturation", "cycle_check"):
            assert re.search(rf"^ +{phase} +\d+\.\d+$", err, re.M), phase
        assert "clock_join" not in err

    @pytest.mark.parametrize("mode", [[], ["--stream"]], ids=["batch", "stream"])
    def test_profile_reports_relation_edge_counts(self, tmp_path, capsys, mode):
        path = tmp_path / "bad.plume"
        history = fig_4a()
        save_history(history, str(path), fmt="plume")
        stats = check(history, IsolationLevel.CAUSAL_CONSISTENCY).stats
        assert stats["inferred_edges"] > 0
        assert main(["check", str(path), "-i", "cc", "--profile"] + mode) == 1
        err = capsys.readouterr().err
        for name in ("co_edges", "inferred_edges"):
            match = re.search(rf"^ +{name} +(\d+)$", err, re.M)
            assert match is not None, name
            assert int(match.group(1)) == stats[name], name

    @pytest.mark.parametrize("mode", [[], ["--stream"]], ids=["batch", "stream"])
    def test_missing_history_exits_two(self, tmp_path, capsys, mode):
        missing = tmp_path / "missing.plume"
        assert main(["check", str(missing)] + mode) == 2
        err = capsys.readouterr().err
        assert err.startswith("awdit: error:") and str(missing) in err

    @pytest.mark.parametrize(
        "fmt,ext",
        [("native", ".json"), ("plume", ".plume"), ("dbcop", ".dbcop"), ("cobra", ".cobra")],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["check", "--stream"],
            ["check", "--stream", "--batch-ops", "1"],
            ["check", "--engine", "object"],
            ["stats"],
        ],
        ids=" ".join,
    )
    def test_non_utf8_history_exits_two(self, tmp_path, capsys, fmt, ext, argv):
        history = History.from_sessions(
            [
                [Transaction([write("x", "PLACEHOLDER")])],
                [Transaction([read("x", "PLACEHOLDER")])],
            ]
        )
        path = tmp_path / f"bad{ext}"
        save_history(history, str(path), fmt=fmt)
        path.write_bytes(path.read_bytes().replace(b"PLACEHOLDER", b"\xff\xfe"))
        assert main([argv[0], str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"awdit: error: {path}: not UTF-8")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "ext,document",
        [
            (".json", _native('[["W", "x", [1, 2]]]')),
            (".json", _native('[["W", {"a": 1}, 1]]')),
            (".json", _native("5")),
            (".json", _native('[["W", "x", %s]]' % _DEEP)),
            (".dbcop", _dbcop('"x"', "[1, 2]")),
            (".dbcop", _dbcop('{"a": 1}', "1")),
            (".dbcop", '{"sessions": [5]}'),
            (".dbcop", _dbcop('"x"', _DEEP)),
        ],
        ids=[
            "native-list-value",
            "native-object-key",
            "native-int-ops",
            "native-deep",
            "dbcop-list-value",
            "dbcop-object-key",
            "dbcop-int-session",
            "dbcop-deep",
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["check", "--stream"],
            ["check", "--stream", "--batch-ops", "1"],
            ["check", "--engine", "object"],
            ["stats"],
            ["convert"],
        ],
        ids=" ".join,
    )
    def test_malformed_json_history_exits_two(self, tmp_path, capsys, ext, document, argv):
        path = tmp_path / f"bad{ext}"
        path.write_text(document)
        extra = [str(tmp_path / "out.plume")] if argv[0] == "convert" else []
        assert main([argv[0], str(path)] + argv[1:] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("awdit: error:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("mode", [[], ["--stream"]], ids=["batch", "stream"])
    def test_cobra_committed_flag_must_be_one_or_zero(self, tmp_path, capsys, mode):
        # Another session reads the write, so misreading the flag as
        # "committed" would hide an aborted read.
        path = tmp_path / "h.cobra"
        path.write_text("0,0,W,x,1,aborted\n1,0,R,x,1,1\n")
        assert main(["check", str(path), "-i", "rc"] + mode) == 2
        captured = capsys.readouterr()
        assert captured.err == f"awdit: error: {path}: line 1: committed must be 1 or 0, got 'aborted'\n"


class TestCheckFlagConflicts:
    """Incoherent flag combinations exit 2 instead of silently falling back.

    ``--stream`` has one checker (``--engine auto|compiled``); what
    is rejected is baseline checkers with awdit-engine flags, the batch-only
    engine under ``--stream``, and out-of-range values.
    """

    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        return str(path)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checker", "plume", "--engine", "compiled"],
            ["--checker", "plume", "--engine", "object"],
            ["--checker", "plume", "--stream"],
            ["--stream", "--engine", "object"],
            ["-i", "xx"],
            ["-i", "xx", "--stream"],
            ["-w", "-1"],
            ["-w", "-1", "--stream"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_conflicting_flags_exit_two(self, history_path, capsys, flags):
        assert main(["check", history_path, "-i", "cc"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("awdit: error:")
        assert len(captured.err.splitlines()) == 1

    def test_zero_witnesses_stays_legal(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_history(fig_4a(), str(path))  # one violation at RC
        assert main(["check", str(path), "-i", "rc", "-w", "0"]) == 1
        assert "VIOLATION" in capsys.readouterr().out
        assert main(["check", str(path), "-i", "rc", "-w", "-1"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stream"],
            ["--stream", "--engine", "compiled"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_engine_and_mode_compose(self, history_path, capsys, flags):
        assert main(["check", history_path, "-i", "cc"] + flags) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_stream_with_baseline_checker_still_rejected(self, history_path, capsys):
        assert main(["check", history_path, "--stream", "--checker", "plume"]) == 2
        assert "awdit" in capsys.readouterr().err.lower()


class TestGenerateCommand:
    def test_generate_writes_a_parseable_history(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        code = main(
            [
                "generate",
                str(out),
                "--workload",
                "ctwitter",
                "--database",
                "postgres",
                "--sessions",
                "4",
                "--transactions",
                "40",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        history = load_history(str(out))
        assert history.num_sessions == 4
        assert history.num_transactions == 41  # +1 init transaction

    def test_generate_respects_isolation_mode_flag(self, tmp_path):
        out = tmp_path / "weak.json"
        code = main(
            [
                "generate",
                str(out),
                "--workload",
                "custom",
                "--database",
                "cockroach",
                "--isolation-mode",
                "read-committed",
                "--sessions",
                "3",
                "--transactions",
                "30",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["sessions"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workload", "nosuch"],
            ["--database", "nosuch"],
            ["--isolation-mode", "nosuch"],
            ["--sessions", "0"],
            ["--transactions", "-3"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_generate_inputs_exit_two(self, tmp_path, capsys, flags):
        out = tmp_path / "never.json"
        assert main(["generate", str(out), "--transactions", "5"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("awdit: error:")
        assert len(captured.err.splitlines()) == 1
        assert flags[1] in captured.err
        assert not out.exists()


class TestConvertAndStats:
    def test_convert_between_formats(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        dst = tmp_path / "h.plume"
        save_history(fig_4a(), str(src))
        assert main(["convert", str(src), str(dst)]) == 0
        converted = load_history(str(dst))
        assert converted.num_operations == fig_4a().num_operations

    def test_stats_prints_summary(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4a(), str(path))
        assert main(["stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert "transactions" in output
        assert "distinct keys" in output

    def test_stats_reports_interned_cardinalities_and_footprint(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4a(), str(path))
        assert main(["stats", str(path)]) == 0
        output = capsys.readouterr().out
        # fig_4a: one key (x), two values (1, 2), two sessions.
        assert "distinct keys          : 1" in output
        assert "interned values        : 2" in output
        assert "interned sessions      : 2" in output
        assert "compiled footprint" in output and "KiB" in output
