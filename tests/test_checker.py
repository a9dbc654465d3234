"""Tests for the unified checker entry point and the check results."""

import contextlib
import io
import re

import pytest

from repro import cli
from repro.core import IsolationLevel, check, check_all_levels
from repro.core.model import History, Transaction, read, write
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import ViolationKind

from helpers import PAPER_VERDICTS, all_paper_histories, fig_4a, fig_4d


#: One session's transactions: a stale read of ``x`` (so RA fails) or not.
ONE_SESSION = {
    "consistent": [
        Transaction([write("x", 1)]),
        Transaction([read("x", 1), write("y", 2)]),
        Transaction([read("y", 2)]),
    ],
    "violation": [
        Transaction([write("x", 1)]),
        Transaction([write("x", 2)]),
        Transaction([read("x", 1)]),
    ],
}


def _one_session(case):
    """A fresh one-session history of ``ONE_SESSION[case]``."""
    return History.from_sessions([[Transaction(t.operations) for t in ONE_SESSION[case]]])


class TestDispatch:
    def test_check_dispatches_by_level(self):
        history = fig_4a()
        for level in IsolationLevel:
            result = check(history, level)
            assert result.level is level

    def test_default_level_is_cc(self):
        result = check(fig_4d())
        assert result.level is IsolationLevel.CAUSAL_CONSISTENCY

    def test_single_session_ra_uses_fast_path(self):
        history = History.from_sessions([[Transaction([write("x", 1)])]])
        result = check(history, IsolationLevel.READ_ATOMIC)
        assert result.checker == "awdit-1session"

    @pytest.mark.parametrize("case", sorted(ONE_SESSION))
    @pytest.mark.parametrize("entry", ["check", "check_all_levels"])
    def test_single_session_fast_path_agrees_with_the_general_check(self, entry, case):
        """On one session both entry points take Theorem 1.6's path in both
        engines, and decide as Algorithm 2 run directly does."""
        from repro.core.compiled import compile_history
        from repro.core.compiled.checkers import check_ra_compiled
        from repro.core.ra import check_ra

        history = _one_session(case)
        general = [check_ra(history), check_ra_compiled(compile_history(history))]
        assert [result.checker for result in general] == ["awdit", "awdit"]
        for engine in ("compiled", "object"):
            if entry == "check":
                fast = check(history, IsolationLevel.READ_ATOMIC, engine=engine)
            else:
                fast = check_all_levels(history, engine=engine)[IsolationLevel.READ_ATOMIC]
            assert fast.checker == "awdit-1session"
            for result in general:
                assert result.is_consistent == fast.is_consistent
                assert result.violation_kinds() == fast.violation_kinds()

    def test_check_all_levels_returns_all_three(self):
        results = check_all_levels(fig_4a())
        assert set(results) == set(IsolationLevel)

    def test_check_all_levels_uses_single_session_fast_path(self):
        """Regression: check_all_levels used to call check_ra directly,
        bypassing the single-session specialization that check() applies."""
        history = History.from_sessions(
            [[
                Transaction([write("x", 1), write("y", 1)]),
                Transaction([read("x", 1), write("x", 2)]),
                Transaction([read("x", 2), read("y", 1)]),
            ]]
        )
        direct = check(history, IsolationLevel.READ_ATOMIC)
        via_all = check_all_levels(history)[IsolationLevel.READ_ATOMIC]
        assert direct.checker == via_all.checker == "awdit-1session"
        assert direct.is_consistent == via_all.is_consistent
        assert [v.kind for v in direct.violations] == [v.kind for v in via_all.violations]
        assert direct.stats["inferred_edges"] == via_all.stats["inferred_edges"]
        assert set(direct.stats) == set(via_all.stats)

    @pytest.mark.parametrize(
        "entry", [check, check_all_levels], ids=["check", "check_all_levels"]
    )
    def test_removed_engine_value_and_knobs_are_refused(self, entry):
        """``engine="auto"`` is no engine, and the fast-path and report knobs
        are no parameters: each engine decides Theorem 1.6 itself."""
        history = fig_4a()
        with pytest.raises(ValueError, match="unknown engine 'auto'"):
            entry(history, engine="auto")
        with pytest.raises(TypeError, match="'use_single_session_fast_path'"):
            entry(history, use_single_session_fast_path=False)
        report = check_read_consistency(history)
        with pytest.raises(TypeError, match="'read_consistency'"):
            entry(history, read_consistency=report)


def _verdict(line):
    """``[checker] LEVEL: VERDICT (kinds)`` of a summary line, stream label folded."""
    return re.sub(r" in [0-9.]+ ms .*$", "", line).replace("[awdit-stream", "[awdit")


class TestSingleSessionDispatch:
    """RA takes Theorem 1.6's path when at most one session holds a transaction.

    Empty sessions depend on the container: JSON, DBCop and cobra files
    keep the empty sessions before a used id, plume keeps none, and an
    in-memory history may end in empty sessions.  Every reader, engine
    and mode must print the same verdict line for one history.
    """

    @pytest.mark.parametrize("case", sorted(ONE_SESSION))
    def test_every_view_prints_the_same_verdict(self, case, tmp_path):
        from repro.histories.formats import save_history

        txns = ONE_SESSION[case]
        later = History.from_sessions([[], [Transaction(t.operations) for t in txns]])
        trailing = History.from_sessions([[Transaction(t.operations) for t in txns], [], []])
        lines = {
            "memory-later": check(later, IsolationLevel.READ_ATOMIC).summary(),
            "memory-trailing": check(trailing, IsolationLevel.READ_ATOMIC).summary(),
            "object-trailing": check(
                trailing, IsolationLevel.READ_ATOMIC, engine="object"
            ).summary(),
        }
        for fmt in ("json", "plume", "dbcop", "cobra"):
            path = str(tmp_path / f"h.{fmt}")
            save_history(later, path, fmt=fmt)
            for flags in ([], ["--stream"], ["--engine", "object"]):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    cli.main(["check", path, "-i", "ra", *flags])
                lines[" ".join([fmt, *flags])] = stdout.getvalue().splitlines()[0]
        verdicts = {name: _verdict(line) for name, line in lines.items()}
        want = "CONSISTENT" if case == "consistent" else "VIOLATION (commit order cycle)"
        assert set(verdicts.values()) == {f"[awdit-1session] RA: {want}"}, verdicts

    def test_the_fast_path_refuses_two_sessions_with_transactions(self):
        from repro.core.compiled import compile_history
        from repro.core.compiled.checkers import check_ra_single_session_compiled
        from repro.core.ra import check_ra_single_session

        history = History.from_sessions(
            [[Transaction([write("x", 1)])], [], [Transaction([read("x", 1)])]]
        )
        for run in (check_ra_single_session, check_ra_single_session_compiled):
            source = history if run is check_ra_single_session else compile_history(history)
            with pytest.raises(ValueError, match="got 2 sessions with transactions"):
                run(source)


class TestLatticeMonotonicity:
    @pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
    def test_paper_histories_respect_the_lattice(self, name):
        history = all_paper_histories()[name]
        results = check_all_levels(history)
        rc = results[IsolationLevel.READ_COMMITTED].is_consistent
        ra = results[IsolationLevel.READ_ATOMIC].is_consistent
        cc = results[IsolationLevel.CAUSAL_CONSISTENCY].is_consistent
        # CC-consistent implies RA-consistent implies RC-consistent.
        assert not (cc and not ra)
        assert not (ra and not rc)


class TestCheckResult:
    def test_is_consistent_reflects_violations(self):
        empty = CheckResult(level=IsolationLevel.READ_COMMITTED)
        assert empty.is_consistent
        assert empty.violation_kinds() == []

    def test_summary_mentions_verdict_and_level(self):
        result = check(fig_4a(), IsolationLevel.READ_COMMITTED)
        summary = result.summary()
        assert "RC" in summary and "VIOLATION" in summary
        ok = check(fig_4d(), IsolationLevel.CAUSAL_CONSISTENCY).summary()
        assert "CONSISTENT" in ok

    def test_describe_violations_limits_output(self):
        result = check(fig_4a(), IsolationLevel.READ_COMMITTED)
        text = result.describe_violations(limit=0)
        assert "more" in text or text == ""

    def test_violations_of_kind_filters(self):
        result = check(fig_4a(), IsolationLevel.READ_COMMITTED)
        cycles = result.violations_of_kind(ViolationKind.COMMIT_ORDER_CYCLE)
        assert all(v.kind is ViolationKind.COMMIT_ORDER_CYCLE for v in cycles)

    def test_stopwatch_accumulates_laps(self):
        watch = Stopwatch()
        watch.lap("a")
        watch.lap("b")
        assert set(watch.laps) == {"a", "b"}
        assert watch.total == pytest.approx(sum(watch.laps.values()))

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            check(fig_4a(), "not-a-level")
