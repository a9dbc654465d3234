"""Workload/db histories round-trip through the compiled engine without drift.

The compiled IR interns keys and values and re-infers ``wr`` on the raw
ingest path, so anything unusual the workload generators or the simulated
database emit -- aborted transactions (and reads *from* aborted writes under
bug injection), ``None`` values from uninitialized reads, label schemes --
must survive ``compile_history`` and the file ingest paths with verdicts and
witnesses identical to ``engine="object"``.

This suite pins an audit of ``repro.workloads`` and ``repro.db`` (no drift
was found), plus targeted constructions for the corners the generators do
not currently hit (``None`` values interned next to aborted reads).
"""

import dataclasses

import pytest

from repro.core import IsolationLevel, check
from repro.core.model import History, Transaction, read, write
from repro.db.config import BugRates, IsolationMode
from repro.db.profiles import profile_by_name
from repro.histories.formats import load_compiled, load_history, save_history
from repro.workloads import collect_history, workload_by_name

LEVELS = list(IsolationLevel)
WORKLOADS = ("tpcc", "ctwitter", "rubis", "custom")
FORMATS = [("native", ".json"), ("plume", ".plume"), ("dbcop", ".dbcop"), ("cobra", ".cobra")]


def assert_no_engine_drift(history):
    """Object and compiled engines agree on everything visible."""
    for level in LEVELS:
        obj = check(history, level, engine="object")
        comp = check(history, level, engine="compiled")
        assert comp.is_consistent == obj.is_consistent, level
        assert [v.describe() for v in comp.violations] == [
            v.describe() for v in obj.violations
        ], level


def buggy_profile(seed):
    """A read-committed profile with aborts and every bug injector active."""
    return dataclasses.replace(
        profile_by_name("cockroach"),
        isolation=IsolationMode("read-committed"),
        seed=seed,
        abort_probability=0.2,
        bug_rates=BugRates(stale_read=0.1, aborted_read=0.1, fractured_read=0.1),
    )


class TestWorkloadEngineParity:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_clean_profiles_have_no_drift(self, workload):
        history = collect_history(
            workload_by_name(workload),
            profile_by_name("postgres"),
            num_sessions=4,
            num_transactions=60,
            seed=7,
        )
        assert_no_engine_drift(history)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_buggy_aborting_profiles_have_no_drift(self, workload):
        """Aborted transactions and aborted/stale/fractured reads included."""
        history = collect_history(
            workload_by_name(workload),
            buggy_profile(9),
            num_sessions=4,
            num_transactions=80,
            seed=9,
        )
        assert any(not t.committed for t in history.transactions), (
            "profile should produce aborted transactions"
        )
        assert_no_engine_drift(history)


class TestWorkloadFileRoundTrip:
    @pytest.mark.parametrize("fmt,ext", FORMATS)
    def test_buggy_history_round_trips_all_formats(self, tmp_path, fmt, ext):
        history = collect_history(
            workload_by_name("ctwitter"),
            buggy_profile(11),
            num_sessions=4,
            num_transactions=60,
            seed=11,
        )
        path = tmp_path / f"h{ext}"
        save_history(history, str(path), fmt=fmt)
        loaded = load_history(str(path), fmt=fmt)
        compiled = load_compiled(str(path), fmt=fmt)
        for level in LEVELS:
            obj = check(loaded, level, engine="object")
            result = check(compiled, level)
            assert result.is_consistent == obj.is_consistent, (fmt, level)
            assert [v.describe() for v in result.violations] == [
                v.describe() for v in obj.violations
            ], (fmt, level)


class TestInternTableCorners:
    """Corners the ISSUE called out: None values and aborted-transaction reads."""

    def history_with_none_values_and_aborted_reads(self):
        t1 = Transaction(
            [write("x", None), read("x", None)], label="aborted_w", committed=False
        )
        t2 = Transaction([read("x", None), write("y", 1)], label="r_none")
        t3 = Transaction([read("y", 1), write("x", 2)], label="r_y")
        return History.from_sessions([[t1, t2], [t3]])

    def test_none_values_intern_without_drift(self):
        assert_no_engine_drift(self.history_with_none_values_and_aborted_reads())

    @pytest.mark.parametrize("fmt,ext", FORMATS)
    def test_none_values_round_trip_all_formats(self, tmp_path, fmt, ext):
        history = self.history_with_none_values_and_aborted_reads()
        path = tmp_path / f"h{ext}"
        save_history(history, str(path), fmt=fmt)
        loaded = load_history(str(path), fmt=fmt)
        compiled = load_compiled(str(path), fmt=fmt)
        for level in LEVELS:
            obj = check(loaded, level, engine="object")
            result = check(compiled, level)
            assert result.is_consistent == obj.is_consistent, (fmt, level)
            assert [v.describe() for v in result.violations] == [
                v.describe() for v in obj.violations
            ], (fmt, level)