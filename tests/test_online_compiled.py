"""Tests for the compiled streaming core (repro.core.compiled.online)."""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.compiled import CompiledHistoryBuilder
from repro.core.compiled.online import CompiledIncrementalChecker, check_stream_file
from repro.core.exceptions import HistoryFormatError
from repro.core.model import History, Transaction, read, write
from repro.core.violations import ViolationKind
from repro.histories.formats import load_history, save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)

from helpers import (
    BATCH_OPS,
    PAPER_VERDICTS,
    all_paper_histories,
    feed,
    history_records,
    interleaved_order,
    stream_check,
)

LEVELS = list(IsolationLevel)


def assert_matches_batch(history, stream_results, check_messages=False):
    for level in LEVELS:
        batch = check(history, level)
        streamed = stream_results[level]
        assert streamed.is_consistent == batch.is_consistent, level
        assert sorted(v.kind.name for v in streamed.violations) == sorted(
            v.kind.name for v in batch.violations
        ), level
        assert streamed.stats.get("inferred_edges") == batch.stats.get(
            "inferred_edges"
        ), level
        if check_messages:
            assert [v.message for v in streamed.violations] == [
                v.message for v in batch.violations
            ], level


class TestCompiledOnlineParity:
    @pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
    def test_paper_histories_match_batch_exactly(self, name):
        history = all_paper_histories()[name]
        for batch_ops in BATCH_OPS:
            results = stream_check(history, batch_ops=batch_ops)
            assert_matches_batch(history, results, check_messages=True)

    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies_match_batch(self, kind):
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=15, seed=5)
        )
        history = inject_anomaly(base, kind)
        for batch_ops in BATCH_OPS:
            assert_matches_batch(history, stream_check(history, batch_ops=batch_ops))

    def test_matches_object_batch_oracle_verbatim(self):
        """The online checker agrees with the object batch engine message for message."""
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4, num_transactions=25, mode="random_reads", seed=8
                )
            ),
            ViolationKind.CAUSALITY_CYCLE,
        )
        for batch_ops in BATCH_OPS:
            streamed = stream_check(history, batch_ops=batch_ops)
            for level in LEVELS:
                oracle = check(history, level, engine="object")
                assert [v.message for v in streamed[level].violations] == [
                    v.message for v in oracle.violations
                ], (batch_ops, level)

    def test_stream_from_file_uses_no_model_objects(self, tmp_path):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=30, seed=2)
        )
        path = tmp_path / "h.plume"
        save_history(history, str(path), fmt="plume")
        result = check_stream_file(
            str(path), IsolationLevel.CAUSAL_CONSISTENCY, fmt="plume"
        )
        batch = check(history, IsolationLevel.CAUSAL_CONSISTENCY)
        assert result.is_consistent == batch.is_consistent
        assert result.num_operations == history.num_operations

    def test_witness_budget_caps_the_cycles(self, tmp_path):
        # Two independent commit-order cycles (the Fig. 4a gadget on x and
        # again on y), so the witness budget is observable.
        history = History.from_sessions(
            [
                [Transaction([write("x", 1)]), Transaction([write("x", 2)])],
                [Transaction([read("x", 2), read("x", 1)])],
                [Transaction([write("y", 1)]), Transaction([write("y", 2)])],
                [Transaction([read("y", 2), read("y", 1)])],
            ]
        )
        path = tmp_path / "h.plume"
        save_history(history, str(path), fmt="plume")
        for budget, found in ((5, 2), (1, 1)):
            result = check_stream_file(
                str(path), IsolationLevel.READ_COMMITTED, fmt="plume", max_witnesses=budget
            )
            cycles = [
                v for v in result.violations if v.kind is ViolationKind.COMMIT_ORDER_CYCLE
            ]
            assert len(cycles) == found, budget

    def test_elapsed_counts_the_checks_not_the_appends(self, monkeypatch):
        # Like a batch check's, a stream result's elapsed time is its
        # checks' alone; the appends are the build lap.
        add_batch = CompiledHistoryBuilder.add_batch

        def slow_add_batch(self, batch):
            time.sleep(0.2)
            add_batch(self, batch)

        monkeypatch.setattr(CompiledHistoryBuilder, "add_batch", slow_add_batch)
        history = all_paper_histories()["fig_1b"]
        checker = feed(CompiledIncrementalChecker(), history_records(history))
        for result in checker.finalize().values():
            assert result.stats["build"] > 0.2
            assert result.elapsed_seconds < 0.2

    def test_append_after_finalize_rejected(self):
        checker = CompiledIncrementalChecker()
        checker.finalize()
        with pytest.raises(RuntimeError):
            feed(checker, [(0, (None, True, [(True, "x", 1)]))])

    def test_value_cardinality_guard(self, monkeypatch):
        import repro.core.compiled.ir as ir

        # Shrink the builder's interned-value budget instead of interning
        # 2^32 values; the stream refuses at finalize, as load_compiled does.
        monkeypatch.setattr(ir, "_VALUE_SHIFT", 2)
        checker = CompiledIncrementalChecker()
        feed(checker, [(0, (None, True, [(True, "x", value) for value in range(5)]))])
        with pytest.raises(HistoryFormatError, match="too many distinct values"):
            checker.finalize()


class TestCheckStreamFile:
    """``check_stream_file`` reads a file like the batch loaders do."""

    @pytest.mark.parametrize(
        "fmt,ext",
        [("native", ".json"), ("plume", ".plume"), ("dbcop", ".dbcop"), ("cobra", ".cobra")],
    )
    def test_format_detected_from_the_extension(self, tmp_path, fmt, ext):
        history = all_paper_histories()["fig_1b"]
        path = tmp_path / f"h{ext}"
        save_history(history, str(path), fmt=fmt)
        loaded = load_history(str(path), fmt=fmt)
        for level, consistent in zip(LEVELS, PAPER_VERDICTS["fig_1b"]):
            detected = check_stream_file(str(path), level)
            assert detected.is_consistent == consistent, level
            assert [v.message for v in detected.violations] == [
                v.message for v in check(loaded, level).violations
            ], level

    def test_timings_receive_the_parse_lap(self, tmp_path, monkeypatch):
        # The parse lap times the batch pulls alone: a slow parser shows
        # there, and not in the build lap of the appends.
        import repro.histories.formats as formats

        pull = formats.stream_raw_batches

        def slow_pull(*args, **kwargs):
            for batch in pull(*args, **kwargs):
                time.sleep(0.1)
                yield batch

        monkeypatch.setattr(formats, "stream_raw_batches", slow_pull)
        path = tmp_path / "h.plume"
        save_history(all_paper_histories()["fig_1b"], str(path), fmt="plume")
        timings = {}
        result = check_stream_file(
            str(path), IsolationLevel.READ_ATOMIC, fmt="plume", timings=timings
        )
        assert list(timings) == ["parse"]
        assert timings["parse"] >= 0.1
        assert result.stats["build"] < 0.1


class TestDuplicateWriteResolution:
    """Duplicate (key, value) writes resolve to the last write in txn-id order."""

    def history(self):
        # t0's W(x,1) is non-final; t1's is final.  Batch resolves R(x,1) to
        # t1 (the last (x,1) write in transaction-id order): consistent.
        t0 = Transaction([write("x", 1), write("x", 2)], label="t0")
        t1 = Transaction([write("x", 1)], label="t1")
        t2 = Transaction([read("x", 1)], label="t2")
        return History.from_sessions([[t0], [t1], [t2]])

    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_in_order_feed_matches_batch(self, engine):
        """The stream agrees with each batch engine (``engine`` is the oracle)."""
        history = self.history()
        for batch_ops in BATCH_OPS:
            for level in LEVELS:
                batch = check(history, level, engine=engine)
                streamed = stream_check(history, batch_ops=batch_ops, levels=(level,))[level]
                context = (engine, batch_ops, level)
                assert streamed.is_consistent == batch.is_consistent, context
                assert sorted(v.kind.name for v in streamed.violations) == sorted(
                    v.kind.name for v in batch.violations
                ), context

    @pytest.mark.parametrize("engine", ["object", "compiled"])
    def test_superseding_write_wins_like_batch(self, engine):
        # The reader's R(x,5) matches the non-final "loser" write and the
        # later "winner" write, and its y-write arrives last; like batch,
        # the stream binds the read to the winner (the last (x,5) write in
        # transaction-id order).  ``engine`` is the batch oracle.
        tl = Transaction([write("x", 5), write("x", 6)], label="loser")
        tr = Transaction([read("x", 5), read("y", 9)], label="reader")
        tw = Transaction([write("x", 5)], label="winner")
        ty = Transaction([write("y", 9)], label="ywriter")
        history = History.from_sessions([[tl], [tr], [tw], [ty]])
        for batch_ops in BATCH_OPS:
            results = stream_check(history, batch_ops=batch_ops)
            for level in LEVELS:
                batch = check(history, level, engine=engine)
                context = (batch_ops, level)
                assert results[level].is_consistent == batch.is_consistent, context
                assert sorted(v.kind.name for v in results[level].violations) == sorted(
                    v.kind.name for v in batch.violations
                ), context

    def test_same_transaction_duplicate_writes(self):
        # Two identical writes inside one transaction: the later one is the
        # final write, so an external read of the value is clean -- both
        # batch engines and the stream must agree.
        t0 = Transaction([write("x", 7), write("x", 7)], label="t0")
        t1 = Transaction([read("x", 7)], label="t1")
        history = History.from_sessions([[t0], [t1]])
        for engine in ("object", "compiled"):
            for batch_ops in BATCH_OPS:
                for level in LEVELS:
                    batch = check(history, level, engine=engine)
                    streamed = stream_check(history, batch_ops=batch_ops, levels=(level,))
                    assert streamed[level].is_consistent == batch.is_consistent, (
                        engine,
                        batch_ops,
                        level,
                    )


class TestLiveStats:
    def test_keys_read_by_perfbench_are_present(self):
        # perfbench/run.py reads these counters from a traced stream run.
        checker = CompiledIncrementalChecker()
        feed(checker, [(0, (None, True, [(True, "x", 1)]))])
        feed(checker, [(1, (None, True, [(False, "x", 1)]))])
        stats = checker.live_stats()
        for key in (
            "resolve_fast_path",
            "resolve_slow_path",
            "resolve_parked",
            "peak_pending_reads",
            "inferred_edge_log",
            "classify_vectorized",
            "classify_fallback",
            "cc_joins_fallback",
            "cc_joins_vectorized",
        ):
            # Counters of the online fold the builder replaced: no such
            # work is done any more, so each reads 0.
            assert isinstance(stats[key], int) and stats[key] == 0, key
        assert (stats["transactions"], stats["operations"]) == (2, 2)
        # perfbench/traced.py reads these laps; the fold they timed is gone.
        laps = checker.enable_fold_profile()
        assert laps == dict.fromkeys(("intern", "dispatch", "classify", "clock_join"), 0.0)

    def test_sizes_track_every_append(self):
        # perfbench samples these between appends, so they must count what
        # has arrived so far, and end at the results' sizes.
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=60, max_ops_per_txn=5, seed=2)
        )
        checker = CompiledIncrementalChecker()
        transactions = operations = 0
        for record in history_records(history):
            feed(checker, [record])
            transactions += 1
            operations += len(record[1][2])
            stats = checker.live_stats()
            assert (stats["transactions"], stats["operations"]) == (transactions, operations)
            assert (checker.num_transactions, checker.num_operations) == (
                transactions,
                operations,
            )
        results = checker.finalize()
        assert (transactions, operations) == (
            history.num_transactions,
            history.num_operations,
        )
        for result in results.values():
            assert (result.num_transactions, result.num_operations) == (
                transactions,
                operations,
            )
        assert checker.live_stats()["transactions"] == transactions


class TestCompiledOnlineProperties:
    """The compiled online core is observationally identical to batch."""

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        config=st.builds(
            RandomHistoryConfig,
            num_sessions=st.integers(1, 5),
            num_transactions=st.integers(0, 30),
            num_keys=st.integers(1, 6),
            min_ops_per_txn=st.just(1),
            max_ops_per_txn=st.integers(1, 6),
            read_fraction=st.floats(0.2, 0.8),
            abort_probability=st.sampled_from([0.0, 0.15]),
            mode=st.sampled_from(["serializable", "random_reads"]),
            seed=st.integers(0, 10_000),
        ),
        order_seed=st.integers(0, 10_000),
    )
    def test_matches_batch_on_random_interleavings(self, config, order_seed):
        history = generate_random_history(config)
        order = interleaved_order(history, order_seed)
        for batch_ops in BATCH_OPS:
            assert_matches_batch(history, stream_check(history, order, batch_ops=batch_ops))
