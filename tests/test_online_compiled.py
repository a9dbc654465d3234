"""Tests for the compiled streaming core (repro.core.compiled.online)."""

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.compiled import CompiledHistoryBuilder
from repro.core.exceptions import HistoryFormatError
from repro.core.model import History, Transaction, read, write
from repro.core.violations import ViolationKind
from repro.histories.formats import save_history, stream_raw_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.stream import (
    CompiledIncrementalChecker,
    check_stream_compiled,
    load_checkpoint,
)

from helpers import PAPER_VERDICTS, all_paper_histories, long_plume_and_cut_copy

LEVELS = list(IsolationLevel)


def raw_records(history):
    """The history's raw records in file order (what stream_raw_history yields)."""
    for sid, session in enumerate(history.sessions):
        for tid in session:
            txn = history.transactions[tid]
            yield sid, (
                txn.label,
                txn.committed,
                [(op.is_write, op.key, op.value) for op in txn.operations],
            )


def feed_in_order(history, checker):
    for sid, (label, committed, ops) in raw_records(history):
        checker.append_raw(sid, label, committed, ops)


def interleaved_records(history, rng):
    """A random record interleaving that respects per-session order."""
    positions = [0] * history.num_sessions
    while True:
        live = [
            sid
            for sid in range(history.num_sessions)
            if positions[sid] < len(history.sessions[sid])
        ]
        if not live:
            return
        sid = rng.choice(live)
        txn = history.transactions[history.sessions[sid][positions[sid]]]
        positions[sid] += 1
        yield sid, (
            txn.label,
            txn.committed,
            [(op.is_write, op.key, op.value) for op in txn.operations],
        )


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
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        feed_in_order(history, checker)
        assert_matches_batch(history, checker.finalize(), check_messages=True)

    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies_match_batch(self, kind):
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=15, seed=5)
        )
        history = inject_anomaly(base, kind)
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        feed_in_order(history, checker)
        assert_matches_batch(history, checker.finalize())

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
        compiled = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        feed_in_order(history, compiled)
        compiled_results = compiled.finalize()
        for level in LEVELS:
            oracle = check(history, level, engine="object")
            assert [v.message for v in compiled_results[level].violations] == [
                v.message for v in oracle.violations
            ], level

    def test_stream_from_file_uses_no_model_objects(self, tmp_path):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=30, seed=2)
        )
        path = tmp_path / "h.plume"
        save_history(history, str(path), fmt="plume")
        result = check_stream_compiled(
            stream_raw_history(str(path), fmt="plume"),
            IsolationLevel.CAUSAL_CONSISTENCY,
        )
        batch = check(history, IsolationLevel.CAUSAL_CONSISTENCY)
        assert result.is_consistent == batch.is_consistent
        assert result.num_operations == history.num_operations

    def test_elapsed_counts_the_checks_not_the_appends(self, monkeypatch):
        # Like a batch check's, a stream result's elapsed time is its
        # checks' alone; the appends are the build lap.
        add_batch = CompiledHistoryBuilder.add_batch

        def slow_add_batch(self, batch):
            time.sleep(0.2)
            add_batch(self, batch)

        monkeypatch.setattr(CompiledHistoryBuilder, "add_batch", slow_add_batch)
        history = all_paper_histories()["fig_1b"]
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        checker.extend_raw(raw_records(history))
        for result in checker.finalize().values():
            assert result.stats["build"] > 0.2
            assert result.elapsed_seconds < 0.2

    def test_append_after_finalize_rejected(self):
        checker = CompiledIncrementalChecker()
        checker.finalize()
        with pytest.raises(RuntimeError):
            checker.append_raw(0, None, True, [(True, "x", 1)])

    def test_value_cardinality_guard(self, monkeypatch):
        import repro.core.compiled.ir as ir

        # Shrink the builder's interned-value budget instead of interning
        # 2^32 values; the stream refuses at finalize, as load_compiled does.
        monkeypatch.setattr(ir, "_VALUE_SHIFT", 2)
        checker = CompiledIncrementalChecker()
        checker.append_raw(0, None, True, [(True, "x", value) for value in range(5)])
        with pytest.raises(HistoryFormatError, match="too many distinct values"):
            checker.finalize()


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
        for level in LEVELS:
            batch = check(history, level, engine=engine)
            streamed = check(history, level, mode="stream")
            assert streamed.is_consistent == batch.is_consistent, (engine, level)
            assert sorted(v.kind.name for v in streamed.violations) == sorted(
                v.kind.name for v in batch.violations
            ), (engine, level)

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
        checker = CompiledIncrementalChecker(num_sessions=4)
        feed_in_order(history, checker)
        results = checker.finalize()
        for level in LEVELS:
            batch = check(history, level, engine=engine)
            assert results[level].is_consistent == batch.is_consistent, level
            assert sorted(v.kind.name for v in results[level].violations) == sorted(
                v.kind.name for v in batch.violations
            ), level

    def test_same_transaction_duplicate_writes(self):
        # Two identical writes inside one transaction: the later one is the
        # final write, so an external read of the value is clean -- both
        # batch engines and the stream must agree.
        t0 = Transaction([write("x", 7), write("x", 7)], label="t0")
        t1 = Transaction([read("x", 7)], label="t1")
        history = History.from_sessions([[t0], [t1]])
        for engine in ("object", "compiled"):
            for level in LEVELS:
                batch = check(history, level, engine=engine)
                streamed = check(history, level, mode="stream")
                assert streamed.is_consistent == batch.is_consistent, (engine, level)


class TestCheckpointResume:
    def _records(self, seed=9, n=40):
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=n, mode="random_reads", seed=seed
            )
        )
        return history, list(raw_records(history))

    def test_round_trip_mid_history_is_equivalent(self, tmp_path):
        history, records = self._records()
        full = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        full.extend_raw(records)
        want = full.finalize()

        half = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        half.extend_raw(records[: len(records) // 2])
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == len(records) // 2
        resumed.extend_raw(records[len(records) // 2 :])
        got = resumed.finalize()
        for level in LEVELS:
            assert got[level].is_consistent == want[level].is_consistent, level
            assert [v.message for v in got[level].violations] == [
                v.message for v in want[level].violations
            ], level
            assert got[level].stats.get("inferred_edges") == want[level].stats.get(
                "inferred_edges"
            ), level

    def test_saved_checkpoints_are_v10(self, tmp_path):
        from repro.core.compiled.online import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

        checker = CompiledIncrementalChecker(num_sessions=2)
        checker.append_raw(0, "t0", True, [(True, "x", 1)])
        path = tmp_path / "state.awd"
        checker.save_checkpoint(str(path))
        blob = path.read_bytes()
        assert blob.startswith(CHECKPOINT_MAGIC)
        assert blob[len(CHECKPOINT_MAGIC)] == CHECKPOINT_VERSION == 10

    def test_checkpoint_rejects_finalized_checker(self, tmp_path):
        checker = CompiledIncrementalChecker()
        checker.finalize()
        with pytest.raises(RuntimeError):
            checker.save_checkpoint(str(tmp_path / "state.awd"))

    def test_load_rejects_non_checkpoint_files(self, tmp_path):
        from repro.core.compiled.online import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

        history, records = self._records()
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        checker.extend_raw(records)
        good = tmp_path / "good.awd"
        checker.save_checkpoint(str(good))
        blob = good.read_bytes()
        body = blob[len(CHECKPOINT_MAGIC) + 1 :]
        assert blob[len(CHECKPOINT_MAGIC)] == CHECKPOINT_VERSION
        inputs = {"bogus": (b"not a checkpoint at all", "not an awdit checkpoint")}
        # Only the current version loads; older layouts are refused, not
        # migrated, even around an otherwise intact body.
        for version in range(1, CHECKPOINT_VERSION):
            inputs[f"v{version}"] = (
                CHECKPOINT_MAGIC + bytes([version]) + body,
                f"unsupported checkpoint version {version}",
            )
        inputs["truncated"] = (
            blob[: len(blob) // 2],
            "truncated or corrupt checkpoint; re-run without --resume",
        )
        for name, (data, message) in inputs.items():
            path = tmp_path / f"{name}.awd"
            path.write_bytes(data)
            with pytest.raises(HistoryFormatError, match=message):
                load_checkpoint(str(path))

    def test_checkpoint_write_is_atomic(self, tmp_path, monkeypatch):
        import errno
        import os
        import pickle
        import stat

        history, records = self._records()
        cut = len(records) // 2
        full = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        full.extend_raw(records)
        want = full.finalize()

        syncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            syncs.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        checker.extend_raw(records[:cut])
        path = tmp_path / "state.awd"
        checker.save_checkpoint(str(path))
        # The temp file before the rename, then its directory after it, so
        # the rename itself is durable.
        assert syncs == ["file", "dir"]
        assert not (tmp_path / "state.awd.tmp").exists()

        # A save that fails after a partial write (a full disk) removes its
        # temp file and leaves the previous checkpoint loadable.
        real_dump = pickle.dump

        def failing_dump(obj, handle, protocol=None):
            handle.write(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pickle, "dump", failing_dump)
        checker.extend_raw(records[cut:])
        with pytest.raises(OSError):
            checker.save_checkpoint(str(path))
        monkeypatch.setattr(pickle, "dump", real_dump)
        assert not (tmp_path / "state.awd.tmp").exists()
        assert syncs == ["file", "dir"]

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == cut
        resumed.extend_raw(records[cut:])
        got = resumed.finalize()
        for level in LEVELS:
            assert [v.message for v in got[level].violations] == [
                v.message for v in want[level].violations
            ], level
            assert got[level].stats.get("inferred_edges") == want[level].stats.get(
                "inferred_edges"
            ), level

    def test_resume_refuses_a_history_shorter_than_the_checkpoint(self, tmp_path):
        from repro.stream import check_stream_file

        long_path, cut_path, consumed, cut_txns = long_plume_and_cut_copy(
            str(tmp_path)
        )
        state = tmp_path / "state.awd"
        rc = IsolationLevel.READ_COMMITTED
        check_stream_file(long_path, rc, fmt="plume", checkpoint=str(state))
        with pytest.raises(
            HistoryFormatError,
            match=(
                f"holds {cut_txns} transactions, but checkpoint .* already "
                f"consumed {consumed}; re-run without --resume"
            ),
        ):
            check_stream_file(
                cut_path, rc, fmt="plume", checkpoint=str(state), resume=True
            )
        # The refusal happens before the final save: the checkpoint still
        # holds the long history's state.
        assert load_checkpoint(str(state)).num_transactions == consumed

    def test_resume_rejects_a_different_history_file(self, tmp_path):
        from repro.stream import check_stream_file

        history_a, records = self._records(seed=1)
        history_b, _ = self._records(seed=2)
        path_a = tmp_path / "a.plume"
        path_b = tmp_path / "b.plume"
        save_history(history_a, str(path_a), fmt="plume")
        save_history(history_b, str(path_b), fmt="plume")
        state = tmp_path / "state.awd"
        check_stream_file(
            str(path_a),
            IsolationLevel.CAUSAL_CONSISTENCY,
            fmt="plume",
            checkpoint=str(state),
        )
        with pytest.raises(HistoryFormatError):
            check_stream_file(
                str(path_b),
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                checkpoint=str(state),
                resume=True,
            )

    def test_resume_applies_the_new_witness_budget(self, tmp_path):
        from repro.stream import check_stream_file

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
        state = tmp_path / "state.awd"
        first = check_stream_file(
            str(path),
            IsolationLevel.READ_COMMITTED,
            fmt="plume",
            checkpoint=str(state),
            max_witnesses=5,
        )
        cycles = [
            v for v in first.violations
            if v.kind is ViolationKind.COMMIT_ORDER_CYCLE
        ]
        assert len(cycles) == 2
        resumed = check_stream_file(
            str(path),
            IsolationLevel.READ_COMMITTED,
            fmt="plume",
            checkpoint=str(state),
            resume=True,
            max_witnesses=1,
        )
        resumed_cycles = [
            v for v in resumed.violations
            if v.kind is ViolationKind.COMMIT_ORDER_CYCLE
        ]
        assert len(resumed_cycles) == 1


class TestLiveStats:
    def test_keys_read_by_perfbench_are_present(self):
        # perfbench/run.py reads these counters from a traced stream run.
        checker = CompiledIncrementalChecker()
        checker.append_raw(0, None, True, [(True, "x", 1)])
        checker.append_raw(1, None, True, [(False, "x", 1)])
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
        for sid, (label, committed, ops) in raw_records(history):
            checker.append_raw(sid, label, committed, ops)
            transactions += 1
            operations += len(ops)
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
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, (label, committed, ops) in interleaved_records(
            history, random.Random(order_seed)
        ):
            checker.append_raw(sid, label, committed, ops)
        assert_matches_batch(history, checker.finalize())
