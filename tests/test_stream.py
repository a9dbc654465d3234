"""Tests for the streaming checking subsystem (CompiledIncrementalChecker + parsers)."""

import io
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import IsolationLevel, check
from repro.core.model import History, Transaction, read, write
from repro.core.violations import ViolationKind
from repro.histories.formats import (
    load_history,
    save_history,
    stream_raw_history,
)
from repro.histories.formats._raw import transaction_from_raw
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, check_stream_compiled

from helpers import PAPER_VERDICTS, all_paper_histories

LEVELS = list(IsolationLevel)
FORMAT_EXTS = [("native", ".json"), ("plume", ".plume"), ("dbcop", ".dbcop"), ("cobra", ".cobra")]


def feed_in_order(history, checker):
    """Feed a history session by session (the on-disk file order)."""
    for sid, session in enumerate(history.sessions):
        for tid in session:
            checker.append(sid, history.transactions[tid])


def interleaved(history, rng):
    """A random stream interleaving that respects per-session order."""
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
        tid = history.sessions[sid][positions[sid]]
        positions[sid] += 1
        yield sid, history.transactions[tid]


def assert_matches_batch(history, stream_results, check_messages=False):
    for level in LEVELS:
        batch = check(history, level)
        streamed = stream_results[level]
        assert streamed.is_consistent == batch.is_consistent, level
        assert sorted(v.kind.name for v in streamed.violations) == sorted(
            v.kind.name for v in batch.violations
        ), level
        if check_messages:
            assert [v.message for v in streamed.violations] == [
                v.message for v in batch.violations
            ], level


class TestStreamingParsers:
    @pytest.mark.parametrize("fmt,ext", FORMAT_EXTS)
    def test_stream_agrees_with_load(self, tmp_path, fmt, ext):
        history = all_paper_histories()["fig_1b"]
        path = tmp_path / f"h{ext}"
        save_history(history, str(path), fmt=fmt)
        loaded = load_history(str(path), fmt=fmt)
        sessions = {}
        for sid, raw in stream_raw_history(str(path), fmt=fmt):
            sessions.setdefault(sid, []).append(transaction_from_raw(raw))
        ordered = [sessions[sid] for sid in sorted(sessions)]
        restreamed = History.from_sessions(ordered)
        assert restreamed.num_operations == loaded.num_operations
        assert restreamed.num_transactions == loaded.num_transactions
        for got, want in zip(restreamed.transactions, loaded.transactions):
            assert got.committed == want.committed
            assert list(got.operations) == list(want.operations)

    def test_native_stream_survives_tiny_chunks(self):
        from repro.histories.formats import native

        history = all_paper_histories()["fig_1a"]
        text = native.dumps(history)

        class OneChar(io.StringIO):
            def read(self, size=-1):
                return super().read(1)

        batches = list(native.stream_batches(OneChar(text)))
        assert sum(len(batch) for batch in batches) == history.num_transactions

    def test_cobra_stream_rejects_split_transactions(self):
        from repro.core.exceptions import ParseError
        from repro.histories.formats import cobra

        text = "0,0,W,x,1,1\n0,1,W,x,2,1\n0,0,W,y,1,1\n"
        with pytest.raises(ParseError):
            list(cobra.stream_batches(io.StringIO(text)))

    def test_json_stream_rejects_trailing_garbage(self):
        """Concatenated/rewritten captures must error like the batch parser."""
        from repro.core.exceptions import ParseError
        from repro.histories.formats import native

        text = native.dumps(all_paper_histories()["fig_4a"])
        with pytest.raises(ParseError):
            list(native.stream_batches(io.StringIO(text + ' {"oops": 1}')))

    @pytest.mark.parametrize("module_name", ["plume_text", "cobra"])
    def test_line_based_streams_reject_empty_input(self, module_name):
        """A truncated/empty capture must error, not pass as consistent."""
        import importlib

        from repro.core.exceptions import ParseError

        module = importlib.import_module(f"repro.histories.formats.{module_name}")
        with pytest.raises(ParseError):
            list(module.stream_batches(io.StringIO("")))

    def test_plume_stream_is_lazy(self):
        from repro.histories.formats import plume_text

        def lines():
            yield "session=0 txn=a committed ops= W(x,1)"
            yield "session=1 txn=b committed ops= R(x,1)"
            raise AssertionError("must not be pulled")

        iterator = plume_text.stream_batches(lines(), batch_ops=1)
        batch = next(iterator)
        assert batch.txn_session == [0] and batch.txn_labels == ["a"]


class TestIncrementalCheckerParity:
    @pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
    def test_paper_histories_match_batch_exactly(self, name):
        history = all_paper_histories()[name]
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        feed_in_order(history, checker)
        # Labeled histories reproduce the batch witnesses verbatim.
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

    def test_out_of_order_reads_resolve_on_write_arrival(self):
        # Session 1's read arrives before the write it observes.
        t_read = Transaction([read("x", 1)], label="reader")
        t_write = Transaction([write("x", 1)], label="writer")
        history = History.from_sessions([[t_write], [t_read]])
        checker = CompiledIncrementalChecker(num_sessions=2)
        checker.append(1, t_read)
        assert checker.violations == []  # not witnessable yet
        checker.append(0, t_write)
        assert_matches_batch(history, checker.finalize())

    def test_single_session_uses_linear_specialization(self):
        history = History.from_sessions(
            [[Transaction([write("x", 1)]), Transaction([read("x", 1)])]]
        )
        checker = CompiledIncrementalChecker(num_sessions=1)
        feed_in_order(history, checker)
        result = checker.finalize()[IsolationLevel.READ_ATOMIC]
        assert result.checker == "awdit-stream-1session"
        assert result.is_consistent

    def test_causality_cycle_reported_like_batch(self):
        t1 = Transaction([write("x", 1), read("y", 1)], label="t1")
        t2 = Transaction([write("y", 1), read("x", 1)], label="t2")
        history = History.from_sessions([[t1], [t2]])
        checker = CompiledIncrementalChecker(num_sessions=2)
        feed_in_order(history, checker)
        assert_matches_batch(history, checker.finalize(), check_messages=True)

    def test_append_after_finalize_rejected(self):
        checker = CompiledIncrementalChecker()
        checker.finalize()
        with pytest.raises(RuntimeError):
            checker.append(0, Transaction([write("x", 1)]))


class TestEarlyReporting:
    """``violations`` fills at finalize: the levels are checked there."""

    def test_read_violations_witnessed_at_finalize(self):
        checker = CompiledIncrementalChecker()
        checker.append(0, Transaction([write("x", 1), write("x", 2)], label="w"))
        checker.append(1, Transaction([read("x", 1)], label="r"))
        assert checker.violations == []
        checker.finalize()
        kinds = [v.kind for v in checker.violations]
        assert ViolationKind.NOT_LATEST_WRITE in kinds

    def test_aborted_read_witnessed_at_finalize(self):
        checker = CompiledIncrementalChecker()
        checker.append(0, Transaction([read("x", 1)], label="r"))
        checker.append(1, Transaction([write("x", 1)], committed=False, label="a"))
        assert checker.violations == []
        checker.finalize()
        kinds = [v.kind for v in checker.violations]
        assert kinds == [ViolationKind.ABORTED_READ]


class TestStreamingProperties:
    """Streaming and batch checking are observationally identical."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
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
    def test_streaming_matches_batch_on_random_histories(self, config, order_seed):
        history = generate_random_history(config)
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, txn in interleaved(history, random.Random(order_seed)):
            checker.append(sid, txn)
        results = checker.finalize()
        for level in LEVELS:
            batch = check(history, level)
            streamed = results[level]
            assert streamed.is_consistent == batch.is_consistent, level
            assert sorted(v.kind.name for v in streamed.violations) == sorted(
                v.kind.name for v in batch.violations
            ), level
            # The replayed commit relation is structurally identical too.
            assert streamed.stats.get("inferred_edges") == batch.stats.get(
                "inferred_edges"
            ), level


class TestLargeStreamedLog:
    def test_streams_a_large_plume_log_without_loading_it(self, tmp_path):
        config = RandomHistoryConfig(
            num_sessions=6,
            num_transactions=4000,
            num_keys=200,
            min_ops_per_txn=4,
            max_ops_per_txn=8,
            mode="serializable",
            seed=3,
        )
        history = generate_random_history(config)
        path = tmp_path / "large.plume"
        save_history(history, str(path), fmt="plume")
        result = check_stream_compiled(
            stream_raw_history(str(path), fmt="plume"),
            IsolationLevel.CAUSAL_CONSISTENCY,
        )
        assert result.is_consistent
        assert result.num_operations == history.num_operations
        assert result.num_transactions == history.num_transactions


class TestCliStream:
    def test_check_stream_flag(self, tmp_path, capsys):
        history = all_paper_histories()["fig_4d"]
        path = tmp_path / "ok.json"
        save_history(history, str(path))
        assert main(["check", str(path), "-i", "cc", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "CONSISTENT" in out and "awdit-stream" in out

    def test_check_stream_flag_reports_violations(self, tmp_path, capsys):
        history = all_paper_histories()["fig_4a"]
        path = tmp_path / "bad.plume"
        save_history(history, str(path), fmt="plume")
        assert main(["check", str(path), "-i", "rc", "--stream"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "cycle" in out

    @pytest.mark.parametrize("level", ["rc", "ra", "cc"])
    @pytest.mark.parametrize("fmt,ext", FORMAT_EXTS)
    def test_same_output_as_batch(self, tmp_path, capsys, fmt, ext, level):
        # Both modes build one IR with the format's session convention and
        # run the same checks, so every witness line must match.
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4,
                    num_transactions=80,
                    num_keys=6,
                    max_ops_per_txn=5,
                    mode="random_reads",
                    seed=12,
                )
            ),
            ViolationKind.COMMIT_ORDER_CYCLE,
        )
        path = tmp_path / f"h{ext}"
        save_history(history, str(path), fmt=fmt)
        outputs = []
        for mode in ([], ["--stream"]):
            assert main(["check", str(path), "-i", level] + mode) == 1
            out = capsys.readouterr().out
            outputs.append(re.sub(r"^\[[^\]]+\] | in [0-9.]+ ms", "", out, count=2))
        assert outputs[0] == outputs[1]
        assert "cycle" in outputs[0]

    @pytest.mark.parametrize("fmt,ext", FORMAT_EXTS)
    def test_empty_session_numbered_like_batch(self, tmp_path, capsys, fmt, ext):
        # The JSON and cobra formats keep an empty session; both modes must
        # number the sessions after it alike, or witnesses name other txns.
        history = all_paper_histories()["fig_4a"]
        padded = History.from_sessions(
            [[history.transactions[tid] for tid in session] for session in history.sessions]
            + [[], [Transaction([read("y", 1)], label="thin")]]
        )
        path = tmp_path / f"h{ext}"
        save_history(padded, str(path), fmt=fmt)
        outputs = []
        for mode in ([], ["--stream"]):
            assert main(["check", str(path), "-i", "rc"] + mode) == 1
            out = capsys.readouterr().out
            outputs.append(re.sub(r"^\[[^\]]+\] | in [0-9.]+ ms", "", out, count=2))
        assert outputs[0] == outputs[1]

    def test_check_stream_rejects_baselines(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(all_paper_histories()["fig_4d"], str(path))
        assert main(["check", str(path), "--stream", "--checker", "plume"]) == 2
