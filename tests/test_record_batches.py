"""The columnar record-batch ingestion layer (PR 6).

``stream_batches`` is the one parser of every format, so its records must
not depend on ``batch_ops``: unbatched, any batch size yields the records
of one-record batches -- including around error timing (a mid-batch
``ParseError`` still carries line and file context) and cobra values whose
CSV quoting hides a newline or a comma.
On top of the parse layer, the batch_ops streaming matrix over a saved
file must stay byte-identical to the batch oracle
(batch-boundary-straddling transactions included), including a duplicate
``(key, value)`` write that arrives after its reader and readers that
arrive before their writer in any order, resume must cut a straddling
batch at the checkpointed transaction, and a batch size below 1 is refused
up front.
"""

import io
import random
import re
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import IsolationLevel, check
from repro.core.compiled import kernels
from repro.core.exceptions import ParseError
from repro.core.model import History, Transaction, read, write
from repro.graph import csr
from repro.histories.formats import (
    cobra,
    dbcop,
    load_compiled,
    native,
    plume_text,
    save_history,
    stream_raw_batches,
    stream_raw_history,
)
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, check_stream_file, load_checkpoint

LEVELS = list(IsolationLevel)

FORMAT_MODULES = {
    "native": native,
    "plume": plume_text,
    "dbcop": dbcop,
    "cobra": cobra,
}

#: The parity axis: degenerate single-op batches, a prime that lands
#: batch boundaries mid-transaction, and the production default.
BATCH_OPS = (1, 7, 4096)


def _raw(txn):
    """``txn`` as a raw ``(label, committed, ops)`` record."""
    return (
        txn.label,
        txn.committed,
        [(op.is_write, op.key, op.value) for op in txn.operations],
    )


def _assert_same(reference, result, context):
    assert result.is_consistent == reference.is_consistent, context
    assert [v.message for v in result.violations] == [
        v.message for v in reference.violations
    ], context
    assert result.stats.get("inferred_edges") == reference.stats.get(
        "inferred_edges"
    ), context
    assert result.stats.get("co_edges") == reference.stats.get("co_edges"), context


class TestStreamBatchesParity:
    """stream_batches yields the same records for every format and batch size."""

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        config=st.builds(
            RandomHistoryConfig,
            num_sessions=st.integers(1, 4),
            num_transactions=st.integers(1, 24),
            num_keys=st.integers(1, 5),
            min_ops_per_txn=st.just(1),
            max_ops_per_txn=st.integers(1, 6),
            read_fraction=st.floats(0.2, 0.8),
            abort_probability=st.sampled_from([0.0, 0.2]),
            mode=st.sampled_from(["serializable", "random_reads"]),
            seed=st.integers(0, 10_000),
        ),
        fmt=st.sampled_from(sorted(FORMAT_MODULES)),
        batch_ops=st.sampled_from(BATCH_OPS),
    )
    def test_unbatched_records_match_one_record_batches(self, config, fmt, batch_ops):
        history = generate_random_history(config)
        module = FORMAT_MODULES[fmt]
        text = module.dumps(history)
        reference = [
            record
            for batch in module.stream_batches(io.StringIO(text), batch_ops=1)
            for record in batch.iter_records()
        ]
        batches = list(module.stream_batches(io.StringIO(text), batch_ops=batch_ops))
        unbatched = [record for batch in batches for record in batch.iter_records()]
        assert unbatched == reference
        # A batch closes at the first record that fills it, so only the
        # final batch may run short -- the bounded-memory guarantee.
        for batch in batches[:-1]:
            assert batch.num_ops >= batch_ops
        assert sum(len(batch.txn_end) for batch in batches) == len(reference)

    @pytest.mark.parametrize("fmt", sorted(FORMAT_MODULES))
    def test_batch_ops_value_does_not_change_records(self, fmt, tmp_path):
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=3, num_transactions=20, mode="random_reads", seed=5
            )
        )
        path = tmp_path / f"h.{fmt}"
        save_history(history, str(path), fmt=fmt)
        reference = list(stream_raw_history(str(path), fmt))
        for batch_ops in BATCH_OPS:
            records = [
                record
                for batch in stream_raw_batches(str(path), fmt, batch_ops=batch_ops)
                for record in batch.iter_records()
            ]
            assert records == reference, (fmt, batch_ops)


class TestMidBatchParseErrors:
    """A ParseError inside an accumulating batch keeps line/file context."""

    def _bad_plume(self, tmp_path):
        lines = [
            "session=0 txn=a committed ops= W(x,1)",
            "session=1 txn=b committed ops= R(x,1)",
            "this is not a history line",
        ]
        path = tmp_path / "bad.plume"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_plume_error_carries_line_and_file(self, tmp_path):
        path = self._bad_plume(tmp_path)
        with pytest.raises(ParseError) as excinfo:
            list(stream_raw_batches(str(path), "plume", batch_ops=4096))
        message = str(excinfo.value)
        assert "bad.plume" in message
        assert "line 3" in message

    def test_records_before_the_error_still_stream(self, tmp_path):
        # batch_ops=1 keeps the legacy error timing: both closed
        # transactions come back before the corrupt line raises.
        path = self._bad_plume(tmp_path)
        batches = stream_raw_batches(str(path), "plume", batch_ops=1)
        seen = [next(batches), next(batches)]
        assert [len(batch.txn_end) for batch in seen] == [1, 1]
        with pytest.raises(ParseError, match="line 3"):
            next(batches)

    def test_cobra_error_carries_line_and_file(self, tmp_path):
        path = tmp_path / "bad.cobra"
        path.write_text("0,0,W,x,1,1\n0,1,Q,x,1,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            list(stream_raw_batches(str(path), "cobra", batch_ops=4096))
        message = str(excinfo.value)
        assert "bad.cobra" in message
        assert "line 2" in message


class TestCobraQuotedValues:
    """CSV quoting may hide newlines and commas inside values."""

    def _quoted_history(self):
        return History.from_sessions(
            [
                [Transaction([write("k", "a\nb"), write("p", "c,d")], label=None)],
                [Transaction([read("k", "a\nb")], label=None)],
            ]
        )

    def test_batches_keep_quoted_values(self, tmp_path):
        path = tmp_path / "quoted.cobra"
        save_history(self._quoted_history(), str(path), fmt="cobra")
        assert '"' in path.read_text(encoding="utf-8")
        # The parse keeps the embedded newline and comma intact.
        serial = [
            record
            for batch in stream_raw_batches(str(path), "cobra")
            for record in batch.iter_records()
        ]
        ops = serial[0][1][2]
        assert ("a\nb" in [value for _, _, value in ops]) and (
            "c,d" in [value for _, _, value in ops]
        )

    def test_quoted_file_checks_identically(self, tmp_path):
        # The stream and the batch compiled engine both match the oracle.
        path = tmp_path / "quoted.cobra"
        history = self._quoted_history()
        save_history(history, str(path), fmt="cobra")
        compiled = load_compiled(str(path), fmt="cobra")
        for level in LEVELS:
            reference = check(history, level, engine="object")
            result = check_stream_file(path=str(path), level=level, fmt="cobra")
            _assert_same(reference, result, ("quoted-stream", level))
            result = check(compiled, level)
            _assert_same(reference, result, ("quoted-batch", level))


class TestDuplicateWriteAfterReader:
    """A duplicate (key, value) write after its reader resolves like batch."""

    def _duplicate_after_reader(self):
        # w1 writes (x,1), the reader reads it, then w2 repeats the same
        # (key, value) with a larger (sid, sidx) and wins the unique-writes
        # tie-break: R(x,1) reads from w2, and every level is consistent.
        t1 = Transaction([write("x", 1)], label="w1")
        t2 = Transaction([read("x", 1)], label="r")
        t3 = Transaction([write("x", 1)], label="w2")
        return History.from_sessions([[t1], [t2], [t3]])

    @pytest.mark.parametrize("batch_ops", [1, 2, None], ids=["1", "2", "default"])
    def test_stream_matches_oracle_at_every_batch_size(self, batch_ops, tmp_path):
        history = self._duplicate_after_reader()
        path = tmp_path / "dup.plume"
        save_history(history, str(path), fmt="plume")
        for level in LEVELS:
            reference = check(history, level, engine="object")
            assert reference.is_consistent, level
            result = check_stream_file(str(path), level, fmt="plume", batch_ops=batch_ops)
            _assert_same(reference, result, ("duplicate", level, batch_ops))

    @pytest.mark.parametrize("level", ["rc", "ra", "cc"])
    def test_cli_stream_prints_the_batch_report(self, level, tmp_path, capsys):
        path = tmp_path / "dup.plume"
        save_history(self._duplicate_after_reader(), str(path), fmt="plume")
        outputs = []
        modes = (
            [],
            ["--stream", "--batch-ops", "1"],
            ["--stream", "--batch-ops", "2"],
            ["--stream"],
        )
        for mode in modes:
            code = main(["check", str(path), "-i", level] + mode)
            out = capsys.readouterr().out
            # Drop the checker label, which names the mode, and the elapsed time.
            outputs.append((code, re.sub(r"^\[[^\]]+\] | in [0-9.]+ ms", "", out, count=2)))
        assert outputs[0][0] == 0 and "CONSISTENT" in outputs[0][1]
        assert outputs[1:] == [outputs[0]] * 3

    def test_duplicate_before_reader_resolves_like_batch(self, tmp_path):
        # Same duplicate, but the reader arrives last.
        t1 = Transaction([write("x", 1)], label="w1")
        t2 = Transaction([write("x", 1)], label="w2")
        t3 = Transaction([read("x", 1)], label="r")
        history = History.from_sessions([[t1], [t2], [t3]])
        path = tmp_path / "rebind.plume"
        save_history(history, str(path), fmt="plume")
        for level in LEVELS:
            reference = check(history, level, engine="object")
            for batch_ops in (1, None):
                result = check_stream_file(
                    str(path), level, fmt="plume", batch_ops=batch_ops
                )
                _assert_same(reference, result, ("rebind", level, batch_ops))


class TestReaderBeforeWriter:
    """Readers that arrive before their writers resolve like batch, in any order.

    A stream resolves reads when it finalizes, and numbers transactions by
    session like batch, so arrival order cannot change the answer: for
    every arrival order of one-transaction sessions, with a reader's
    ``(x, 5)`` written by two transactions (the later session wins) and its
    ``(y, 9)`` by another, the stream at every batch size, on either side
    of the unique-writes resolution kernel, equals the object batch oracle.
    """

    @staticmethod
    def _sides():
        """The kernel sides to run: pure Python, and numpy if it loads.

        The size floor drops to one operation so these tiny histories
        reach the vectorized side at all.
        """
        yield csr.numpy_disabled()
        if csr.HAVE_NUMPY:
            csr.load_numpy()
            yield mock.patch.object(kernels, "_MIN_VECTOR_READS", 1)

    def _assert_every_order_matches(self, sessions, orders):
        history = History.from_sessions([[txn] for txn in sessions])
        want = {level: check(history, level, engine="object") for level in LEVELS}
        for order in orders:
            for batch_ops in BATCH_OPS:
                for side in self._sides():
                    with side:
                        checker = CompiledIncrementalChecker()
                        checker.extend_raw(
                            ((sid, _raw(sessions[sid])) for sid in order),
                            batch_ops=batch_ops,
                        )
                        results = checker.finalize()
                    for level in LEVELS:
                        _assert_same(want[level], results[level], (order, batch_ops, level))

    def test_single_waiting_reader(self):
        loser = Transaction([write("x", 5), write("x", 6)], label="loser")
        reader = Transaction([read("x", 5), read("y", 9)], label="reader")
        winner = Transaction([write("x", 5)], label="winner")
        ywriter = Transaction([write("y", 9)], label="ywriter")
        self._assert_every_order_matches(
            [loser, reader, winner, ywriter], permutations(range(4))
        )

    def test_multiple_waiting_readers(self):
        # Two readers with their reads in opposite orders.
        loser = Transaction([write("x", 5), write("x", 6)], label="loser")
        r1 = Transaction([read("x", 5), read("y", 9)], label="r1")
        r2 = Transaction([read("y", 9), read("x", 5)], label="r2")
        winner = Transaction([write("x", 5)], label="winner")
        ywriter = Transaction([write("y", 9)], label="ywriter")
        orders = random.Random(0).sample(list(permutations(range(5))), 24)
        self._assert_every_order_matches([loser, r1, r2, winner, ywriter], orders)


class TestBatchOpsMatrix:
    """Streaming verdicts are byte-identical at every batch_ops."""

    @pytest.fixture()
    def anomalous(self, tmp_path):
        # Multi-op transactions so batch_ops=7 boundaries straddle them.
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=3,
                    num_transactions=24,
                    num_keys=4,
                    min_ops_per_txn=2,
                    max_ops_per_txn=5,
                    read_fraction=0.5,
                    mode="random_reads",
                    seed=123,
                )
            ),
            INJECTABLE_ANOMALIES[0],
        )
        path = tmp_path / "h.plume"
        save_history(history, str(path), fmt="plume")
        return history, str(path)

    def test_all_cells_agree(self, anomalous):
        history, path = anomalous
        for level in LEVELS:
            reference = check(history, level, engine="object")
            for batch_ops in BATCH_OPS:
                result = check_stream_file(path, level, fmt="plume", batch_ops=batch_ops)
                _assert_same(reference, result, (batch_ops, level))

    def test_resume_cuts_a_straddling_batch(self, anomalous, tmp_path):
        # Checkpoint 13 transactions in, then resume with one huge batch:
        # the resume skip lands mid-batch and RecordBatch.tail must cut
        # exactly at the checkpointed transaction.
        _history, path = anomalous
        level = IsolationLevel.CAUSAL_CONSISTENCY
        reference = check_stream_file(path, level, fmt="plume")
        state = tmp_path / "state.awd"
        checker = CompiledIncrementalChecker(levels=(level,))
        for index, batch in enumerate(stream_raw_batches(path, "plume", batch_ops=1)):
            if index == 13:
                break
            checker.append_batch(batch)
        checker.save_checkpoint(str(state))
        del checker

        assert load_checkpoint(str(state)).num_transactions == 13
        result = check_stream_file(
            path,
            level,
            fmt="plume",
            checkpoint=str(state),
            resume=True,
            batch_ops=4096,
        )
        _assert_same(reference, result, ("resume-tail", level))


class TestBatchOpsValidation:
    """Nonsensical batch sizes are rejected up front, not silently built."""

    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "h.plume"
        save_history(
            generate_random_history(
                RandomHistoryConfig(num_sessions=2, num_transactions=20, seed=1)
            ),
            str(path),
            fmt="plume",
        )
        return str(path)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cli_rejects_bad_batch_ops(self, history_path, capsys, value):
        assert main(["check", history_path, "--stream", "--batch-ops", value]) == 2
        err = capsys.readouterr().err
        assert "awdit: error:" in err
        assert f"--batch-ops must be >= 1, got {value}" in err

    @pytest.mark.parametrize("value", [0, -1])
    def test_extend_raw_rejects_bad_batch_ops(self, value):
        checker = CompiledIncrementalChecker(num_sessions=1)
        with pytest.raises(ValueError, match=f"batch_ops must be >= 1, got {value}"):
            checker.extend_raw(iter([]), batch_ops=value)

    def test_check_stream_file_rejects_bad_batch_ops(self, history_path):
        with pytest.raises(ValueError, match="batch_ops must be >= 1, got 0"):
            check_stream_file(
                history_path,
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                batch_ops=0,
            )
