"""The columnar record-batch ingestion layer (PR 6).

``stream_batches`` is now the canonical parse path of every format and
``stream_ops`` a per-record unbatching shim over it, so the two must
agree record-for-record at any ``batch_ops`` -- including around error
timing (a mid-batch ``ParseError`` still carries line and file context)
and the byte-range splitter's refusal of cobra files with CSV quoting.
On top of the parse layer, the batch_ops streaming matrix over a saved
file must stay byte-identical to the batch oracle
(batch-boundary-straddling transactions included), resume must cut a
straddling batch at the checkpointed transaction, and a duplicate
``(key, value)`` write arriving after its reader folded must raise the
clear diagnostic instead of silently diverging from the batch engines.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.exceptions import HistoryFormatError, ParseError
from repro.core.model import History, Transaction, read, write
from repro.histories.formats import (
    cobra,
    dbcop,
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
from repro.shard import load_compiled_sharded
from repro.shard.split import split_byte_ranges
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
    """stream_batches ⇄ stream_ops agree for every format and batch size."""

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
    def test_unbatched_records_match_stream_ops(self, config, fmt, batch_ops):
        history = generate_random_history(config)
        module = FORMAT_MODULES[fmt]
        text = module.dumps(history)
        reference = list(module.stream_ops(io.StringIO(text)))
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
    """CSV quoting may hide newlines, so byte-range splitting refuses."""

    def _quoted_history(self):
        return History.from_sessions(
            [
                [Transaction([write("k", "a\nb"), write("p", "c,d")], label=None)],
                [Transaction([read("k", "a\nb")], label=None)],
            ]
        )

    def test_split_refused_but_serial_batches_parse(self, tmp_path):
        path = tmp_path / "quoted.cobra"
        save_history(self._quoted_history(), str(path), fmt="cobra")
        assert '"' in path.read_text(encoding="utf-8")
        assert split_byte_ranges(str(path), 4, fmt="cobra") is None
        # The serial parse keeps the embedded newline and comma intact.
        serial = [
            record
            for batch in stream_raw_batches(str(path), "cobra")
            for record in batch.iter_records()
        ]
        ops = serial[0][1][2]
        assert ("a\nb" in [value for _, _, value in ops]) and (
            "c,d" in [value for _, _, value in ops]
        )

    def test_quoted_file_checks_identically_with_jobs(self, tmp_path):
        # The stream, and the parallel sharded ingest (whose byte-range
        # split refuses this file and falls back to replicated parses),
        # both match the oracle.
        path = tmp_path / "quoted.cobra"
        history = self._quoted_history()
        save_history(history, str(path), fmt="cobra")
        sharded = load_compiled_sharded(str(path), 2, fmt="cobra", parallel=True)
        for level in LEVELS:
            reference = check(history, level, engine="object")
            result = check_stream_file(path=str(path), level=level, fmt="cobra")
            _assert_same(reference, result, ("quoted-stream", level))
            result = check(sharded, level, engine="sharded", jobs=2)
            _assert_same(reference, result, ("quoted-jobs", level))


class TestDuplicateWriteAfterFold:
    """A duplicate (key, value) write after its reader folded is refused."""

    def _refused(self):
        # w1 writes (x,1); the reader folds bound to w1; then w2 repeats
        # the same (key, value) with a larger (sid, sidx) and would win
        # the batch engines' tie-break -- but the folded read can no
        # longer rebind, so the stream must refuse instead of diverging.
        t1 = Transaction([write("x", 1)], label="w1")
        t2 = Transaction([read("x", 1)], label="r")
        t3 = Transaction([write("x", 1)], label="w2")
        return History.from_sessions([[t1], [t2], [t3]])

    @pytest.mark.parametrize("batch_ops", [1, 2, None], ids=["1", "2", "default"])
    def test_diagnostic_raised_at_every_batch_size(self, batch_ops, tmp_path):
        history = self._refused()
        path = tmp_path / "dup.plume"
        save_history(history, str(path), fmt="plume")
        # The batch engines handle the same file fine (this is exactly the
        # divergence the diagnostic exists to prevent).
        assert check(history, IsolationLevel.CAUSAL_CONSISTENCY).is_consistent
        with pytest.raises(HistoryFormatError) as excinfo:
            check_stream_file(
                str(path),
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                batch_ops=batch_ops,
            )
        message = str(excinfo.value)
        assert "duplicate write W(x, 1)" in message
        assert "w2" in message
        assert "--stream" in message

    def test_duplicate_before_reader_rebinds_cleanly(self, tmp_path):
        # Same duplicate, but the reader arrives last: its resolved read
        # rebinds to the superseding writer before folding, so there is
        # nothing to refuse and every level matches the batch oracle.
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
