"""The engine × mode parity matrix.

Both batch engines (``object``, ``compiled``) and the stream (one online
checker) must produce byte-identical verdicts, violation messages, and
inferred-edge counts -- including on aborted, weak-isolation, and
anomaly-injected histories, and across a checkpoint/resume split of the
stream.  The object batch engine is the oracle; everything else is compared
against it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check, check_all_levels
from repro.core.exceptions import UsageError
from repro.histories.formats import save_history, stream_raw_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.stream import (
    CompiledIncrementalChecker,
    check_all_levels_history_stream,
    check_history_stream,
    check_stream_compiled,
    check_stream_file,
    load_checkpoint,
    stream_live_stats,
)

LEVELS = list(IsolationLevel)
#: ``(engine, mode)`` cells: both batch engines, plus the one stream.
CELLS = (
    ("object", "batch"),
    ("compiled", "batch"),
    ("auto", "stream"),
)


def _assert_same(reference, result, context):
    assert result.is_consistent == reference.is_consistent, context
    assert [v.message for v in result.violations] == [
        v.message for v in reference.violations
    ], context
    assert result.stats.get("inferred_edges") == reference.stats.get(
        "inferred_edges"
    ), context
    # The CSR freeze is every engine's single dedup point, so the distinct
    # commit-relation edge count must agree cell by cell too.
    assert result.stats.get("co_edges") == reference.stats.get("co_edges"), context


class TestEngineModeMatrix:
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        config=st.builds(
            RandomHistoryConfig,
            num_sessions=st.integers(1, 4),
            num_transactions=st.integers(0, 24),
            num_keys=st.integers(1, 5),
            min_ops_per_txn=st.just(1),
            max_ops_per_txn=st.integers(1, 5),
            read_fraction=st.floats(0.2, 0.8),
            abort_probability=st.sampled_from([0.0, 0.2]),
            mode=st.sampled_from(["serializable", "random_reads"]),
            seed=st.integers(0, 10_000),
        ),
        anomaly=st.sampled_from((None,) + INJECTABLE_ANOMALIES),
    )
    def test_all_cells_agree_with_injected_anomalies(self, config, anomaly):
        history = generate_random_history(config)
        if anomaly is not None:
            history = inject_anomaly(history, anomaly)
        for level in LEVELS:
            reference = check(history, level, engine="object")
            for engine, mode in CELLS:
                result = check(history, level, engine=engine, mode=mode)
                _assert_same(reference, result, (engine, mode, level))

    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_all_levels_matrix_per_anomaly(self, kind):
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=3,
                    num_transactions=18,
                    abort_probability=0.1,
                    seed=7,
                )
            ),
            kind,
        )
        reference = check_all_levels(history, engine="object")
        for engine, mode in CELLS:
            results = check_all_levels(history, engine=engine, mode=mode)
            for level in LEVELS:
                _assert_same(reference[level], results[level], (engine, mode, level))


class TestStreamFileCells:
    """The on-disk streaming cells: ``--stream`` against both batch engines."""

    @pytest.fixture()
    def anomalous(self, tmp_path):
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4,
                    num_transactions=30,
                    mode="random_reads",
                    seed=21,
                )
            ),
            INJECTABLE_ANOMALIES[0],
        )
        path = tmp_path / "h.plume"
        save_history(history, str(path), fmt="plume")
        return history, str(path)

    @pytest.mark.parametrize("engine", ["auto", "compiled", "object"])
    def test_file_stream_engines_agree(self, anomalous, engine):
        """The file stream matches batch ``engine`` on the same history."""
        history, path = anomalous
        for level in LEVELS:
            reference = check(history, level, engine=engine)
            result = check_stream_file(path, level, fmt="plume")
            _assert_same(reference, result, (engine, level))

    def test_checkpoint_resume_equals_uninterrupted_run(self, anomalous, tmp_path):
        history, path = anomalous
        level = IsolationLevel.CAUSAL_CONSISTENCY
        reference = check_stream_file(path, level, fmt="plume")
        state = tmp_path / "state.awd"

        # Interrupt mid-history: checkpoint after every 7 transactions, then
        # simulate a crash by building a fresh checker from the last save.
        checker = CompiledIncrementalChecker(levels=(level,))
        for index, (sid, (label, committed, ops)) in enumerate(
            stream_raw_history(path, fmt="plume")
        ):
            if index == 13:
                break
            checker.append_raw(sid, label, committed, ops)
            if (index + 1) % 7 == 0:
                checker.save_checkpoint(str(state))
        del checker

        resumed = load_checkpoint(str(state))
        assert 0 < resumed.num_transactions < history.num_transactions
        result = check_stream_file(
            path, level, fmt="plume", checkpoint=str(state), resume=True
        )
        _assert_same(reference, result, ("resume", level))

    def test_resume_with_other_level_rejected(self, anomalous, tmp_path):
        _history, path = anomalous
        state = tmp_path / "state.awd"
        check_stream_file(
            path, IsolationLevel.READ_COMMITTED, fmt="plume", checkpoint=str(state)
        )
        with pytest.raises(UsageError, match="tracks \\['RC'\\], not CC"):
            check_stream_file(
                path,
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                checkpoint=str(state),
                resume=True,
            )


class TestDispatchErrors:
    def test_stream_mode_rejects_read_consistency_reports(self):
        from repro.core.read_consistency import check_read_consistency

        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        report = check_read_consistency(history)
        with pytest.raises(ValueError):
            check(history, mode="stream", read_consistency=report)

    def test_unknown_mode_rejected(self):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        with pytest.raises(ValueError):
            check(history, mode="sideways")

    def test_object_stream_rejects_compiled_history(self):
        from repro.core.compiled import compile_history

        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        with pytest.raises(ValueError):
            check(compile_history(history), mode="stream", engine="object")

    def test_removed_sharded_engine_is_unknown(self):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        for mode in ("batch", "stream"):
            for entry in (check, check_all_levels):
                with pytest.raises(ValueError, match="unknown engine 'sharded'"):
                    entry(history, engine="sharded", mode=mode)

    @pytest.mark.parametrize(
        "entry,args",
        [
            (CompiledIncrementalChecker, ()),
            (check_stream_compiled, ([],)),
            (check_history_stream, (None,)),
            (check_all_levels_history_stream, (None,)),
            (check_stream_file, ("h.plume",)),
            (stream_live_stats, ("h.plume",)),
        ],
        ids=[
            "CompiledIncrementalChecker",
            "check_stream_compiled",
            "check_history_stream",
            "check_all_levels_history_stream",
            "check_stream_file",
            "stream_live_stats",
        ],
    )
    def test_removed_retire_parameter_is_unknown(self, entry, args):
        """No streaming entry point still takes (or silently drops) ``retire=``."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'retire'"):
            entry(*args, retire=None)

    @pytest.mark.parametrize(
        "kwargs",
        [{"engine": "object"}],
        ids=["object"],
    )
    def test_stream_has_no_engine_choice(self, kwargs):
        """The batch-only engine is refused in one line naming the remedy."""
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        for entry in (check, check_all_levels):
            with pytest.raises(ValueError) as info:
                entry(history, mode="stream", **kwargs)
            message = str(info.value)
            assert "\n" not in message and "mode='batch'" in message

    def test_compiled_history_streams_identically(self):
        from repro.core.compiled import compile_history

        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(num_sessions=3, num_transactions=20, seed=3)
            ),
            INJECTABLE_ANOMALIES[4],
        )
        compiled = compile_history(history)
        for level in LEVELS:
            reference = check(history, level, engine="object")
            result = check(compiled, level, mode="stream")
            _assert_same(reference, result, level)
