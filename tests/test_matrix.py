"""The engine × mode parity matrix.

Both batch engines (``object``, ``compiled``) and the stream (one
streaming checker, fed record batches of 1, 7 and the default number of
operations) must produce byte-identical verdicts, violation messages, and
inferred-edge counts -- including on aborted, weak-isolation, and
anomaly-injected histories.  The object batch engine is the oracle;
everything else is compared against it.  A stream sees what a file holds,
the history without its trailing empty sessions (``helpers.file_view``), so
its oracle runs on that.
"""

import importlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check, check_all_levels
from repro.core.commit import CommitRelation
from repro.core.compiled import cc as compiled_cc
from repro.core.compiled import checkers, online
from repro.core.compiled.online import CompiledIncrementalChecker, check_stream_file
from repro.histories import formats
from repro.histories.formats import save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)

from helpers import BATCH_OPS, feed, file_view, history_records, stream_check

LEVELS = list(IsolationLevel)
#: Both batch engines.
ENGINES = ("object", "compiled")


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
        streamed = file_view(history)
        for level in LEVELS:
            reference = check(history, level, engine="object")
            for engine in ENGINES:
                result = check(history, level, engine=engine)
                _assert_same(reference, result, (engine, level))
            reference = check(streamed, level, engine="object")
            for batch_ops in BATCH_OPS:
                result = stream_check(history, batch_ops=batch_ops, levels=(level,))[level]
                _assert_same(reference, result, ("stream", batch_ops, level))

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
        for engine in ENGINES:
            results = check_all_levels(history, engine=engine)
            for level in LEVELS:
                _assert_same(reference[level], results[level], (engine, level))
        reference = check_all_levels(file_view(history), engine="object")
        for batch_ops in BATCH_OPS:
            results = stream_check(history, batch_ops=batch_ops)
            for level in LEVELS:
                _assert_same(reference[level], results[level], ("stream", batch_ops, level))


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

    @pytest.mark.parametrize("engine", ENGINES)
    def test_file_stream_engines_agree(self, anomalous, engine):
        """The file stream matches batch ``engine`` on the same history."""
        history, path = anomalous
        for level in LEVELS:
            reference = check(history, level, engine=engine)
            result = check_stream_file(path, level, fmt="plume")
            _assert_same(reference, result, (engine, level))


class TestDispatchErrors:
    def test_removed_sharded_engine_is_unknown(self):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        for entry in (check, check_all_levels):
            with pytest.raises(ValueError, match="unknown engine 'sharded'"):
                entry(history, engine="sharded")

    @pytest.mark.parametrize(
        "entry,args",
        [
            (CompiledIncrementalChecker, ()),
            (check_stream_file, ("h.plume",)),
        ],
        ids=[
            "CompiledIncrementalChecker",
            "check_stream_file",
        ],
    )
    def test_removed_retire_parameter_is_unknown(self, entry, args):
        """No streaming entry point still takes (or silently drops) ``retire=``."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'retire'"):
            entry(*args, retire=None)

    @pytest.mark.parametrize(
        "entry", [check, check_all_levels], ids=["check", "check_all_levels"]
    )
    @pytest.mark.parametrize("mode", ["batch", "stream"])
    def test_removed_mode_parameter_is_unknown(self, entry, mode):
        """In-memory histories have no stream mode; ``mode=`` is no parameter."""
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=2, num_transactions=5, seed=1)
        )
        with pytest.raises(TypeError, match="unexpected keyword argument 'mode'"):
            entry(history, mode=mode)

    def test_removed_num_sessions_parameter_is_unknown(self):
        """A stream takes its sessions from its records; none are declared up front."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'num_sessions'"):
            CompiledIncrementalChecker(num_sessions=2)

    @pytest.mark.parametrize(
        "owner,name",
        [
            (CompiledIncrementalChecker, "append"),
            (CompiledIncrementalChecker, "append_raw"),
            (CompiledIncrementalChecker, "extend_raw"),
            (CompiledIncrementalChecker, "save_checkpoint"),
            (online, "check_stream_compiled"),
            (online, "load_checkpoint"),
            (online, "source_fingerprint"),
            (CommitRelation, "from_edges"),
            (formats, "stream_raw_history"),
            (checkers, "rc_cycles"),
            (checkers, "ra_cycles"),
            (compiled_cc, "cc_cycles"),
        ],
        ids=lambda value: value if isinstance(value, str) else value.__name__.rsplit(".", 1)[-1],
    )
    def test_removed_stream_surface_is_gone(self, owner, name):
        """Records reach a stream only as parser batches, nothing saves one,
        and the cycle search the online fold's finalize shared is back in
        each level's check."""
        assert not hasattr(owner, name)

    def test_repro_stream_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.stream")

    def test_check_stream_file_lives_beside_its_checker(self):
        import repro

        assert repro.check_stream_file is online.check_stream_file

    def test_compiled_history_streams_identically(self):
        from repro.core.compiled import compile_history

        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(num_sessions=3, num_transactions=20, seed=3)
            ),
            INJECTABLE_ANOMALIES[4],
        )
        compiled = compile_history(history)
        for batch_ops in BATCH_OPS:
            checker = CompiledIncrementalChecker(fill_gaps=True)
            results = feed(checker, history_records(compiled), batch_ops).finalize()
            for level in LEVELS:
                reference = check(history, level, engine="object")
                _assert_same(reference, results[level], (batch_ops, level))
