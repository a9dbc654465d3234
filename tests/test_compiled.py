"""Tests for the compiled-history core (interned array IR + checkers).

The central contract: the compiled engine is *byte-identical* to the object
engine -- same verdicts, same violation kinds, same witness renderings, same
inferred-edge counts -- at all three isolation levels, on arbitrary histories
including injected anomalies.  Hypothesis enforces it below.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check, check_all_levels
from repro.core.compiled import (
    CompiledHistory,
    CompiledHistoryBuilder,
    Intern,
    check_compiled,
    compile_history,
)
from repro.core.compiled.checkers import (
    _relation_from_compiled,
    check_read_consistency_compiled,
    compute_happens_before_compiled,
)
from repro.core.compiled.kernels import (
    saturate_cc_compiled,
    saturate_ra_compiled,
    saturate_rc_compiled,
)
from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT
from repro.core.model import History, Transaction, read, write
from repro.histories.formats import load_compiled, load_history, save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)

from helpers import PAPER_VERDICTS, all_paper_histories

LEVELS = list(IsolationLevel)

history_configs = st.builds(
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
)


def assert_engines_identical(history, level):
    """Object and compiled engines agree on everything user-visible."""
    obj = check(history, level, engine="object")
    comp = check(history, level, engine="compiled")
    assert comp.is_consistent == obj.is_consistent, level
    assert [v.kind for v in comp.violations] == [v.kind for v in obj.violations], level
    assert [v.describe() for v in comp.violations] == [
        v.describe() for v in obj.violations
    ], level
    assert comp.checker == obj.checker, level
    assert comp.stats.get("inferred_edges") == obj.stats.get("inferred_edges"), level
    assert comp.stats.get("co_edges") == obj.stats.get("co_edges"), level
    return obj, comp


class TestIntern:
    def test_dense_ids_and_roundtrip(self):
        table = Intern()
        assert table.intern("x") == 0
        assert table.intern("y") == 1
        assert table.intern("x") == 0
        assert table.values == ["x", "y"]
        assert table[1] == "y"
        assert len(table) == 2
        assert table.get("z") is None

    def test_memory_estimate_positive(self):
        table = Intern()
        table.intern("key")
        assert table.memory_bytes() > 0


class TestCompileFromHistory:
    def test_arrays_mirror_the_object_model(self):
        history = all_paper_histories()["fig_1a"]
        ch = compile_history(history)
        assert ch.num_operations == history.num_operations
        assert ch.num_transactions == history.num_transactions
        assert ch.num_sessions == history.num_sessions
        assert ch.num_keys == len(history.keys)
        assert ch.committed == history.committed
        assert [ch.name_of(t) for t in range(ch.num_transactions)] == [
            txn.name for txn in history.transactions
        ]
        # Flat layout: transaction t owns ops txn_start[t]:txn_start[t+1].
        for tid, txn in enumerate(history.transactions):
            lo, hi = ch.txn_start[tid], ch.txn_start[tid + 1]
            assert hi - lo == len(txn.operations)
            for offset, op in enumerate(txn.operations):
                i = lo + offset
                assert bool(ch.op_kind[i]) == op.is_write
                assert ch.key_table.values[ch.op_key[i]] == op.key
                assert ch.value_table.values[ch.op_value[i]] == op.value
                assert ch.op_repr(i) == repr(op)

    def test_wr_is_taken_from_the_history_not_reinferred(self):
        t1 = Transaction([write("x", 1)], label="w")
        t2 = Transaction([read("x", 1)], label="r")
        history = History.from_sessions([[t1], [t2]], wr={})  # explicitly empty
        ch = compile_history(history)
        assert all(w == -1 for w in ch.op_wr)
        # An empty wr makes the read thin-air at every level.
        assert not check_compiled(ch, IsolationLevel.READ_COMMITTED).is_consistent

    def test_history_compile_convenience(self):
        ch = all_paper_histories()["fig_4d"].compile()
        assert isinstance(ch, CompiledHistory)

    def test_memory_footprint_reports_components(self):
        ch = compile_history(all_paper_histories()["fig_1b"])
        footprint = ch.memory_footprint()
        assert set(footprint) == {"arrays_bytes", "intern_tables_bytes", "total_bytes"}
        assert (
            footprint["total_bytes"]
            == footprint["arrays_bytes"] + footprint["intern_tables_bytes"]
        )
        assert footprint["total_bytes"] > 0


class TestPaperHistoryParity:
    @pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
    def test_engines_identical_on_paper_histories(self, name):
        history = all_paper_histories()[name]
        expected = dict(zip(LEVELS, PAPER_VERDICTS[name]))
        for level in LEVELS:
            _obj, comp = assert_engines_identical(history, level)
            assert comp.is_consistent == expected[level]

    def test_check_accepts_a_compiled_history(self):
        history = all_paper_histories()["fig_4a"]
        ch = compile_history(history)
        via_compiled = check(ch, IsolationLevel.READ_COMMITTED)
        via_history = check(history, IsolationLevel.READ_COMMITTED)
        assert [v.describe() for v in via_compiled.violations] == [
            v.describe() for v in via_history.violations
        ]

    def test_check_all_levels_compiled_engine(self):
        history = all_paper_histories()["fig_1b"]
        compiled = check_all_levels(history)
        objects = check_all_levels(history, engine="object")
        for level in LEVELS:
            assert compiled[level].is_consistent == objects[level].is_consistent
            assert [v.describe() for v in compiled[level].violations] == [
                v.describe() for v in objects[level].violations
            ]

    def test_engine_validation(self):
        history = all_paper_histories()["fig_4d"]
        with pytest.raises(ValueError):
            check(history, IsolationLevel.READ_COMMITTED, engine="warp")
        with pytest.raises(ValueError):
            check(compile_history(history), engine="object")


class TestBuilder:
    def test_builder_matches_compile_of_equivalent_history(self):
        history = all_paper_histories()["fig_1b"]
        builder = CompiledHistoryBuilder()
        for sid, session in enumerate(history.sessions):
            for tid in session:
                txn = history.transactions[tid]
                builder.add_transaction(
                    sid,
                    txn.label,
                    txn.committed,
                    [(op.is_write, op.key, op.value) for op in txn.operations],
                )
        ch = builder.finalize()
        direct = compile_history(history)
        assert list(ch.op_key) == list(direct.op_key)
        assert list(ch.op_wr) == list(direct.op_wr)
        assert list(ch.txn_start) == list(direct.txn_start)
        assert ch.sessions == direct.sessions
        for level in LEVELS:
            a = check_compiled(ch, level)
            b = check_compiled(direct, level)
            assert [v.describe() for v in a.violations] == [
                v.describe() for v in b.violations
            ]

    def test_out_of_order_sessions_renumber_like_from_sessions(self):
        builder = CompiledHistoryBuilder()
        builder.add_transaction(1, "b", True, [(True, "x", 2)])
        builder.add_transaction(0, "a", True, [(True, "x", 1)])
        ch = builder.finalize()
        # Session 0 comes first after sorting, so its transaction gets tid 0.
        assert ch.labels == {0: "a", 1: "b"}
        assert ch.sessions == [[0], [1]]

    def test_fill_gaps_materializes_empty_sessions(self):
        builder = CompiledHistoryBuilder()
        builder.add_transaction(2, None, True, [(True, "x", 1)])
        ch = builder.finalize(fill_gaps=True)
        assert ch.num_sessions == 3
        assert ch.sessions == [[], [], [0]]


class TestLoadCompiled:
    @pytest.mark.parametrize(
        "fmt,ext",
        [("native", ".json"), ("plume", ".plume"), ("dbcop", ".dbcop"), ("cobra", ".cobra")],
    )
    def test_load_compiled_matches_load_then_compile(self, tmp_path, fmt, ext):
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=30, num_keys=5, seed=7,
                abort_probability=0.1, mode="random_reads",
            )
        )
        path = tmp_path / f"h{ext}"
        save_history(history, str(path), fmt=fmt)
        direct = load_compiled(str(path), fmt=fmt)
        via_object = compile_history(load_history(str(path), fmt=fmt))
        for level in LEVELS:
            a = check_compiled(direct, level)
            b = check_compiled(via_object, level)
            assert a.is_consistent == b.is_consistent
            assert [v.describe() for v in a.violations] == [
                v.describe() for v in b.violations
            ]


class TestHypothesisParity:
    """The acceptance property: engines agree on verdict, kinds, witnesses."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(config=history_configs, level=st.sampled_from(LEVELS))
    def test_compiled_matches_object_on_random_histories(self, config, level):
        history = generate_random_history(config)
        assert_engines_identical(history, level)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        config=history_configs,
        kind=st.sampled_from(INJECTABLE_ANOMALIES),
        level=st.sampled_from(LEVELS),
    )
    def test_compiled_matches_object_with_injected_anomalies(self, config, kind, level):
        history = inject_anomaly(generate_random_history(config), kind)
        assert_engines_identical(history, level)

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(config=history_configs)
    def test_builder_path_matches_object_path_via_plume(self, config, tmp_path_factory):
        """File -> builder -> compiled check == file -> History -> object check."""
        history = generate_random_history(config)
        if history.num_transactions == 0:
            return
        path = tmp_path_factory.mktemp("compiled") / "h.plume"
        save_history(history, str(path), fmt="plume")
        ch = load_compiled(str(path), fmt="plume")
        loaded = load_history(str(path), fmt="plume")
        for level in LEVELS:
            a = check_compiled(ch, level)
            b = check(loaded, level, engine="object")
            assert a.is_consistent == b.is_consistent, level
            assert [v.describe() for v in a.violations] == [
                v.describe() for v in b.violations
            ], level


def _saturated_relation(ch, level):
    """The compiled check's saturated relation at ``level``, or ``None`` at a
    CC check whose ``so ∪ wr`` is cyclic (it saturates nothing)."""
    bad_ops = check_read_consistency_compiled(ch).bad_ops
    relation = _relation_from_compiled(ch)
    if level is IsolationLevel.READ_COMMITTED:
        saturate_rc_compiled(ch, relation, bad_ops)
    elif level is IsolationLevel.READ_ATOMIC:
        saturate_ra_compiled(ch, relation, bad_ops)
    else:
        hb, _ = compute_happens_before_compiled(ch, bad_ops, relation)
        if hb is None:
            return None
        saturate_cc_compiled(ch, relation, hb, bad_ops)
    return relation


def _replayed_labels(relation):
    """Every edge's primary and witness label, by replaying the whole logs.

    The reference for the relation's targeted lookups: first occurrence
    wins in ``so``, ``wr``, ``co`` order, and a keyed ``wr`` label is
    preferred over a bare ``so`` one in a witness.
    """
    primary, keyed = {}, {}
    for edge in relation._so_log:
        primary.setdefault(edge, ("so", None))
    for edge, key in zip(relation._wr_log, relation._wr_keys):
        name = relation._decode_key(key)
        primary.setdefault(edge, ("wr", name))
        if name is not None:
            keyed.setdefault(edge, ("wr", name))
    for edge, key in zip(relation._co_log, relation._co_keys):
        primary.setdefault(edge, ("co", relation._decode_key(key)))
    witness = {
        edge: keyed.get(edge, label) if label == ("so", None) else label
        for edge, label in primary.items()
    }
    return primary, witness


class TestTargetedLabels:
    """Labels looked up for a witness's edges alone equal the whole-log replay."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        config=history_configs,
        kind=st.sampled_from(INJECTABLE_ANOMALIES),
        anomaly_seed=st.integers(0, 1000),
        level=st.sampled_from(LEVELS),
    )
    def test_targeted_labels_equal_the_full_replay(self, config, kind, anomaly_seed, level):
        history = generate_random_history(config)
        try:
            history = inject_anomaly(history, kind, rng=random.Random(anomaly_seed))
        except ValueError:
            pass  # some anomalies need a minimum history shape
        ch = compile_history(history)
        relation = _saturated_relation(ch, level)
        if relation is None:
            return
        primary, witness = _replayed_labels(relation)
        for violation in relation.find_cycles():
            for edge in violation.edges:
                packed = (edge.source << EDGE_SHIFT) | edge.target
                assert (edge.reason, edge.key) == witness[packed]
        fresh = _saturated_relation(ch, level)
        for packed in primary:
            source, target = packed >> EDGE_SHIFT, packed & EDGE_MASK
            assert fresh.edge_label(source, target) == primary[packed]
            assert fresh.witness_label(source, target) == witness[packed]
            if (target << EDGE_SHIFT) | source not in primary:
                assert fresh.edge_label(target, source) is None
