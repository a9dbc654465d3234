"""Tests for the commit relation (co') and the witness post-processing."""

import pytest

from repro.core.commit import CommitRelation
from repro.core.model import History, Transaction, read, write
from repro.core.rc import check_rc
from repro.core.violations import CycleViolation, ViolationKind
from repro.core.witnesses import (
    format_report,
    minimize_cycle_witness,
    rank_witnesses,
    shortest_cycle_through,
    summarize,
)
from repro.graph.digraph import EDGE_SHIFT, MAX_PACKED_EDGE, DiGraph

from helpers import fig_1a, fig_4a


def simple_history():
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([read("x", 1)], label="t3")
    return History.from_sessions([[t1, t2], [t3]])


class TestCommitRelation:
    def test_so_and_wr_edges_present_initially(self):
        relation = CommitRelation(simple_history())
        assert relation.edge_label(0, 1) == ("so", None)
        assert relation.edge_label(0, 2) == ("wr", "x")
        assert relation.num_inferred_edges == 0

    def test_add_inferred_labels_edge(self):
        relation = CommitRelation(simple_history())
        relation.add_inferred(1, 0, key="x")
        assert relation.edge_label(1, 0) == ("co", "x")
        assert relation.num_inferred_edges == 1

    def test_a_label_looked_up_before_an_append_follows_it(self):
        relation = CommitRelation(simple_history())
        assert relation.edge_label(1, 0) is None
        assert relation.witness_label(1, 0) is None
        relation.add_inferred(1, 0, key="x")
        assert relation.edge_label(1, 0) == ("co", "x")
        assert relation.witness_label(1, 0) == ("co", "x")

    def test_duplicate_inferred_edges_ignored(self):
        relation = CommitRelation(simple_history())
        relation.add_inferred(1, 0, key="x")
        relation.add_inferred(1, 0, key="y")
        assert relation.num_inferred_edges == 1

    def test_inferred_edge_over_existing_so_edge_ignored(self):
        relation = CommitRelation(simple_history())
        relation.add_inferred(0, 1, key="x")
        assert relation.edge_label(0, 1) == ("so", None)
        assert relation.num_inferred_edges == 0

    def test_self_edges_rejected(self):
        relation = CommitRelation(simple_history())
        with pytest.raises(ValueError):
            relation.add_inferred(1, 1)

    def test_acyclic_relation_linearizes(self):
        relation = CommitRelation(simple_history())
        order = relation.linearize()
        assert order is not None
        assert order.index(0) < order.index(1)

    def test_cyclic_relation_does_not_linearize(self):
        relation = CommitRelation(simple_history())
        relation.add_inferred(1, 0, key="x")
        relation.add_inferred(2, 1, key="x")  # makes 0->1? no: build a cycle 0->1 (so), 1->0
        assert relation.linearize() is None or relation.is_acyclic() is False

    def test_find_cycles_classifies_pure_so_wr_cycle_as_causality(self):
        t1 = Transaction([write("x", 1), read("y", 2)], label="t1")
        t2 = Transaction([write("y", 2), read("x", 1)], label="t2")
        history = History.from_sessions([[t1], [t2]])
        relation = CommitRelation(history)
        cycles = relation.find_cycles()
        assert len(cycles) == 1
        assert cycles[0].kind is ViolationKind.CAUSALITY_CYCLE

    def test_find_cycles_classifies_mixed_cycle_as_commit_order(self):
        relation = CommitRelation(simple_history())
        relation.add_inferred(1, 0, key="x")
        cycles = relation.find_cycles()
        assert len(cycles) == 1
        assert cycles[0].kind is ViolationKind.COMMIT_ORDER_CYCLE
        assert cycles[0].inferred_edges == 1

    def test_max_witnesses_limits_cycles(self):
        history = fig_4a()
        relation = CommitRelation(history)
        relation.add_inferred(1, 0, key="x")
        assert len(relation.find_cycles(max_witnesses=1)) == 1

    def test_add_inferred_rejects_overflowing_transaction_ids(self):
        # Regression: a tid >= 2**32 used to silently corrupt the packed
        # edge (src << 32 | dst collides) instead of raising.
        relation = CommitRelation(simple_history())
        with pytest.raises(ValueError, match="packed-edge range"):
            relation.add_inferred(1 << EDGE_SHIFT, 0, key="x")
        with pytest.raises(ValueError, match="packed-edge range"):
            relation.add_inferred(0, 1 << EDGE_SHIFT, key="x")
        assert relation.num_inferred_edges == 0

    def test_add_inferred_packed_rejects_out_of_range_edges(self):
        relation = CommitRelation(simple_history())
        with pytest.raises(ValueError, match="out of range"):
            relation.add_inferred_packed(MAX_PACKED_EDGE + 1)
        with pytest.raises(ValueError, match="out of range"):
            relation.add_inferred_packed(-1)
        assert relation.num_inferred_edges == 0


def so_and_wr_history():
    """A session reads its predecessor's write, closing a causality cycle.

    The t1 -> t2 edge is both ``so`` and ``wr[x]``; t2 -> t1 is ``wr[y]``.
    """
    t1 = Transaction([write("x", 1), read("y", 1)], label="t1")
    t2 = Transaction([read("x", 1), write("y", 1)], label="t2")
    return History.from_sessions([[t1, t2]])


class TestKeyedWitnessLabels:
    """Regression: first-label-wins must not drop the witnessing wr key."""

    def test_keyed_label_kept_alongside_so(self):
        relation = CommitRelation(so_and_wr_history())
        # The primary label stays `so` (first recorded), but the keyed wr
        # label is retained and preferred for witnesses.
        assert relation.edge_label(0, 1) == ("so", None)
        assert relation.witness_label(0, 1) == ("wr", "x")

    def test_inferred_key_does_not_shadow_so_witness(self):
        # A co attempt over an existing so-only edge must not reclassify it.
        t3 = Transaction([write("z", 1)], label="t3")
        t4 = Transaction([write("z", 2)], label="t4")
        history = History.from_sessions([[t3, t4]])
        bare = CommitRelation(history)
        bare.add_inferred(0, 1, key="z")
        assert bare.witness_label(0, 1) == ("so", None)

    def test_commit_relation_cycle_witness_names_the_key(self):
        relation = CommitRelation(so_and_wr_history())
        cycles = relation.find_cycles()
        assert len(cycles) == 1
        assert cycles[0].kind is ViolationKind.CAUSALITY_CYCLE
        labels = {(edge.source, edge.target): (edge.reason, edge.key) for edge in cycles[0].edges}
        assert labels[(0, 1)] == ("wr", "x")
        assert labels[(1, 0)] == ("wr", "y")

    def test_causality_cycle_witness_names_the_key_at_all_levels(self):
        from repro.core import IsolationLevel, check

        history = so_and_wr_history()
        for level in IsolationLevel:
            result = check(history, level)
            cycles = result.violations_of_kind(ViolationKind.CAUSALITY_CYCLE)
            assert cycles, level
            witness = cycles[0]
            labels = {
                (edge.source, edge.target): (edge.reason, edge.key)
                for edge in witness.edges
            }
            # Before the fix the so-first edge lost its wr key and was
            # reported as bare `so`.
            assert labels[(0, 1)] == ("wr", "x"), level
            assert labels[(1, 0)] == ("wr", "y"), level


class TestWitnessUtilities:
    def test_summarize_counts_by_kind(self):
        result = check_rc(fig_1a())
        counts = summarize(result.violations)
        assert counts[ViolationKind.COMMIT_ORDER_CYCLE] >= 1

    def test_rank_witnesses_prefers_fewer_inferred_edges(self):
        causality = CycleViolation(
            kind=ViolationKind.CAUSALITY_CYCLE, message="", edges=()
        )
        result = check_rc(fig_1a())
        ranked = rank_witnesses(list(result.violations) + [causality])
        assert ranked[0].kind is ViolationKind.CAUSALITY_CYCLE

    def test_shortest_cycle_through_finds_minimal_cycle(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
        cycle = shortest_cycle_through(graph, 0)
        assert cycle is not None and len(cycle) == 2

    def test_shortest_cycle_through_none_when_acyclic(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert shortest_cycle_through(graph, 0) is None

    def test_minimize_cycle_witness_never_grows(self):
        history = fig_1a()
        result = check_rc(history)
        relation = CommitRelation(history)
        from repro.core.rc import saturate_rc

        saturate_rc(history, relation, set())
        for violation in result.violations_of_kind(ViolationKind.COMMIT_ORDER_CYCLE):
            minimized = minimize_cycle_witness(relation, violation)
            assert len(minimized.edges) <= len(violation.edges)

    def test_format_report_mentions_counts(self):
        result = check_rc(fig_1a())
        text = format_report(result.violations)
        assert "violation" in text
        assert "commit order cycle" in text

    def test_format_report_for_clean_history(self):
        assert format_report([]) == "no violations found"
