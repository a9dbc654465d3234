"""Tests for the frozen CSR relation core (repro.graph.csr + CommitRelation).

The freeze is the relation layer's single de-duplication point, so these
tests pin three properties the engines rely on:

* the frozen CSR graph is isomorphic to a reference ``DiGraph`` built from
  the same edge set (same SCC partition, same reachability, same
  acyclicity verdict), hypothesis-tested on random edge multisets;
* duplicated edges -- parallel ``co`` insertions included -- never
  double-count in SCC, toposort, linearization, or inferred-edge counts;
* the numpy-vectorized freeze and the pure-Python fallback produce
  bit-identical structures, including at the 32-bit packed-edge boundary.

The freeze runs its numpy side only once numpy is loaded, so this module
loads it first (``csr.load_numpy()``, a no-op without numpy), and
``csr.numpy_disabled()`` pins the fallback.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commit import CommitRelation
from repro.core.model import History, Transaction, read, write
from repro.graph import csr
from repro.graph.csr import (
    FrozenGraph,
    distinct_edge_count,
    find_cycle_in_component_frozen,
    freeze_packed,
    scc_frozen,
    toposort_frozen,
)
from repro.graph.cycles import strongly_connected_components, topological_sort
from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT, DiGraph


def _pack_all(edges):
    return [(u << EDGE_SHIFT) | v for u, v in edges]


@pytest.fixture(autouse=True, scope="module")
def _numpy_loaded():
    csr.load_numpy()


def _freeze(n, edges):
    return freeze_packed(n, (_pack_all(edges),))


def _fallback_freeze(n, packed_runs):
    """Run freeze_packed with numpy disabled (the CI-runner code path)."""
    with csr.numpy_disabled():
        graph = freeze_packed(n, packed_runs)
    assert graph._targets_np is None  # the fallback ran
    return graph


edge_sets = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40
        ),
    )
)


class TestFrozenGraphBasics:
    def test_empty(self):
        graph = freeze_packed(3, ())
        assert graph.num_vertices == 3
        assert graph.num_edges == 0
        assert graph.successors(1) == []
        assert toposort_frozen(graph) is not None

    def test_sorted_dedup_slices(self):
        graph = _freeze(4, [(0, 2), (0, 1), (0, 2), (3, 0), (3, 0)])
        assert graph.num_edges == 3
        assert graph.successors(0) == [1, 2]
        assert graph.successors(3) == [0]
        assert graph.has_edge(0, 2)
        assert not graph.has_edge(2, 0)
        assert list(graph.edges()) == [(0, 1), (0, 2), (3, 0)]

    def test_multiple_runs_concatenate(self):
        graph = freeze_packed(3, (_pack_all([(0, 1)]), array("Q", _pack_all([(1, 2), (0, 1)]))))
        assert graph.num_edges == 2
        assert graph.successors(0) == [1]
        assert graph.successors(1) == [2]

    def test_distinct_edge_count(self):
        runs = (_pack_all([(0, 1), (1, 2)]), _pack_all([(0, 1)]))
        assert distinct_edge_count(runs) == 2
        assert distinct_edge_count(()) == 0


class TestFrozenMatchesDiGraph:
    """The frozen CSR graph is isomorphic to the dict/list DiGraph."""

    @settings(max_examples=120, deadline=None)
    @given(edge_sets)
    def test_scc_partition_reachability_and_acyclicity(self, case):
        n, edges = case
        reference = DiGraph.from_edges(n, edges)
        frozen = _freeze(n, edges)

        ref_partition = {frozenset(c) for c in strongly_connected_components(reference)}
        frozen_partition = {frozenset(c) for c in scc_frozen(frozen)}
        assert frozen_partition == ref_partition

        for vertex in range(n):
            assert frozen.reachable_from([vertex]) == reference.reachable_from(
                [vertex]
            )

        ref_order = topological_sort(reference)
        frozen_order = toposort_frozen(frozen)
        assert (frozen_order is None) == (ref_order is None)
        if frozen_order is not None:
            # Any valid order suffices; validate it against the edge set.
            position = {v: i for i, v in enumerate(frozen_order)}
            assert sorted(frozen_order) == list(range(n))
            assert all(position[u] < position[v] for u, v in set(edges) if u != v)

    @settings(max_examples=80, deadline=None)
    @given(edge_sets)
    def test_extracted_cycles_are_real_cycles(self, case):
        n, edges = case
        reference = DiGraph.from_edges(n, edges)
        frozen = _freeze(n, edges)
        for component in scc_frozen(frozen):
            if len(component) <= 1:
                continue
            cycle = find_cycle_in_component_frozen(frozen, component)
            # A self-loop inside the SCC may extract as a 1-cycle, exactly
            # like the DiGraph reference extractor.
            assert len(set(cycle)) == len(cycle) >= 1
            assert set(cycle) <= set(component)
            for i, source in enumerate(cycle):
                target = cycle[(i + 1) % len(cycle)]
                assert reference.has_edge(source, target)

    @settings(max_examples=60, deadline=None)
    @given(edge_sets)
    def test_fallback_freeze_is_bit_identical(self, case):
        n, edges = case
        packed = _pack_all(edges)
        vectorized = freeze_packed(n, (packed,))
        if edges:
            assert (vectorized._targets_np is not None) == csr.HAVE_NUMPY
        fallback = _fallback_freeze(n, (packed,))
        assert fallback.offsets == vectorized.offsets
        assert fallback.targets == vectorized.targets


class TestPackedEdgeBoundary:
    """Freeze kernels at the 32-bit packed-edge endpoint boundary.

    A packed edge with both endpoints at ``EDGE_MASK`` occupies all 64 bits,
    so the sort/dedup kernels must treat the logs as unsigned -- a signed
    row would flip the order (or overflow outright).
    """

    def test_distinct_count_at_boundary(self):
        top = (EDGE_MASK << EDGE_SHIFT) | EDGE_MASK
        low = (1 << EDGE_SHIFT) | 2
        runs = (array("Q", [top, low, top]), [low])
        assert distinct_edge_count(runs) == 2

    def test_fallback_agrees_at_boundary(self):
        top = (EDGE_MASK << EDGE_SHIFT) | EDGE_MASK
        runs = (array("Q", [top, (5 << EDGE_SHIFT) | 1, top]),)
        with csr.numpy_disabled():
            assert distinct_edge_count(runs) == 2

    def test_boundary_edges_sort_as_unsigned(self):
        # A source id with the top bit of its 32-bit half set must sort
        # *after* small sources, not before (as a signed row would).
        high_src = EDGE_MASK  # packs into the sign bit of an int64
        n = 4
        graph = freeze_packed(n, ([(3 << EDGE_SHIFT) | 1, (0 << EDGE_SHIFT) | 2],))
        assert graph.successors(3) == [1]
        assert graph.successors(0) == [2]
        # The full-width value itself round-trips through the dedup kernel.
        assert distinct_edge_count(([((high_src) << EDGE_SHIFT) | high_src],)) == 1

    def test_commit_relation_rejects_oversized_vertex_count(self):
        with pytest.raises(ValueError, match="at most"):
            CommitRelation(
                names=None, committed=(), num_vertices=EDGE_MASK + 2
            )


def _cyclic_history():
    t1 = Transaction([write("x", 1), read("y", 2)], label="t1")
    t2 = Transaction([write("y", 2), read("x", 1)], label="t2")
    return History.from_sessions([[t1], [t2]])


class TestFreezeIsTheSingleDedupPoint:
    """Regression: duplicated co edges never double-count in SCC/toposort."""

    def test_duplicate_co_edges_collapse_in_graph_and_counts(self):
        t1 = Transaction([write("x", 1)], label="t1")
        t2 = Transaction([write("x", 2)], label="t2")
        t3 = Transaction([read("x", 1)], label="t3")
        history = History.from_sessions([[t1, t2], [t3]])
        relation = CommitRelation(history)
        for _ in range(5):
            relation.add_inferred(2, 1, key="x")
        assert relation.num_inferred_edges == 1
        assert relation.num_edges == 3  # so, wr, one co
        assert relation.graph.successors(2) == [1]

        reference = CommitRelation(history)
        reference.add_inferred(2, 1, key="x")
        assert relation.graph.offsets == reference.graph.offsets
        assert relation.graph.targets == reference.graph.targets
        assert relation.linearize() == reference.linearize()

    def test_duplicate_co_edges_produce_identical_witnesses(self):
        witnesses = []
        for copies in (1, 7):
            relation = CommitRelation(_cyclic_history())
            for _ in range(copies):
                relation.add_inferred(1, 0, key="z")
            witnesses.append([v.message for v in relation.find_cycles()])
        assert witnesses[0] == witnesses[1]

    def test_duplicate_edges_do_not_double_count_in_scc_or_toposort(self):
        packed = _pack_all([(0, 1), (0, 1), (1, 2), (1, 2), (2, 0)])
        frozen = freeze_packed(3, (packed,))
        assert frozen.num_edges == 3
        assert {frozenset(c) for c in scc_frozen(frozen)} == {frozenset({0, 1, 2})}
        assert toposort_frozen(frozen) is None
        acyclic = freeze_packed(3, (_pack_all([(0, 1), (0, 1), (1, 2)]),))
        assert toposort_frozen(acyclic) == [0, 1, 2]


class TestLazyLabels:
    """Labels replay from the retained logs only when a witness needs them."""

    def test_no_label_tables_materialize_on_consistent_history(self):
        t1 = Transaction([write("x", 1)], label="t1")
        t2 = Transaction([read("x", 1)], label="t2")
        relation = CommitRelation(History.from_sessions([[t1], [t2]]))
        assert relation.find_cycles() == []
        assert relation._labels is None  # the happy path never built them

    def test_labels_materialize_for_witnesses_and_stay_correct(self):
        relation = CommitRelation(_cyclic_history())
        cycles = relation.find_cycles()
        assert len(cycles) == 1
        assert relation._labels is not None
        assert relation.edge_label(0, 1) == ("wr", "y") or relation.edge_label(
            0, 1
        ) == ("wr", "x")

    def test_key_id_relations_decode_through_the_table(self):
        key_names = ["alpha", "beta"]
        relation = CommitRelation(
            names=["t0", "t1"], committed=[0, 1], key_names=key_names
        )
        relation._so_log.append((0 << EDGE_SHIFT) | 1)
        relation.add_inferred(1, 0, key=1)
        assert relation.edge_label(1, 0) == ("co", "beta")
        assert relation.edge_label(0, 1) == ("so", None)
        [cycle] = relation.find_cycles()
        assert "t0" in cycle.message and "t1" in cycle.message

    def test_frozen_graph_repr(self):
        graph = _freeze(2, [(0, 1)])
        assert isinstance(graph, FrozenGraph)
        assert "vertices=2" in repr(graph)
