"""Graph substrate used by the isolation checkers and baselines.

The checkers of the paper reduce consistency to acyclicity of an inferred
commit relation ``co'``; this package provides the directed-graph machinery
needed for that reduction:

* :mod:`repro.graph.digraph` -- a compact adjacency-list directed graph
  (the baselines' builder-friendly representation).
* :mod:`repro.graph.csr` -- frozen CSR snapshots of packed-edge logs plus
  the kernels over them (Tarjan SCC, Kahn toposort, cycle extraction); the
  checkers' commit relation and causality graph freeze into this form.
* :mod:`repro.graph.cycles` -- Tarjan strongly-connected components,
  iterative topological sort, and cycle-witness extraction over DiGraph.
* :mod:`repro.graph.vector_clock` -- the vector clocks used by Algorithm 3
  (``ComputeHB``) and by the Plume-like baseline.
* :mod:`repro.graph.tree_clock` -- the tree-clock data structure (Mathur et
  al. 2022) that the Plume baseline uses for faster joins.

The names below are imported on first access (PEP 562), so importing one
submodule (the checkers import :mod:`repro.graph.csr`) loads no other.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DiGraph": "repro.graph.digraph",
    "FrozenGraph": "repro.graph.csr",
    "freeze_packed": "repro.graph.csr",
    "scc_frozen": "repro.graph.csr",
    "toposort_frozen": "repro.graph.csr",
    "find_cycle_in_component_frozen": "repro.graph.csr",
    "strongly_connected_components": "repro.graph.cycles",
    "topological_sort": "repro.graph.cycles",
    "has_cycle": "repro.graph.cycles",
    "find_cycle": "repro.graph.cycles",
    "find_cycle_in_component": "repro.graph.cycles",
    "VectorClock": "repro.graph.vector_clock",
    "TreeClock": "repro.graph.tree_clock",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
