"""Witness post-processing utilities (Section 3.4).

The checkers already report one cycle per strongly connected component of
the inferred commit relation.  This module provides the extra
witness-reporting strategies described in the paper:

* :func:`summarize` -- count violations by kind (used by the Table 1
  reproduction and the CLI).
* :func:`shortest_cycle_through` -- BFS-based minimization of a cycle witness
  inside its SCC, producing the smallest witness through a chosen
  transaction.
* :func:`rank_witnesses` -- order cycle witnesses so those with the fewest
  inferred (non-``so ∪ wr``) edges come first, which the paper argues exposes
  the "weakest and thus most serious" anomalies.

The CLI imports :func:`format_report` before it checks anything, so this
module imports the violation types inside the functions that build or
inspect them; by then the check has loaded them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

if TYPE_CHECKING:
    from repro.core.commit import CommitRelation
    from repro.core.violations import CycleViolation, Violation, ViolationKind
    from repro.graph.digraph import DiGraph

__all__ = ["summarize", "shortest_cycle_through", "rank_witnesses", "format_report"]


def summarize(violations: Sequence[Violation]) -> Dict[ViolationKind, int]:
    """Count the reported violations by kind."""
    counts: Dict[ViolationKind, int] = {}
    for violation in violations:
        counts[violation.kind] = counts.get(violation.kind, 0) + 1
    return counts


def shortest_cycle_through(
    graph: DiGraph, vertex: int, restrict_to: Optional[Set[int]] = None
) -> Optional[List[int]]:
    """The shortest cycle through ``vertex``, by BFS, or ``None`` if none exists.

    When ``restrict_to`` is given the search stays inside that vertex set
    (typically the SCC containing ``vertex``), which keeps the search linear
    in the component size.
    """
    parents: Dict[int, int] = {}
    queue = deque([vertex])
    visited = {vertex}
    while queue:
        current = queue.popleft()
        for succ in graph.successors(current):
            if restrict_to is not None and succ not in restrict_to:
                continue
            if succ == vertex:
                path = [current]
                while path[-1] != vertex:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            if succ not in visited:
                visited.add(succ)
                parents[succ] = current
                queue.append(succ)
    return None


def minimize_cycle_witness(
    relation: CommitRelation, witness: CycleViolation
) -> CycleViolation:
    """Replace a cycle witness by the shortest cycle through one of its transactions."""
    from repro.core.violations import CycleEdge, CycleViolation, ViolationKind

    if not witness.edges:
        return witness
    members = set(witness.transactions)
    best: Optional[List[int]] = None
    for vertex in witness.transactions:
        cycle = shortest_cycle_through(relation.graph, vertex, restrict_to=None)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            best = cycle
    if best is None or len(best) >= len(witness.edges):
        return witness
    edges: List[CycleEdge] = []
    for i, source in enumerate(best):
        target = best[(i + 1) % len(best)]
        label = relation.witness_label(source, target) or ("co", None)
        edges.append(CycleEdge(source, target, label[0], label[1]))
    names = " -> ".join(relation.name_of(t) for t in best)
    kind = (
        ViolationKind.CAUSALITY_CYCLE
        if all(edge.reason in ("so", "wr") for edge in edges)
        else ViolationKind.COMMIT_ORDER_CYCLE
    )
    return CycleViolation(
        kind=kind,
        message=f"cycle over transactions {names} -> {relation.name_of(best[0])}",
        edges=tuple(edges),
    )


def rank_witnesses(violations: Sequence[Violation]) -> List[Violation]:
    """Order violations: read-level anomalies first, then cycles by inferred-edge count."""
    from repro.core.violations import CycleViolation

    def sort_key(violation: Violation):
        if isinstance(violation, CycleViolation):
            return (1, violation.inferred_edges, len(violation.edges))
        return (0, 0, 0)

    return sorted(violations, key=sort_key)


def format_report(violations: Sequence[Violation], limit: int = 20) -> str:
    """Render a violation list as a human-readable report."""
    if not violations:
        return "no violations found"
    lines = [f"{len(violations)} violation(s) found:"]
    for kind, count in summarize(violations).items():
        lines.append(f"  {kind.value}: {count}")
    lines.append("witnesses:")
    for violation in rank_witnesses(violations)[:limit]:
        lines.append(f"  - {violation.describe()}")
    if len(violations) > limit:
        lines.append(f"  ... ({len(violations) - limit} more)")
    return "\n".join(lines)
