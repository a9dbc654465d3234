"""A compact directed graph over dense integer vertices.

The graph is deliberately small and allocation-light: vertices are integers
``0..n-1`` and adjacency is a list of lists.  Parallel edges are tolerated on
insertion and de-duplicated lazily, because the checkers may add the same
commit-order edge many times (e.g. once per witnessing read) and only the
reachability structure matters for acyclicity.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = [
    "DiGraph",
    "EDGE_SHIFT",
    "EDGE_MASK",
    "MAX_PACKED_EDGE",
    "pack_edge",
    "unpack_edge",
]

#: Bit layout of a packed edge: ``(source << EDGE_SHIFT) | target``.  One
#: machine-word int per edge instead of a two-tuple; shared by the packed-edge
#: mode of :class:`~repro.core.commit.CommitRelation` and the compiled
#: saturation kernels' co logs.  32 bits per endpoint caps graphs at ~4.3e9
#: vertices, far beyond any history the tester can hold in memory -- but the
#: cap is *enforced*: a vertex id outside ``[0, EDGE_MASK]`` would silently
#: bleed into the other endpoint's bits (``src << 32 | dst`` collides), so
#: packing and edge insertion raise ``ValueError`` instead of corrupting.
EDGE_SHIFT = 32
EDGE_MASK = (1 << EDGE_SHIFT) - 1

#: Largest value a packed edge can take: both endpoints at ``EDGE_MASK``.
MAX_PACKED_EDGE = (EDGE_MASK << EDGE_SHIFT) | EDGE_MASK


def _check_endpoints(source: int, target: int) -> None:
    """Reject endpoints that cannot be packed without collision."""
    raise ValueError(
        f"node id out of packed-edge range [0, {EDGE_MASK}]: "
        f"edge {source} -> {target} would corrupt the packed representation"
    )


def pack_edge(source: int, target: int) -> int:
    """Pack the edge ``source -> target`` into one integer.

    Raises ``ValueError`` when either endpoint falls outside
    ``[0, EDGE_MASK]`` -- out-of-range ids cannot be represented and would
    silently collide with other edges.
    """
    # A negative endpoint makes the bitwise-or negative, so one shift test
    # catches both overflow and sign.
    if (source | target) >> EDGE_SHIFT:
        _check_endpoints(source, target)
    return (source << EDGE_SHIFT) | target


def unpack_edge(edge: int) -> Tuple[int, int]:
    """Invert :func:`pack_edge`."""
    return edge >> EDGE_SHIFT, edge & EDGE_MASK


class DiGraph:
    """A directed graph with dense integer vertices ``0..n-1``."""

    __slots__ = ("_succ", "_edge_count")

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices > EDGE_MASK + 1:
            raise ValueError(
                f"DiGraph supports at most {EDGE_MASK + 1} vertices "
                f"(packed-edge ids are {EDGE_SHIFT}-bit); got {num_vertices}"
            )
        self._succ: List[List[int]] = [[] for _ in range(num_vertices)]
        self._edge_count = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Tuple[int, int]]) -> "DiGraph":
        """Build a graph with ``num_vertices`` vertices from an edge iterable."""
        graph = cls(num_vertices)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_vertex(self) -> int:
        """Add a fresh vertex and return its id."""
        if len(self._succ) > EDGE_MASK:
            raise ValueError(
                f"DiGraph supports at most {EDGE_MASK + 1} vertices "
                f"(packed-edge ids are {EDGE_SHIFT}-bit)"
            )
        self._succ.append([])
        return len(self._succ) - 1

    def add_edge(self, source: int, target: int) -> None:
        """Add the edge ``source -> target`` (parallel edges are allowed).

        Endpoints outside ``[0, EDGE_MASK]`` raise ``ValueError``: such ids
        cannot round-trip through the packed-edge form used by the commit
        relation and would silently collide there.
        """
        if (source | target) >> EDGE_SHIFT:
            _check_endpoints(source, target)
        self._succ[source].append(target)
        self._edge_count += 1

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add many edges at once."""
        for u, v in edges:
            self.add_edge(u, v)

    def add_packed_edge(self, edge: int) -> None:
        """Add one packed edge (see :func:`pack_edge`).

        A value outside ``[0, MAX_PACKED_EDGE]`` means the *source* endpoint
        overflowed its 32 bits (a corrupt pack -- target overflow must be
        caught at pack time) and raises ``ValueError``.
        """
        if edge > MAX_PACKED_EDGE or edge < 0:
            raise ValueError(
                f"packed edge {edge} out of range: source id exceeds "
                f"{EDGE_MASK} (see pack_edge)"
            )
        self._succ[edge >> EDGE_SHIFT].append(edge & EDGE_MASK)
        self._edge_count += 1

    # -- queries --------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of edge insertions performed (parallel edges counted)."""
        return self._edge_count

    def successors(self, vertex: int) -> List[int]:
        """The successor list of ``vertex`` (may contain duplicates)."""
        return self._succ[vertex]

    def unique_successors(self, vertex: int) -> List[int]:
        """The successor list of ``vertex`` with duplicates removed (stable order)."""
        seen: Set[int] = set()
        result: List[int] = []
        for succ in self._succ[vertex]:
            if succ not in seen:
                seen.add(succ)
                result.append(succ)
        return result

    def has_edge(self, source: int, target: int) -> bool:
        """True when an edge ``source -> target`` exists."""
        return target in self._succ[source]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all edges (including parallel copies)."""
        for u, targets in enumerate(self._succ):
            for v in targets:
                yield (u, v)

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        rev = DiGraph(self.num_vertices)
        for u, v in self.edges():
            rev.add_edge(v, u)
        return rev

    def subgraph(self, vertices: Sequence[int]) -> Tuple["DiGraph", Dict[int, int]]:
        """Return the induced subgraph and the old->new vertex mapping."""
        mapping = {v: i for i, v in enumerate(vertices)}
        sub = DiGraph(len(vertices))
        for old in vertices:
            for succ in self._succ[old]:
                if succ in mapping:
                    sub.add_edge(mapping[old], mapping[succ])
        return sub, mapping

    def out_degree(self, vertex: int) -> int:
        """Out-degree of ``vertex`` (counting parallel edges)."""
        return len(self._succ[vertex])

    def reachable_from(self, sources: Iterable[int]) -> Set[int]:
        """All vertices reachable from ``sources`` (including the sources)."""
        stack = list(sources)
        seen: Set[int] = set(stack)
        while stack:
            vertex = stack.pop()
            for succ in self._succ[vertex]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def __repr__(self) -> str:
        return f"<DiGraph vertices={self.num_vertices} edges={self.num_edges}>"
