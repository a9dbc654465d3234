"""Frozen CSR (compressed-sparse-row) snapshots of packed-edge graphs.

The checkers accumulate graph edges as flat logs of packed integers
(``(source << EDGE_SHIFT) | target``, see :mod:`repro.graph.digraph`) and
*freeze* them once edge collection is done: :func:`freeze_packed` sorts the
concatenated logs, de-duplicates them in one pass, and materializes two flat
rows -- ``offsets`` and ``targets`` -- that every downstream kernel (Tarjan
SCC, cycle extraction, topological sort, reachability) iterates as plain
index arithmetic.  Freezing is the *single* de-duplication point of the
relation layer: the hot loops never probe a hash table per edge, they only
append, and parallel edges collapse here.

This is the one module that imports numpy, and it does so lazily.
:data:`HAVE_NUMPY` says whether numpy is installed and ``AWDIT_NO_NUMPY``
leaves it on; it is found without importing numpy.  :func:`load_numpy`
imports it on its first call, and the isolation level decides who calls
it: a CC check does, before it reads the history (the CLI, the streaming
checker built for CC, and ``check_cc_compiled``/CC saturation for library
callers), because CC saturation is the one kernel where numpy wins more
than its import costs.  RC and RA never load numpy.  Every numpy side -- the freeze,
distinct count and toposort here, unique-writes resolution in
:mod:`repro.core.compiled.kernels` and CC's kernels in
:mod:`repro.core.compiled.cc` -- reads ``_np`` from this module at call
time, so it runs only once numpy is loaded (and, in the kernels, when its
input clears ``_MIN_VECTOR_READS``).  Otherwise a pure-Python fallback
produces bit-identical structures, so a process without numpy loses only
constant factors, never results.  :func:`numpy_disabled` is the switch the
tests use to force the fallbacks.

Packed edges are unsigned 64-bit values: an endpoint may use all
``EDGE_SHIFT`` bits, so the logs must be ``array('Q')`` (or plain ints) --
a signed ``'q'`` row would overflow at the 32-bit source boundary.  The
kernels here mirror :mod:`repro.graph.cycles` exactly (same iterative
Tarjan, same DFS cycle extraction, same Kahn queue discipline); only the
adjacency representation differs, so for equal successor orders they emit
equal outputs.
"""

from __future__ import annotations

import importlib.util
import os
from array import array
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT

__all__ = [
    "FrozenGraph",
    "freeze_packed",
    "distinct_edge_count",
    "scc_frozen",
    "toposort_frozen",
    "find_cycle_in_component_frozen",
    "HAVE_NUMPY",
    "load_numpy",
    "numpy_disabled",
]

#: Whether numpy is installed and ``AWDIT_NO_NUMPY`` leaves it on.  The
#: flag forces the pure-Python fallbacks even where numpy is installed, so
#: they stay testable on every runner.  :func:`load_numpy` clears this when
#: the import fails.
HAVE_NUMPY = (
    not os.environ.get("AWDIT_NO_NUMPY")
    and importlib.util.find_spec("numpy") is not None
)

#: The numpy module once :func:`load_numpy` has imported it, else ``None``.
_np = None


def load_numpy():
    """Import numpy on the first call; return it, or ``None`` without it.

    A numpy that is installed but does not import (a broken or half-removed
    package) turns the numpy sides off for the rest of the process, so the
    check in progress finishes on the fallbacks with the same output.
    """
    global _np, HAVE_NUMPY
    if _np is None and HAVE_NUMPY:
        try:
            import numpy
        except ImportError:
            HAVE_NUMPY = False
        else:
            _np = numpy
    return _np


@contextmanager
def numpy_disabled():
    """Run the body on the pure-Python sides, as ``AWDIT_NO_NUMPY`` does.

    Within it :func:`load_numpy` returns ``None`` and every side reads
    ``_np`` as ``None``; the state before is restored on exit.  This is the
    one seam the tests and benchmarks use to pin a kernel's fallback.
    """
    global _np, HAVE_NUMPY
    saved = _np, HAVE_NUMPY
    _np, HAVE_NUMPY = None, False
    try:
        yield
    finally:
        _np, HAVE_NUMPY = saved


class FrozenGraph:
    """An immutable CSR graph over dense integer vertices ``0..n-1``.

    ``targets[offsets[v]:offsets[v+1]]`` are the successors of ``v``, sorted
    ascending and duplicate-free.  Both rows are plain Python lists (indexed
    access is what the Python-level kernels do per step, and lists beat
    ``array``/ndarray element access there); ``_targets_np`` optionally keeps
    the vectorized targets row alive for kernels that can use it
    (:func:`toposort_frozen`'s in-degree count).
    """

    __slots__ = ("num_vertices", "offsets", "targets", "_targets_np")

    def __init__(
        self,
        num_vertices: int,
        offsets: List[int],
        targets: List[int],
        targets_np=None,
    ) -> None:
        self.num_vertices = num_vertices
        self.offsets = offsets
        self.targets = targets
        self._targets_np = targets_np

    @property
    def num_edges(self) -> int:
        """Number of distinct edges."""
        return len(self.targets)

    def successors(self, vertex: int) -> List[int]:
        """The sorted, duplicate-free successor list of ``vertex``.

        Allocates a slice; the kernels below iterate the flat rows directly
        instead.  Provided for DiGraph-compatible callers (witness
        minimization, tests).
        """
        return self.targets[self.offsets[vertex] : self.offsets[vertex + 1]]

    def out_degree(self, vertex: int) -> int:
        """Out-degree of ``vertex`` (distinct edges)."""
        return self.offsets[vertex + 1] - self.offsets[vertex]

    def has_edge(self, source: int, target: int) -> bool:
        """True when the edge ``source -> target`` exists."""
        from bisect import bisect_left

        lo, hi = self.offsets[source], self.offsets[source + 1]
        i = bisect_left(self.targets, target, lo, hi)
        return i < hi and self.targets[i] == target

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all edges in (source, target) sorted order."""
        offsets = self.offsets
        targets = self.targets
        for u in range(self.num_vertices):
            for i in range(offsets[u], offsets[u + 1]):
                yield (u, targets[i])

    def reachable_from(self, sources: Iterable[int]):
        """All vertices reachable from ``sources`` (including the sources)."""
        stack = list(sources)
        seen = set(stack)
        offsets = self.offsets
        targets = self.targets
        while stack:
            vertex = stack.pop()
            for i in range(offsets[vertex], offsets[vertex + 1]):
                succ = targets[i]
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def __repr__(self) -> str:
        return f"<FrozenGraph vertices={self.num_vertices} edges={self.num_edges}>"


def _merged_list(edge_runs: Sequence) -> List[int]:
    """Concatenate edge logs into one Python list (fallback path)."""
    merged: List[int] = []
    for run in edge_runs:
        merged.extend(run)
    return merged


def _np_concat(edge_runs: Sequence):
    """Concatenate edge logs into one uint64 ndarray (vectorized path)."""
    parts = []
    for run in edge_runs:
        if not len(run):
            continue
        if isinstance(run, array) and run.typecode == "Q":
            parts.append(_np.frombuffer(run, dtype=_np.uint64))
        else:
            parts.append(_np.asarray(run, dtype=_np.uint64))
    if not parts:
        return _np.empty(0, dtype=_np.uint64)
    if len(parts) == 1:
        return parts[0]
    return _np.concatenate(parts)


def _np_sorted_distinct(merged):
    """Sort a packed-edge ndarray and drop duplicates (returns a new array).

    ``np.sort`` + a neighbour-inequality mask: equivalent to ``np.unique``
    but an order of magnitude faster on packed-edge data (unique's
    reshape/structured handling dominates it).
    """
    edges = _np.array(merged)  # copy: merged may view a caller's buffer
    edges.sort()
    if edges.size <= 1:
        return edges
    mask = _np.empty(edges.size, dtype=bool)
    mask[0] = True
    _np.not_equal(edges[1:], edges[:-1], out=mask[1:])
    return edges[mask]


def freeze_packed(num_vertices: int, edge_runs: Sequence) -> FrozenGraph:
    """Freeze packed-edge logs into a :class:`FrozenGraph`.

    ``edge_runs`` is a sequence of flat edge logs (``array('Q')``, lists, or
    any int sequence); their concatenation may contain duplicates in any
    order.  Every endpoint must be in ``[0, num_vertices)`` -- the logs are
    written by the checkers from already-validated dense ids, so no per-edge
    range check is repeated here.
    """
    if _np is not None:
        merged = _np_concat(edge_runs)
        if merged.size == 0:
            return FrozenGraph(num_vertices, [0] * (num_vertices + 1), [])
        edges = _np_sorted_distinct(merged)
        sources = (edges >> EDGE_SHIFT).astype(_np.int64)
        targets_np = (edges & EDGE_MASK).astype(_np.int64)
        counts = _np.bincount(sources, minlength=num_vertices)
        offsets = _np.zeros(num_vertices + 1, dtype=_np.int64)
        _np.cumsum(counts, out=offsets[1:])
        return FrozenGraph(
            num_vertices, offsets.tolist(), targets_np.tolist(), targets_np
        )

    merged = _merged_list(edge_runs)
    merged.sort()
    counts = [0] * (num_vertices + 1)
    targets: List[int] = []
    append = targets.append
    previous = -1
    for edge in merged:
        if edge == previous:
            continue
        previous = edge
        counts[(edge >> EDGE_SHIFT) + 1] += 1
        append(edge & EDGE_MASK)
    total = 0
    offsets = counts  # reuse in place: prefix-sum the per-source counts
    for i in range(num_vertices + 1):
        total += offsets[i]
        offsets[i] = total
    return FrozenGraph(num_vertices, offsets, targets)


def distinct_edge_count(edge_runs: Sequence) -> int:
    """Number of distinct packed edges across ``edge_runs``."""
    if _np is not None:
        merged = _np_concat(edge_runs)
        if merged.size == 0:
            return 0
        return int(_np_sorted_distinct(merged).size)
    distinct = set()
    for run in edge_runs:
        distinct.update(run)
    return len(distinct)


def scc_frozen(graph: FrozenGraph) -> List[List[int]]:
    """Tarjan's strongly connected components over the frozen rows.

    The mirror of :func:`repro.graph.cycles.strongly_connected_components`:
    components come out in reverse topological order, each as a list of
    vertex ids.  Successors iterate in the frozen (ascending) order, so the
    emission order is a pure function of the distinct edge set -- every
    engine that froze the same edges reports the same components in the
    same order.
    """
    n = graph.num_vertices
    offsets = graph.offsets
    targets = graph.targets
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    components: List[List[int]] = []
    next_index = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        # Work items are (vertex, absolute position into targets).
        work: List[Tuple[int, int]] = [(root, offsets[root])]
        while work:
            vertex, pos = work[-1]
            if pos == offsets[vertex]:
                index_of[vertex] = next_index
                lowlink[vertex] = next_index
                next_index += 1
                stack.append(vertex)
                on_stack[vertex] = 1
            end = offsets[vertex + 1]
            advanced = False
            while pos < end:
                succ = targets[pos]
                pos += 1
                if index_of[succ] == -1:
                    work[-1] = (vertex, pos)
                    work.append((succ, offsets[succ]))
                    advanced = True
                    break
                if on_stack[succ]:
                    if index_of[succ] < lowlink[vertex]:
                        lowlink[vertex] = index_of[succ]
            if advanced:
                continue
            work.pop()
            if lowlink[vertex] == index_of[vertex]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if lowlink[vertex] < lowlink[parent]:
                    lowlink[parent] = lowlink[vertex]
    return components


def toposort_frozen(graph: FrozenGraph) -> Optional[List[int]]:
    """Topological order of a frozen graph, or ``None`` if it has a cycle.

    Kahn's algorithm; the frozen rows are duplicate-free by construction, so
    no per-vertex de-duplication pass is needed (parallel edges collapsed at
    freeze).  In-degrees come from one vectorized ``bincount`` when the
    graph was frozen with numpy.
    """
    n = graph.num_vertices
    offsets = graph.offsets
    targets = graph.targets
    if graph._targets_np is not None:
        indegree = _np.bincount(graph._targets_np, minlength=n).tolist()
    else:
        indegree = [0] * n
        for succ in targets:
            indegree[succ] += 1
    queue = [v for v in range(n) if not indegree[v]]
    order: List[int] = []
    append = order.append
    push = queue.append
    head = 0
    while head < len(queue):
        vertex = queue[head]
        head += 1
        append(vertex)
        for i in range(offsets[vertex], offsets[vertex + 1]):
            succ = targets[i]
            indegree[succ] -= 1
            if not indegree[succ]:
                push(succ)
    if len(order) != n:
        return None
    return order


def find_cycle_in_component_frozen(
    graph: FrozenGraph, component: Sequence[int]
) -> List[int]:
    """Extract one simple cycle inside a non-trivial SCC of a frozen graph.

    The mirror of :func:`repro.graph.cycles.find_cycle_in_component`: DFS
    restricted to the component until an ancestor on the current path
    re-appears; the path suffix is the cycle.  ``component`` must be an SCC
    with more than one vertex, or a single vertex with a self-loop.
    """
    offsets = graph.offsets
    targets = graph.targets
    members = set(component)
    start = component[0]
    if len(component) == 1:
        if graph.has_edge(start, start):
            return [start]
        raise ValueError("component is trivial and has no self-loop")
    parent = {start: None}
    on_path = {start}
    stack: List[Tuple[int, int]] = [(start, offsets[start])]
    while stack:
        vertex, pos = stack[-1]
        end = offsets[vertex + 1]
        advanced = False
        while pos < end:
            succ = targets[pos]
            pos += 1
            if succ not in members:
                continue
            if succ in on_path:
                cycle = [vertex]
                node = parent[vertex]
                while node is not None and cycle[-1] != succ:
                    cycle.append(node)
                    node = parent[node]
                if cycle[-1] != succ:
                    cycle.append(succ)
                cycle.reverse()
                return cycle
            if succ not in parent:
                stack[-1] = (vertex, pos)
                parent[succ] = vertex
                on_path.add(succ)
                stack.append((succ, offsets[succ]))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        on_path.discard(vertex)
    raise ValueError("no cycle found in component (not an SCC?)")
