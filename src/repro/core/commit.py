"""The partial commit relation ``co'`` and its acyclicity check.

Every checker of Section 3 builds a *minimal saturated* commit relation
(Definition 3.1): it contains ``so ∪ wr`` plus the commit-order edges forced
by the isolation level's axiom (Fig. 3).  By Lemma 3.2 the history satisfies
the level iff it is Read Consistent and this relation is acyclic.

:class:`CommitRelation` is *log-structured*: edges arrive as appends to flat
packed-edge rows (``array('Q')`` of ``(source << EDGE_SHIFT) | target``
values, one parallel key row per labelled log) and nothing is de-duplicated
or hashed on the way in.  Once edge collection is done, :meth:`freeze`
snapshots the logs into a :class:`~repro.graph.csr.FrozenGraph` -- one
sort + in-place dedup pass, no per-edge dict entries -- and the acyclicity
check, cycle extraction, and linearization all run over the frozen CSR rows.
Freezing is the single de-duplication point: duplicate edges (the saturation
rules fire many times per edge) collapse there, and the inferred-edge count
is the number of distinct edges beyond distinct ``so ∪ wr``.  For CC it
leaves out the forced edges that happens-before already implies: the CC
saturation never appends them (see :mod:`repro.core.cc`).

Edge *labels* -- the ``(reason, key)`` pair that explains an edge in a
witness -- are never built on the hot path.  The logs retain the reason
implicitly (which log an edge sits in) and the key alongside it; a label is
looked up only for an edge a witness renders, by a first-occurrence-wins
replay of ``so, wr, co`` in arrival order restricted to the wanted edges,
and kept for later lookups.  :meth:`find_cycles` collects its cycles first
and labels their edges in one such pass.  A consistent history builds no
label.

An edge may be justified by several relations at once (a session reading its
so-predecessor's write is related by both ``so`` and ``wr``).  The primary
label is first-come (``so``/``wr`` entries replay before inferred ones, so
witnesses prefer the weaker explanation), but a keyed ``wr`` label observed
for an edge already labelled ``so`` is retained alongside it and preferred
when rendering witnesses, so cycle reports never lose the witnessing key.

The relation is normally built from a :class:`~repro.core.model.History`;
the compiled checkers (batch, and the streaming checker's finalize) append
packed rows straight into the logs, without rehashing an edge.

Key encoding: a relation built with ``key_names`` stores dense integer key
ids in its key rows (``-1`` encodes "no key") and decodes them through the
table only at label materialization; without ``key_names`` the key rows hold
the key objects themselves (the object-model path).
"""

from __future__ import annotations

import time
from array import array
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.csr import (
    FrozenGraph,
    distinct_edge_count,
    find_cycle_in_component_frozen,
    freeze_packed,
    scc_frozen,
    toposort_frozen,
)
from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT, MAX_PACKED_EDGE, pack_edge

if TYPE_CHECKING:
    from repro.core.model import History
    from repro.core.violations import CycleViolation

__all__ = ["CommitRelation"]

_SO_LABEL = ("so", None)


class CommitRelation:
    """The inferred partial commit relation ``co'`` over committed transactions."""

    def __init__(
        self,
        history: Optional[History] = None,
        *,
        names: Optional[Sequence[str]] = None,
        committed: Optional[Sequence[int]] = None,
        num_vertices: Optional[int] = None,
        namer: Optional[Callable[[int], str]] = None,
        key_names: Optional[Sequence[str]] = None,
    ) -> None:
        if history is not None:
            names = [txn.name for txn in history.transactions]
            committed = history.committed
        elif committed is None or (names is None and num_vertices is None):
            raise ValueError(
                "need a history, or explicit committed ids plus either names "
                "or num_vertices (with a namer for witness rendering)"
            )
        self.history = history
        self._names: Optional[List[str]] = None if names is None else list(names)
        self._namer = namer
        self._num_vertices = (
            len(self._names) if self._names is not None else int(num_vertices)
        )
        if self._num_vertices > EDGE_MASK + 1:
            raise ValueError(
                f"CommitRelation supports at most {EDGE_MASK + 1} transactions "
                f"(packed-edge ids are {EDGE_SHIFT}-bit); got {self._num_vertices}"
            )
        self._committed: List[int] = list(committed)
        self._key_names = key_names
        # The flat edge logs: append-only, duplicates welcome, packed edges.
        self._so_log = array("Q")
        self._wr_log = array("Q")
        self._co_log = array("Q")
        # Parallel key rows: dense int ids (-1 = no key) when key_names is
        # set, key objects otherwise.
        if key_names is not None:
            self._wr_keys = array("q")
            self._co_keys = array("q")
        else:
            self._wr_keys: list = []  # type: ignore[no-redef]
            self._co_keys: list = []  # type: ignore[no-redef]
        # Frozen snapshot + the labels looked up so far, each tagged with the
        # log length it was computed at so later appends invalidate.
        self._frozen: Optional[FrozenGraph] = None
        self._frozen_at = -1
        self._num_inferred = 0
        # Distinct |so ∪ wr| cache: the so/wr logs stop growing once
        # saturation starts, so the count survives repeated freezes while
        # only the co log grows.
        self._sowr_distinct = -1
        self._sowr_distinct_at = -1
        # Packed edge -> primary label (``None`` for an edge not in the
        # relation), and -> its first keyed ``wr`` label, if any.
        self._labels: Dict[int, Optional[Tuple[str, Optional[str]]]] = {}
        self._keyed: Dict[int, Tuple[str, str]] = {}
        self._labels_at = -1
        #: Wall-clock of the freeze/acyclicity/witness phases of the last
        #: :meth:`find_cycles` (and any standalone :meth:`freeze`), for
        #: ``awdit check --profile``.
        self.timings: Dict[str, float] = {}
        if history is not None:
            self._add_so_wr_edges()

    # -- construction ----------------------------------------------------------

    def _add_so_wr_edges(self) -> None:
        history = self.history
        assert history is not None
        so_append = self._so_log.append
        for source, target in history.so_edges():
            so_append((source << EDGE_SHIFT) | target)
        wr_append = self._wr_log.append
        wrk_append = self._wr_keys.append
        transactions = history.transactions
        for tid in range(history.num_transactions):
            if not transactions[tid].committed:
                continue
            for writer, _index, op in history.txn_read_froms(tid):
                if transactions[writer].committed:
                    wr_append((writer << EDGE_SHIFT) | tid)
                    wrk_append(op.key)

    def add_inferred(self, source: int, target: int, key=None) -> None:
        """Record an inferred commit-order edge ``source -co-> target``.

        Duplicate edges (same pair, any reason) collapse at freeze: only the
        reachability structure matters for acyclicity, and the first label
        replayed is the most informative for witnesses.  ``key`` is a dense
        key id for relations built with ``key_names``, the key object
        otherwise.
        """
        if source == target:
            # The inference rules always relate distinct transactions; a
            # self-edge would indicate a caller bug.
            raise ValueError("co' edges relate distinct transactions")
        self.add_inferred_packed(pack_edge(source, target), key)

    def add_inferred_packed(self, edge: int, key=None) -> None:
        """:meth:`add_inferred` for an already-packed edge.

        The packed value is range-checked: anything outside
        ``[0, MAX_PACKED_EDGE]`` means a transaction id overflowed the
        32 bits of its endpoint and the edge would silently collide with an
        unrelated one.  (The saturation loops append to the logs directly --
        their ids are dense by construction -- so this check is not on the
        hot path.)
        """
        if edge > MAX_PACKED_EDGE or edge < 0:
            raise ValueError(
                f"packed co' edge {edge} out of range: transaction id "
                f"exceeds the {EDGE_SHIFT}-bit endpoint limit"
            )
        self._co_log.append(edge)
        if self._key_names is not None:
            self._co_keys.append(-1 if key is None else key)
        else:
            self._co_keys.append(key)

    # -- freeze ----------------------------------------------------------------

    def _log_size(self) -> int:
        return len(self._so_log) + len(self._wr_log) + len(self._co_log)

    def freeze(self) -> FrozenGraph:
        """The frozen CSR snapshot of the relation (cached until logs grow).

        One sort + dedup pass over the concatenated ``so``/``wr``/``co``
        logs; also fixes the inferred-edge count (distinct edges beyond the
        distinct ``so ∪ wr`` set, which is what per-edge first-label-wins
        insertion used to count).
        """
        size = self._log_size()
        if self._frozen is None or self._frozen_at != size:
            start = time.perf_counter()
            self._frozen = freeze_packed(
                self._num_vertices, (self._so_log, self._wr_log, self._co_log)
            )
            if self._co_log:
                sowr_size = len(self._so_log) + len(self._wr_log)
                if self._sowr_distinct_at != sowr_size:
                    self._sowr_distinct = distinct_edge_count(
                        (self._so_log, self._wr_log)
                    )
                    self._sowr_distinct_at = sowr_size
                self._num_inferred = self._frozen.num_edges - self._sowr_distinct
            else:
                self._num_inferred = 0
            self._frozen_at = size
            self.timings["freeze"] = time.perf_counter() - start
        return self._frozen

    @property
    def graph(self) -> FrozenGraph:
        """The frozen CSR graph of ``co'`` (freezes on first access)."""
        return self.freeze()

    @property
    def num_edges(self) -> int:
        """Total number of distinct edges in ``co'``."""
        return self.freeze().num_edges

    @property
    def num_inferred_edges(self) -> int:
        """Distinct inferred edges not already explained by ``so ∪ wr``."""
        self.freeze()
        return self._num_inferred

    # -- labels (lazy) ---------------------------------------------------------

    def _decode_key(self, key):
        if self._key_names is None:
            return key
        return None if key < 0 else self._key_names[key]

    def _label(self, edges: Iterable[int]) -> None:
        """Look up the labels of the packed ``edges`` that are not known yet.

        Replays the logs for those edges only: first occurrence wins within
        and across logs (``so`` before ``wr`` before ``co`` -- arrival
        order), and the first keyed ``wr`` entry of an edge is kept beside
        its primary label.  The ``so`` test and the "is any wanted edge in
        this log" tests are set operations over the whole log; only a log
        that holds a wanted edge is walked in Python, and the walk stops
        once every wanted edge in it is found.
        """
        size = self._log_size()
        if self._labels_at != size:
            self._labels = {}
            self._keyed = {}
            self._labels_at = size
        labels = self._labels
        wanted = {edge for edge in edges if edge not in labels}
        if not wanted:
            return
        for edge in wanted.intersection(self._so_log):
            labels[edge] = _SO_LABEL
        decode = self._decode_key
        pending = wanted.intersection(self._wr_log)
        if pending:
            keyed = self._keyed
            for edge, key in zip(self._wr_log, self._wr_keys):
                if edge in pending:
                    name = decode(key)
                    if edge not in labels:
                        labels[edge] = ("wr", name)
                    if name is not None:
                        keyed[edge] = ("wr", name)
                        pending.discard(edge)
                        if not pending:
                            break
        unlabelled = wanted.difference(labels)
        pending = unlabelled.intersection(self._co_log)
        for edge in unlabelled.difference(pending):
            labels[edge] = None
        if pending:
            for edge, key in zip(self._co_log, self._co_keys):
                if edge in pending:
                    labels[edge] = ("co", decode(key))
                    pending.discard(edge)
                    if not pending:
                        break

    def edge_label(self, source: int, target: int) -> Optional[Tuple[str, Optional[str]]]:
        """The primary ``(reason, key)`` label of an edge, or ``None`` if absent."""
        packed = (source << EDGE_SHIFT) | target
        self._label((packed,))
        return self._labels[packed]

    def witness_label(self, source: int, target: int) -> Optional[Tuple[str, Optional[str]]]:
        """The most informative label of an edge, for cycle witnesses.

        Prefers a keyed ``so ∪ wr`` label over a bare ``so`` one: an edge that
        is both ``so`` and ``wr`` is reported as ``wr[key]`` so the witnessing
        key is never dropped.
        """
        packed = (source << EDGE_SHIFT) | target
        self._label((packed,))
        primary = self._labels[packed]
        if primary is None:
            return None
        if primary[1] is None and primary[0] != "co":
            keyed = self._keyed.get(packed)
            if keyed is not None:
                return keyed
        return primary

    def name_of(self, tid: int) -> str:
        """Printable name of a transaction (for witness messages)."""
        if self._names is not None:
            return self._names[tid]
        return self._namer(tid)

    def linearize(self) -> Optional[List[int]]:
        """A total commit order extending ``co'``, or ``None`` if cyclic.

        By Lemma 3.2, when ``co'`` is acyclic any linearization witnesses
        consistency; this method exposes that witness (a list of committed
        transaction ids in commit order).
        """
        order = toposort_frozen(self.freeze())
        if order is None:
            return None
        committed = set(self._committed)
        return [tid for tid in order if tid in committed]

    # -- acyclicity ---------------------------------------------------------------

    def find_cycles(self, max_witnesses: Optional[int] = None) -> List[CycleViolation]:
        """Return one labelled cycle witness per non-trivial SCC of ``co'``.

        A cycle whose edges are all ``so``/``wr`` edges is classified as a
        *causality cycle*; any other cycle is a *commit-order cycle* (the
        paper's Section 3.4 taxonomy).  Witnesses are sorted so cycles with
        the fewest inferred edges come first.  The cycles are collected
        first and their edges labelled in one pass (:meth:`_label`), so the
        consistent case never builds a label.
        """
        frozen = self.freeze()
        start = time.perf_counter()
        if toposort_frozen(frozen) is not None:
            # Acyclic -- the common case.  Kahn's scan is cheaper than
            # Tarjan's and its in-degrees come from one vectorized count,
            # so consistent histories never pay for SCC bookkeeping.
            self.timings["acyclicity"] = time.perf_counter() - start
            self.timings["witness"] = 0.0
            return []
        components = scc_frozen(frozen)
        split = time.perf_counter()
        self.timings["acyclicity"] = split - start
        cycles: List[List[int]] = []
        for component in components:
            if len(component) <= 1:
                continue
            cycles.append(find_cycle_in_component_frozen(frozen, component))
            if max_witnesses is not None and len(cycles) >= max_witnesses:
                break
        self._label(
            (source << EDGE_SHIFT) | cycle[(i + 1) % len(cycle)]
            for cycle in cycles
            for i, source in enumerate(cycle)
        )
        violations = [self._cycle_to_violation(cycle) for cycle in cycles]
        violations.sort(key=lambda v: v.inferred_edges)
        self.timings["witness"] = time.perf_counter() - split
        return violations

    def is_acyclic(self) -> bool:
        """True when ``co'`` has no cycle."""
        return all(len(c) == 1 for c in scc_frozen(self.freeze()))

    def _cycle_to_violation(self, cycle: List[int]) -> CycleViolation:
        from repro.core.violations import CycleEdge, CycleViolation, ViolationKind

        edges: List[CycleEdge] = []
        for i, source in enumerate(cycle):
            target = cycle[(i + 1) % len(cycle)]
            reason, key = self.witness_label(source, target) or ("co", None)
            edges.append(CycleEdge(source, target, reason, key))
        if all(edge.reason in ("so", "wr") for edge in edges):
            kind = ViolationKind.CAUSALITY_CYCLE
        else:
            kind = ViolationKind.COMMIT_ORDER_CYCLE
        names = " -> ".join(self.name_of(t) for t in cycle)
        message = f"cycle over transactions {names} -> {self.name_of(cycle[0])}"
        return CycleViolation(kind=kind, message=message, edges=tuple(edges))
