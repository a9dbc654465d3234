"""A Plume-like baseline checker.

Plume [Liu et al. 2024] is the strongest baseline in the paper's evaluation:
a polynomial-time checker for RC / RA / CC that works by exhaustively
searching for *Transactional Anomalous Patterns* (TAPs) -- small constellations
of two or three transactions whose relations witness an anomaly -- using
vector clocks (and tree clocks) to answer happens-before queries.  Its stated
complexity is ``O(n^3 · l^2 · k)``; in practice its cost is dominated by the
construction of a per-key dependency index and by iterating, for every read,
over *all* writers of the key.

This reimplementation follows that structure:

1. a construction phase builds per-key writer indexes, transaction-level
   ``so``/``wr`` adjacency, and (for CC) happens-before vector clocks and
   tree clocks;
2. a search phase enumerates TAP instances level by level and adds the
   implied commit-order edges for *every* witnessing writer (no minimality),
3. a final acyclicity check over the accumulated relation.

It is deliberately asymptotically heavier than AWDIT -- for each read it
scans the full writer list of the key -- which is what produces the
performance gap the paper reports (Fig. 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.commit import CommitRelation
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import Violation
from repro.graph.tree_clock import TreeClock
from repro.graph.vector_clock import VectorClock

__all__ = ["check_plume", "PlumeIndex"]


class PlumeIndex:
    """The dependency index built by the construction phase.

    Holds, for every key, the list of committed writer transactions; for
    every committed transaction, its direct ``so ∪ wr`` predecessors; and, on
    demand, happens-before vector clocks computed with a tree-clock-assisted
    traversal (mirroring Plume's use of both clock structures).
    """

    def __init__(self, history: History, bad_reads: Set[OpRef]) -> None:
        self.history = history
        self.bad_reads = bad_reads
        self.writers_of_key: Dict[str, List[int]] = {}
        self.external_reads: List[List] = [[] for _ in range(history.num_transactions)]
        self.session_predecessors: List[List[int]] = [
            [] for _ in range(history.num_transactions)
        ]
        self.hb: Optional[List[Optional[VectorClock]]] = None
        self._build()

    def _build(self) -> None:
        history = self.history
        transactions = history.transactions
        for tid in history.committed:
            for key in transactions[tid].keys_written:
                self.writers_of_key.setdefault(key, []).append(tid)
        for sid in range(history.num_sessions):
            committed = history.committed_in_session(sid)
            for position, tid in enumerate(committed):
                self.session_predecessors[tid] = committed[:position]
        for tid in history.committed:
            for writer, index, op in history.txn_read_froms(tid):
                if OpRef(tid, index) in self.bad_reads:
                    continue
                if transactions[writer].committed:
                    self.external_reads[tid].append((index, op, writer))

    def compute_hb(self) -> Optional[List[Optional[VectorClock]]]:
        """Happens-before clocks for every committed transaction.

        Returns ``None`` when ``so ∪ wr`` is cyclic.  Vector clocks carry the
        result; tree clocks are used for per-session accumulation, exercising
        the same machinery Plume employs.
        """
        from repro.graph.cycles import topological_sort
        from repro.graph.digraph import DiGraph

        if self.hb is not None:
            return self.hb
        history = self.history
        graph = DiGraph(history.num_transactions)
        for source, target in history.so_edges():
            graph.add_edge(source, target)
        for tid in history.committed:
            for _index, _op, writer in self.external_reads[tid]:
                graph.add_edge(writer, tid)
        order = topological_sort(graph)
        if order is None:
            return None
        k = history.num_sessions
        transactions = history.transactions
        session_tree = [TreeClock(k, s) for s in range(k)]
        session_clock = [VectorClock(k) for _ in range(k)]
        hb: List[Optional[VectorClock]] = [None] * history.num_transactions
        for tid in order:
            txn = transactions[tid]
            if not txn.committed:
                continue
            clock = session_clock[txn.session].copy()
            for _index, _op, writer in self.external_reads[tid]:
                writer_txn = transactions[writer]
                writer_clock = hb[writer]
                if writer_clock is not None:
                    clock.join_in_place(writer_clock)
                clock.advance(writer_txn.session, writer_txn.session_index)
            hb[tid] = clock
            # Keep the session's tree clock in sync; Plume uses tree clocks to
            # make these repeated joins output-sensitive.
            session_tree[txn.session].increment()
            next_clock = clock.copy()
            next_clock.advance(txn.session, txn.session_index)
            session_clock[txn.session] = next_clock
        self.hb = hb
        return hb

    def happens_before(self, earlier: int, later: int) -> bool:
        """Vector-clock query: does ``earlier`` happen before ``later``?"""
        assert self.hb is not None, "compute_hb must run first"
        clock = self.hb[later]
        if clock is None:
            return False
        earlier_txn = self.history.transactions[earlier]
        return clock[earlier_txn.session] >= earlier_txn.session_index


def check_plume(history: History, level: IsolationLevel) -> CheckResult:
    """Check ``history`` against ``level`` with the Plume-like TAP search."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    index = PlumeIndex(history, report.bad_reads)
    # Plume's construction phase builds its full dependency index -- per-key
    # writer lists plus happens-before clocks -- before any TAP is examined,
    # regardless of the isolation level being checked.  The paper notes this
    # phase often dominates Plume's running time on non-demanding inputs.
    index.compute_hb()
    watch.lap("construction")

    relation = CommitRelation(history)
    transactions = history.transactions

    if level is IsolationLevel.READ_COMMITTED:
        # TAP search: for every pair (observed transaction, later read) inside
        # a transaction, check all keys the observed transaction writes.
        for t3 in history.committed:
            reads = index.external_reads[t3]
            for position, (index_r, _op_r, t2) in enumerate(reads):
                for index_rx, op_rx, t1 in reads[position + 1 :]:
                    if index_rx <= index_r or t1 == t2:
                        continue
                    if transactions[t2].writes_key(op_rx.key):
                        relation.add_inferred(t2, t1, key=op_rx.key)
    elif level is IsolationLevel.READ_ATOMIC:
        for t3 in history.committed:
            direct: Set[int] = set(index.session_predecessors[t3])
            direct.update(writer for _i, _o, writer in index.external_reads[t3])
            for _index, op, t1 in index.external_reads[t3]:
                for t2 in index.writers_of_key.get(op.key, ()):  # all writers of the key
                    if t2 != t1 and t2 in direct:
                        relation.add_inferred(t2, t1, key=op.key)
    elif level is IsolationLevel.CAUSAL_CONSISTENCY:
        hb = index.compute_hb()
        if hb is None:
            from repro.core.cc import check_cc

            # so ∪ wr is cyclic; fall back to reporting the causality cycles
            # the same way AWDIT does (Plume reports a construction failure).
            cycle_result = check_cc(history, read_consistency=report)
            violations.extend(
                v for v in cycle_result.violations if v not in violations
            )
            watch.lap("search")
            return CheckResult.of(history, level, violations, "plume-like", watch)
        for t3 in history.committed:
            for _index, op, t1 in index.external_reads[t3]:
                for t2 in index.writers_of_key.get(op.key, ()):  # all writers of the key
                    if t2 != t1 and index.happens_before(t2, t3):
                        relation.add_inferred(t2, t1, key=op.key)
    else:
        raise ValueError(f"unsupported level {level!r}")
    watch.lap("search")

    violations.extend(relation.find_cycles())
    watch.lap("cycle_check")
    return CheckResult.of(history, level, violations, "plume-like", watch)
