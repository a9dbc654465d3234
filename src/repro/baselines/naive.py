"""Direct-from-definition reference checkers.

These checkers implement Definitions 2.4, 2.6, and 2.8 of the paper by brute
force: enumerate every instantiation of the axiom's premise, add the forced
commit-order edge, and test the resulting relation for acyclicity.  They make
no attempt at the minimality trick that gives AWDIT its complexity bound, so
they are quadratic-to-cubic in practice -- which is exactly what makes them
useful as *oracles*: the test suite cross-validates the optimized AWDIT
algorithms against these on thousands of randomly generated histories.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.commit import CommitRelation
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import Violation
from repro.graph.digraph import DiGraph

__all__ = [
    "check_naive",
    "check_rc_naive",
    "check_ra_naive",
    "check_cc_naive",
    "cc_relation_naive",
]


def _good_external_reads(history: History, tid: int, bad_reads: Set[OpRef]):
    """Reads of ``tid`` observing a different committed transaction (index, op, writer)."""
    transactions = history.transactions
    for writer, index, op in history.txn_read_froms(tid):
        if OpRef(tid, index) in bad_reads:
            continue
        if not transactions[writer].committed:
            continue
        yield index, op, writer


def _writers_by_key(history: History) -> Dict[str, List[int]]:
    """All committed transactions writing each key."""
    writers: Dict[str, List[int]] = {}
    for tid in history.committed:
        for key in history.transactions[tid].keys_written:
            writers.setdefault(key, []).append(tid)
    return writers


def _ancestors(history: History, bad_reads: Set[OpRef]) -> List[Set[int]]:
    """Causal ancestors (so ∪ wr)+ of every committed transaction, by forward propagation."""
    order: List[int] = []
    graph = DiGraph(history.num_transactions)
    for source, target in history.so_edges():
        graph.add_edge(source, target)
    for tid in history.committed:
        for _index, _op, writer in _good_external_reads(history, tid, bad_reads):
            graph.add_edge(writer, tid)
    from repro.graph.cycles import topological_sort

    topo = topological_sort(graph)
    ancestors: List[Set[int]] = [set() for _ in range(history.num_transactions)]
    if topo is None:
        return ancestors
    for tid in topo:
        for succ in graph.unique_successors(tid):
            ancestors[succ].add(tid)
            ancestors[succ] |= ancestors[tid]
    return ancestors


def check_rc_naive(history: History) -> CheckResult:
    """Reference Read Committed check: enumerate every RC-axiom instance."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    relation = CommitRelation(history)
    transactions = history.transactions
    for t3 in history.committed:
        reads = list(_good_external_reads(history, t3, report.bad_reads))
        for index_r, _op_r, t2 in reads:
            for index_rx, op_rx, t1 in reads:
                if index_rx <= index_r:
                    continue
                if t1 == t2:
                    continue
                if transactions[t2].writes_key(op_rx.key):
                    relation.add_inferred(t2, t1, key=op_rx.key)
    violations.extend(relation.find_cycles())
    watch.lap("total")
    return CheckResult.of(history, IsolationLevel.READ_COMMITTED, violations, "naive", watch)


def check_ra_naive(history: History) -> CheckResult:
    """Reference Read Atomic check: enumerate every RA-axiom instance."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    relation = CommitRelation(history)
    transactions = history.transactions

    # Direct so ∪ wr predecessors of each committed transaction.  Session
    # order is the full per-session total order (Definition 2.2), so every
    # earlier committed transaction of the same session is a predecessor.
    predecessors: List[Set[int]] = [set() for _ in range(history.num_transactions)]
    for sid in range(history.num_sessions):
        committed = history.committed_in_session(sid)
        for position, tid in enumerate(committed):
            predecessors[tid].update(committed[:position])
    for t3 in history.committed:
        for _index, _op, writer in _good_external_reads(history, t3, report.bad_reads):
            predecessors[t3].add(writer)

    for t3 in history.committed:
        for _index, op, t1 in _good_external_reads(history, t3, report.bad_reads):
            for t2 in predecessors[t3]:
                if t2 != t1 and transactions[t2].writes_key(op.key):
                    relation.add_inferred(t2, t1, key=op.key)
    violations.extend(relation.find_cycles())
    watch.lap("total")
    return CheckResult.of(history, IsolationLevel.READ_ATOMIC, violations, "naive", watch)


def cc_relation_naive(history: History, bad_reads: Set[OpRef]) -> CommitRelation:
    """``so ∪ wr`` plus every edge the CC axiom forces, none left out as implied."""
    relation = CommitRelation(history)
    transactions = history.transactions
    ancestors = _ancestors(history, bad_reads)

    # A cycle in so ∪ wr makes the ancestor sets unreliable; the relation
    # already contains so ∪ wr, so the cycle is reported either way.
    for t3 in history.committed:
        for _index, op, t1 in _good_external_reads(history, t3, bad_reads):
            for t2 in ancestors[t3]:
                if t2 != t1 and transactions[t2].writes_key(op.key):
                    relation.add_inferred(t2, t1, key=op.key)
    return relation


def check_cc_naive(history: History) -> CheckResult:
    """Reference Causal Consistency check: enumerate every CC-axiom instance."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    relation = cc_relation_naive(history, report.bad_reads)
    violations.extend(relation.find_cycles())
    watch.lap("total")
    return CheckResult.of(
        history, IsolationLevel.CAUSAL_CONSISTENCY, violations, "naive", watch
    )


def check_naive(history: History, level: IsolationLevel) -> CheckResult:
    """Dispatch to the reference checker for ``level``."""
    if level is IsolationLevel.READ_COMMITTED:
        return check_rc_naive(history)
    if level is IsolationLevel.READ_ATOMIC:
        return check_ra_naive(history)
    if level is IsolationLevel.CAUSAL_CONSISTENCY:
        return check_cc_naive(history)
    raise ValueError(f"unsupported level {level!r}")
