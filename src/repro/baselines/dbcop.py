"""A DBCop-like Causal Consistency checker.

DBCop [Biswas and Enea 2019] checks causal consistency by *saturating* the
history: it materializes the causal order as an explicit transitive closure
and derives the commit-order constraints forced by every read, then checks
the combined relation for cycles.  Unlike AWDIT it makes no attempt to keep
the derived relation small: the closure is quadratic in the number of
transactions and is recomputed wholesale, which yields the roughly cubic
behaviour that makes DBCop time out on the larger histories of Fig. 7.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.commit import CommitRelation
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import Violation

__all__ = ["check_cc_dbcop"]


def _transitive_closure(history: History, bad_reads: Set[OpRef]) -> List[Set[int]]:
    """Explicit ancestor sets of ``so ∪ wr`` (the expensive part of DBCop)."""
    num = history.num_transactions
    direct: List[Set[int]] = [set() for _ in range(num)]
    for source, target in history.so_edges():
        direct[target].add(source)
    transactions = history.transactions
    for tid in history.committed:
        for writer, index, _op in history.txn_read_froms(tid):
            if OpRef(tid, index) in bad_reads:
                continue
            if transactions[writer].committed:
                direct[tid].add(writer)
    # Gauss-Seidel style propagation to a fixpoint: repeatedly fold ancestor
    # sets until nothing changes.  Quadratic-to-cubic, intentionally.
    ancestors: List[Set[int]] = [set(direct[tid]) for tid in range(num)]
    changed = True
    while changed:
        changed = False
        for tid in range(num):
            before = len(ancestors[tid])
            for parent in list(ancestors[tid]):
                ancestors[tid] |= ancestors[parent]
            if len(ancestors[tid]) != before:
                changed = True
    return ancestors


def check_cc_dbcop(history: History) -> CheckResult:
    """Check Causal Consistency by full saturation over an explicit closure."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    ancestors = _transitive_closure(history, report.bad_reads)
    watch.lap("closure")

    relation = CommitRelation(history)
    transactions = history.transactions
    writers_of_key: Dict[str, List[int]] = {}
    for tid in history.committed:
        for key in transactions[tid].keys_written:
            writers_of_key.setdefault(key, []).append(tid)

    for t3 in history.committed:
        for writer, index, op in history.txn_read_froms(t3):
            if OpRef(t3, index) in report.bad_reads:
                continue
            if not transactions[writer].committed:
                continue
            t1 = writer
            for t2 in writers_of_key.get(op.key, ()):
                if t2 != t1 and t2 in ancestors[t3]:
                    relation.add_inferred(t2, t1, key=op.key)
    watch.lap("saturation")

    violations.extend(relation.find_cycles())
    watch.lap("cycle_check")
    return CheckResult.of(
        history, IsolationLevel.CAUSAL_CONSISTENCY, violations, "dbcop-like", watch
    )
