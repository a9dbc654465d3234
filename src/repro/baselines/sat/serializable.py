"""A SAT-based Serializability checker.

Testing Serializability is NP-complete [Papadimitriou 1979; Biswas and Enea
2019], which is why strong-isolation testers (Cobra, PolySI, ...) rely on
SAT/SMT solving.  This checker uses the classic encoding over transaction
ordering variables coupled with the acyclicity theory:

* hard edges: ``so ∪ wr`` (a serialization must extend both);
* for every read ``t1 -wr_x-> t3`` and every other committed transaction
  ``t2`` writing ``x``: the clause ``(t2 -> t1) ∨ (t3 -> t2)`` -- no writer
  of ``x`` may serialize strictly between the writer a read observes and the
  reader;
* the selected edges plus the hard edges must be acyclic.

The history is serializable iff the instance is satisfiable; the chosen
topological order is a witness serialization.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import CycleViolation, Violation, ViolationKind
from repro.baselines.sat.acyclicity import AcyclicityEncoder

__all__ = ["check_serializability"]


def check_serializability(history: History) -> CheckResult:
    """Check whether ``history`` is serializable (SAT-based, exponential worst case)."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    transactions = history.transactions

    encoder = AcyclicityEncoder(history.num_transactions)
    for source, target in history.so_edges():
        encoder.add_hard_edge(source, target)
    for tid in history.committed:
        for writer, index, _op in history.txn_read_froms(tid):
            if OpRef(tid, index) in report.bad_reads:
                continue
            if transactions[writer].committed:
                encoder.add_hard_edge(writer, tid)

    writers_of_key: Dict[str, List[int]] = {}
    for tid in history.committed:
        for key in transactions[tid].keys_written:
            writers_of_key.setdefault(key, []).append(tid)

    num_clauses = 0
    for t3 in history.committed:
        for writer, index, op in history.txn_read_froms(t3):
            if OpRef(t3, index) in report.bad_reads:
                continue
            if not transactions[writer].committed:
                continue
            t1 = writer
            for t2 in writers_of_key.get(op.key, ()):
                if t2 == t1 or t2 == t3:
                    continue
                encoder.add_clause(
                    [encoder.edge_var(t2, t1), encoder.edge_var(t3, t2)]
                )
                num_clauses += 1
    watch.lap("encoding")

    model = encoder.solve()
    watch.lap("solving")

    if model is None:
        violations.append(
            CycleViolation(
                kind=ViolationKind.COMMIT_ORDER_CYCLE,
                message="no serialization order exists (SAT instance unsatisfiable)",
                edges=(),
            )
        )
    stats = {"clauses": num_clauses, "cegar_rounds": encoder.rounds}
    return CheckResult.of(
        history, IsolationLevel.CAUSAL_CONSISTENCY, violations, "ser-sat", watch, stats
    )
