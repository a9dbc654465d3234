"""A PolySI-like Snapshot Isolation checker.

PolySI [Huang et al. 2023] checks Snapshot Isolation by encoding the history
into MonoSAT.  Since ``SI ⊑ RC, RA, CC``, the paper's evaluation uses PolySI
as a *complete but possibly unsound* detector of weak-isolation anomalies
(every weak-isolation violation is also an SI violation, but an SI violation
-- e.g. write skew -- need not violate the weak levels).

The encoding here follows the standard start/commit-point characterization
of SI (Crooks et al. 2017): each committed transaction ``t`` is split into a
begin event ``b(t)`` and a commit event ``c(t)``, and the history satisfies
SI iff the events can be totally ordered such that

* ``b(t) < c(t)`` and session order holds between commit and next begin,
* every read of ``t3`` from ``t1`` has ``c(t1) < b(t3)`` and no other writer
  of the key commits between ``c(t1)`` and ``b(t3)``,
* transactions writing a common key do not overlap (first-committer-wins).

Ordering choices are Boolean edge variables over the event graph; acyclicity
is enforced by the CEGAR theory loop.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import CycleViolation, Violation, ViolationKind
from repro.baselines.sat.acyclicity import AcyclicityEncoder

__all__ = ["check_si_polysi"]


def check_si_polysi(history: History) -> CheckResult:
    """Check whether ``history`` satisfies Snapshot Isolation."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    transactions = history.transactions
    committed = history.committed

    # Event ids: begin(t) = 2 * t, commit(t) = 2 * t + 1.
    def begin(tid: int) -> int:
        return 2 * tid

    def commit(tid: int) -> int:
        return 2 * tid + 1

    encoder = AcyclicityEncoder(2 * history.num_transactions)
    for tid in committed:
        encoder.add_hard_edge(begin(tid), commit(tid))
    for source, target in history.so_edges():
        encoder.add_hard_edge(commit(source), begin(target))

    writers_of_key: Dict[str, List[int]] = {}
    for tid in committed:
        for key in transactions[tid].keys_written:
            writers_of_key.setdefault(key, []).append(tid)

    num_clauses = 0
    seen_reads: Set = set()
    for t3 in committed:
        for writer, index, op in history.txn_read_froms(t3):
            if OpRef(t3, index) in report.bad_reads:
                continue
            if not transactions[writer].committed:
                continue
            t1 = writer
            encoder.add_hard_edge(commit(t1), begin(t3))
            if (t1, t3, op.key) in seen_reads:
                continue
            seen_reads.add((t1, t3, op.key))
            for t2 in writers_of_key.get(op.key, ()):
                if t2 == t1 or t2 == t3:
                    continue
                # No other writer of the key commits inside [c(t1), b(t3)].
                encoder.add_clause(
                    [
                        encoder.edge_var(commit(t2), commit(t1)),
                        encoder.edge_var(begin(t3), commit(t2)),
                    ]
                )
                num_clauses += 1

    # First-committer-wins: transactions writing a common key must not
    # overlap in time.
    conflict_pairs: Set = set()
    for key, writers in writers_of_key.items():
        for i, left in enumerate(writers):
            for right in writers[i + 1 :]:
                if left == right:
                    continue
                pair = (min(left, right), max(left, right))
                if pair in conflict_pairs:
                    continue
                conflict_pairs.add(pair)
                encoder.add_clause(
                    [
                        encoder.edge_var(commit(pair[0]), begin(pair[1])),
                        encoder.edge_var(commit(pair[1]), begin(pair[0])),
                    ]
                )
                num_clauses += 1
    watch.lap("encoding")

    model = encoder.solve()
    watch.lap("solving")

    if model is None:
        violations.append(
            CycleViolation(
                kind=ViolationKind.COMMIT_ORDER_CYCLE,
                message="no Snapshot Isolation schedule exists (SAT instance unsatisfiable)",
                edges=(),
            )
        )
    stats = {
        "clauses": num_clauses,
        "conflict_pairs": len(conflict_pairs),
        "cegar_rounds": encoder.rounds,
    }
    return CheckResult.of(
        history, IsolationLevel.CAUSAL_CONSISTENCY, violations, "polysi-like", watch, stats
    )
