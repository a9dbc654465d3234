"""A TCC-Mono-like Causal Consistency checker (SAT modulo acyclicity).

TCC-Mono [Liu et al. 2024; Bayless et al. 2015] checks transactional causal
consistency by encoding the commit-order constraints into MonoSAT, a SAT
solver with a built-in monotonic graph theory.  This baseline reproduces the
approach with the local substrate:

* every commit-order constraint forced by the CC axiom becomes a *required*
  edge variable (a unit clause),
* the ``so ∪ wr`` edges are hard edges,
* the acyclicity theory (the CEGAR loop of
  :class:`~repro.baselines.sat.acyclicity.AcyclicityEncoder`) rejects models
  whose selected edges form a cycle.

The instance is satisfiable iff the history is causally consistent.  The
cost profile -- full saturation plus SAT machinery -- matches TCC-Mono's
position in the paper's Fig. 7: correct, but far slower than AWDIT.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import CycleViolation, Violation, ViolationKind
from repro.baselines.sat.acyclicity import AcyclicityEncoder

__all__ = ["check_cc_monosat"]


def _causal_ancestors(history: History, bad_reads: Set[OpRef]) -> List[Set[int]]:
    """Ancestor sets of ``so ∪ wr`` (empty when the relation is cyclic)."""
    from repro.graph.cycles import topological_sort
    from repro.graph.digraph import DiGraph

    graph = DiGraph(history.num_transactions)
    for source, target in history.so_edges():
        graph.add_edge(source, target)
    transactions = history.transactions
    for tid in history.committed:
        for writer, index, _op in history.txn_read_froms(tid):
            if OpRef(tid, index) in bad_reads:
                continue
            if transactions[writer].committed:
                graph.add_edge(writer, tid)
    order = topological_sort(graph)
    ancestors: List[Set[int]] = [set() for _ in range(history.num_transactions)]
    if order is None:
        return ancestors
    for tid in order:
        for succ in graph.unique_successors(tid):
            ancestors[succ].add(tid)
            ancestors[succ] |= ancestors[tid]
    return ancestors


def check_cc_monosat(history: History) -> CheckResult:
    """Check Causal Consistency with the SAT-modulo-acyclicity encoding."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    transactions = history.transactions
    ancestors = _causal_ancestors(history, report.bad_reads)
    watch.lap("ancestors")

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

    num_constraints = 0
    for t3 in history.committed:
        for writer, index, op in history.txn_read_froms(t3):
            if OpRef(t3, index) in report.bad_reads:
                continue
            if not transactions[writer].committed:
                continue
            t1 = writer
            for t2 in writers_of_key.get(op.key, ()):
                if t2 != t1 and t2 in ancestors[t3]:
                    encoder.require_edge(t2, t1)
                    num_constraints += 1
    watch.lap("encoding")

    # A so ∪ wr cycle leaves the ancestor sets empty; the hard edges alone
    # then contain the cycle and the encoder reports unsatisfiability.
    model = encoder.solve()
    watch.lap("solving")

    if model is None:
        violations.append(
            CycleViolation(
                kind=ViolationKind.COMMIT_ORDER_CYCLE,
                message=(
                    "SAT-modulo-acyclicity instance is unsatisfiable: no commit "
                    "order satisfies the CC constraints"
                ),
                edges=(),
            )
        )
    stats = {"constraints": num_constraints, "cegar_rounds": encoder.rounds}
    return CheckResult.of(
        history, IsolationLevel.CAUSAL_CONSISTENCY, violations, "tcc-mono-like", watch, stats
    )
