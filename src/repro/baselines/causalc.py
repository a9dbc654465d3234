"""A CausalC+-like Causal Consistency checker on top of Datalog.

CausalC+ [Zennou et al. 2022] checks causal consistency of distributed
databases by encoding the axioms as a Datalog program and running a Datalog
engine to a fixpoint.  This baseline does the same with the engine in
:mod:`repro.baselines.datalog`:

.. code-block:: prolog

    hb(X, Y)   :- so(X, Y).
    hb(X, Y)   :- wr(X, Y).
    hb(X, Z)   :- hb(X, Y), hb(Y, Z).
    co(T2, T1) :- hb(T2, T3), wrkey(T1, T3, K), writes(T2, K), T2 != T1.
    ord(X, Y)  :- hb(X, Y).
    ord(X, Y)  :- co(X, Y).
    ord(X, Z)  :- ord(X, Y), ord(Y, Z).
    bad(X)     :- ord(X, X).

The history violates CC iff ``bad`` is non-empty (given Read Consistency,
which is checked upfront).  Materializing ``hb`` and ``ord`` makes the
checker at least quadratic in the number of transactions, which reproduces
CausalC+'s early timeouts in the paper's small-scale experiment (Fig. 7).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import CycleViolation, Violation, ViolationKind
from repro.baselines.datalog import Atom, DatalogProgram, Rule, Variable

__all__ = ["check_cc_causalc", "build_cc_program"]


def build_cc_program() -> DatalogProgram:
    """The Datalog program encoding the CC axiom (see the module docstring)."""
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    t1, t2, t3, k = Variable("T1"), Variable("T2"), Variable("T3"), Variable("K")
    rules = [
        Rule(Atom("hb", (x, y)), (Atom("so", (x, y)),)),
        Rule(Atom("hb", (x, y)), (Atom("wr", (x, y)),)),
        Rule(Atom("hb", (x, z)), (Atom("hb", (x, y)), Atom("hb", (y, z)))),
        Rule(
            Atom("co", (t2, t1)),
            (
                Atom("hb", (t2, t3)),
                Atom("wrkey", (t1, t3, k)),
                Atom("writes", (t2, k)),
            ),
            distinct=((t2, t1),),
        ),
        Rule(Atom("ord", (x, y)), (Atom("hb", (x, y)),)),
        Rule(Atom("ord", (x, y)), (Atom("co", (x, y)),)),
        Rule(Atom("ord", (x, z)), (Atom("ord", (x, y)), Atom("ord", (y, z)))),
        Rule(Atom("bad", (x,)), (Atom("ord", (x, x)),)),
    ]
    return DatalogProgram(rules)


def _extract_facts(history: History, bad_reads: Set[OpRef]) -> Dict[str, Set[Tuple]]:
    """Extensional facts (so, wr, wrkey, writes) of a history."""
    transactions = history.transactions
    so: Set[Tuple] = set()
    for sid in range(history.num_sessions):
        committed = history.committed_in_session(sid)
        for position, tid in enumerate(committed):
            for later in committed[position + 1 :]:
                so.add((tid, later))
    wr: Set[Tuple] = set()
    wrkey: Set[Tuple] = set()
    for tid in history.committed:
        for writer, index, op in history.txn_read_froms(tid):
            if OpRef(tid, index) in bad_reads:
                continue
            if not transactions[writer].committed:
                continue
            wr.add((writer, tid))
            wrkey.add((writer, tid, op.key))
    writes: Set[Tuple] = set()
    for tid in history.committed:
        for key in transactions[tid].keys_written:
            writes.add((tid, key))
    return {"so": so, "wr": wr, "wrkey": wrkey, "writes": writes}


def check_cc_causalc(history: History) -> CheckResult:
    """Check Causal Consistency with the Datalog-based CausalC+-like baseline."""
    watch = Stopwatch()
    report = check_read_consistency(history)
    violations: List[Violation] = list(report.violations)
    facts = _extract_facts(history, report.bad_reads)
    watch.lap("facts")

    program = build_cc_program()
    database = program.evaluate(facts)
    watch.lap("fixpoint")

    for (tid,) in sorted(database.get("bad", set())):
        violations.append(
            CycleViolation(
                kind=ViolationKind.COMMIT_ORDER_CYCLE,
                message=(
                    f"datalog fixpoint derives ord({history.transactions[tid].name}, "
                    f"{history.transactions[tid].name})"
                ),
                edges=(),
            )
        )
    watch.lap("report")
    stats = {"derived_ord": len(database.get("ord", set()))}
    return CheckResult.of(
        history, IsolationLevel.CAUSAL_CONSISTENCY, violations, "causalc-like", watch, stats
    )
