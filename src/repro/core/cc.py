"""Causal Consistency checking (Definition 2.8, Algorithm 3).

The CC axiom (Fig. 3c): if transaction ``t3`` reads ``x`` from ``t1`` and a
*different* transaction ``t2`` writing ``x`` is in ``t3``'s causal past
(``t2 -(so∪wr)+-> t3``), then every valid commit order must place ``t2``
before ``t1``.

Algorithm 3 computes the happens-before relation with one vector clock per
transaction (``ComputeHB``) and then, per session and key, maintains the
happens-before-latest writer of the key in every other session with a
monotonically advancing pointer into that session's writer list.  The total
running time is ``O(n · k)`` for a history of size ``n`` with ``k`` sessions
(Lemma 3.8).

A forced edge ``t2 -> t1`` is left out when ``t2`` happens before ``t1``.
The relation holds ``so ∪ wr`` and happens-before is ``(so ∪ wr)+``, so such
an edge changes neither the relation's transitive closure nor its
acyclicity, just as the so-predecessors of the hb-latest writer need no
edge of their own.  The test is one clock lookup, ``hb[t1][session(t2)] >=
session_index(t2)``, so the ``O(n · k)`` bound holds.  The compiled kernels
(``repro.core.compiled.cc``) apply the same rule in the same emission
order; the definitional checker ``repro.baselines.naive`` keeps every edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.commit import CommitRelation
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.read_consistency import ReadConsistencyReport, check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import Violation
from repro.graph.csr import freeze_packed, load_numpy, toposort_frozen
from repro.graph.digraph import EDGE_SHIFT
from repro.graph.vector_clock import VectorClock

__all__ = [
    "check_cc",
    "compute_happens_before",
    "saturate_cc",
]


def _causality_graph(history: History, bad_reads: Set[OpRef]):
    """Transaction-level ``so ∪ wr`` graph over committed transactions.

    Returns ``(frozen_graph, so_log, wr_log, wr_keys)``: the packed edge
    logs feed the frozen CSR snapshot, and the parallel wr key row labels
    causality-cycle witnesses (built lazily via
    :func:`~repro.core.compiled.cc.causality_labels`, only when a cycle
    exists).  Duplicate observations append duplicate log
    entries; the freeze collapses them.
    """
    so_log: List[int] = []
    wr_log: List[int] = []
    wr_keys: List[Optional[str]] = []
    for source, target in history.so_edges():
        so_log.append((source << EDGE_SHIFT) | target)
    transactions = history.transactions
    for tid, txn in enumerate(transactions):
        if not txn.committed:
            continue
        for writer, index, op in history.txn_read_froms(tid):
            if OpRef(tid, index) in bad_reads:
                continue
            if not transactions[writer].committed:
                continue
            wr_log.append((writer << EDGE_SHIFT) | tid)
            wr_keys.append(op.key)
    graph = freeze_packed(history.num_transactions, (so_log, wr_log))
    return graph, so_log, wr_log, wr_keys


def compute_happens_before(
    history: History, bad_reads: Optional[Set[OpRef]] = None
) -> Tuple[Optional[List[Optional[VectorClock]]], List[Violation]]:
    """``ComputeHB`` of Algorithm 3: one vector clock per committed transaction.

    ``HB[t][s]`` is the session-order index of the so-latest transaction of
    session ``s`` in ``t``'s causal past (``-1`` when no transaction of ``s``
    happens before ``t``).  When ``so ∪ wr`` is cyclic the function returns
    ``(None, violations)`` where the violations are causality-cycle witnesses.
    """
    bad = bad_reads if bad_reads is not None else set()
    graph, so_log, wr_log, wr_keys = _causality_graph(history, bad)
    order = toposort_frozen(graph)
    if order is None:
        # The witnesses are the compiled engine's, from the same frozen rows.
        from repro.core.compiled.cc import causality_cycles, causality_labels

        names = [txn.name for txn in history.transactions]
        return None, causality_cycles(
            names, graph, causality_labels(so_log, wr_log, wr_keys)
        )

    transactions = history.transactions
    k = history.num_sessions
    session_clock: List[VectorClock] = [VectorClock(k) for _ in range(k)]
    hb: List[Optional[VectorClock]] = [None] * history.num_transactions
    for tid in order:
        txn = transactions[tid]
        if not txn.committed:
            continue
        clock = session_clock[txn.session].copy()
        seen_writers: Set[int] = set()
        for writer, index, _op in history.txn_read_froms(tid):
            if OpRef(tid, index) in bad:
                continue
            if writer in seen_writers:
                continue
            seen_writers.add(writer)
            writer_txn = transactions[writer]
            if not writer_txn.committed:
                continue
            writer_clock = hb[writer]
            if writer_clock is not None:
                clock.join_in_place(writer_clock)
            clock.advance(writer_txn.session, writer_txn.session_index)
        hb[tid] = clock
        next_clock = clock.copy()
        next_clock.advance(txn.session, txn.session_index)
        session_clock[txn.session] = next_clock
    return hb, []


def _writers_by_key_per_session(
    history: History,
) -> Dict[str, List[Tuple[int, List[int], List[int]]]]:
    """``Writes_s[x]`` grouped by key.

    For every key, a list of ``(session, writer_tids, writer_session_indices)``
    entries, one per session that writes the key, writers in session order.
    Grouping by key lets the saturation loop touch only the sessions that can
    possibly contribute a commit-order edge for the key being read.
    """
    writes: Dict[str, List[Tuple[int, List[int], List[int]]]] = {}
    transactions = history.transactions
    for sid in range(history.num_sessions):
        per_key: Dict[str, List[int]] = {}
        for tid in history.committed_in_session(sid):
            for key in transactions[tid].keys_written:
                per_key.setdefault(key, []).append(tid)
        for key, tids in per_key.items():
            indices = [transactions[tid].session_index for tid in tids]
            writes.setdefault(key, []).append((sid, tids, indices))
    return writes


def saturate_cc(
    history: History,
    relation: CommitRelation,
    hb: List[Optional[VectorClock]],
    bad_reads: Set[OpRef],
) -> None:
    """Add to ``relation`` the commit edges forced by the CC axiom.

    For every read ``t1 -wr_x-> t3`` and every session ``s'`` that writes
    ``x``, the happens-before-latest writer ``t2`` of ``x`` in ``s'`` (found
    by advancing a monotone per-session pointer over ``Writes_{s'}[x]``)
    must commit before ``t1``.  Writers that are so-predecessors of ``t2``
    are ordered transitively and need no explicit edge.  Neither does
    ``t2`` itself when it is an hb-predecessor of ``t1``
    (``hb[t1][s'] >= session_index(t2)``): ``so ∪ wr`` is in the relation,
    so a path ``t2 -(so∪wr)+-> t1`` already orders them.
    """
    transactions = history.transactions
    writers_by_key = _writers_by_key_per_session(history)

    for sid in range(history.num_sessions):
        # State per observed (session, key): the last hb-before writer found
        # so far and the monotone pointer into that session's writer list.
        last_write: Dict[Tuple[int, str], int] = {}
        pointer: Dict[Tuple[int, str], int] = {}
        for t3 in history.committed_in_session(sid):
            clock = hb[t3]
            if clock is None:
                continue
            entries = clock.entries
            for writer, index, op in history.txn_read_froms(t3):
                if (t3, index) in bad_reads:
                    continue
                if not transactions[writer].committed:
                    continue
                t1 = writer
                key = op.key
                key_writers = writers_by_key.get(key)
                if not key_writers:
                    continue
                floor = hb[t1].entries
                for other, writer_list, writer_indices in key_writers:
                    state = (other, key)
                    ptr = pointer.get(state, 0)
                    bound = entries[other]
                    if ptr < len(writer_list) and writer_indices[ptr] <= bound:
                        while (
                            ptr < len(writer_list) and writer_indices[ptr] <= bound
                        ):
                            ptr += 1
                        last_write[state] = writer_list[ptr - 1]
                        pointer[state] = ptr
                    t2 = last_write.get(state)
                    if (
                        t2 is not None
                        and t2 != t1
                        and transactions[t2].session_index > floor[other]
                    ):
                        relation.add_inferred(t2, t1, key=key)


def check_cc(
    history: History,
    max_witnesses: Optional[int] = None,
    read_consistency: Optional[ReadConsistencyReport] = None,
) -> CheckResult:
    """Check whether ``history`` satisfies Causal Consistency (Lemma 3.7).

    If ``so ∪ wr`` is cyclic the causality-cycle witnesses are reported and
    the CC-specific saturation is skipped (as discussed in Section 3.4, CC
    checking past a causality cycle produces an avalanche of spurious
    reports).  Like every CC check, it loads numpy first (see
    :mod:`repro.graph.csr`).
    """
    load_numpy()
    watch = Stopwatch()
    report = read_consistency or check_read_consistency(history)
    watch.lap("read_consistency")

    violations: List[Violation] = list(report.violations)
    hb, cycle_violations = compute_happens_before(history, report.bad_reads)
    watch.lap("happens_before")

    if hb is None:
        violations.extend(cycle_violations)
        return CheckResult(
            level=IsolationLevel.CAUSAL_CONSISTENCY,
            violations=violations,
            checker="awdit",
            elapsed_seconds=watch.total,
            num_operations=history.num_operations,
            num_transactions=history.num_transactions,
            num_sessions=history.num_sessions,
            stats=dict(watch.laps),
        )

    relation = CommitRelation(history)
    saturate_cc(history, relation, hb, report.bad_reads)
    watch.lap("saturation")

    violations.extend(relation.find_cycles(max_witnesses=max_witnesses))
    watch.lap("cycle_check")

    return CheckResult(
        level=IsolationLevel.CAUSAL_CONSISTENCY,
        violations=violations,
        checker="awdit",
        elapsed_seconds=watch.total,
        num_operations=history.num_operations,
        num_transactions=history.num_transactions,
        num_sessions=history.num_sessions,
        stats={
            "inferred_edges": relation.num_inferred_edges,
            "co_edges": relation.num_edges,
            **watch.laps,
        },
    )
