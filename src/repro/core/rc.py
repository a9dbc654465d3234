"""Read Committed checking (Definition 2.4, Algorithm 1).

The RC axiom (Fig. 3a): if transaction ``t3`` reads some key from ``t2``
(``t2 -wr-> r``), later (in program order) reads ``x`` from ``t1``
(``t1 -wr_x-> r_x`` with ``r -po-> r_x``), ``t1 != t2``, and ``t2`` also
writes ``x``, then every valid commit order must place ``t2`` before ``t1``.

Algorithm 1 builds a *minimal saturated* commit relation (Definition 3.1) by
inferring only the edges to the po-earliest later reader of each key: the
rest are implied transitively.  The amortized cost is ``O(sqrt(n))`` per
transaction, for an overall ``O(n^{3/2})`` bound (Lemma 3.4), dropping to
``O(n)`` when transactions have bounded size.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.commit import CommitRelation
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef, Operation
from repro.core.read_consistency import ReadConsistencyReport, check_read_consistency
from repro.core.result import CheckResult, Stopwatch

__all__ = ["check_rc", "saturate_rc"]


def _external_reads(
    history: History, tid: int, bad_reads: Set[OpRef]
) -> List[Tuple[int, Operation, int]]:
    """Reads of ``tid`` observing a *different committed* transaction.

    Returns ``(po_index, operation, writer_tid)`` triples in program order,
    skipping reads flagged by the Read Consistency check and reads whose
    writer is aborted (those were already reported).
    """
    result: List[Tuple[int, Operation, int]] = []
    transactions = history.transactions
    for writer, index, op in history.txn_read_froms(tid):
        if OpRef(tid, index) in bad_reads:
            continue
        if not transactions[writer].committed:
            continue
        result.append((index, op, writer))
    return result


def saturate_rc(
    history: History, relation: CommitRelation, bad_reads: Set[OpRef]
) -> None:
    """Add to ``relation`` the commit edges forced by the RC axiom.

    This is the main loop of Algorithm 1: for each committed transaction
    ``t3``, a forward pass finds the po-first read of every transaction
    ``t3`` reads from (``firstTxnReads``), and a backward pass maintains, for
    every key ``x``, the two po-earliest distinct transactions ``t3`` reads
    ``x`` from below the current position (``earliestWts``).  When the
    current read is a first read of ``t2``, one edge ``t2 -co-> t1`` is added
    for every key in ``KeysWt(t2) ∩ readKeys`` -- later readers of the same
    key are ordered transitively and need no explicit edge.
    """
    transactions = history.transactions
    add_inferred = relation.add_inferred
    for tid in history.committed:
        reads = _external_reads(history, tid, bad_reads)
        if not reads:
            continue

        # Forward pass: record the po-first read of each observed transaction.
        seen_txns: Set[int] = set()
        first_txn_reads: Set[int] = set()
        for index, _op, writer in reads:
            if writer not in seen_txns:
                seen_txns.add(writer)
                first_txn_reads.add(index)

        # Backward pass: earliest[x] is a two-element stack holding the two
        # po-earliest distinct transactions from which t3 reads x below the
        # current position (older at slot 0, newer -- i.e. po-earlier -- at
        # slot 1).  read_keys is a dict so that iterating the smaller side of
        # the intersection below is deterministic (first-seen order), keeping
        # edge insertion -- and hence witness selection -- independent of
        # string hashing and identical across the three engines.
        earliest: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        read_keys: Dict[str, None] = {}
        for index, op, t2 in reversed(reads):
            if index in first_txn_reads:
                keys_written = transactions[t2].keys_written
                if len(keys_written) <= len(read_keys):
                    smaller: Iterable[str] = transactions[t2].keys_written_ordered
                    larger: Container[str] = read_keys
                else:
                    smaller, larger = read_keys, keys_written
                for x in smaller:
                    if x not in larger:
                        continue
                    older, newer = earliest[x]
                    t1 = newer
                    if t1 == t2:
                        t1 = older
                    if t1 is not None and t1 != t2:
                        add_inferred(t2, t1, key=x)
            key = op.key
            pair = earliest.get(key)
            if pair is None:
                earliest[key] = (None, t2)
            elif pair[1] != t2:
                earliest[key] = (pair[1], t2)
            read_keys[key] = None


def check_rc(
    history: History,
    max_witnesses: Optional[int] = None,
    read_consistency: Optional[ReadConsistencyReport] = None,
) -> CheckResult:
    """Check whether ``history`` satisfies Read Committed.

    Runs the Read Consistency check, saturates the commit relation per the RC
    axiom, and reports one labelled cycle witness per strongly connected
    component of ``co'`` (Section 3.4).  The history satisfies RC iff the
    returned result has no violations (Lemma 3.3).
    """
    watch = Stopwatch()
    report = read_consistency or check_read_consistency(history)
    watch.lap("read_consistency")

    relation = CommitRelation(history)
    saturate_rc(history, relation, report.bad_reads)
    watch.lap("saturation")

    violations = list(report.violations)
    violations.extend(relation.find_cycles(max_witnesses=max_witnesses))
    watch.lap("cycle_check")

    stats = {"inferred_edges": relation.num_inferred_edges, "co_edges": relation.num_edges}
    return CheckResult.of(
        history, IsolationLevel.READ_COMMITTED, violations, "awdit", watch, stats
    )
