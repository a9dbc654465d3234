"""Read Atomic checking (Definition 2.6, Algorithm 2, Theorem 1.6).

The RA axiom (Fig. 3b): if transaction ``t3`` reads ``x`` from ``t1``, a
*different* transaction ``t2`` writes ``x``, and ``t2 -so∪wr-> t3``, then
every valid commit order must place ``t2`` before ``t1``.  Atomicity follows:
observing part of a transaction forces observing all of it.

Algorithm 2 first checks *repeatable reads* (a committed transaction may not
read the same key from two different transactions -- implied by the RA axiom)
and then saturates a minimal commit relation, handling the ``so`` and ``wr``
cases of the premise separately.  The ``wr`` case intersects
``KeysWt(t2) ∩ KeysRd(t3)`` iterating over the smaller set, which yields the
``O(n^{3/2})`` bound of Lemma 3.6.

For single-session histories RA is checkable in linear time (Theorem 1.6);
:func:`check_ra_single_session` implements that specialization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.commit import CommitRelation
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef, Operation
from repro.core.read_consistency import ReadConsistencyReport, check_read_consistency
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import RepeatableReadViolation, Violation, ViolationKind

__all__ = [
    "check_ra",
    "check_ra_single_session",
    "check_repeatable_reads",
    "saturate_ra",
]


def check_repeatable_reads(
    history: History, bad_reads: Set[OpRef]
) -> List[Violation]:
    """Check the repeatable-reads property (``CheckRepeatableReads`` in Algorithm 2).

    A committed transaction must not read the same key from two different
    transactions; a violation is a two-transaction RA anomaly on its own.
    """
    violations: List[Violation] = []
    transactions = history.transactions
    for tid, txn in enumerate(transactions):
        if not txn.committed:
            continue
        last_writer: Dict[str, int] = {}
        for index, op in enumerate(txn.operations):
            if not op.is_read:
                continue
            ref = OpRef(tid, index)
            if ref in bad_reads:
                continue
            writer_ref = history.writer_of(ref)
            if writer_ref is None:
                continue
            writer = writer_ref.txn
            previous = last_writer.get(op.key)
            if writer != tid and previous is not None and previous != writer:
                violations.append(
                    RepeatableReadViolation(
                        kind=ViolationKind.NON_REPEATABLE_READ,
                        message=(
                            f"{txn.name} reads {op.key!r} from both "
                            f"{transactions[previous].name} and "
                            f"{transactions[writer].name}"
                        ),
                        txn=tid,
                        key=op.key,
                        writers=(previous, writer),
                    )
                )
            else:
                last_writer[op.key] = writer
    return violations


def _external_reads(
    history: History, tid: int, bad_reads: Set[OpRef]
) -> List[Tuple[int, Operation, int]]:
    """Good reads of ``tid`` observing a different committed transaction."""
    result: List[Tuple[int, Operation, int]] = []
    transactions = history.transactions
    for writer, index, op in history.txn_read_froms(tid):
        if OpRef(tid, index) in bad_reads:
            continue
        if not transactions[writer].committed:
            continue
        result.append((index, op, writer))
    return result


def saturate_ra(
    history: History, relation: CommitRelation, bad_reads: Set[OpRef]
) -> None:
    """Add to ``relation`` the commit edges forced by the RA axiom.

    The ``so`` case uses a per-session ``lastWrite`` map (only the so-latest
    writer of a key needs an explicit edge; earlier ones follow through
    ``so``).  The ``wr`` case intersects the writer's written keys with the
    reader's read keys, iterating over the smaller set.
    """
    transactions = history.transactions
    for sid in range(history.num_sessions):
        last_write: Dict[str, int] = {}
        for t3 in history.committed_in_session(sid):
            reads = _external_reads(history, t3, bad_reads)

            # First external writer of each key read by t3.  Under repeatable
            # reads it is unique; if not, the first one still yields a valid
            # witness edge and the violation itself was reported separately.
            reader_of_key: Dict[str, int] = {}
            distinct_writers: List[int] = []
            seen_writers: Set[int] = set()
            for _index, op, writer in reads:
                reader_of_key.setdefault(op.key, writer)
                if writer not in seen_writers:
                    seen_writers.add(writer)
                    distinct_writers.append(writer)

            # Case t2 -so-> t3: the latest earlier writer of x in this session
            # must commit before the transaction t3 reads x from.
            for _index, op, t1 in reads:
                t2 = last_write.get(op.key)
                if t2 is not None and t2 != t1:
                    relation.add_inferred(t2, t1, key=op.key)

            # Case t2 -wr-> t3: every transaction t3 reads from that also
            # writes a key t3 reads elsewhere must commit before that key's
            # writer.  The smaller side of the intersection is iterated in a
            # deterministic order (first-write / po-first) so edge insertion
            # does not depend on string hashing.
            keys_read = reader_of_key.keys()
            for t2 in distinct_writers:
                keys_written = transactions[t2].keys_written
                if len(keys_written) <= len(keys_read):
                    candidates = (
                        x
                        for x in transactions[t2].keys_written_ordered
                        if x in reader_of_key
                    )
                else:
                    candidates = (x for x in keys_read if x in keys_written)
                for x in candidates:
                    t1 = reader_of_key[x]
                    if t1 != t2:
                        relation.add_inferred(t2, t1, key=x)

            for key in transactions[t3].keys_written:
                last_write[key] = t3


def check_ra(
    history: History,
    max_witnesses: Optional[int] = None,
    read_consistency: Optional[ReadConsistencyReport] = None,
) -> CheckResult:
    """Check whether ``history`` satisfies Read Atomic (Lemma 3.5)."""
    watch = Stopwatch()
    report = read_consistency or check_read_consistency(history)
    watch.lap("read_consistency")

    violations: List[Violation] = list(report.violations)
    violations.extend(check_repeatable_reads(history, report.bad_reads))
    watch.lap("repeatable_reads")

    relation = CommitRelation(history)
    saturate_ra(history, relation, report.bad_reads)
    watch.lap("saturation")

    violations.extend(relation.find_cycles(max_witnesses=max_witnesses))
    watch.lap("cycle_check")

    stats = {"inferred_edges": relation.num_inferred_edges, "co_edges": relation.num_edges}
    return CheckResult.of(history, IsolationLevel.READ_ATOMIC, violations, "awdit", watch, stats)


def check_ra_single_session(
    history: History,
    max_witnesses: Optional[int] = None,
    read_consistency: Optional[ReadConsistencyReport] = None,
) -> CheckResult:
    """Linear-time RA check for single-session histories (Theorem 1.6).

    With one session, the commit order must equal the session order, so it
    suffices to scan the session once: a read of ``x`` from ``t1`` is a
    violation whenever a *different* transaction wrote ``x`` between ``t1``
    and the reader.  Empty sessions do not count: a format may keep them.
    """
    busy = sum(1 for session in history.sessions if session)
    if busy > 1:
        raise ValueError(
            "check_ra_single_session requires a single-session history; "
            f"got {busy} sessions with transactions"
        )
    watch = Stopwatch()
    report = read_consistency or check_read_consistency(history)
    watch.lap("read_consistency")

    violations: List[Violation] = list(report.violations)
    violations.extend(check_repeatable_reads(history, report.bad_reads))

    relation = CommitRelation(history)
    transactions = history.transactions
    last_write: Dict[str, int] = {}
    for sid in range(history.num_sessions):
        for t3 in history.committed_in_session(sid):
            for _index, op, t1 in _external_reads(history, t3, report.bad_reads):
                t2 = last_write.get(op.key)
                if t2 is not None and t2 != t1:
                    relation.add_inferred(t2, t1, key=op.key)
            for key in transactions[t3].keys_written:
                last_write[key] = t3
    watch.lap("scan")

    violations.extend(relation.find_cycles(max_witnesses=max_witnesses))
    watch.lap("cycle_check")

    stats = {"inferred_edges": relation.num_inferred_edges}
    return CheckResult.of(
        history, IsolationLevel.READ_ATOMIC, violations, "awdit-1session", watch, stats
    )
