"""AWDIT checkers running on the compiled array IR.

Each function here is a line-by-line port of the corresponding object-path
algorithm (:mod:`repro.core.read_consistency`, :mod:`repro.core.rc`,
:mod:`repro.core.ra`) onto :class:`~repro.core.compiled.ir.CompiledHistory`:
identifiers are dense ints, per-key state lives in int-keyed dicts, and the
commit relation is built in packed-edge form.  The ports preserve the object
path's *iteration and edge insertion orders* exactly, so verdicts, violation
kinds, and witness renderings are byte-identical (property-tested in
``tests/test_compiled.py``); only the constant factors change.

The module deliberately reaches into the IR's internal flat arrays
(``_xr_*``, ``_kw_*``) instead of the iterator accessors: these loops are the
hot path the compiled layer exists for.  The RC and RA saturation inner
loops live in :mod:`repro.core.compiled.kernels`, which the per-level
functions here call.  Causal Consistency -- happens-before, CC saturation
and :func:`~repro.core.compiled.cc.check_cc_compiled` -- is in
:mod:`repro.core.compiled.cc`, which :func:`check_compiled` imports only for
a CC check, so an RC or RA check compiles none of it.

Everything a level does after read consistency (and repeatable reads, for
RA) is one function per level -- :func:`rc_cycles`, :func:`ra_cycles`,
:func:`~repro.core.compiled.cc.cc_cycles`: build ``so ∪ wr``
(:func:`_relation_from_compiled`), saturate, and search the relation for
cycles.  ``check_{rc,ra,cc}_compiled`` call them after their read-level
checks.  They read only the IR's transaction arrays, ``sessions``,
``labels``, ``txn_start``, ``_kw_*`` and ``_xr_*``, never its operation
columns.  A streaming check (:mod:`repro.core.compiled.online`) builds the
same IR and runs :func:`check_compiled`, so both modes run the same code.

A consistent history builds no violation, so the violation types and the
object model are imported where a violation is built or a
:class:`~repro.core.model.History` is compiled, not at the top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.commit import CommitRelation
from repro.core.compiled.ir import CompiledHistory, compile_history
from repro.core.compiled.kernels import saturate_ra_compiled, saturate_rc_compiled
from repro.core.isolation import IsolationLevel
from repro.core.result import CheckResult, Stopwatch
from repro.graph.digraph import EDGE_SHIFT

if TYPE_CHECKING:
    from repro.core.violations import Violation

__all__ = [
    "CompiledReadReport",
    "check_read_consistency_compiled",
    "check_compiled",
    "check_all_levels_compiled",
    "check_rc_compiled",
    "check_ra_compiled",
    "check_ra_single_session_compiled",
    "rc_cycles",
    "ra_cycles",
]


class CompiledReadReport:
    """Read Consistency outcome over the IR: violations + bad read op indices.

    ``bad_ops`` holds *global operation indices* (the compiled analogue of the
    object report's ``bad_reads`` set of :class:`OpRef`).
    """

    __slots__ = ("violations", "bad_ops")

    def __init__(self, violations: List[Violation], bad_ops: Set[int]) -> None:
        self.violations = violations
        self.bad_ops = bad_ops

    @property
    def ok(self) -> bool:
        """True when the history satisfies all five Read Consistency axioms."""
        return not self.violations


def check_read_consistency_compiled(ch: CompiledHistory) -> CompiledReadReport:
    """Algorithm 4 on the IR (mirror of ``check_read_consistency``)."""
    violations: List[Violation] = []
    bad_ops: Set[int] = set()
    op_kind = ch.op_kind
    op_key = ch.op_key
    op_wr = ch.op_wr
    op_txn = ch.op_txn
    op_final = ch.op_final
    txn_start = ch.txn_start
    committed = ch.txn_committed
    key_names = ch.key_table.values
    value_objs = ch.value_table.values

    def _bad(kind: str, message: str, read: int, write: Optional[int]) -> None:
        # ``kind`` names a ViolationKind member: a consistent history builds
        # no violation, so it imports none of their types.
        from repro.core.model import OpRef
        from repro.core.violations import ReadConsistencyViolation, ViolationKind

        bad_ops.add(read)
        read_ref = OpRef(op_txn[read], read - txn_start[op_txn[read]])
        write_ref = (
            None
            if write is None
            else OpRef(op_txn[write], write - txn_start[op_txn[write]])
        )
        violations.append(
            ReadConsistencyViolation(
                kind=ViolationKind[kind], message=message, read=read_ref, write=write_ref
            )
        )

    for tid in range(ch.num_transactions):
        if not committed[tid]:
            continue
        name = ch.name_of(tid)
        lo, hi = txn_start[tid], txn_start[tid + 1]
        latest_own_write: Dict[int, int] = {}
        for i in range(lo, hi):
            key = op_key[i]
            if op_kind[i]:
                latest_own_write[key] = i
                continue
            w = op_wr[i]

            # (a) thin-air reads: the observed value was never written.
            if w < 0:
                _bad(
                    "THIN_AIR_READ",
                    f"{name} reads {ch.op_repr(i)} but no transaction writes "
                    f"{value_objs[ch.op_value[i]]!r} to {key_names[key]!r}",
                    i,
                    None,
                )
                continue

            writer_tid = op_txn[w]

            # (b) aborted reads.
            if not committed[writer_tid]:
                _bad(
                    "ABORTED_READ",
                    f"{name} reads {ch.op_repr(i)} written by aborted "
                    f"transaction {ch.name_of(writer_tid)}",
                    i,
                    w,
                )
                continue

            # (c) future reads: the observed write is po-after the read in the
            # same transaction.
            if writer_tid == tid and w > i:
                _bad(
                    "FUTURE_READ",
                    f"{name} reads {ch.op_repr(i)} before writing it "
                    f"(write at position {w - lo}, read at {i - lo})",
                    i,
                    w,
                )
                continue

            if writer_tid != tid:
                # (d) observe own writes: a read may not observe an external
                # write when an own write to the key precedes it.
                if key in latest_own_write:
                    _bad(
                        "NOT_OWN_WRITE",
                        f"{name} reads {ch.op_repr(i)} from {ch.name_of(writer_tid)} "
                        f"although it wrote {key_names[key]!r} earlier itself",
                        i,
                        w,
                    )
                    continue
                # (e) observe latest write, different-transaction case: the
                # observed write must be the writer's final write to the key.
                if not op_final[w]:
                    _bad(
                        "NOT_LATEST_WRITE",
                        f"{name} reads {ch.op_repr(i)} from a non-final write "
                        f"of {ch.name_of(writer_tid)} to {key_names[key]!r}",
                        i,
                        w,
                    )
                continue

            # Same-transaction case of (e): the read must observe the latest
            # own write to the key that precedes it in program order.
            own_index = latest_own_write.get(key)
            if own_index is None:
                continue
            if own_index != w:
                _bad(
                    "NOT_LATEST_WRITE",
                    f"{name} reads {ch.op_repr(i)} from a stale own write to "
                    f"{key_names[key]!r} (a later own write precedes the read)",
                    i,
                    w,
                )
    return CompiledReadReport(violations, bad_ops)


# -- commit relation over the IR -----------------------------------------------


def _relation_from_compiled(ch: CompiledHistory) -> CommitRelation:
    """Build ``so ∪ wr`` in exactly the order ``CommitRelation(history)`` does.

    Pure log appends: packed so/wr edges (plus the wr key ids) go straight
    into the relation's flat rows, with no per-edge dict probe, no label
    tuple, and no name materialization -- duplicates collapse and labels
    replay lazily at freeze.  Names and key names resolve through the IR
    only if a witness is rendered.
    """
    committed = ch.txn_committed
    relation = CommitRelation(
        num_vertices=ch.num_transactions,
        committed=ch.committed,
        namer=ch.name_of,
        key_names=ch.key_table.values,
    )
    so_append = relation._so_log.append
    for session in ch.sessions:
        previous = -1
        for tid in session:
            if not committed[tid]:
                continue
            if previous >= 0:
                so_append((previous << EDGE_SHIFT) | tid)
            previous = tid

    xr_start = ch._xr_start
    xr_writer = ch._xr_writer
    xr_key = ch._xr_key
    wr_append = relation._wr_log.append
    wrk_append = relation._wr_keys.append
    for tid in range(ch.num_transactions):
        if not committed[tid]:
            continue
        for j in range(xr_start[tid], xr_start[tid + 1]):
            writer = xr_writer[j]
            if committed[writer]:
                wr_append((writer << EDGE_SHIFT) | tid)
                wrk_append(xr_key[j])
    return relation


def _relation_stats(relation: CommitRelation, co_edges: bool = True) -> Dict[str, object]:
    """The inferred-edge counts and freeze/acyclicity/witness laps of ``relation``."""
    stats: Dict[str, object] = {"inferred_edges": relation.num_inferred_edges}
    if co_edges:
        stats["co_edges"] = relation.num_edges
    stats.update(relation.timings)
    return stats


# -- RC (Algorithm 1) ----------------------------------------------------------


def rc_cycles(
    ch: CompiledHistory,
    bad_ops: Set[int],
    watch: Stopwatch,
    max_witnesses: Optional[int] = None,
) -> Tuple[List[Violation], Dict[str, object]]:
    """Algorithm 1 after read consistency: saturate ``co'``, then find its cycles.

    Returns the cycle violations and the relation's stats; laps
    ``saturation`` and ``cycle_check`` into ``watch``.
    """
    relation = _relation_from_compiled(ch)
    saturate_rc_compiled(ch, relation, bad_ops)
    watch.lap("saturation")
    violations = relation.find_cycles(max_witnesses=max_witnesses)
    watch.lap("cycle_check")
    return violations, _relation_stats(relation)


def check_rc_compiled(
    ch: CompiledHistory,
    max_witnesses: Optional[int] = None,
    report: Optional[CompiledReadReport] = None,
) -> CheckResult:
    """Read Committed on the IR (mirror of ``check_rc``)."""
    watch = Stopwatch()
    report = report or check_read_consistency_compiled(ch)
    watch.lap("read_consistency")
    cycles, stats = rc_cycles(ch, report.bad_ops, watch, max_witnesses)
    return _result(
        ch, IsolationLevel.READ_COMMITTED, report.violations + cycles, "awdit", watch, stats
    )


# -- RA (Algorithm 2, Theorem 1.6) ---------------------------------------------


def check_repeatable_reads_compiled(
    ch: CompiledHistory, bad_ops: Set[int]
) -> List[Violation]:
    """Repeatable-reads pre-check on the IR (mirror of ``check_repeatable_reads``)."""
    violations: List[Violation] = []
    op_kind = ch.op_kind
    op_key = ch.op_key
    op_wr = ch.op_wr
    op_txn = ch.op_txn
    txn_start = ch.txn_start
    committed = ch.txn_committed
    key_names = ch.key_table.values
    for tid in range(ch.num_transactions):
        if not committed[tid]:
            continue
        last_writer: Dict[int, int] = {}
        for i in range(txn_start[tid], txn_start[tid + 1]):
            if op_kind[i] or i in bad_ops:
                continue
            w = op_wr[i]
            if w < 0:
                continue
            writer = op_txn[w]
            key = op_key[i]
            previous = last_writer.get(key)
            if writer != tid and previous is not None and previous != writer:
                from repro.core.violations import RepeatableReadViolation, ViolationKind

                violations.append(
                    RepeatableReadViolation(
                        kind=ViolationKind.NON_REPEATABLE_READ,
                        message=(
                            f"{ch.name_of(tid)} reads {key_names[key]!r} from both "
                            f"{ch.name_of(previous)} and {ch.name_of(writer)}"
                        ),
                        txn=tid,
                        key=key_names[key],
                        writers=(previous, writer),
                    )
                )
            else:
                last_writer[key] = writer
    return violations


def ra_cycles(
    ch: CompiledHistory,
    bad_ops: Set[int],
    watch: Stopwatch,
    max_witnesses: Optional[int] = None,
    so_only: bool = False,
) -> Tuple[List[Violation], Dict[str, object]]:
    """Algorithm 2 after repeatable reads: saturate ``co'``, then find its cycles.

    ``so_only`` is the single-session specialization (Theorem 1.6): only
    the ``t2 -so-> t3`` inferences, lapped as ``scan``, and no ``co_edges``
    stat.  Otherwise laps ``saturation``; ``cycle_check`` either way.
    """
    relation = _relation_from_compiled(ch)
    saturate_ra_compiled(ch, relation, bad_ops, so_only=so_only)
    watch.lap("scan" if so_only else "saturation")
    violations = relation.find_cycles(max_witnesses=max_witnesses)
    watch.lap("cycle_check")
    return violations, _relation_stats(relation, co_edges=not so_only)


def check_ra_compiled(
    ch: CompiledHistory,
    max_witnesses: Optional[int] = None,
    report: Optional[CompiledReadReport] = None,
) -> CheckResult:
    """Read Atomic on the IR (mirror of ``check_ra``)."""
    watch = Stopwatch()
    report = report or check_read_consistency_compiled(ch)
    watch.lap("read_consistency")

    violations: List[Violation] = list(report.violations)
    violations.extend(check_repeatable_reads_compiled(ch, report.bad_ops))
    watch.lap("repeatable_reads")

    cycles, stats = ra_cycles(ch, report.bad_ops, watch, max_witnesses)
    return _result(
        ch, IsolationLevel.READ_ATOMIC, violations + cycles, "awdit", watch, stats
    )


def check_ra_single_session_compiled(
    ch: CompiledHistory,
    max_witnesses: Optional[int] = None,
    report: Optional[CompiledReadReport] = None,
) -> CheckResult:
    """Theorem 1.6's linear RA check on the IR (mirror of ``check_ra_single_session``)."""
    if ch.num_sessions > 1:
        raise ValueError(
            "check_ra_single_session requires a single-session history; "
            f"got {ch.num_sessions} sessions"
        )
    watch = Stopwatch()
    report = report or check_read_consistency_compiled(ch)
    watch.lap("read_consistency")

    violations: List[Violation] = list(report.violations)
    violations.extend(check_repeatable_reads_compiled(ch, report.bad_ops))

    cycles, stats = ra_cycles(ch, report.bad_ops, watch, max_witnesses, so_only=True)
    return _result(
        ch, IsolationLevel.READ_ATOMIC, violations + cycles, "awdit-1session", watch, stats
    )


# -- dispatch -------------------------------------------------------------------


def _result(
    ch: CompiledHistory,
    level: IsolationLevel,
    violations: List[Violation],
    checker: str,
    watch: Stopwatch,
    stats: Dict[str, object],
) -> CheckResult:
    return CheckResult(
        level=level,
        violations=violations,
        checker=checker,
        elapsed_seconds=watch.total,
        num_operations=ch.num_operations,
        num_transactions=ch.num_transactions,
        num_sessions=ch.num_sessions,
        stats={**stats, **watch.laps},
    )


def _compiled(source) -> CompiledHistory:
    if isinstance(source, CompiledHistory):
        return source
    from repro.core.model import History

    if isinstance(source, History):
        return compile_history(source)
    raise TypeError(f"expected a History or CompiledHistory, got {type(source)!r}")


def check_compiled(
    source,
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
    use_single_session_fast_path: bool = True,
    report: Optional[CompiledReadReport] = None,
) -> CheckResult:
    """Check a history (object or compiled) against ``level`` on the IR.

    The compiled analogue of :func:`repro.core.check`: same dispatch, same
    single-session RA specialization, same results.
    """
    ch = _compiled(source)
    if level is IsolationLevel.READ_COMMITTED:
        return check_rc_compiled(ch, max_witnesses=max_witnesses, report=report)
    if level is IsolationLevel.READ_ATOMIC:
        if use_single_session_fast_path and ch.num_sessions <= 1:
            return check_ra_single_session_compiled(
                ch, max_witnesses=max_witnesses, report=report
            )
        return check_ra_compiled(ch, max_witnesses=max_witnesses, report=report)
    if level is IsolationLevel.CAUSAL_CONSISTENCY:
        from repro.core.compiled.cc import check_cc_compiled

        return check_cc_compiled(ch, max_witnesses=max_witnesses, report=report)
    raise ValueError(f"unsupported isolation level: {level!r}")


def check_all_levels_compiled(
    source,
    max_witnesses: Optional[int] = None,
    use_single_session_fast_path: bool = True,
) -> Dict[IsolationLevel, CheckResult]:
    """Check all three levels on one compiled IR, sharing one RC pass."""
    ch = _compiled(source)
    report = check_read_consistency_compiled(ch)
    return {
        level: check_compiled(
            ch,
            level,
            max_witnesses=max_witnesses,
            use_single_session_fast_path=use_single_session_fast_path,
            report=report,
        )
        for level in (
            IsolationLevel.READ_COMMITTED,
            IsolationLevel.READ_ATOMIC,
            IsolationLevel.CAUSAL_CONSISTENCY,
        )
    }
