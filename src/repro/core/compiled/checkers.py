"""AWDIT checkers running on the compiled array IR.

Each function here is a line-by-line port of the corresponding object-path
algorithm (:mod:`repro.core.read_consistency`, :mod:`repro.core.rc`,
:mod:`repro.core.ra`, :mod:`repro.core.cc`) onto
:class:`~repro.core.compiled.ir.CompiledHistory`: identifiers are dense ints,
per-key state lives in int-keyed dicts, and the commit relation is built in
packed-edge form.  The ports preserve the object path's *iteration and edge
insertion orders* exactly, so verdicts, violation kinds, and witness
renderings are byte-identical (property-tested in ``tests/test_compiled.py``);
only the constant factors change.

The module deliberately reaches into the IR's internal flat arrays
(``_xr_*``, ``_kw_*``) instead of the iterator accessors: these loops are the
hot path the compiled layer exists for.  The saturation inner loops
themselves live in :mod:`repro.core.compiled.kernels`
(``saturate_{rc,ra,cc}_compiled``), which the per-level functions here
call.  CC saturation has a vectorized and a fallback side, and the CC
result reports which ran in its ``saturation_kernel`` stat.  Happens-before
(:func:`compute_happens_before_compiled`) has two sides as well: with numpy
loaded it writes one n × k clock matrix, which the vectorized CC kernel
reads in place; without, one clock list per committed transaction.

Everything a level does after read consistency (and repeatable reads, for
RA) is one function per level -- :func:`rc_cycles`, :func:`ra_cycles`,
:func:`cc_cycles`: build ``so ∪ wr``, compute happens-before (CC only),
saturate, and search the relation for cycles.  CC builds ``so ∪ wr`` once:
happens-before freezes the relation's own logs (it builds a second wr log
only when a read is bad), and saturation then extends that relation.  The
causality-cycle witnesses of a cyclic ``so ∪ wr`` (:func:`causality_cycles`)
live here too; the object engine's :mod:`repro.core.cc` imports them, so a
compiled check loads no object-engine module.  ``check_{rc,ra,cc}_compiled``
call them after their read-level checks.  They read only the IR's
transaction arrays, ``sessions``, ``labels``, ``txn_start``, ``_kw_*`` and
``_xr_*``, never its operation columns.  A streaming check
(:mod:`repro.core.compiled.online`) builds the same IR and runs
:func:`check_compiled`, so both modes run the same code.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.commit import CommitRelation
from repro.core.compiled.ir import CompiledHistory, compile_history
from repro.core.compiled.kernels import (
    saturate_cc_compiled,
    saturate_ra_compiled,
    saturate_rc_compiled,
)
from repro.core.isolation import IsolationLevel
from repro.core.model import History, OpRef
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import (
    CycleEdge,
    CycleViolation,
    ReadConsistencyViolation,
    RepeatableReadViolation,
    Violation,
    ViolationKind,
)
from repro.graph import csr as _csr
from repro.graph.csr import (
    FrozenGraph,
    find_cycle_in_component_frozen,
    freeze_packed,
    load_numpy,
    scc_frozen,
    toposort_frozen,
)
from repro.graph.digraph import EDGE_SHIFT

__all__ = [
    "CompiledReadReport",
    "check_read_consistency_compiled",
    "check_compiled",
    "check_all_levels_compiled",
    "check_rc_compiled",
    "check_ra_compiled",
    "check_ra_single_session_compiled",
    "check_cc_compiled",
    "rc_cycles",
    "ra_cycles",
    "cc_cycles",
    "causality_cycles",
    "causality_labels",
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

    def _bad(kind: ViolationKind, message: str, read: int, write: Optional[int]) -> None:
        bad_ops.add(read)
        read_ref = OpRef(op_txn[read], read - txn_start[op_txn[read]])
        write_ref = (
            None
            if write is None
            else OpRef(op_txn[write], write - txn_start[op_txn[write]])
        )
        violations.append(
            ReadConsistencyViolation(
                kind=kind, message=message, read=read_ref, write=write_ref
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
                    ViolationKind.THIN_AIR_READ,
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
                    ViolationKind.ABORTED_READ,
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
                    ViolationKind.FUTURE_READ,
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
                        ViolationKind.NOT_OWN_WRITE,
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
                        ViolationKind.NOT_LATEST_WRITE,
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
                    ViolationKind.NOT_LATEST_WRITE,
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


# -- CC (Algorithm 3) ----------------------------------------------------------


def causality_labels(
    so_log: Sequence[int],
    wr_log: Sequence[int],
    wr_keys: Sequence,
    key_names: Optional[Sequence[str]] = None,
) -> Dict[int, Optional[str]]:
    """Witness labels of a causality graph: packed edge -> witnessing key.

    Replays the edge logs in arrival order: ``None`` for session-order
    edges, the key of the *first* witnessing read for ``wr`` edges.  An edge
    that is both ``so`` and ``wr`` keeps the keyed label (a session reading
    its predecessor's write must not be reported as bare ``so``).  When
    ``key_names`` is given the wr key row holds dense ids to decode;
    otherwise it holds the key objects themselves.
    """
    labels: Dict[int, Optional[str]] = {}
    for edge in so_log:
        if edge not in labels:
            labels[edge] = None
    if key_names is None:
        for edge, key in zip(wr_log, wr_keys):
            if labels.get(edge) is None:
                labels[edge] = key
    else:
        for edge, kid in zip(wr_log, wr_keys):
            if labels.get(edge) is None:
                labels[edge] = key_names[kid]
    return labels


def causality_cycles(
    names: Sequence[str],
    graph: FrozenGraph,
    labels: Dict[int, Optional[str]],
    max_witnesses: Optional[int] = None,
) -> List[Violation]:
    """One causality-cycle witness per non-trivial SCC of ``so ∪ wr``.

    ``names`` maps dense transaction ids to printable names and ``labels``
    packed edges to witnessing keys (see :func:`causality_labels`).  Shared
    by both engines -- the object path (:mod:`repro.core.cc`) and the
    compiled path extract their causality witnesses here, over the same
    frozen CSR rows, so the renderings cannot drift.
    """
    violations: List[Violation] = []
    for component in scc_frozen(graph):
        if len(component) <= 1:
            continue
        cycle = find_cycle_in_component_frozen(graph, component)
        edges: List[CycleEdge] = []
        for i, source in enumerate(cycle):
            target = cycle[(i + 1) % len(cycle)]
            key = labels.get((source << EDGE_SHIFT) | target)
            reason = "so" if key is None else "wr"
            edges.append(CycleEdge(source, target, reason, key))
        names_text = " -> ".join(names[t] for t in cycle)
        violations.append(
            CycleViolation(
                kind=ViolationKind.CAUSALITY_CYCLE,
                message=f"so ∪ wr cycle over {names_text} -> {names[cycle[0]]}",
                edges=tuple(edges),
            )
        )
        if max_witnesses is not None and len(violations) >= max_witnesses:
            break
    return violations


def _causality_edges_compiled(
    ch: CompiledHistory, bad_ops: Set[int], relation: CommitRelation
):
    """Packed edge logs of the committed ``so ∪ good-wr`` graph.

    Returns ``(so_log, wr_log, wr_keys)`` flat rows.  They are
    ``relation``'s own logs (:func:`_relation_from_compiled` walks the same
    sessions and external reads in the same order) unless a read is bad:
    only then is a second wr log built, without the bad reads' entries.
    Nothing is deduplicated here (a reader observing the same writer twice
    appends twice): the freeze collapses duplicates, and the labels replay
    first-wins.
    """
    if not bad_ops:
        return relation._so_log, relation._wr_log, relation._wr_keys
    wr_log = array("Q")
    wr_keys = array("q")
    committed = ch.txn_committed
    xr_start = ch._xr_start
    xr_po = ch._xr_po
    xr_key = ch._xr_key
    xr_writer = ch._xr_writer
    txn_start = ch.txn_start
    wr_append = wr_log.append
    wrk_append = wr_keys.append
    for tid in range(ch.num_transactions):
        if not committed[tid]:
            continue
        base = txn_start[tid]
        for j in range(xr_start[tid], xr_start[tid + 1]):
            if base + xr_po[j] in bad_ops:
                continue
            writer = xr_writer[j]
            if not committed[writer]:
                continue
            wr_append((writer << EDGE_SHIFT) | tid)
            wrk_append(xr_key[j])
    return relation._so_log, wr_log, wr_keys


def compute_happens_before_compiled(
    ch: CompiledHistory,
    bad_ops: Set[int],
    relation: Optional[CommitRelation] = None,
):
    """``ComputeHB`` on the IR: one clock row per committed transaction.

    Returns ``(hb, [])``, or ``(None, violations)`` with the causality-cycle
    witnesses when ``so ∪ wr`` is cyclic.  ``hb[t][s]`` is the session index
    of the so-latest transaction of session ``s`` in ``t``'s causal past
    (``-1`` for none).  With numpy loaded, ``hb`` is one n × k int32 matrix
    (:func:`_clock_matrix`) that the vectorized CC kernel reads in place;
    otherwise it is one plain list per committed transaction and ``None``
    for the others (:func:`_clock_lists`).  ``relation`` is the unsaturated
    ``so ∪ wr`` relation of ``ch`` (:func:`_relation_from_compiled`, built
    here when not given); its logs are the graph's unless a read is bad.

    Both sides visit the committed transactions in topological order.  A
    row starts as its session predecessor's row, advanced to that
    predecessor, and then joins the rows of its good committed writers.
    A writer ``w`` with ``session_index(w) <= row[session(w)]`` is skipped:
    the row is always the frontier of a down-closed set of transactions, so
    ``w`` and its whole past are in it already.  That skip also drops a
    writer read twice, and on many-session histories it drops most joins.
    """
    if relation is None:
        relation = _relation_from_compiled(ch)
    so_log, wr_log, wr_keys = _causality_edges_compiled(ch, bad_ops, relation)
    graph = freeze_packed(ch.num_transactions, (so_log, wr_log))
    order = toposort_frozen(graph)
    if order is None:
        labels = causality_labels(
            so_log, wr_log, wr_keys, key_names=ch.key_table.values
        )
        names = [ch.name_of(tid) for tid in range(ch.num_transactions)]
        return None, causality_cycles(names, graph, labels)
    np = _csr._np
    if np is not None:
        return _clock_matrix(np, ch, order, bad_ops), []
    return _clock_lists(ch, order, bad_ops), []


def _clock_matrix(np, ch: CompiledHistory, order: List[int], bad_ops: Set[int]):
    """The happens-before clocks as one n × k int32 matrix, rows of ``-1``.

    The rows are written through a flat ``memoryview`` of the matrix: a
    row copy is one slice assignment, and each entry read or write is a
    C-level index that yields a plain int.  Only the join itself,
    ``np.maximum`` over two rows, goes through numpy.  A session index is
    below the transaction count, which CC saturation caps at ``2^31``, so
    int32 holds it; a larger one would make the ``memoryview`` raise, never
    wrap.
    """
    k = ch.num_sessions
    committed = ch.txn_committed
    txn_session = ch.txn_session
    txn_session_index = ch.txn_session_index
    xr_start = ch._xr_start
    xr_po = ch._xr_po
    xr_writer = ch._xr_writer
    txn_start = ch.txn_start
    check_bad = bool(bad_ops)
    matrix = np.full((ch.num_transactions, k), -1, dtype=np.int32)
    flat = memoryview(matrix.reshape(-1))
    maximum = np.maximum
    last_in_session = [-1] * k
    for tid in order:
        if not committed[tid]:
            continue
        session = txn_session[tid]
        row = tid * k
        previous = last_in_session[session]
        last_in_session[session] = tid
        if previous >= 0:
            flat[row : row + k] = flat[previous * k : previous * k + k]
            flat[row + session] = txn_session_index[previous]
        clock = None
        base = txn_start[tid]
        for j in range(xr_start[tid], xr_start[tid + 1]):
            if check_bad and base + xr_po[j] in bad_ops:
                continue
            writer = xr_writer[j]
            if not committed[writer]:
                continue
            wsi = txn_session_index[writer]
            ws = row + txn_session[writer]
            if wsi <= flat[ws]:
                continue
            if clock is None:
                clock = matrix[tid]
            maximum(clock, matrix[writer], out=clock)
            flat[ws] = wsi
    return matrix


def _clock_lists(
    ch: CompiledHistory, order: List[int], bad_ops: Set[int]
) -> List[Optional[List[int]]]:
    """The happens-before clocks as plain lists: the side without numpy."""
    k = ch.num_sessions
    committed = ch.txn_committed
    txn_session = ch.txn_session
    txn_session_index = ch.txn_session_index
    xr_start = ch._xr_start
    xr_po = ch._xr_po
    xr_writer = ch._xr_writer
    txn_start = ch.txn_start
    check_bad = bool(bad_ops)
    session_clock: List[List[int]] = [[-1] * k for _ in range(k)]
    hb: List[Optional[List[int]]] = [None] * ch.num_transactions
    for tid in order:
        if not committed[tid]:
            continue
        session = txn_session[tid]
        clock = session_clock[session][:]
        base = txn_start[tid]
        for j in range(xr_start[tid], xr_start[tid + 1]):
            if check_bad and base + xr_po[j] in bad_ops:
                continue
            writer = xr_writer[j]
            if not committed[writer]:
                continue
            ws = txn_session[writer]
            wsi = txn_session_index[writer]
            if wsi <= clock[ws]:
                continue
            writer_clock = hb[writer]
            for s2 in range(k):
                value = writer_clock[s2]
                if value > clock[s2]:
                    clock[s2] = value
            clock[ws] = wsi
        hb[tid] = clock
        next_clock = clock[:]
        next_clock[session] = txn_session_index[tid]
        session_clock[session] = next_clock
    return hb


def cc_cycles(
    ch: CompiledHistory,
    bad_ops: Set[int],
    watch: Stopwatch,
    max_witnesses: Optional[int] = None,
) -> Tuple[List[Violation], Dict[str, object]]:
    """Algorithm 3 after read consistency: happens-before, saturation, cycles.

    A cycle in ``so ∪ wr`` itself ends the check with causality-cycle
    violations (and no stats).  Otherwise the saturated ``co'`` is searched
    for cycles, and the stats name the saturation kernel that ran.  Laps
    ``happens_before`` (which includes building ``so ∪ wr``, shared with
    saturation), then ``saturation`` and ``cycle_check``.  Loads numpy
    first, so the CC kernels run their numpy sides for every caller.
    """
    load_numpy()
    relation = _relation_from_compiled(ch)
    hb, cycle_violations = compute_happens_before_compiled(ch, bad_ops, relation)
    watch.lap("happens_before")
    if hb is None:
        return cycle_violations, {}
    kernel = saturate_cc_compiled(ch, relation, hb, bad_ops)
    # The clocks are dead once the co log holds every attempt; the cycle
    # search should not carry them.
    del hb
    watch.lap("saturation")
    violations = relation.find_cycles(max_witnesses=max_witnesses)
    watch.lap("cycle_check")
    return violations, {**_relation_stats(relation), "saturation_kernel": kernel}


def check_cc_compiled(
    ch: CompiledHistory,
    max_witnesses: Optional[int] = None,
    report: Optional[CompiledReadReport] = None,
) -> CheckResult:
    """Causal Consistency on the IR (mirror of ``check_cc``)."""
    watch = Stopwatch()
    report = report or check_read_consistency_compiled(ch)
    watch.lap("read_consistency")
    cycles, stats = cc_cycles(ch, report.bad_ops, watch, max_witnesses)
    return _result(
        ch,
        IsolationLevel.CAUSAL_CONSISTENCY,
        report.violations + cycles,
        "awdit",
        watch,
        stats,
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
