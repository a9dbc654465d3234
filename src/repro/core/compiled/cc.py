"""Causal Consistency on the compiled IR (Algorithm 3): all of its own code.

An RC or RA check never runs any of this, so
:func:`~repro.core.compiled.checkers.check_compiled` imports this module
only for a CC check.  The object engine (:mod:`repro.core.cc`) imports
:func:`causality_labels` and :func:`causality_cycles` from here when
``so ∪ wr`` is cyclic, so both engines render causality witnesses from
the same frozen CSR rows.

:func:`cc_cycles` is everything CC does after read consistency: build
``so ∪ wr`` once (:func:`~repro.core.compiled.checkers._relation_from_compiled`),
compute happens-before from it (:func:`compute_happens_before_compiled`,
which builds a second wr log only when a read is bad), saturate the same
relation (:func:`saturate_cc_compiled`) and search it for cycles.

Happens-before has two sides: with numpy loaded it writes one n × k int32
clock matrix, which the vectorized CC kernel reads in place; without, one
clock list per committed transaction.  CC saturation has two sides too,
the vectorized kernel (in fixed-size transaction chunks, so its
temporaries stay bounded) and the interpreted monotone-pointer walk; each
takes either clock form and converts the other at its boundary, both emit
byte-identical co logs in the same order (property-tested in
``tests/test_kernels.py``), and the CC result names the side that ran in
its ``saturation_kernel`` stat.  The vectorized side runs when numpy is
loaded and the history has at least
:data:`~repro.core.compiled.kernels._MIN_VECTOR_READS` external reads.

The key argument for the CC kernel: along one session the happens-before
clocks are monotone (``hb[t3'][s] >= hb[t3][s]`` for ``t3'`` after
``t3``), so the fallback's memoized monotone pointer per (key, session)
bucket always lands on *the latest writer with session index <= clock
bound* -- a stateless query the vectorized path answers for every probe at
once with one ``searchsorted`` against a flat sorted writer index.  Both
sides, like the object ``saturate_cc``, drop a candidate ``t2 -> t1`` that
happens-before already implies (``hb[t1][session(t2)] >=
session_index(t2)``), and skip a probe outright when ``t3``'s bound at the
session is at most ``t1``'s clock there; the scalar pointer may then lag,
and the next larger bound walks it on.

Two 32-bit boundaries shape the vectorized encodings (mirroring the packed
edges of :mod:`repro.graph.csr`):

* packed edges ``(t2 << EDGE_SHIFT) | t1`` are built in ``uint64`` -- a
  signed intermediate would flip sign for ``t2 >= 2^31``; and
* the writer index is probed through a composite ``bucket * 2^32 + sidx``
  key.  The span must be ``2^32`` (not ``2^31``): a probe carrying the
  "empty clock" bound ``-1`` sits at ``bucket * span - 1``, and only a span
  strictly above every possible session index keeps that probe below the
  previous bucket's largest entry.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.compiled import checkers, kernels
from repro.core.isolation import IsolationLevel
from repro.core.result import Stopwatch
from repro.graph import csr as _csr
from repro.graph.csr import (
    find_cycle_in_component_frozen,
    freeze_packed,
    load_numpy,
    scc_frozen,
    toposort_frozen,
)
from repro.graph.digraph import EDGE_SHIFT

if TYPE_CHECKING:
    from repro.core.commit import CommitRelation
    from repro.core.compiled.checkers import CompiledReadReport
    from repro.core.compiled.ir import CompiledHistory
    from repro.core.result import CheckResult
    from repro.core.violations import Violation
    from repro.graph.csr import FrozenGraph

__all__ = [
    "causality_cycles",
    "causality_labels",
    "cc_cycles",
    "check_cc_compiled",
    "compute_happens_before_compiled",
    "saturate_cc_compiled",
]


#: Composite writer-index span: ``bucket * _SIDX_SPAN + session_index``.
#: Must exceed every session index (< 2^31, see the transaction-count guard
#: in :func:`saturate_cc_compiled`) *strictly*, so a ``bound = -1`` probe
#: cannot collide with the previous bucket's last entry; see module docstring.
_SIDX_SPAN = 1 << 32

#: Bucket ids above this would overflow the int64 composite; such histories
#: (>2^31 distinct (key, session) writer buckets) take the fallback.
_MAX_BUCKETS = 1 << 31

#: Transactions per pass of the vectorized CC kernel.  A pass's temporaries
#: grow with the (read, writer bucket) probes of its transactions, so one
#: whole-history pass peaks well above the co log it emits; fixed-size
#: chunks, taken in emission order, bound the peak near the co log's size.
_CC_CHUNK_TXNS = 1024

_UNSET = object()


# -- happens-before (ComputeHB) ---------------------------------------------


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
    from repro.core.violations import CycleEdge, CycleViolation, ViolationKind

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
    ``relation``'s own logs (``checkers._relation_from_compiled`` walks the
    same sessions and external reads in the same order) unless a read is
    bad: only then is a second wr log built, without the bad reads' entries.
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
    ``so ∪ wr`` relation of ``ch`` (``checkers._relation_from_compiled``,
    built here when not given); its logs are the graph's unless a read is
    bad.

    Both sides visit the committed transactions in topological order.  A
    row starts as its session predecessor's row, advanced to that
    predecessor, and then joins the rows of its good committed writers.
    A writer ``w`` with ``session_index(w) <= row[session(w)]`` is skipped:
    the row is always the frontier of a down-closed set of transactions, so
    ``w`` and its whole past are in it already.  That skip also drops a
    writer read twice, and on many-session histories it drops most joins.
    """
    if relation is None:
        relation = checkers._relation_from_compiled(ch)
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


# -- saturation ----------------------------------------------------------------


def _writers_by_key_compiled(
    ch: CompiledHistory,
) -> Tuple[List[Optional[List[Tuple[int, List[int], List[int], int, int]]]], int]:
    """``Writes_s[x]`` indexed by key id (mirror of ``_writers_by_key_per_session``).

    Returns ``(buckets, num_buckets)``.  Each bucket entry is ``(session,
    writer_tids, writer_session_indices, len(writer_tids), bucket_id)`` --
    the length is precomputed for the saturation loop, and ``bucket_id`` is a
    dense index over all ``(key, session)`` buckets so the saturation's
    monotone pointers can live in flat arrays instead of dicts.
    """
    writes: List[Optional[List[Tuple[int, List[int], List[int], int, int]]]] = [
        None
    ] * ch.num_keys
    committed = ch.txn_committed
    txn_session_index = ch.txn_session_index
    kw_start = ch._kw_start
    kw_key = ch._kw_key
    num_buckets = 0
    for sid, session in enumerate(ch.sessions):
        per_key: Dict[int, List[int]] = {}
        for tid in session:
            if not committed[tid]:
                continue
            for key in kw_key[kw_start[tid] : kw_start[tid + 1]]:
                per_key.setdefault(key, []).append(tid)
        for key, tids in per_key.items():
            indices = [txn_session_index[tid] for tid in tids]
            bucket = writes[key]
            if bucket is None:
                bucket = []
                writes[key] = bucket
            bucket.append((sid, tids, indices, len(tids), num_buckets))
            num_buckets += 1
    return writes, num_buckets


class _CCIndex:
    """Flat writer index for the vectorized CC kernel.

    ``wb_comp`` holds one int64 per committed (writer, key) pair, sorted by
    the composite ``bucket_id * _SIDX_SPAN + session_index`` (buckets are
    dense ids over the (key, session) pairs that write the key, numbered in
    (key, session)-ascending order -- the same per-key session order the
    fallback's bucket lists use).  ``wb_tid`` is the aligned writer id.  A
    probe "latest writer of bucket b with session index <= bound" is then
    ``searchsorted(wb_comp, b * span + bound, side='right')``, a hit iff the
    insertion point is past ``bucket_start[b]``.
    """

    __slots__ = (
        "xr_start",
        "xr_po",
        "xr_key",
        "xr_writer",
        "txn_start",
        "committed",
        "wb_comp",
        "wb_tid",
        "bucket_start",
        "bucket_sid",
        "key_bucket_start",
        "key_bucket_count",
        "num_buckets",
    )


def _build_cc_index(ch: CompiledHistory) -> Optional[_CCIndex]:
    """Build the flat writer index, or ``None`` when the encoding can't hold.

    Returns ``None`` (fallback territory) when the composite would overflow
    int64 (``>= 2^31`` buckets / huge ``key * num_sessions`` products) or
    when session lists are not ascending in transaction id -- the IR builders
    always produce ascending sessions, but a hand-built ``History`` may not,
    and the writer rows must be session-ordered for ``searchsorted``.
    """
    np = _csr._np
    num_txn = ch.num_transactions
    num_keys = ch.num_keys
    k = ch.num_sessions
    idx = _CCIndex()
    idx.xr_start = np.frombuffer(ch._xr_start, dtype=np.int64)
    idx.xr_po = np.asarray(ch._xr_po, dtype=np.int64)
    idx.xr_key = np.asarray(ch._xr_key, dtype=np.int64)
    idx.xr_writer = np.asarray(ch._xr_writer, dtype=np.int64)
    idx.txn_start = np.frombuffer(ch.txn_start, dtype=np.int64)
    idx.committed = np.frombuffer(ch.txn_committed, dtype=np.uint8) != 0

    kw_key = np.frombuffer(ch._kw_key, dtype=np.int64)
    total = kw_key.shape[0]
    if total == 0 or num_keys == 0 or k == 0:
        idx.wb_comp = np.zeros(0, dtype=np.int64)
        idx.wb_tid = np.zeros(0, dtype=np.int64)
        idx.bucket_start = np.zeros(0, dtype=np.int64)
        idx.bucket_sid = np.zeros(0, dtype=np.int64)
        idx.key_bucket_start = np.zeros(num_keys, dtype=np.int64)
        idx.key_bucket_count = np.zeros(num_keys, dtype=np.int64)
        idx.num_buckets = 0
        return idx
    if num_keys > (1 << 62) // max(k, 1):
        return None

    # One row per (committed writer, distinct written key).  The IR only
    # materializes kw rows for committed transactions (aborted ones get empty
    # slices in _freeze), so no committed filter is needed here.
    kw_start = np.frombuffer(ch._kw_start, dtype=np.int64)
    counts = np.diff(kw_start)
    tid_of = np.repeat(np.arange(num_txn, dtype=np.int64), counts)
    sid_of = np.frombuffer(ch.txn_session, dtype=np.int64)[tid_of]
    sidx_of = np.frombuffer(ch.txn_session_index, dtype=np.int64)[tid_of]

    # Group rows into (key, session) buckets; the stable sort keeps writers
    # in transaction order within each bucket, which for builder-produced
    # IRs is exactly session order (ascending session index).
    group = kw_key * k + sid_of
    order = np.argsort(group, kind="stable")
    g_sorted = group[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    np.not_equal(g_sorted[1:], g_sorted[:-1], out=boundary[1:])
    bucket_of = np.cumsum(boundary) - 1
    num_buckets = int(bucket_of[-1]) + 1
    if num_buckets >= _MAX_BUCKETS:
        return None
    first_rows = np.flatnonzero(boundary)
    bucket_key = kw_key[order[first_rows]]
    bucket_sid = sid_of[order[first_rows]]
    key_bucket_count = np.bincount(bucket_key, minlength=num_keys)
    wb_comp = bucket_of * _SIDX_SPAN + sidx_of[order]
    if not np.all(wb_comp[1:] > wb_comp[:-1]):
        # Non-ascending session lists (exotic hand-built histories): the
        # fallback's per-session pointer walk handles any order.
        return None

    idx.wb_comp = wb_comp
    idx.wb_tid = tid_of[order]
    idx.bucket_start = first_rows
    idx.bucket_sid = bucket_sid
    idx.key_bucket_count = key_bucket_count
    kb_cum = np.cumsum(key_bucket_count)
    idx.key_bucket_start = kb_cum - key_bucket_count
    idx.num_buckets = num_buckets
    return idx


def _cc_index(ch: CompiledHistory) -> Optional[_CCIndex]:
    """The cached :class:`_CCIndex` of ``ch`` (built at most once per IR)."""
    cache = ch._kernel_cache
    if cache is None:
        cache = {}
        ch._kernel_cache = cache
    idx = cache.get("cc", _UNSET)
    if idx is _UNSET:
        idx = _build_cc_index(ch)
        cache["cc"] = idx
    return idx


def _saturate_cc_vectorized(
    ch: CompiledHistory,
    idx: _CCIndex,
    relation: CommitRelation,
    hb,
    bad_ops: Set[int],
) -> None:
    """All CC edge attempts of ``ch``, in batched passes over transaction chunks.

    Emission order matches the fallback exactly: transactions expand in
    session-major order, :data:`_CC_CHUNK_TXNS` at a time, each
    transaction's surviving reads in program order, and each read's probes
    over its key's buckets in ascending session order -- the masks preserve
    positions, so the filtered edge runs append in the same sequence the
    interpreted loop's appends would.
    """
    np = _csr._np
    committed = ch.txn_committed
    t3s = [t3 for session in ch.sessions for t3 in session if committed[t3]]
    # The transactions x sessions clock matrix, read flat and in place,
    # serves every chunk: the t3 rows bound the probes, and the t1 rows drop
    # the hb-implied edges.  Rows without a clock (uncommitted) are never read.
    k = ch.num_sessions
    if isinstance(hb, list):
        # Clock lists from happens-before run while numpy was not loaded.
        empty = [-1] * k
        hb = np.array([empty if c is None else c for c in hb], dtype=np.int32)
    clocks = hb.reshape(-1)
    bad = np.fromiter(bad_ops, dtype=np.int64, count=len(bad_ops)) if bad_ops else None
    for first in range(0, len(t3s), _CC_CHUNK_TXNS):
        _saturate_cc_chunk(
            idx, relation, clocks, k, t3s[first : first + _CC_CHUNK_TXNS], bad
        )


def _saturate_cc_chunk(
    idx: _CCIndex, relation: CommitRelation, clocks, k: int, chunk: List[int], bad
) -> None:
    """The CC edge attempts of the transactions ``chunk``, in five batched passes.

    ``clocks[t * k + s]`` is transaction ``t``'s happens-before clock at
    session ``s``.
    """
    np = _csr._np
    tids = np.asarray(chunk, dtype=np.int64)

    # Pass 1: expand every external read of the selected transactions.
    starts = idx.xr_start[tids]
    counts = idx.xr_start[tids + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return
    row_of = np.repeat(np.arange(tids.shape[0], dtype=np.int64), counts)
    base = np.cumsum(counts) - counts
    pos = np.arange(total, dtype=np.int64) - base[row_of] + starts[row_of]

    # Pass 2: classify (drop bad reads and uncommitted writers).
    t1 = idx.xr_writer[pos]
    good = idx.committed[t1]
    if bad is not None:
        opidx = idx.txn_start[tids][row_of] + idx.xr_po[pos]
        good &= ~np.isin(opidx, bad)
    if not good.all():
        pos = pos[good]
        row_of = row_of[good]
        t1 = t1[good]
    if pos.shape[0] == 0:
        return
    keys = idx.xr_key[pos]

    # Pass 3: expand each read over its key's (key, session) writer buckets.
    # A probe whose t3 bound is at most t1's clock at the bucket's session
    # is dropped here: every candidate writer of that bucket hb-precedes t1.
    per_read = idx.key_bucket_count[keys]
    total2 = int(per_read.sum())
    if total2 == 0:
        return
    read_of = np.repeat(np.arange(keys.shape[0], dtype=np.int64), per_read)
    first_bucket = idx.key_bucket_start[keys] - (np.cumsum(per_read) - per_read)
    probe_bucket = np.arange(total2, dtype=np.int64) + first_bucket[read_of]
    probe_sid = idx.bucket_sid[probe_bucket]
    bound = clocks[(tids[row_of] * k)[read_of] + probe_sid]
    floor = clocks[(t1 * k)[read_of] + probe_sid]
    live = np.flatnonzero(bound > floor)
    if live.shape[0] == 0:
        return
    read_of = read_of[live]
    probe_bucket = probe_bucket[live]
    bound = bound[live]
    floor = floor[live]

    # Pass 4: one searchsorted answers every "latest writer <= clock bound"
    # query (the fallback's monotone pointers compute exactly this: clocks
    # are monotone along a session, so a pointer only walks forward to it).
    where = np.searchsorted(idx.wb_comp, probe_bucket * _SIDX_SPAN + bound, side="right")
    has = where > idx.bucket_start[probe_bucket]
    hit = np.maximum(where - 1, 0)
    t2 = idx.wb_tid[hit]

    # Pass 5: pack and append the edges that survive, those whose writer
    # does not hb-precede t1, wholesale.
    t1e = t1[read_of]
    emit = has & (t2 != t1e) & ((idx.wb_comp[hit] & (_SIDX_SPAN - 1)) > floor)
    if not emit.any():
        return
    packed = (t2[emit].astype(np.uint64) << np.uint64(EDGE_SHIFT)) | t1e[emit].astype(
        np.uint64
    )
    relation._co_log.frombytes(packed.tobytes())
    relation._co_keys.frombytes(keys[read_of[emit]].astype(np.int64).tobytes())


def saturate_cc_compiled(
    ch: CompiledHistory,
    relation: CommitRelation,
    hb,
    bad_ops: Set[int],
) -> str:
    """CC saturation on the IR (mirror of ``saturate_cc``).

    ``hb`` is the clock matrix or the clock lists of
    :func:`compute_happens_before_compiled`.
    Loads numpy (a CC check is where it pays for its import) and dispatches
    to the vectorized kernel (:func:`_saturate_cc_vectorized`) when it is
    available and the selected transactions carry enough reads;
    otherwise runs the interpreted monotone-pointer walk.  Both emit the
    same packed edges in the same order, leaving out those happens-before
    implies; returns which implementation ran.

    The per-(session, key) monotone pointers of the fallback live in one
    flat ``array('q')`` row indexed by the dense bucket ids of
    :func:`_writers_by_key_compiled` -- a C-level indexed read per probe,
    where a dict would box a fresh int per pointer advance.  Only the slots
    a session actually touched are reset between sessions, so sessions with
    few reads stay cheap.
    """
    if ch.num_transactions > (1 << 31):
        # The vectorized composite assumes session indices below 2^31 (see
        # _SIDX_SPAN); reject larger histories here with the cause attached.
        raise ValueError(
            "CC saturation's writer index supports at most "
            f"2^31 transactions; got {ch.num_transactions}"
        )
    if (
        _csr.load_numpy() is not None
        and isinstance(relation._co_keys, array)
        and ch._xr_start[ch.num_transactions] >= kernels._MIN_VECTOR_READS
    ):
        idx = _cc_index(ch)
        if idx is not None:
            _saturate_cc_vectorized(ch, idx, relation, hb, bad_ops)
            return "vectorized"

    if not isinstance(hb, list):
        # A clock matrix from happens-before run with numpy loaded: the
        # interpreted walk indexes plain lists.
        hb = hb.tolist()
    writers_index, num_buckets = _writers_by_key_compiled(ch)
    committed = ch.txn_committed
    xr_start = ch._xr_start
    xr_po = ch._xr_po
    xr_key = ch._xr_key
    xr_writer = ch._xr_writer
    txn_start = ch.txn_start
    # This loop attempts an edge per (read, writing-session) pair; each
    # attempt is at most two raw appends into the relation's co log (the
    # freeze collapses the duplicates).  The monotone pointer per bucket
    # lives in the flat row below: ptr writers of the bucket sit at or
    # below the largest bound walked so far, so the hb-latest writer is
    # ``writer_list[ptr - 1]``, and ptr == 0 means there is none yet (and
    # marks the slot untouched for the reset pass).
    co_append = relation._co_log.append
    cok_append = relation._co_keys.append
    check_bad = bool(bad_ops)
    ptrs = array("q", bytes(8 * num_buckets))
    touched: List[int] = []

    for session in ch.sessions:
        for t3 in session:
            if not committed[t3]:
                continue
            clock = hb[t3]
            base = txn_start[t3]
            for j in range(xr_start[t3], xr_start[t3 + 1]):
                if check_bad and base + xr_po[j] in bad_ops:
                    continue
                t1 = xr_writer[j]
                if not committed[t1]:
                    continue
                key = xr_key[j]
                key_writers = writers_index[key]
                if not key_writers:
                    continue
                floor = hb[t1]
                for other, writer_list, writer_indices, count, bid in key_writers:
                    bound = clock[other]
                    if bound <= floor[other]:
                        # Every candidate of the bucket hb-precedes t1.  The
                        # pointer may lag; a later, larger bound walks on.
                        continue
                    ptr = ptrs[bid]
                    if ptr < count and writer_indices[ptr] <= bound:
                        if not ptr:
                            touched.append(bid)
                        while ptr < count and writer_indices[ptr] <= bound:
                            ptr += 1
                        ptrs[bid] = ptr
                    if ptr and writer_indices[ptr - 1] > floor[other]:
                        t2 = writer_list[ptr - 1]
                        if t2 != t1:
                            co_append((t2 << EDGE_SHIFT) | t1)
                            cok_append(key)
        # Pointer state is per-session: clear only the touched slots.
        for bid in touched:
            ptrs[bid] = 0
        del touched[:]
    return "fallback"


# -- the check -----------------------------------------------------------------


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
    relation = checkers._relation_from_compiled(ch)
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
    return violations, {**checkers._relation_stats(relation), "saturation_kernel": kernel}


def check_cc_compiled(
    ch: CompiledHistory,
    max_witnesses: Optional[int] = None,
    report: Optional[CompiledReadReport] = None,
) -> CheckResult:
    """Causal Consistency on the IR (mirror of ``check_cc``)."""
    watch = Stopwatch()
    report = report or checkers.check_read_consistency_compiled(ch)
    watch.lap("read_consistency")
    cycles, stats = cc_cycles(ch, report.bad_ops, watch, max_witnesses)
    return checkers._result(
        ch,
        IsolationLevel.CAUSAL_CONSISTENCY,
        report.violations + cycles,
        "awdit",
        watch,
        stats,
    )
