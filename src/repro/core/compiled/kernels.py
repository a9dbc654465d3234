"""Saturation kernels: one core for batch and streaming.

The profile after the CSR relation core (``BENCH_5.json``/``BENCH_6.json``)
put the remaining batch cost almost entirely in the saturation loops of
:mod:`repro.core.compiled.checkers` -- interpreted Python over the IR's flat
rows, ~470k per-(session, key) slot visits on the fig9 log.  This module is
the single home of those loops: the per-level checker functions of
:mod:`repro.core.compiled.checkers` dispatch here, for a batch check and a
streaming check alike (both build the IR with
:class:`~repro.core.compiled.ir.CompiledHistoryBuilder`).  Every saturation
appends its edge attempts, duplicates included, to the flat co-log columns
that :class:`~repro.core.commit.CommitRelation` freezes.

Most kernels here have one implementation, in pure Python.  A kernel keeps
a second, numpy-vectorized side only where that side measurably wins on a
benchmarked workload (the kernel census in ``README.md``): CC saturation
(:func:`saturate_cc_compiled`, in fixed-size transaction chunks so its
temporaries stay bounded) and unique-writes resolution
(:func:`resolve_unique_writes`).  :mod:`repro.graph.csr` is the
one module that imports numpy, and only a CC check loads it (CC saturation
here calls :func:`~repro.graph.csr.load_numpy` for callers that get there
first); each side reads the module through ``csr`` at call time.  So the
vectorized side runs when numpy is already loaded and the input is large
enough to amortize array setup (``_MIN_VECTOR_READS``), and an RC or RA
check runs the scalar sides unless something earlier in the process loaded
numpy.  The scalar side is the only path on a machine without numpy.  RC
and RA saturation are scalar only: their vectorized sides were slower than
the loop.

The two sides of a kept kernel produce byte-identical output in the
identical order, so verdicts, violation lists, and witness renderings never
depend on which ran (property-tested in ``tests/test_kernels.py``).  The key argument for the CC kernel:
along one session the happens-before clocks are monotone
(``hb[t3'][s] >= hb[t3][s]`` for ``t3'`` after ``t3``), so the fallback's
memoized monotone pointer per (key, session) bucket always lands on *the
latest writer with session index <= clock bound* -- a stateless query the
vectorized path answers for every probe at once with one ``searchsorted``
against a flat sorted writer index.  Both sides, like the object
``saturate_cc``, drop a candidate ``t2 -> t1`` that happens-before already
implies (``hb[t1][session(t2)] >= session_index(t2)``), and skip a probe
outright when ``t3``'s bound at the session is at most ``t1``'s clock
there; the scalar pointer may then lag, and the next larger bound walks it
on.

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
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.commit import CommitRelation
from repro.core.compiled.ir import CompiledHistory, _VALUE_SHIFT
from repro.graph import csr as _csr
from repro.graph.digraph import EDGE_SHIFT

__all__ = [
    "saturate_rc_txn",
    "saturate_rc_compiled",
    "saturate_ra_txn",
    "saturate_ra_compiled",
    "saturate_cc_compiled",
    "resolve_unique_writes",
]

#: Below this many external reads the numpy array setup costs more than the
#: interpreted loop it replaces; both paths are bit-identical, so the cutoff
#: is pure tuning (tests pin it to 0 to force the vectorized path).
_MIN_VECTOR_READS = 192

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


# -- shared read gathering -----------------------------------------------------


def _external_good_reads(
    ch: CompiledHistory, tid: int, bad_ops: Set[int]
) -> List[Tuple[int, int, int]]:
    """Good external committed reads of ``tid``: ``(po, key_id, writer_tid)``."""
    xr_start = ch._xr_start
    xr_po = ch._xr_po
    xr_key = ch._xr_key
    xr_writer = ch._xr_writer
    committed = ch.txn_committed
    check_bad = bool(bad_ops)  # empty on clean histories; skip the arithmetic
    base = ch.txn_start[tid]
    result: List[Tuple[int, int, int]] = []
    for j in range(xr_start[tid], xr_start[tid + 1]):
        if check_bad and base + xr_po[j] in bad_ops:
            continue
        writer = xr_writer[j]
        if not committed[writer]:
            continue
        result.append((xr_po[j], xr_key[j], writer))
    return result


# -- RC (Algorithm 1) ----------------------------------------------------------


def saturate_rc_txn(
    reads: Sequence[Tuple[int, int, int]],
    kw_start: Sequence[int],
    kw_key: Sequence[int],
    kw_set: Callable[[int], AbstractSet[int]],
    co_append: Callable[[int], None],
    cok_append: Callable[[int], None],
) -> None:
    """Algorithm 1's main-loop body for one transaction (mirror of ``saturate_rc``).

    ``reads`` are the transaction's good external committed reads as
    ``(po, key, writer)`` triples in program order.  ``kw_key[kw_start[t] :
    kw_start[t + 1]]`` lists the distinct keys transaction ``t`` writes, in
    first-write order; ``kw_set(t)`` returns the same keys as a set.  Every
    attempt, duplicates included, appends the packed edge ``(t2 <<
    EDGE_SHIFT) | t1`` through ``co_append`` and its key id through
    ``cok_append`` (the ``append`` methods of the co-log columns); the
    relation's freeze deduplicates.
    """
    # Forward pass: record the po-first read of each observed transaction.
    seen_txns: Set[int] = set()
    first_txn_reads: Set[int] = set()
    for po, _key, writer in reads:
        if writer not in seen_txns:
            seen_txns.add(writer)
            first_txn_reads.add(po)

    # Backward pass (see saturate_rc for the invariants; read_keys is a dict
    # so the smaller-side iteration below is deterministic).
    earliest: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
    read_keys: Dict[int, None] = {}
    for po, key, t2 in reversed(reads):
        if po in first_txn_reads:
            lo, hi = kw_start[t2], kw_start[t2 + 1]
            if hi - lo <= len(read_keys):
                candidates = [x for x in kw_key[lo:hi] if x in read_keys]
            else:
                written = kw_set(t2)
                candidates = [x for x in read_keys if x in written]
            for x in candidates:
                older, newer = earliest[x]
                t1 = newer
                if t1 == t2:
                    t1 = older
                if t1 is not None and t1 != t2:
                    co_append((t2 << EDGE_SHIFT) | t1)
                    cok_append(x)
        pair = earliest.get(key)
        if pair is None:
            earliest[key] = (None, t2)
        elif pair[1] != t2:
            earliest[key] = (pair[1], t2)
        read_keys[key] = None


def saturate_rc_compiled(
    ch: CompiledHistory,
    relation: CommitRelation,
    bad_ops: Set[int],
) -> None:
    """Algorithm 1's main loop on the IR (mirror of ``saturate_rc``)."""
    committed = ch.txn_committed
    kw_start = ch._kw_start
    kw_key = ch._kw_key
    kw_set = ch.keys_written_set
    co_append = relation._co_log.append
    cok_append = relation._co_keys.append
    for tid in range(ch.num_transactions):
        if not committed[tid]:
            continue
        reads = _external_good_reads(ch, tid, bad_ops)
        if reads:
            saturate_rc_txn(reads, kw_start, kw_key, kw_set, co_append, cok_append)


# -- RA (Algorithm 2) ----------------------------------------------------------


def saturate_ra_txn(
    t3: int,
    reads: Sequence[Tuple[int, int, int]],
    last_write: Dict[int, int],
    kw_start: Sequence[int],
    kw_key: Sequence[int],
    kw_set: Callable[[int], AbstractSet[int]],
    co_append: Callable[[int], None],
    cok_append: Callable[[int], None],
    so_only: bool = False,
) -> None:
    """Algorithm 2's per-transaction body (mirror of ``saturate_ra``).

    ``t3`` is the transaction, ``reads`` its good external committed reads
    as ``(po, key, writer)`` triples in program order, and ``last_write``
    its session's key -> latest committed writer map, which this call
    advances past ``t3``.  The written-key CSR, ``kw_set`` and the appends
    are as in :func:`saturate_rc_txn`.  The ``t2 -so-> t3`` attempts are
    appended first: they alone are the single-session specialization's
    inferences (Theorem 1.6), and ``so_only`` stops after them.
    """
    # Case t2 -so-> t3.
    for _po, key, t1 in reads:
        t2 = last_write.get(key)
        if t2 is not None and t2 != t1:
            co_append((t2 << EDGE_SHIFT) | t1)
            cok_append(key)

    if not so_only:
        reader_of_key: Dict[int, int] = {}
        distinct_writers: List[int] = []
        seen_writers: Set[int] = set()
        for _po, key, writer in reads:
            reader_of_key.setdefault(key, writer)
            if writer not in seen_writers:
                seen_writers.add(writer)
                distinct_writers.append(writer)

        # Case t2 -wr-> t3: intersect written keys with read keys, iterating
        # the smaller side in deterministic order.
        for t2 in distinct_writers:
            lo, hi = kw_start[t2], kw_start[t2 + 1]
            if hi - lo <= len(reader_of_key):
                candidates = [x for x in kw_key[lo:hi] if x in reader_of_key]
            else:
                written = kw_set(t2)
                candidates = [x for x in reader_of_key if x in written]
            for x in candidates:
                t1 = reader_of_key[x]
                if t1 != t2:
                    co_append((t2 << EDGE_SHIFT) | t1)
                    cok_append(x)

    for x in kw_key[kw_start[t3] : kw_start[t3 + 1]]:
        last_write[x] = t3


def saturate_ra_compiled(
    ch: CompiledHistory,
    relation: CommitRelation,
    bad_ops: Set[int],
    so_only: bool = False,
) -> None:
    """Algorithm 2's saturation on the IR (mirror of ``saturate_ra``).

    ``so_only`` keeps only the ``t2 -so-> t3`` case, which is the whole of
    the single-session check (Theorem 1.6).
    """
    committed = ch.txn_committed
    kw_start = ch._kw_start
    kw_key = ch._kw_key
    kw_set = ch.keys_written_set
    co_append = relation._co_log.append
    cok_append = relation._co_keys.append
    for session in ch.sessions:
        last_write: Dict[int, int] = {}
        for t3 in session:
            if not committed[t3]:
                continue
            saturate_ra_txn(
                t3,
                _external_good_reads(ch, t3, bad_ops),
                last_write,
                kw_start,
                kw_key,
                kw_set,
                co_append,
                cok_append,
                so_only,
            )


# -- CC (Algorithm 3) ----------------------------------------------------------


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
    t3s = [
        t3
        for session in ch.sessions
        for t3 in session
        if committed[t3] and hb[t3] is not None
    ]
    # One transactions x sessions clock matrix, flat and row-major, serves
    # every chunk: the t3 rows bound the probes, and the t1 rows drop the
    # hb-implied edges.  Rows without a clock (uncommitted) are never read.
    k = ch.num_sessions
    empty = [-1] * k
    clocks = np.array([empty if c is None else c for c in hb], dtype=np.int64).reshape(-1)
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
        and ch._xr_start[ch.num_transactions] >= _MIN_VECTOR_READS
    ):
        idx = _cc_index(ch)
        if idx is not None:
            _saturate_cc_vectorized(ch, idx, relation, hb, bad_ops)
            return "vectorized"

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
            if clock is None:
                continue
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


# -- batch unique-writes resolution (IR build) ---------------------------------


def resolve_unique_writes(op_kind, op_key, op_value):
    """Unique-writes wr inference over whole op columns, last write wins.

    Given the IR builder's packed op columns, return the ``op_wr`` array mapping each read to the global
    op index of the last write of its ``(key, value)`` identity (``-1`` =
    thin air).  :meth:`CompiledHistoryBuilder.finalize` calls this once per
    history.  Vectorized and fallback are bit-identical.
    """
    n = len(op_key)
    if _csr._np is not None and n >= _MIN_VECTOR_READS:
        out = _resolve_unique_writes_vectorized(op_kind, op_key, op_value)
        if out is not None:
            return out
    return _resolve_unique_writes_fallback(op_kind, op_key, op_value)


def _resolve_unique_writes_vectorized(op_kind, op_key, op_value):
    np = _csr._np
    n = len(op_key)
    key = np.frombuffer(op_key, dtype=np.int64)
    value = np.frombuffer(op_value, dtype=np.int64)
    if int(key.max()) >= (1 << 31) or int(value.max()) >= (1 << _VALUE_SHIFT):
        return None
    kind = np.frombuffer(op_kind, dtype=np.uint8).astype(bool)
    wid = (key << _VALUE_SHIFT) | value
    op_wr = np.full(n, -1, dtype=np.int64)
    wpos = np.flatnonzero(kind)
    if wpos.shape[0]:
        sw_order = np.argsort(wid[wpos], kind="stable")
        sw = wid[wpos][sw_order]
        last = np.empty(sw.shape[0], dtype=bool)
        np.not_equal(sw[1:], sw[:-1], out=last[:-1])
        last[-1] = True
        uw = sw[last]
        usrc = wpos[sw_order][last]
        rpos = np.flatnonzero(~kind)
        if rpos.shape[0]:
            p = np.searchsorted(uw, wid[rpos])
            pc = np.minimum(p, uw.shape[0] - 1)
            found = uw[pc] == wid[rpos]
            op_wr[rpos[found]] = usrc[pc[found]]
    out = array("q")
    out.frombytes(op_wr.tobytes())
    return out


def _resolve_unique_writes_fallback(op_kind, op_key, op_value):
    writes: Dict[int, int] = {}
    for i in range(len(op_key)):
        if op_kind[i]:
            writes[(op_key[i] << _VALUE_SHIFT) | op_value[i]] = i
    op_wr = array("q", [-1]) * len(op_key) if op_key else array("q")
    writes_get = writes.get
    for i in range(len(op_key)):
        if not op_kind[i]:
            source = writes_get((op_key[i] << _VALUE_SHIFT) | op_value[i])
            if source is not None:
                op_wr[i] = source
    return op_wr
