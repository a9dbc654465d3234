"""Saturation kernels: one core for batch and streaming.

The profile after the CSR relation core (``BENCH_5.json``/``BENCH_6.json``)
put the remaining batch cost almost entirely in the saturation loops of
:mod:`repro.core.compiled.checkers` -- interpreted Python over the IR's flat
rows, ~470k per-(session, key) slot visits on the fig9 log.  This module is
the single home of those loops: the per-level checker functions of
:mod:`repro.core.compiled.checkers` dispatch here, for the batch engine and
for the streaming checker's finalize alike (the fold itself only resolves
and classifies reads, with :func:`resolve_reads` and :class:`ParkQueue`).
Every saturation appends its edge attempts, duplicates included, to the
flat co-log columns that :class:`~repro.core.commit.CommitRelation`
freezes.

Most kernels here have one implementation, in pure Python.  A kernel keeps
a second, numpy-vectorized side only where that side measurably wins on a
benchmarked workload (the kernel census in ``README.md``): CC saturation
(:func:`saturate_cc_compiled`, in fixed-size transaction chunks so its
temporaries stay bounded), the streaming fold's batch read resolution
(:func:`resolve_reads` over :class:`WritesIndex`), and unique-writes
resolution (:func:`resolve_unique_writes`).  The vectorized side runs when
:mod:`repro.graph.csr`, the one module that decides whether this process
uses numpy, found it usable, and when the input is large enough to
amortize array setup (``_MIN_VECTOR_READS``); the scalar side is the only
path on a machine without numpy.  RC and RA saturation are scalar only:
their vectorized sides were slower than the loop.

The two sides of a kept kernel produce byte-identical output in the
identical order, so verdicts, violation lists, and witness renderings never
depend on which ran (property-tested in ``tests/test_kernels.py`` and
``tests/test_resolve_kernel.py``).  The key argument for the CC kernel:
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
from repro.graph.csr import HAVE_NUMPY, _np
from repro.graph.digraph import EDGE_SHIFT

__all__ = [
    "HAVE_NUMPY",
    "saturate_rc_txn",
    "saturate_rc_compiled",
    "saturate_ra_txn",
    "saturate_ra_compiled",
    "saturate_cc_compiled",
    "ParkQueue",
    "ResolvedBatch",
    "WritesIndex",
    "resolve_reads",
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
    np = _np
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
    np = _np
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
    np = _np
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

    Dispatches to the vectorized kernel (:func:`_saturate_cc_vectorized`)
    when numpy is active and the selected transactions carry enough reads;
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
        _np is not None
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


# -- online columnar fold state (park queue) ------------------------------------


class ParkQueue:
    """Columnar park queue: packed write id -> flat ``(tid, slot)`` pairs.

    The streaming fold's multimap of reads waiting for a write to arrive,
    with no per-read objects resident: each value is one ``array('q')`` of
    interleaved pairs in arrival order.  ``slot >= 0`` indexes the reader's
    live-read list (the general slow path); ``slot < 0`` encodes a
    clean-parked read of a prefold transaction as ``-(read_index) - 1``
    (its key/value ids are recoverable from the packed wid, and its
    eventual binding is already known to the resolve kernel).  Pops
    preserve arrival order exactly, and iteration order over wids is
    insertion order -- both are contractual for park/rebind/thin-air
    timing.  Plain dict-of-arrays, so checkpoints pickle it directly.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: Dict[int, "array"] = {}

    def add(self, wid: int, tid: int, slot: int) -> None:
        row = self._rows.get(wid)
        if row is None:
            row = array("q")
            self._rows[wid] = row
        row.append(tid)
        row.append(slot)

    def pop(self, wid: int):
        """Remove and return the wid's pair row (``None`` when absent)."""
        return self._rows.pop(wid, None)

    def items(self):
        return self._rows.items()

    def rows(self):
        return self._rows.values()

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, wid: int) -> bool:
        return wid in self._rows

    def __getstate__(self):
        return self._rows

    def __setstate__(self, rows) -> None:
        self._rows = rows


# -- online read resolution (the streaming fold's classify kernel) -------------

#: Tail entries beyond ``max(this, min(main_len / 4, _TAIL_MERGE_MAX))``
#: trigger a merge of the incrementally sorted indexes below; amortized
#: O(log) merges per doubling, with the cap bounding how much tail the
#: per-batch sync ever has to carry on multi-hundred-k-write streams.
_TAIL_MERGE_MIN = 4096
_TAIL_MERGE_MAX = 65536


class ResolvedBatch:
    """Read-resolution answers for one record batch, plain Python columns.

    Produced by :func:`resolve_reads`.  Rows are CSR-sliced per transaction:
    transaction ``t``'s reads are rows ``r_start[t]:r_start[t+1]`` of the
    ``r_*`` columns (committed transactions only -- aborted reads never
    resolve), its writes rows ``w_start[t]:w_start[t+1]`` of the ``w_*``
    columns.  A read is *clean* when its wid resolves uniquely to a final
    write of a committed external transaction and the reader has no earlier
    own write to the key: ``r_fast[j]`` marks a clean read whose writer is
    already registered (or earlier in the batch) -- bindable at the
    reader's consume without probing the writes dict -- while a clean read
    of a *later* batch transaction still parks, exactly like the scalar
    fold, and binds when that writer registers.  ``r_writer``/``r_windex``
    carry the (eventual) binding for every clean row and ``-1`` otherwise.
    ``txn_fast[t]`` is true when every read of a committed transaction is
    fast (the fold folds it straight off these columns); ``txn_clean[t]``
    when every read is at least clean (the fold precomputes the fold-time
    structures and skips rebind tracking -- no in-batch supersede can ever
    touch a clean wid); ``txn_hazard[t]`` is true when any write of the
    transaction collides with the registry or with another batch write
    (registration must replay the exact scalar supersede protocol).

    The ``nh_*`` columns carry the registration notes for every write of a
    *non-hazardous* transaction (batch order, ``nh_tid`` absolute,
    ``nh_flag = final<<1 | committed``): those wids are fresh and unique by
    construction, so the fold hands them to
    :meth:`WritesIndex.note_insert_columns` in one call per batch instead
    of one note per transaction.  Hazardous registrations stay scalar.
    """

    __slots__ = (
        "kernel",
        "r_start",
        "r_index",
        "r_kid",
        "r_vid",
        "r_wid",
        "r_own_prev",
        "r_fast",
        "r_writer",
        "r_windex",
        "w_start",
        "w_index",
        "w_kid",
        "w_wid",
        "w_final",
        "nh_wid",
        "nh_tid",
        "nh_windex",
        "nh_flag",
        "txn_fast",
        "txn_clean",
        "txn_hazard",
    )


class WritesIndex:
    """Incrementally sorted flat mirror of the online writes registry.

    The vectorized :func:`resolve_reads` answers "is this packed write id
    registered, by whom, final, committed?" for a whole batch with one
    ``searchsorted`` -- which needs the registry as sorted flat arrays, not
    a dict.  This class maintains that mirror *incrementally*: a sorted
    ``main`` (wid-sorted int64 columns) plus a small append ``tail`` (plain
    Python lists, with a sorted array cache synced by delta-merge each
    batch), merged into ``main`` only when the tail outgrows
    ``max(_TAIL_MERGE_MIN, min(len(main) / 4, _TAIL_MERGE_MAX))``, so
    per-batch upkeep is O(batch) amortized instead of an O(registry)
    re-sort per batch.

    The mirror is derived state: it is never pickled (checkpoints carry the
    dict; ``__setstate__`` starts a fresh dirty mirror), and a batch that
    fails mid-fold calls :meth:`invalidate` -- the next vectorized batch
    rebuilds from the dict.  The ``committed`` bit is
    cached per entry at registration; a transaction's committed flag never
    changes after creation, so the cache cannot go stale.
    """

    __slots__ = (
        "_enabled",
        "_dirty",
        "m_wid",
        "m_tid",
        "m_wx",
        "m_flag",
        "t_wid",
        "t_tid",
        "t_wx",
        "t_flag",
        "t_pos",
        "t_synced",
        "_tail_stale",
        "s_wid",
        "s_tid",
        "s_wx",
        "s_flag",
    )

    def __init__(self) -> None:
        self._enabled = _np is not None
        self._dirty = True
        if self._enabled:
            self._reset()

    def _reset(self) -> None:
        np = _np
        self.m_wid = np.zeros(0, dtype=np.int64)
        self.m_tid = np.zeros(0, dtype=np.int64)
        self.m_wx = np.zeros(0, dtype=np.int64)
        self.m_flag = np.zeros(0, dtype=np.uint8)
        self.t_wid: List[int] = []
        self.t_tid: List[int] = []
        self.t_wx: List[int] = []
        self.t_flag: List[int] = []
        self.t_pos: Optional[Dict[int, int]] = None
        self.t_synced = 0
        self._tail_stale = False
        self.s_wid = self.m_wid
        self.s_tid = self.m_tid
        self.s_wx = self.m_wx
        self.s_flag = self.m_flag

    def invalidate(self) -> None:
        """Drop the mirror; the next :meth:`ensure` rebuilds from the dict.

        Called when the writes dict changed behind the mirror's back: a
        batch that raised mid-fold registered a prefix of its writes while
        its bulk mirror notes were never applied.
        """
        self._dirty = True
        if self._enabled:
            self._reset()

    # -- registration notes (cheap, called from the fold's scalar loop) --------

    def note_insert(self, wid: int, tid: int, windex: int, final: bool, committed: bool) -> None:
        if not self._enabled or self._dirty:
            return
        self.t_wid.append(wid)
        self.t_tid.append(tid)
        self.t_wx.append(windex)
        self.t_flag.append((2 if final else 0) | (1 if committed else 0))
        if self.t_pos is not None:
            self.t_pos[wid] = len(self.t_wid) - 1
        self._tail_stale = True

    def note_insert_columns(
        self,
        wids: Sequence[int],
        tids: Sequence[int],
        windexes: Sequence[int],
        flags: Sequence[int],
    ) -> None:
        """Bulk-append one batch's non-hazardous registrations to the tail.

        The wids are fresh and mutually unique (resolve_reads routes every
        colliding wid through the scalar protocol), so they can land after
        the batch's scalar hazard notes without reordering concerns -- the
        tail is keyed by wid and the two sets are disjoint.
        """
        if not self._enabled or self._dirty or not wids:
            return
        self.t_wid.extend(wids)
        self.t_tid.extend(tids)
        self.t_wx.extend(windexes)
        self.t_flag.extend(flags)
        self.t_pos = None
        self._tail_stale = True

    def note_update(self, wid: int, tid: int, windex: int, final: bool, committed: bool) -> None:
        """A supersede replaced the dict entry for ``wid`` in place."""
        np = _np
        if not self._enabled or self._dirty:
            return
        flag = (2 if final else 0) | (1 if committed else 0)
        m_wid = self.m_wid
        if m_wid.shape[0]:
            pos = int(np.searchsorted(m_wid, wid))
            if pos < m_wid.shape[0] and int(m_wid[pos]) == wid:
                self.m_tid[pos] = tid
                self.m_wx[pos] = windex
                self.m_flag[pos] = flag
                return
        if self.t_pos is None:
            self.t_pos = {w: i for i, w in enumerate(self.t_wid)}
        i = self.t_pos.get(wid)
        if i is None:  # pragma: no cover - defensive; wid must be resident
            self._dirty = True
            return
        self.t_tid[i] = tid
        self.t_wx[i] = windex
        self.t_flag[i] = flag
        if i < self.t_synced:
            # The mutated entry is already inside the converted sorted-tail
            # prefix; force a full re-sort at the next sync.
            self.t_synced = 0
        self._tail_stale = True

    # -- batch-time sync -------------------------------------------------------

    def ensure(self, writes: Dict[int, tuple], committed_of) -> bool:
        """Bring the mirror up to date; False means "use the fallback"."""
        if not self._enabled:
            return False
        if self._dirty:
            self._rebuild(writes, committed_of)
        else:
            if self._tail_stale:
                self._refresh_tail()
            if len(self.t_wid) > max(
                _TAIL_MERGE_MIN, min(self.m_wid.shape[0] >> 2, _TAIL_MERGE_MAX)
            ):
                self._merge_tail()
        return True

    def _rebuild(self, writes: Dict[int, tuple], committed_of) -> None:
        np = _np
        self._reset()
        n = len(writes)
        if n:
            wid = np.fromiter(writes.keys(), np.int64, n)
            tid = np.empty(n, dtype=np.int64)
            wx = np.empty(n, dtype=np.int64)
            flag = np.empty(n, dtype=np.uint8)
            i = 0
            for entry in writes.values():
                t = entry[3]
                tid[i] = t
                wx[i] = entry[2]
                flag[i] = (2 if entry[4] else 0) | (1 if committed_of(t) else 0)
                i += 1
            order = np.argsort(wid)
            self.m_wid = wid[order]
            self.m_tid = tid[order]
            self.m_wx = wx[order]
            self.m_flag = flag[order]
        self._dirty = False

    def _merge_tail(self) -> None:
        # The sorted-tail cache is in sync here (``ensure`` refreshes it
        # first), so this is a two-run merge of already-sorted columns:
        # searchsorted positions plus one masked scatter per column, with
        # no argsort over the whole registry.
        np = _np
        a_wid = self.m_wid
        b_wid = self.s_wid
        pos = np.searchsorted(a_wid, b_wid)
        n = a_wid.shape[0] + b_wid.shape[0]
        idx_b = pos + np.arange(b_wid.shape[0], dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[idx_b] = False
        for name in ("wid", "tid", "wx", "flag"):
            a = getattr(self, "m_" + name)
            b = getattr(self, "s_" + name)
            out = np.empty(n, dtype=a.dtype)
            out[idx_b] = b
            out[mask] = a
            setattr(self, "m_" + name, out)
        self.t_wid = []
        self.t_tid = []
        self.t_wx = []
        self.t_flag = []
        self.t_pos = None
        self.t_synced = 0
        empty = np.zeros(0, dtype=np.int64)
        self.s_wid = empty
        self.s_tid = empty
        self.s_wx = empty
        self.s_flag = np.zeros(0, dtype=np.uint8)
        self._tail_stale = False

    def _refresh_tail(self) -> None:
        # Convert and sort only the entries appended since the last sync:
        # the synced prefix is already sorted in ``s_*``, and the delta is
        # folded in with one linear two-run merge per column.  Re-sorting
        # the whole tail each batch costs a per-element Python list -> array
        # conversion of the entire tail, which dominated the classify lap
        # (~0.8s) on 600k-op streams.
        np = _np
        t_wid = self.t_wid
        n = len(t_wid)
        k = self.t_synced
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            self.s_wid = empty
            self.s_tid = empty
            self.s_wx = empty
            self.s_flag = np.zeros(0, dtype=np.uint8)
            self.t_synced = 0
            self._tail_stale = False
            return
        if k == 0 or k > n:
            wid = np.asarray(t_wid, dtype=np.int64)
            order = np.argsort(wid)
            self.s_wid = wid[order]
            self.s_tid = np.asarray(self.t_tid, dtype=np.int64)[order]
            self.s_wx = np.asarray(self.t_wx, dtype=np.int64)[order]
            self.s_flag = np.asarray(self.t_flag, dtype=np.uint8)[order]
        elif k < n:
            dw = np.asarray(t_wid[k:], dtype=np.int64)
            order = np.argsort(dw)
            dw = dw[order]
            delta = (
                ("wid", dw),
                ("tid", np.asarray(self.t_tid[k:], dtype=np.int64)[order]),
                ("wx", np.asarray(self.t_wx[k:], dtype=np.int64)[order]),
                ("flag", np.asarray(self.t_flag[k:], dtype=np.uint8)[order]),
            )
            a_wid = self.s_wid
            pos = np.searchsorted(a_wid, dw)
            m = a_wid.shape[0] + dw.shape[0]
            idx_b = pos + np.arange(dw.shape[0], dtype=np.int64)
            mask = np.ones(m, dtype=bool)
            mask[idx_b] = False
            for name, b in delta:
                a = getattr(self, "s_" + name)
                out = np.empty(m, dtype=a.dtype)
                out[idx_b] = b
                out[mask] = a
                setattr(self, "s_" + name, out)
        self.t_synced = n
        self._tail_stale = False

    # -- vectorized probes -----------------------------------------------------

    def contains(self, wids) -> "object":
        """Boolean array: is each wid registered (main or tail)?"""
        np = _np
        found = np.zeros(wids.shape[0], dtype=bool)
        for col in (self.m_wid, self.s_wid):
            if col.shape[0]:
                pos = np.searchsorted(col, wids)
                pc = np.minimum(pos, col.shape[0] - 1)
                found |= col[pc] == wids
        return found

    def lookup(self, wids):
        """``(found, tid, windex, flag)`` arrays; flag = final<<1 | committed."""
        np = _np
        n = wids.shape[0]
        found = np.zeros(n, dtype=bool)
        tid = np.full(n, -1, dtype=np.int64)
        wx = np.full(n, -1, dtype=np.int64)
        flag = np.zeros(n, dtype=np.uint8)
        for col, ctid, cwx, cflag in (
            (self.m_wid, self.m_tid, self.m_wx, self.m_flag),
            (self.s_wid, self.s_tid, self.s_wx, self.s_flag),
        ):
            if not col.shape[0]:
                continue
            pos = np.searchsorted(col, wids)
            pc = np.minimum(pos, col.shape[0] - 1)
            hit = col[pc] == wids
            if hit.any():
                found |= hit
                tid = np.where(hit, ctid[pc], tid)
                wx = np.where(hit, cwx[pc], wx)
                flag = np.where(hit, cflag[pc], flag)
        return found, tid, wx, flag


def resolve_reads(
    index: Optional[WritesIndex],
    writes: Dict[int, tuple],
    committed_of,
    kid_col: Sequence[int],
    vid_col: Sequence[int],
    kinds,
    txn_end,
    committed_col,
    tid0: int,
) -> ResolvedBatch:
    """Resolve a whole batch's reads against the writes registry at once.

    Inputs are the record batch's interned columns (``vid_col`` is ``-1``
    only at aborted-transaction reads, which never resolve), the *pre-batch*
    writes dict (not yet mutated by this batch), its sorted mirror, a
    ``committed_of(tid)`` predicate for registry writers, and the tid the
    batch's first transaction will get.  Output is a :class:`ResolvedBatch`
    of plain Python columns -- the fold's scalar control loop consumes them
    in exactly today's order, so park/rebind/refusal semantics and error
    timing are untouched; only the per-read probing is batched.

    A read is *fast* iff its wid resolves uniquely to a final write of a
    committed external transaction and the reader has no earlier own write
    to the key -- precisely the reads the fold's inline check (and the
    common exit of ``_classify``) binds without recording a violation.  Any
    wid written twice in the batch, or written in the batch *and* already
    registered, is hazardous: its reads and its writers' registrations drop
    to the exact scalar path, which replays the supersede/rebind protocol
    against the live dict.  Both implementations produce identical columns
    (property-tested in ``tests/test_resolve_kernel.py``).
    """
    if (
        _np is not None
        and index is not None
        and len(kinds) >= _MIN_VECTOR_READS
        and index.ensure(writes, committed_of)
    ):
        out = _resolve_reads_vectorized(
            index, kid_col, vid_col, kinds, txn_end, committed_col, tid0
        )
        if out is not None:
            return out
    return _resolve_reads_fallback(
        writes, committed_of, kid_col, vid_col, kinds, txn_end, committed_col, tid0
    )


def _resolve_reads_vectorized(
    index, kid_col, vid_col, kinds, txn_end, committed_col, tid0
):
    np = _np
    n = len(kinds)
    num_txn = len(txn_end)
    kid = np.asarray(kid_col, dtype=np.int64)
    if int(kid.max()) >= (1 << 31) or tid0 + num_txn >= (1 << 31):
        # Packed-wid / grouping-key head-room gone (2^31 keys, or the tid
        # guard will fire mid-batch); the fallback's Python ints can't
        # overflow and the fold raises at the exact transaction either way.
        return None
    vid = np.asarray(vid_col, dtype=np.int64)
    kindm = np.frombuffer(kinds, dtype=np.uint8).astype(bool)
    ends = np.frombuffer(txn_end, dtype=np.int64).copy()
    committed_t = np.frombuffer(committed_col, dtype=np.uint8).astype(bool)
    starts = np.empty(num_txn, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1]
    span = ends - starts
    txn_of = np.repeat(np.arange(num_txn, dtype=np.int64), span)
    lidx = np.arange(n, dtype=np.int64) - starts[txn_of]
    wid_all = (kid << _VALUE_SHIFT) | vid

    # Last own write preceding each op: segmented running max of (write
    # position + 1) over ops grouped by (txn, key) in program order.
    order2 = np.lexsort((kid, txn_of))
    g = (txn_of[order2] << 31) | kid[order2]
    newseg = np.empty(n, dtype=bool)
    newseg[0] = True
    np.not_equal(g[1:], g[:-1], out=newseg[1:])
    segid = np.cumsum(newseg) - 1
    span_const = n + 2
    wval = np.where(kindm[order2], lidx[order2] + 1, 0)
    packed = segid * span_const + wval
    np.maximum.accumulate(packed, out=packed)
    own_sorted = packed - segid * span_const - 1
    own_prev = np.empty(n, dtype=np.int64)
    own_prev[order2] = own_sorted

    # Write columns + in-batch duplicate / registry-collision hazards.
    wpos = np.flatnonzero(kindm)
    nw = wpos.shape[0]
    w_txn = txn_of[wpos]
    w_kid_a = kid[wpos]
    w_wid_a = wid_all[wpos]
    w_lidx_a = lidx[wpos]
    if nw:
        gk = (w_txn << 31) | w_kid_a
        order3 = np.lexsort((w_lidx_a, gk))
        gk_s = gk[order3]
        last = np.empty(nw, dtype=bool)
        np.not_equal(gk_s[1:], gk_s[:-1], out=last[:-1])
        last[-1] = True
        w_final_a = np.empty(nw, dtype=bool)
        w_final_a[order3] = last

        order_w = np.argsort(w_wid_a, kind="stable")
        sw = w_wid_a[order_w]
        dup_s = np.zeros(nw, dtype=bool)
        if nw > 1:
            eq = sw[1:] == sw[:-1]
            dup_s[1:] = eq
            dup_s[:-1] |= eq
        hot_s = dup_s | index.contains(sw)
        w_hot = np.empty(nw, dtype=bool)
        w_hot[order_w] = hot_s
        txn_hazard = np.bincount(w_txn[w_hot], minlength=num_txn) > 0

        nh = ~txn_hazard[w_txn]
        nh_wid_a = w_wid_a[nh]
        nh_tid_a = w_txn[nh] + tid0
        nh_windex_a = w_lidx_a[nh]
        nh_flag_a = (w_final_a[nh].astype(np.uint8) << 1) | committed_t[
            w_txn[nh]
        ].astype(np.uint8)
    else:
        w_final_a = np.zeros(0, dtype=bool)
        txn_hazard = np.zeros(num_txn, dtype=bool)
        nh_wid_a = nh_tid_a = nh_windex_a = np.zeros(0, dtype=np.int64)
        nh_flag_a = np.zeros(0, dtype=np.uint8)

    # Read columns: resolve each committed read's wid against the batch's
    # writes (searchsorted over the sorted write wids; the leftmost match
    # is the unique one whenever the wid is clean) and the registry mirror.
    rpos = np.flatnonzero((~kindm) & committed_t[txn_of])
    nr = rpos.shape[0]
    r_txn = txn_of[rpos]
    r_kid_a = kid[rpos]
    r_vid_a = vid[rpos]
    r_wid_a = wid_all[rpos]
    r_lidx_a = lidx[rpos]
    r_ownp_a = own_prev[rpos]
    if nr:
        ownp_none = r_ownp_a < 0
        if nw:
            p = np.searchsorted(sw, r_wid_a)
            pc = np.minimum(p, nw - 1)
            in_b = sw[pc] == r_wid_a
            widx = order_w[pc]
            m_txn = w_txn[widx]
            m_hot = hot_s[pc]
            # Clean: unique in-batch writer, final, committed, external
            # (same-transaction matches are future reads / own reads, never
            # clean), no earlier own write.  Fast additionally requires the
            # writer to precede the reader; a clean read of a *later*
            # transaction parks and binds when that writer registers.
            clean = (
                in_b
                & ~m_hot
                & (m_txn != r_txn)
                & w_final_a[widx]
                & committed_t[m_txn]
                & ownp_none
            )
            fast = clean & (m_txn < r_txn)
            r_writer_a = np.where(clean, m_txn + tid0, -1)
            r_windex_a = np.where(clean, w_lidx_a[widx], -1)
        else:
            in_b = np.zeros(nr, dtype=bool)
            clean = np.zeros(nr, dtype=bool)
            fast = clean
            r_writer_a = np.full(nr, -1, dtype=np.int64)
            r_windex_a = np.full(nr, -1, dtype=np.int64)
        reg_found, g_tid, g_wx, g_flag = index.lookup(r_wid_a)
        reg_fast = (
            (~in_b)
            & reg_found
            & (g_flag & 2).astype(bool)
            & (g_flag & 1).astype(bool)
            & ownp_none
        )
        fast = fast | reg_fast
        clean = clean | reg_fast
        r_writer_a = np.where(reg_fast, g_tid, r_writer_a)
        r_windex_a = np.where(reg_fast, g_wx, r_windex_a)
        nonfast = np.bincount(r_txn[~fast], minlength=num_txn)
        txn_fast = committed_t & (nonfast == 0)
        nonclean = np.bincount(r_txn[~clean], minlength=num_txn)
        txn_clean = committed_t & (nonclean == 0)
        r_counts = np.bincount(r_txn, minlength=num_txn)
    else:
        fast = np.zeros(0, dtype=bool)
        r_writer_a = np.zeros(0, dtype=np.int64)
        r_windex_a = np.zeros(0, dtype=np.int64)
        txn_fast = committed_t.copy()
        txn_clean = txn_fast
        r_counts = np.zeros(num_txn, dtype=np.int64)

    out = ResolvedBatch()
    out.kernel = "vectorized"
    r_start = np.empty(num_txn + 1, dtype=np.int64)
    r_start[0] = 0
    np.cumsum(r_counts, out=r_start[1:])
    w_start = np.empty(num_txn + 1, dtype=np.int64)
    w_start[0] = 0
    np.cumsum(np.bincount(w_txn, minlength=num_txn), out=w_start[1:])
    out.r_start = r_start.tolist()
    out.r_index = r_lidx_a.tolist()
    out.r_kid = r_kid_a.tolist()
    out.r_vid = r_vid_a.tolist()
    out.r_wid = r_wid_a.tolist()
    out.r_own_prev = r_ownp_a.tolist()
    out.r_fast = fast.tolist()
    out.r_writer = r_writer_a.tolist()
    out.r_windex = r_windex_a.tolist()
    out.w_start = w_start.tolist()
    out.w_index = w_lidx_a.tolist()
    out.w_kid = w_kid_a.tolist()
    out.w_wid = w_wid_a.tolist()
    out.w_final = w_final_a.tolist()
    out.nh_wid = nh_wid_a.tolist()
    out.nh_tid = nh_tid_a.tolist()
    out.nh_windex = nh_windex_a.tolist()
    out.nh_flag = nh_flag_a.tolist()
    out.txn_fast = txn_fast.tolist()
    out.txn_clean = txn_clean.tolist()
    out.txn_hazard = txn_hazard.tolist()
    return out


def _resolve_reads_fallback(
    writes, committed_of, kid_col, vid_col, kinds, txn_end, committed_col, tid0
):
    r_start = [0]
    r_index: List[int] = []
    r_kid: List[int] = []
    r_vid: List[int] = []
    r_wid: List[int] = []
    r_own_prev: List[int] = []
    r_fast: List[bool] = []
    r_writer: List[int] = []
    r_windex: List[int] = []
    w_start = [0]
    w_index: List[int] = []
    w_kid: List[int] = []
    w_wid: List[int] = []
    w_final: List[bool] = []
    nh_wid: List[int] = []
    nh_tid: List[int] = []
    nh_windex: List[int] = []
    nh_flag: List[int] = []
    txn_fast: List[bool] = []
    txn_clean: List[bool] = []
    txn_hazard: List[bool] = []

    # Pass 1: write columns, plus the first occurrence (and occurrence
    # count) of every wid written in the batch -- the vectorized side's
    # leftmost-stable-sorted match, reproduced with a dict.
    batch_w: Dict[int, List[int]] = {}
    spans: List[Tuple[int, int]] = []
    lo = 0
    for t, hi in enumerate(txn_end):
        final_write: Dict[int, int] = {}
        txn_writes: List[Tuple[int, int, int]] = []
        for i in range(lo, hi):
            if kinds[i]:
                kid = kid_col[i]
                index = i - lo
                final_write[kid] = index
                txn_writes.append((kid, (kid << _VALUE_SHIFT) | vid_col[i], index))
        for kid, wid, index in txn_writes:
            fl = final_write[kid] == index
            w_kid.append(kid)
            w_wid.append(wid)
            w_index.append(index)
            w_final.append(fl)
            entry = batch_w.get(wid)
            if entry is None:
                batch_w[wid] = [1, t, index, fl]
            else:
                entry[0] += 1
        w_start.append(len(w_wid))
        spans.append((lo, hi))
        lo = hi

    # Pass 2: per-transaction hazard flag and read resolution (own-write
    # replay in program order, exactly the scalar fold's scan).
    for t, (lo, hi) in enumerate(spans):
        hazard = False
        for k in range(w_start[t], w_start[t + 1]):
            wid = w_wid[k]
            if batch_w[wid][0] > 1 or wid in writes:
                hazard = True
                break
        txn_hazard.append(hazard)
        committed = bool(committed_col[t])
        if not hazard and w_start[t] != w_start[t + 1]:
            c = 1 if committed else 0
            tid = tid0 + t
            for k in range(w_start[t], w_start[t + 1]):
                nh_wid.append(w_wid[k])
                nh_tid.append(tid)
                nh_windex.append(w_index[k])
                nh_flag.append((2 | c) if w_final[k] else c)
        own: Dict[int, int] = {}
        own_get = own.get
        all_fast = True
        all_clean = True
        for i in range(lo, hi):
            kid = kid_col[i]
            if kinds[i]:
                own[kid] = i - lo
            elif committed:
                vid = vid_col[i]
                wid = (kid << _VALUE_SHIFT) | vid
                ownp = own_get(kid, -1)
                fast = False
                clean = False
                writer = -1
                windex = -1
                bw = batch_w.get(wid)
                if bw is not None:
                    if bw[0] == 1 and wid not in writes:
                        wtxn = bw[1]
                        if (
                            wtxn != t
                            and bw[3]
                            and committed_col[wtxn]
                            and ownp < 0
                        ):
                            clean = True
                            fast = wtxn < t
                            writer = tid0 + wtxn
                            windex = bw[2]
                else:
                    hit = writes.get(wid)
                    if (
                        hit is not None
                        and hit[4]
                        and ownp < 0
                        and committed_of(hit[3])
                    ):
                        fast = True
                        clean = True
                        writer = hit[3]
                        windex = hit[2]
                if not fast:
                    all_fast = False
                if not clean:
                    all_clean = False
                r_index.append(i - lo)
                r_kid.append(kid)
                r_vid.append(vid)
                r_wid.append(wid)
                r_own_prev.append(ownp)
                r_fast.append(fast)
                r_writer.append(writer)
                r_windex.append(windex)
        r_start.append(len(r_index))
        txn_fast.append(committed and all_fast)
        txn_clean.append(committed and all_clean)

    out = ResolvedBatch()
    out.kernel = "fallback"
    out.r_start = r_start
    out.r_index = r_index
    out.r_kid = r_kid
    out.r_vid = r_vid
    out.r_wid = r_wid
    out.r_own_prev = r_own_prev
    out.r_fast = r_fast
    out.r_writer = r_writer
    out.r_windex = r_windex
    out.w_start = w_start
    out.w_index = w_index
    out.w_kid = w_kid
    out.w_wid = w_wid
    out.w_final = w_final
    out.nh_wid = nh_wid
    out.nh_tid = nh_tid
    out.nh_windex = nh_windex
    out.nh_flag = nh_flag
    out.txn_fast = txn_fast
    out.txn_clean = txn_clean
    out.txn_hazard = txn_hazard
    return out


# -- batch unique-writes resolution (IR build) ---------------------------------


def resolve_unique_writes(op_kind, op_key, op_value):
    """Unique-writes wr inference over whole op columns, last write wins.

    The batch twin of :func:`resolve_reads`: given the IR builder's packed
    op columns, return the ``op_wr`` array mapping each read to the global
    op index of the last write of its ``(key, value)`` identity (``-1`` =
    thin air).  :meth:`CompiledHistoryBuilder.finalize` calls this once per
    history.  Vectorized and fallback are bit-identical.
    """
    n = len(op_key)
    if _np is not None and n >= _MIN_VECTOR_READS:
        out = _resolve_unique_writes_vectorized(op_kind, op_key, op_value)
        if out is not None:
            return out
    return _resolve_unique_writes_fallback(op_kind, op_key, op_value)


def _resolve_unique_writes_vectorized(op_kind, op_key, op_value):
    np = _np
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
