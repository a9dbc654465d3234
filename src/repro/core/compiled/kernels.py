"""RC and RA saturation and unique-writes resolution on the IR.

The per-level checker functions of :mod:`repro.core.compiled.checkers`
call the RC and RA saturation loops here (Algorithms 1 and 2), for a batch
check and a streaming check alike (both build the IR with
:class:`~repro.core.compiled.ir.CompiledHistoryBuilder`).  Every saturation
appends its edge attempts, duplicates included, to the flat co-log columns
that :class:`~repro.core.commit.CommitRelation` freezes.  CC saturation is
in :mod:`repro.core.compiled.cc` with the rest of CC's code, so an RC or RA
check compiles none of it.

RC and RA saturation are pure Python: their vectorized sides were slower
than the loop.  Unique-writes resolution (:func:`resolve_unique_writes`,
the IR build's write-read inference) keeps a second, numpy-vectorized side
because it measurably wins on a benchmarked workload (the kernel census in
``README.md``).  :mod:`repro.graph.csr` is the one module that imports
numpy, and only a CC check loads it; the vectorized side runs when numpy is
already loaded and the input is large enough to amortize array setup
(:data:`_MIN_VECTOR_READS`, which CC saturation reads too).  Both sides
produce byte-identical output (property-tested in ``tests/test_kernels.py``),
and the scalar side is the only path on a machine without numpy.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.compiled.ir import _VALUE_SHIFT
from repro.graph import csr as _csr
from repro.graph.digraph import EDGE_SHIFT

if TYPE_CHECKING:
    from repro.core.commit import CommitRelation
    from repro.core.compiled.ir import CompiledHistory

__all__ = [
    "saturate_rc_compiled",
    "saturate_ra_compiled",
    "resolve_unique_writes",
]

#: Below this many external reads the numpy array setup costs more than the
#: interpreted loop it replaces, here and in CC saturation; both sides are
#: bit-identical, so the cutoff is pure tuning (tests pin it to 0 to force
#: the vectorized sides).
_MIN_VECTOR_READS = 192


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


def saturate_rc_compiled(
    ch: CompiledHistory,
    relation: CommitRelation,
    bad_ops: Set[int],
) -> None:
    """Algorithm 1's main loop on the IR (mirror of ``saturate_rc``).

    Per committed transaction, its good external committed reads
    ``(po, key, writer)`` are walked in program order.  ``kw_key[kw_start[t]
    : kw_start[t + 1]]`` lists the distinct keys transaction ``t`` writes,
    in first-write order.  Every attempt, duplicates included, appends the
    packed edge ``(t2 << EDGE_SHIFT) | t1`` and its key id to the
    relation's co-log columns; the relation's freeze deduplicates.
    """
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
        if not reads:
            continue

        # Forward pass: record the po-first read of each observed transaction.
        seen_txns: Set[int] = set()
        first_txn_reads: Set[int] = set()
        for po, _key, writer in reads:
            if writer not in seen_txns:
                seen_txns.add(writer)
                first_txn_reads.add(po)

        # Backward pass (see saturate_rc for the invariants; read_keys is a
        # dict so the smaller-side iteration below is deterministic).
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


# -- RA (Algorithm 2) ----------------------------------------------------------


def saturate_ra_compiled(
    ch: CompiledHistory,
    relation: CommitRelation,
    bad_ops: Set[int],
    so_only: bool = False,
) -> None:
    """Algorithm 2's saturation on the IR (mirror of ``saturate_ra``).

    Each session keeps a key -> latest committed writer map, advanced past
    each committed transaction ``t3`` after its attempts.  The written-key
    CSR and the co-log appends are as in :func:`saturate_rc_compiled`.  A
    transaction's ``t2 -so-> t3`` attempts are appended first: they alone
    are the single-session specialization's inferences (Theorem 1.6), and
    ``so_only`` keeps only them.
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
            reads = _external_good_reads(ch, t3, bad_ops)

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

                # Case t2 -wr-> t3: intersect written keys with read keys,
                # iterating the smaller side in deterministic order.
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
