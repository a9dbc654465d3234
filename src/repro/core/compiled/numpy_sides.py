"""The numpy sides of the IR's per-operation passes, for a CC process.

A CC check loads numpy for its kernels (:mod:`repro.graph.csr`).  Once it
is loaded, three O(n) passes around those kernels run here instead of as
per-operation loops:

* :func:`freeze` derives the IR's final-write flags and its ``_kw_*`` and
  ``_xr_*`` runs (:meth:`CompiledHistory._freeze`);
* :func:`reads_consistent` screens every committed read against
  Algorithm 4's axioms (:func:`check_read_consistency_compiled`), so a
  consistent history skips the loop that builds violations;
* :func:`relation_logs` writes the ``so ∪ wr`` logs
  (``checkers._relation_from_compiled``).

Only :func:`~repro.core.compiled.kernels.vector_sides` imports this module,
and only when numpy is loaded and the input clears
:data:`~repro.core.compiled.kernels._MIN_VECTOR_READS`, so an RC or RA
process never compiles it.  Each function produces the same bytes, in the
same order and of the same column types, as the loop it stands in for
(property-tested in ``tests/test_numpy_sides.py``).  A composite sort key
that could leave int64 makes :func:`freeze` and :func:`reads_consistent`
return ``False``, and the caller runs its loop.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import TYPE_CHECKING

from repro.graph import csr as _csr
from repro.graph.digraph import EDGE_SHIFT

if TYPE_CHECKING:
    from repro.core.commit import CommitRelation
    from repro.core.compiled.ir import CompiledHistory

__all__ = ["freeze", "reads_consistent", "relation_logs"]

#: Exclusive bound on a composite sort key (``txn * num_keys + key``,
#: ``key * n + position``): every key must be a non-negative int64.
_INT64_LIMIT = 1 << 63


def _int64_column(values) -> array:
    """The ``array('q')`` column of an int64 ndarray."""
    out = array("q")
    out.frombytes(values.tobytes())
    return out


def _run_starts(owner, count: int) -> array:
    """``array('q')`` run offsets of ``count`` owners from the ascending ``owner`` column."""
    np = _csr._np
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=count), out=starts[1:])
    return _int64_column(starts)


def _packed(src, dst):
    """Packed edges ``(src << EDGE_SHIFT) | dst``, in uint64 (see ``repro.graph.csr``)."""
    np = _csr._np
    return (src.astype(np.uint64) << np.uint64(EDGE_SHIFT)) | dst.astype(np.uint64)


def freeze(ch: CompiledHistory) -> bool:
    """The derived columns of ``ch``, as ``CompiledHistory._freeze``'s loop builds them.

    Two passes.  Writes sort stably by ``(transaction, key)``: the last of
    each group is its final write, and the first ones, back in position
    order, are each committed transaction's distinct written keys in
    first-write order.  A mask over the reads keeps the committed ones
    that observe another transaction's write.  Returns ``False``, leaving
    ``ch`` untouched, when the group key could leave int64.
    """
    np = _csr._np
    num_txn = ch.num_transactions
    num_keys = max(ch.num_keys, 1)
    if num_txn * num_keys >= _INT64_LIMIT:
        return False
    kind = np.frombuffer(ch.op_kind, dtype=np.uint8) != 0
    key = np.frombuffer(ch.op_key, dtype=np.int64)
    txn = np.frombuffer(ch.op_txn, dtype=np.int64)
    committed = np.frombuffer(ch.txn_committed, dtype=np.uint8) != 0

    wpos = np.flatnonzero(kind)
    group = txn[wpos] * num_keys + key[wpos]
    order = np.argsort(group, kind="stable")
    group = group[order]
    wpos = wpos[order]
    step = np.empty(group.shape[0] + 1, dtype=bool)
    step[0] = step[-1] = True
    np.not_equal(group[1:], group[:-1], out=step[1:-1])
    final = np.frombuffer(ch.op_final, dtype=np.uint8)
    final[wpos[step[1:]]] = 1
    del final  # release the bytearray's buffer export
    firsts = np.sort(wpos[step[:-1]])
    firsts = firsts[committed[txn[firsts]]]
    ch._kw_key = _int64_column(key[firsts])
    ch._kw_start = _run_starts(txn[firsts], num_txn)

    rpos = np.flatnonzero(~kind)
    reader = txn[rpos]
    source = np.frombuffer(ch.op_wr, dtype=np.int64)[rpos]
    writer = txn[np.maximum(source, 0)]
    external = committed[reader] & (source >= 0) & (writer != reader)
    rpos = rpos[external]
    reader = reader[external]
    ch._xr_po = (rpos - np.frombuffer(ch.txn_start, dtype=np.int64)[reader]).tolist()
    ch._xr_key = key[rpos].tolist()
    ch._xr_writer = writer[external].tolist()
    ch._xr_start = _run_starts(reader, num_txn)
    return True


def reads_consistent(ch: CompiledHistory) -> bool:
    """Whether no committed read of ``ch`` breaks an axiom of Algorithm 4.

    ``True`` proves that :func:`check_read_consistency_compiled`'s loop
    reports nothing; ``False`` only means that the loop must run, and it
    alone builds the violations.  The axioms, over committed reads at once:
    thin air, an aborted writer, an external read after an own write to
    its key or of a non-final write, and an own read of any write but the
    latest own write before it (which covers a future read).  That latest
    write comes from one ``searchsorted`` over the writes sorted by
    ``key * n + position``; it is an own write iff it lies in the reader's
    transaction, whose operations are contiguous.
    """
    np = _csr._np
    n = ch.num_operations
    if max(ch.num_keys, 1) * n >= _INT64_LIMIT:
        return False
    kind = np.frombuffer(ch.op_kind, dtype=np.uint8) != 0
    key = np.frombuffer(ch.op_key, dtype=np.int64)
    txn = np.frombuffer(ch.op_txn, dtype=np.int64)
    committed = np.frombuffer(ch.txn_committed, dtype=np.uint8) != 0

    # Each n-sized temporary is dropped after its last read, and the sort
    # keys are built in place, so few are alive at once.
    rpos = np.flatnonzero(~kind)
    rpos = rpos[committed[txn[rpos]]]
    reader = txn[rpos]
    source = np.frombuffer(ch.op_wr, dtype=np.int64)[rpos]
    if (source < 0).any():
        return False
    writer = txn[source]
    if not committed[writer].all():
        return False
    own = writer == reader
    del writer
    if not np.frombuffer(ch.op_final, dtype=np.uint8)[source[~own]].all():
        return False

    wpos = np.flatnonzero(kind)
    del kind
    writes = key[wpos]
    writes *= n
    writes += wpos
    del wpos
    writes.sort()
    base = key[rpos]
    base *= n
    rpos += base
    at = np.searchsorted(writes, rpos)
    del rpos
    at -= 1
    own_before = at >= 0
    np.maximum(at, 0, out=at)
    latest = writes[at]
    del writes, at
    latest -= base
    del base
    own_before &= latest >= 0
    latest[~own_before] = 0
    own_before &= txn[latest] == reader
    del reader
    if (own_before & ~own).any():
        return False
    return not (own & ~(own_before & (latest == source))).any()


def relation_logs(ch: CompiledHistory, relation: CommitRelation) -> None:
    """Append ``ch``'s ``so`` and ``wr`` logs to ``relation``, in the loop's order.

    ``so``: each session's consecutive committed transactions, session by
    session.  ``wr``: the external reads from a committed writer with their
    key ids, in the order of the ``_xr_*`` columns.
    """
    np = _csr._np
    committed = np.frombuffer(ch.txn_committed, dtype=np.uint8) != 0
    lengths = [len(session) for session in ch.sessions]
    tids = np.fromiter(
        chain.from_iterable(ch.sessions), dtype=np.int64, count=sum(lengths)
    )
    sids = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    keep = committed[tids]
    tids = tids[keep]
    sids = sids[keep]
    chained = sids[1:] == sids[:-1]
    relation._so_log.frombytes(_packed(tids[:-1][chained], tids[1:][chained]).tobytes())

    num_reads = len(ch._xr_writer)
    writer = np.fromiter(ch._xr_writer, dtype=np.int64, count=num_reads)
    reader = np.repeat(
        np.arange(ch.num_transactions, dtype=np.int64),
        np.diff(np.frombuffer(ch._xr_start, dtype=np.int64)),
    )
    keep = committed[writer]
    relation._wr_log.frombytes(_packed(writer[keep], reader[keep]).tobytes())
    keys = np.fromiter(ch._xr_key, dtype=np.int64, count=num_reads)
    relation._wr_keys.frombytes(keys[keep].tobytes())
