"""The compiled streaming core: online read resolution on packed interned ids.

:class:`CompiledIncrementalChecker` is the streaming front end of the
compiled checkers.  AWDIT checks RC, RA and CC (Algorithms 1-3) in two
steps -- saturate a commit order over the *complete* history, then test it
for a cycle -- so before the last transaction arrives a stream can only
report read-level violations.  The fold therefore does exactly that part
online (Algorithm 4's read classification and Algorithm 2's repeatable-reads
pre-pass, on resolution), and :meth:`~CompiledIncrementalChecker.finalize`
hands everything after it to the batch checkers: it builds a *resolved*
:class:`~repro.core.compiled.ir.CompiledHistory` from the fold's columns
and runs the per-level functions of :mod:`repro.core.compiled.checkers`
that ``check_{rc,ra,cc}_compiled`` run, so saturation, happens-before, the
co log, verdicts, violation kinds, witnesses, and inferred-edge counts are
the batch engine's by construction (tested in
``tests/test_online_compiled.py`` and ``tests/test_arrival_stream.py``).

The fold is fed straight from the parsers' columnar record-batch layer --
``append_batch`` folds a whole
:class:`~repro.histories.formats._raw.RecordBatch` at a time (bulk intern
over the key/value columns, whole-batch read resolution through
:func:`~repro.core.compiled.kernels.resolve_reads`), and ``append_raw``
wraps one ``(is_write, key, value)`` record as a single-record batch, so no
:class:`~repro.core.model.Operation` or
:class:`~repro.core.model.Transaction` objects exist on the hot path.  Keys
*and* values are interned to dense ints on arrival
(:class:`~repro.core.compiled.ir.Intern`); the writes index and the
pending-read table are keyed by packed ``(key_id << 32) | value_id`` ints.

Memory model: each transaction's operation data is dropped the moment the
transaction is folded; what stays resident is laid out as
structure-of-arrays columns indexed by ``tid`` -- flat ``array('q')``
transaction summaries (session ids/indices, status flags, operation counts,
and written-key and external-read runs in shared values arrays), a set of
bad reads, the writes index, and a columnar park queue of reads whose
writes have not arrived (:class:`~repro.core.compiled.kernels.ParkQueue`)
-- array bytes the cyclic GC never walks.  The state is O(history), like
batch: one summary row per transaction and one run row per external read.
:meth:`live_stats` reports the footprint of each component (``awdit stats
--stream`` prints it); the README's "Fold memory model" section maps each
column to what it holds.

Checkpoint/resume: :meth:`save_checkpoint` serializes the whole online
state (intern tables, summaries, runs, pending reads) to a file;
:func:`load_checkpoint` restores it so an interrupted long-running check
continues exactly where it stopped (``awdit check --stream --checkpoint
state.awd`` / ``--resume``).  Checkpoints use :mod:`pickle` under a
versioned magic header -- load them only from trusted paths, like any
pickle.

Duplicate ``(key, value)`` writes resolve exactly like the batch unique-
writes convention -- the *last* write in transaction-id order wins: a
later-ordered duplicate supersedes the registry entry and rebinds every
already-resolved read of a transaction that has not yet been folded.  A
duplicate arriving only after a reading transaction was folded can no
longer rebind it (that would require a second pass over dropped state), so
:meth:`append_batch` detects the case at fold time and raises
:class:`~repro.core.exceptions.HistoryFormatError` with a pointer at batch
mode instead of silently diverging from the batch engines.  Every stream
that replays a history in its session-blocked order with writes ahead of
their readers never trips the diagnostic and resolves identically to batch.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from array import array
from itertools import accumulate, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.compiled.checkers import cc_cycles, ra_cycles, rc_cycles
from repro.core.compiled.ir import CompiledHistory, Intern
from repro.core.exceptions import HistoryFormatError
from repro.core.isolation import IsolationLevel
from repro.core.model import OpRef
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import (
    ReadConsistencyViolation,
    RepeatableReadViolation,
    Violation,
    ViolationKind,
)
from repro.core.compiled import kernels as _kernels
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RecordBatch

__all__ = [
    "CompiledIncrementalChecker",
    "check_stream_compiled",
    "checkpoint_temp_path",
    "load_checkpoint",
    "source_fingerprint",
    "CHECKPOINT_MAGIC",
]

ALL_LEVELS: Tuple[IsolationLevel, ...] = (
    IsolationLevel.READ_COMMITTED,
    IsolationLevel.READ_ATOMIC,
    IsolationLevel.CAUSAL_CONSISTENCY,
)

#: Packed write identity: ``(key_id << _VALUE_SHIFT) | value_id`` (the same
#: layout as the compiled IR's unique-writes index).
_VALUE_SHIFT = 32

#: Checkpoint file header: magic + format version.  Checkpoints are transient
#: resume state, so only the current version loads; older ones are rejected.
CHECKPOINT_MAGIC = b"AWDITCKPT"
CHECKPOINT_VERSION = 9

#: Bytes of file prefix hashed into the checkpoint source fingerprint.
_FINGERPRINT_PREFIX = 1 << 16


def checkpoint_temp_path(path: str) -> str:
    """The temp file a checkpoint save at ``path`` writes before renaming it."""
    return f"{path}.tmp"


def source_fingerprint(path: str, prefix_len: Optional[int] = None) -> dict:
    """A cheap identity fingerprint of the history file behind a checkpoint.

    Hashes the first 64 KiB only (or the recorded ``prefix_len`` when
    re-verifying), so a *growing* log -- the monitoring scenario
    checkpoints exist for -- still matches its own checkpoints, while a
    different, regenerated, or truncated file is rejected at resume.
    """
    size = os.path.getsize(path)
    length = min(size, _FINGERPRINT_PREFIX if prefix_len is None else prefix_len)
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read(length)).hexdigest()
    return {"prefix_len": length, "prefix_sha256": digest}


class _Read:
    """A read awaiting (or holding) its write-read resolution, all-int form.

    Only reads routed through the general slow path (own reads, aborted or
    non-final writers) materialize as ``_Read`` objects, held in the
    ``_live_reads`` side table until their transaction resolves; the fast
    and clean paths never allocate one.
    """

    __slots__ = ("index", "kid", "vid", "own_prev", "writer", "bad")

    def __init__(self, index: int, kid: int, vid: int, own_prev: Optional[int]) -> None:
        self.index = index
        self.kid = kid
        self.vid = vid
        self.own_prev = own_prev
        self.writer: Optional[int] = None
        self.bad = False


class CompiledIncrementalChecker:
    """Online checker for RC / RA / CC over a stream of raw transactions.

    ``levels`` selects the checks (default: all three); ``num_sessions``
    pre-registers sessions ``0..n-1`` (others register on first arrival);
    ``max_witnesses`` caps the cycle witnesses per level.
    :meth:`append_batch` folds whole
    columnar :class:`~repro.histories.formats._raw.RecordBatch` objects
    (the parsers' ``stream_batches`` layer), :meth:`append_raw` /
    :meth:`extend_raw` accept the record-at-a-time raw form (``session,
    label, committed, (is_write, key, value) ops``), and :meth:`append`
    takes an object-model transaction.
    """

    def __init__(
        self,
        levels: Optional[Sequence[IsolationLevel]] = None,
        num_sessions: Optional[int] = None,
        max_witnesses: Optional[int] = None,
    ) -> None:
        chosen = tuple(levels) if levels is not None else ALL_LEVELS
        for level in chosen:
            if level not in ALL_LEVELS:
                raise ValueError(f"unsupported isolation level: {level!r}")
        self._levels = chosen
        self._rc_enabled = IsolationLevel.READ_COMMITTED in chosen
        self._ra_enabled = IsolationLevel.READ_ATOMIC in chosen
        self._cc_enabled = IsolationLevel.CAUSAL_CONSISTENCY in chosen
        self._max_witnesses = max_witnesses

        self._next_tid = 0

        # Columnar transaction summaries: one row per transaction, indexed
        # by ``tid``: session id and index, committed flag, operation count,
        # unresolved-read counter, and label.
        # The written-key and external-read summaries are *runs* into
        # shared append-only values arrays: ``_fw_kid[_fw_off[j]:_fw_off[j +
        # 1]]`` is the transaction's written kids in first-write order, and
        # the ``(_xr_start[j], _xr_len[j])`` pair slices the parallel
        # ``_xr_po`` / ``_xr_kid`` / ``_xr_writer`` arrays: one ``(op index,
        # kid, writer tid)`` triple per read of a committed transaction whose
        # writer is another, committed transaction, in read order -- the
        # resolved IR's ``_xr_*`` rows.  Fast and clean-parked transactions
        # alias the resolve kernel's batch columns (one bulk extend per batch
        # covers them); slow-path rows append their triples at fold.  Reads of
        # those runs that broke an RC axiom are in ``_bad_reads`` as packed
        # ``(tid << 32) | op index``.
        self._t_sid = array("q")
        self._t_sidx = array("q")
        self._t_committed = bytearray()
        self._t_nops = array("q")
        self._t_unres = array("q")
        self._t_labels: List[Optional[str]] = []
        self._fw_off = array("q", (0,))
        self._fw_kid = array("q")
        self._xr_start = array("q")
        self._xr_len = array("q")
        self._xr_po = array("q")
        self._xr_kid = array("q")
        self._xr_writer = array("q")
        self._bad_reads: Set[int] = set()
        # Side tables bounded by the unfolded backlog, never by stream
        # length (every entry is popped when its transaction folds): tid ->
        # live ``_Read`` objects of a slow-path transaction still parked,
        # tid -> parked wid column of a clean parked transaction.
        self._live_reads: Dict[int, List[_Read]] = {}
        self._prefold: Dict[int, list] = {}
        self._session_ids: Dict[object, int] = {}
        #: Per session: transaction tids in session order (entry ``i`` is
        #: session index ``i``).
        self._by_session: List["array"] = []
        self._key_table = Intern()
        self._value_table = Intern()
        # Packed ``(kid << 32) | vid`` -> (sid, sidx, op index, writer tid,
        # is-final flag).  The tuple is ordered so that direct comparison is
        # comparison by batch transaction-id order (sid, sidx, op index).
        self._writes: Dict[int, Tuple[int, int, int, int, bool]] = {}
        # Packed write id -> (reader tid, slot) pairs waiting for that write
        # to arrive, as a columnar multimap.  This doubles as the roster of
        # parked transactions: when a duplicate write supersedes a wid
        # (rare), the resolved reads that may rebind are reconstructed by
        # scanning the parked transactions reachable here -- no per-bind
        # rebind table is maintained on the hot path.
        self._pending = _kernels.ParkQueue()

        #: Derived kernel cache (never pickled, rebuilt after restore): the
        #: sorted flat mirror of ``_writes`` behind ``kernels.resolve_reads``.
        self._writes_index = _kernels.WritesIndex()
        #: Read-resolution tallies: reads bound on the fast path (no
        #: ``_classify`` call), classified by the scalar slow path, parked
        #: for a missing write, and rebound by a duplicate-write supersede
        #: -- plus which resolve kernel ran per batch.  Surfaced as the
        #: ``classify_kernel`` stat and by ``stats --stream``.
        self._resolve_fast = 0
        self._resolve_slow = 0
        self._resolve_parked = 0
        self._resolve_rebound = 0
        self._resolve_vectorized = 0
        self._resolve_scalar = 0

        # Violations discovered so far, plus their batch-order sort keys.
        self._rc_axiom: List[Tuple[Tuple[int, int, int], Violation]] = []
        self._rr: List[Tuple[Tuple[int, int, int], Violation]] = []
        self._live: List[Violation] = []

        self._num_operations = 0
        self._elapsed = 0.0
        self._results: Optional[Dict[IsolationLevel, CheckResult]] = None

        # Live-state peak tracking (awdit stats --stream).
        self._num_parked = 0
        self._num_unfolded = 0
        self._peak_parked = 0
        self._peak_unfolded = 0

        # Packed (key, value) identities read by already-folded transactions.
        # A later duplicate write superseding one of these could not rebind
        # the folded reader (its operation data is gone), so the fold raises
        # a diagnostic instead of silently diverging from the batch engines.
        self._folded_read_wids: Set[int] = set()
        # --profile sub-laps of the fold ("intern" / "dispatch" /
        # "classify" wall seconds); None unless enable_fold_profile() ran.
        self._fold_laps: Optional[Dict[str, float]] = None

        if num_sessions is not None:
            for sid in range(num_sessions):
                self._register_session(sid)

    # -- public surface --------------------------------------------------------

    @property
    def levels(self) -> Tuple[IsolationLevel, ...]:
        """The isolation levels this checker maintains."""
        return self._levels

    @property
    def num_transactions(self) -> int:
        """Number of transactions appended so far."""
        return self._next_tid

    @property
    def num_operations(self) -> int:
        """Number of operations appended so far."""
        return self._num_operations

    @property
    def num_sessions(self) -> int:
        """Number of sessions seen (or pre-registered) so far."""
        return len(self._by_session)

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has produced results."""
        return self._results is not None

    @property
    def violations(self) -> List[Violation]:
        """Violations witnessed so far, in discovery order."""
        return list(self._live)

    def append_raw(
        self,
        session: object,
        label: Optional[str],
        committed: bool,
        ops: Iterable[Tuple[bool, object, object]],
    ) -> None:
        """Feed one raw transaction record appended to ``session``.

        ``ops`` are ``(is_write, key, value)`` tuples in program order --
        the exact records the formats' ``stream_ops`` layer yields.  A
        shim packing a single-record batch for :meth:`append_batch`, the
        fold implementation; folding is identical either way, batching only
        amortizes the per-call overhead.  Transactions of one session must
        arrive in session order; sessions may interleave arbitrarily.
        """
        batch = RecordBatch()
        batch.add_record(session, label, committed, ops)
        self.append_batch(batch)

    def append_batch(self, batch: "RecordBatch") -> None:
        """Fold one columnar :class:`RecordBatch` into the online state.

        The whole key column is interned in one columnar pass and the
        value column through a lazy probe (ids assigned in operation
        order either way, so the intern tables -- and therefore every
        rendered witness -- are byte-identical to record-at-a-time
        folding), then each transaction of the batch goes
        through exactly the resolution pipeline of the online algorithms:
        write registration, duplicate-write supersede/rebind, parked-read
        resolution, and own-read classification.  Verdicts and violations
        do not depend on how the stream was cut into batches.

        Raises :class:`~repro.core.exceptions.HistoryFormatError` when a
        duplicate ``(key, value)`` write supersedes a write whose bound
        reader was already folded (see the module docstring): the stream
        cannot rebind that read, so it refuses instead of silently
        diverging from the batch engines.
        """
        if self._results is not None:
            raise RuntimeError("cannot append to a finalized checker")
        start = time.perf_counter()
        laps = self._fold_laps

        kinds = batch.kinds
        values_col = batch.values
        txn_end = batch.txn_end
        sessions_col = batch.txn_session
        labels_col = batch.txn_labels
        committed_col = batch.txn_committed

        # Bulk intern.  Keys are interned unconditionally (reads and writes
        # alike), so one columnar pass assigns ids in operation order --
        # the same table order per-op interning would produce.  Values of
        # *aborted-transaction reads* are never interned (same rule as the
        # per-op path); the column pass below skips exactly those slots and
        # assigns every other miss in operation order.
        kid_col = self._key_table.intern_column(batch.keys)
        vid_col, cap_txn = self._intern_value_column(
            values_col, kinds, committed_col, txn_end
        )
        if laps is not None:
            lap_mark = time.perf_counter()
            laps["intern"] += lap_mark - start

        t_sid = self._t_sid
        t_sidx = self._t_sidx
        t_committed = self._t_committed
        t_nops = self._t_nops
        t_unres = self._t_unres
        t_labels = self._t_labels
        fw_off = self._fw_off
        fw_kid = self._fw_kid
        xr_start = self._xr_start
        xr_len = self._xr_len
        xr_po = self._xr_po
        live_reads = self._live_reads
        prefold_map = self._prefold
        session_ids = self._session_ids
        by_session = self._by_session
        writes = self._writes
        pending = self._pending
        folded_wids = self._folded_read_wids
        value_cap = 1 << _VALUE_SHIFT
        value_objs = self._value_table.values
        writes_index = self._writes_index
        ra_enabled = self._ra_enabled
        classify = self._classify
        on_resolved = self._on_resolved
        check_repeatable_run = self._check_repeatable_run
        pending_add = pending.add
        # The underlying dict's pop, not the ParkQueue method: one write
        # arrival per parked wid pays this call, so skipping the Python
        # wrapper frame is measurable on write-heavy streams.
        pending_pop = pending._rows.pop
        writes_get = writes.get
        # Resolve counters accumulate in locals for the whole batch (the
        # live-stats surface only reads them between batches).
        n_fast = n_slow = n_parked = n_rebound = 0

        # Whole-batch read resolution: one kernel call answers every
        # committed read's "who wrote this (key, value) -- final? committed?
        # external?" probe against the pre-batch registry and the batch's
        # own writes (see kernels.resolve_reads).  The fold loop below
        # consumes the answers strictly in today's scalar order --
        # registration, supersede/rebind, parked-read resolution, own reads
        # -- so park/rebind/refusal semantics and error timing are
        # untouched; only the per-read probing is batched.  Hazardous wids
        # (written twice in the batch, or already registered) and every
        # read the kernel could not prove clean drop to the exact scalar
        # path against the live dict.
        if laps is not None and "dispatch" in laps:
            dispatch_mark = time.perf_counter()
        res = _kernels.resolve_reads(
            writes_index,
            writes,
            t_committed.__getitem__,
            kid_col,
            vid_col,
            kinds,
            txn_end,
            committed_col,
            self._next_tid,
        )
        dispatch_delta = 0.0
        if laps is not None and "dispatch" in laps:
            dispatch_delta = time.perf_counter() - dispatch_mark
            laps["dispatch"] += dispatch_delta
        if res.kernel == "vectorized":
            self._resolve_vectorized += 1
        else:
            self._resolve_scalar += 1
        r_start = res.r_start
        r_index = res.r_index
        r_kid = res.r_kid
        r_vid = res.r_vid
        r_wid = res.r_wid
        r_own_prev = res.r_own_prev
        r_fast = res.r_fast
        r_writer = res.r_writer
        w_start = res.w_start
        w_index = res.w_index
        w_kid = res.w_kid
        w_wid = res.w_wid
        w_final = res.w_final
        txn_fast = res.txn_fast
        txn_clean = res.txn_clean
        txn_hazard = res.txn_hazard

        # The batch's read columns land in the shared external-read run
        # arrays in one bulk extend; fast and clean-parked transactions then
        # alias their ``[ra:rb)`` slice by offset instead of materializing
        # tuple lists.  Rows of slow-path reads (writer still -1) are never
        # referenced -- those transactions append their resolved triples at
        # fold time.
        gbase = len(xr_po)
        xr_po.extend(r_index)
        self._xr_kid.extend(r_kid)
        self._xr_writer.extend(r_writer)

        if txn_end:
            self._num_operations += txn_end[-1]
        try:
            for t in range(len(txn_end)):
                sid = session_ids.get(sessions_col[t])
                if sid is None:
                    sid = self._register_session(sessions_col[t])
                records = by_session[sid]
                tid = self._next_tid
                if tid >= (1 << 31):
                    # Transaction ids are packed-edge endpoints (and CC
                    # saturation's writer index keeps session indices
                    # below 2^31); checked once per transaction.
                    raise HistoryFormatError(
                        "history has too many transactions for packed edges"
                    )
                committed = bool(committed_col[t])
                sidx = len(records)
                t_sid.append(sid)
                t_sidx.append(sidx)
                t_committed.append(committed)
                t_nops.append(txn_end[t] - txn_end[t - 1] if t else txn_end[0])
                t_unres.append(0)
                t_labels.append(labels_col[t])
                xr_start.append(-1)
                xr_len.append(0)
                records.append(tid)
                self._next_tid = tid + 1
                if t == cap_txn:
                    # The value-table pass crossed the packed-vid budget inside
                    # this transaction; raise at the same transaction boundary
                    # the per-op intern would have.
                    fw_off.append(len(fw_kid))
                    raise HistoryFormatError(
                        "history has too many distinct values for the compiled IR"
                    )

                # The distinct written kids in first-write order land in the
                # ``_fw_kid`` run for this row.
                superseded: List[int] = ()
                wa = w_start[t]
                wz = w_start[t + 1]
                if wa != wz:
                    fw_kid.extend(dict.fromkeys(w_kid[wa:wz]))

                    # Register writes, last write in batch order winning.
                    # Non-hazardous transactions bulk-register -- every write is
                    # fresh by construction, and their mirror notes went through
                    # note_insert_columns in one per-batch call; hazardous ones
                    # replay the exact scalar supersede protocol.
                    if txn_hazard[t]:
                        new_writes: List[int] = []
                        superseded = []
                        for k in range(wa, wz):
                            wid = w_wid[k]
                            windex = w_index[k]
                            fl = w_final[k]
                            entry = (sid, sidx, windex, tid, fl)
                            current = writes_get(wid)
                            if current is None:
                                writes[wid] = entry
                                new_writes.append(wid)
                                writes_index.note_insert(
                                    wid, tid, windex, fl, committed
                                )
                            elif entry[:3] > current[:3]:
                                writes[wid] = entry
                                superseded.append(wid)
                                writes_index.note_update(
                                    wid, tid, windex, fl, committed
                                )
                    else:
                        new_writes = w_wid[wa:wz]
                        for k in range(wa, wz):
                            writes[w_wid[k]] = (sid, sidx, w_index[k], tid, w_final[k])
                else:
                    new_writes = ()
                fw_off.append(len(fw_kid))

                # A later-ordered duplicate write rebinds the resolved reads of
                # transactions that have not been folded yet -- and refuses the
                # history when a reader of the superseded write already folded.
                # The waiters are reconstructed from the park queue: every
                # unfolded transaction has at least one parked read, so each is
                # reachable through ``pending``, and binds to one wid always
                # happen in reader tid order (parked readers pop in consume
                # order at the wid's registration, later readers bind at their
                # own consume), so the (tid, read index) sort restores the
                # rebind table's exact insertion order.  Supersedes are rare;
                # this trades an O(parked) scan here for zero per-bind
                # bookkeeping on the hot path.
                for wid in superseded:
                    if wid in folded_wids:
                        key = self._key_table.values[wid >> _VALUE_SHIFT]
                        value = value_objs[wid & (value_cap - 1)]
                        raise HistoryFormatError(
                            f"duplicate write W({key}, {value!r}) in "
                            f"{self._name(tid)} supersedes a write whose reader "
                            "was already folded into the online state; the "
                            "stream cannot rebind that read-from edge and its "
                            "verdict would diverge from the batch engines -- "
                            "re-check this history without --stream"
                        )
                    waiters: List[Tuple[int, int, _Read]] = []
                    seen_tids: Set[int] = set()
                    for row in pending.rows():
                        for p in range(0, len(row), 2):
                            otid = row[p]
                            if otid in seen_tids:
                                continue
                            seen_tids.add(otid)
                            # Clean-parked transactions carry no _Read
                            # objects (nothing of theirs is resolved yet),
                            # so only slow-path parked readers can rebind.
                            for read in live_reads.get(otid, ()):
                                if (read.writer is not None or read.bad) and (
                                    (read.kid << _VALUE_SHIFT) | read.vid
                                ) == wid:
                                    waiters.append((otid, read.index, read))
                    if waiters:
                        waiters.sort(key=lambda w: (w[0], w[1]))
                        hit = writes[wid]
                        for otid, _rindex, read in waiters:
                            self._unclassify(otid, read)
                            classify(otid, read, hit)
                            n_rebound += 1

                # Resolve earlier reads that were parked waiting for these writes.
                for wid in new_writes:
                    row = pending_pop(wid, None)
                    if not row:
                        continue
                    hit = writes[wid]
                    # Parked reads resolve against this transaction's fresh
                    # write (always external to the parked reader): the common
                    # _classify exit binds inline.
                    self._num_parked -= len(row) >> 1
                    clean = hit[4] and committed
                    for p in range(0, len(row), 2):
                        otid = row[p]
                        slot = row[p + 1]
                        if slot < 0:
                            # Clean-parked read: its binding was proved by the
                            # resolve kernel and already sits in the reader's
                            # external-read run; nothing to materialize unless the
                            # proof failed (it cannot -- a clean wid has
                            # exactly one batch writer, final and committed --
                            # but keep the classify route for defense in
                            # depth).
                            if clean:
                                n_fast += 1
                            else:  # pragma: no cover - unreachable by proof
                                read = _Read(
                                    -slot - 1,
                                    wid >> _VALUE_SHIFT,
                                    wid & (value_cap - 1),
                                    None,
                                )
                                classify(otid, read, hit)
                                n_slow += 1
                        else:
                            read = live_reads[otid][slot]
                            if clean and read.own_prev is None:
                                read.writer = tid
                                n_fast += 1
                            else:
                                classify(otid, read, hit)
                                n_slow += 1
                        t_unres[otid] -= 1
                        if t_unres[otid] == 0:
                            on_resolved(otid)

                # Resolve this transaction's own reads against everything seen
                # so far, consuming the kernel's whole-batch answers.
                if committed:
                    self._num_unfolded += 1
                    if self._num_unfolded > self._peak_unfolded:
                        self._peak_unfolded = self._num_unfolded
                    ra = r_start[t]
                    rb = r_start[t + 1]
                    if txn_fast[t]:
                        # Every read is clean (external committed final write,
                        # no earlier own write): fold straight off the kernel
                        # columns -- this is _on_resolved inlined, with no
                        # _Read objects on the path at all.
                        n_fast += rb - ra
                        folded_wids.update(r_wid[ra:rb])
                        if rb > ra:
                            xr_start[tid] = gbase + ra
                            xr_len[tid] = rb - ra
                        if ra_enabled and rb - ra > 1:
                            check_repeatable_run(tid)
                        self._num_unfolded -= 1
                    elif txn_clean[t]:
                        # Every read is clean but at least one writer registers
                        # later in this batch: park those reads exactly like the
                        # scalar fold (same pending-queue timing, same peak
                        # stats), but precompute the fold-time structures now --
                        # the kernel already knows every eventual binding, so
                        # the parked entries carry the encoded read index
                        # (``-index - 1``) instead of a _Read object.  A clean
                        # wid has exactly one batch writer and no registry
                        # entry, so no supersede can ever rebind these reads.
                        unresolved = 0
                        for j in range(ra, rb):
                            if not r_fast[j]:
                                pending_add(r_wid[j], tid, -r_index[j] - 1)
                                unresolved += 1
                        n_parked += unresolved
                        n_fast += (rb - ra) - unresolved
                        if rb > ra:
                            xr_start[tid] = gbase + ra
                            xr_len[tid] = rb - ra
                        prefold_map[tid] = r_wid[ra:rb]
                        t_unres[tid] = unresolved
                        self._num_parked += unresolved
                        if self._num_parked > self._peak_parked:
                            self._peak_parked = self._num_parked
                    else:
                        reads: List[_Read] = []
                        reads_append = reads.append
                        unresolved = 0
                        for j in range(ra, rb):
                            ov = r_own_prev[j]
                            read = _Read(
                                r_index[j], r_kid[j], r_vid[j], ov if ov >= 0 else None
                            )
                            reads_append(read)
                            if r_fast[j]:
                                read.writer = r_writer[j]
                                n_fast += 1
                                continue
                            wid = r_wid[j]
                            hit = writes_get(wid)
                            if hit is None:
                                unresolved += 1
                                pending_add(wid, tid, len(reads) - 1)
                                n_parked += 1
                            else:
                                writer_tid = hit[3]
                                # Clean external final-write reads (the common
                                # case of _classify) resolve without the call.
                                if (
                                    writer_tid != tid
                                    and hit[4]
                                    and ov < 0
                                    and t_committed[writer_tid]
                                ):
                                    read.writer = writer_tid
                                    n_fast += 1
                                else:
                                    classify(tid, read, hit)
                                    n_slow += 1
                        live_reads[tid] = reads
                        if unresolved == 0:
                            on_resolved(tid)
                        else:
                            t_unres[tid] = unresolved
                            self._num_parked += unresolved
                            if self._num_parked > self._peak_parked:
                                self._peak_parked = self._num_parked
        except BaseException:
            # A mid-batch error (packed-edge/value-cap overflow, the
            # duplicate-write refusal) leaves the writes dict holding a
            # prefix of the batch while this batch's bulk mirror notes
            # were never applied; drop the mirror so any further use
            # rebuilds from the dict.
            writes_index.invalidate()
            raise
        finally:
            self._resolve_fast += n_fast
            self._resolve_slow += n_slow
            self._resolve_parked += n_parked
            self._resolve_rebound += n_rebound
        # One bulk tail append covers every non-hazardous registration of
        # the batch (the mirror is only consulted by the next batch's
        # resolve_reads call, and hazardous wids -- noted scalar above --
        # are disjoint from these by construction).
        writes_index.note_insert_columns(
            res.nh_wid, res.nh_tid, res.nh_windex, res.nh_flag
        )

        if laps is not None:
            # The resolve-kernel dispatch times itself into laps["dispatch"],
            # so subtract its delta to keep the laps disjoint.
            laps["classify"] += time.perf_counter() - lap_mark - dispatch_delta
        self._elapsed += time.perf_counter() - start

    def _intern_value_column(
        self, values_col, kinds, committed_col, txn_end
    ) -> Tuple[List[int], int]:
        """Bulk-intern the value column; returns ``(vid_col, cap_txn)``.

        One C-level ``map`` probes the whole column against the table, then
        a sparse fixup walks only the misses in operation order -- assigning
        new ids exactly where (and in exactly the order) the per-op lazy
        probe would have.  Values of aborted-transaction reads are never
        interned (their slots stay ``-1``; the resolve kernel never looks at
        them).  ``cap_txn`` is the index of the transaction whose intern
        pushed the table over the packed-vid budget (``-1`` if none); the
        fold raises at that transaction's boundary, the same timing as the
        per-op check.
        """
        ids = self._value_table._ids
        objs = self._value_table.values
        vids = list(map(ids.get, values_col, repeat(-1)))
        try:
            i = vids.index(-1)
        except ValueError:
            return vids, -1
        cap = 1 << _VALUE_SHIFT
        cap_txn = -1
        ids_get = ids.get
        # Aborted-read slots are skipped; resolved lazily only when the
        # batch actually contains an aborted transaction.
        check_aborted = 0 in committed_col
        t = 0
        while True:
            value = values_col[i]
            if check_aborted and not kinds[i]:
                while txn_end[t] <= i:
                    t += 1
                eligible = bool(committed_col[t])
            else:
                eligible = True
            if eligible:
                vid = ids_get(value, -1)
                if vid < 0:
                    vid = len(objs)
                    ids[value] = vid
                    objs.append(value)
                    if vid + 1 >= cap and cap_txn < 0:
                        while txn_end[t] <= i:
                            t += 1
                        cap_txn = t
                vids[i] = vid
            try:
                i = vids.index(-1, i + 1)
            except ValueError:
                break
        return vids, cap_txn

    def extend_raw(
        self,
        records: Iterable[Tuple[object, Tuple[Optional[str], bool, list]]],
        batch_ops: Optional[int] = None,
    ) -> None:
        """Feed many raw ``(session, (label, committed, ops))`` records.

        Records are packed into :class:`RecordBatch` columns of up to
        ``batch_ops`` operations (``None`` = the formats' default) and
        folded with :meth:`append_batch`; the result is identical for any
        ``batch_ops``.
        """
        if batch_ops is None:
            batch_ops = DEFAULT_BATCH_OPS
        elif batch_ops < 1:
            raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
        batch = RecordBatch()
        add_record = batch.add_record
        for session, (label, committed, ops) in records:
            add_record(session, label, committed, ops)
            if batch.full(batch_ops):
                self.append_batch(batch)
                batch = RecordBatch()
                add_record = batch.add_record
        if len(batch.txn_end):
            self.append_batch(batch)

    def enable_fold_profile(self) -> Dict[str, float]:
        """Start accumulating fold sub-laps; returns the live lap dict.

        The dict maps ``"intern"`` / ``"dispatch"`` / ``"classify"`` to
        wall seconds spent in the columnar key intern pass, the
        resolve-kernel dispatch, and the per-transaction resolution loop
        (which also lazily interns values) respectively (``awdit check
        --stream --profile`` prints them as ``fold_*``).  The fold does no
        CC work, so ``"clock_join"`` stays 0.0; the key remains for
        existing readers of the laps.
        """
        if self._fold_laps is None:
            self._fold_laps = {
                "intern": 0.0,
                "dispatch": 0.0,
                "classify": 0.0,
                "clock_join": 0.0,
            }
        return self._fold_laps

    def append(self, session: object, transaction) -> None:
        """Feed one object-model :class:`~repro.core.model.Transaction`.

        Compatibility shim for parity harnesses; the hot path is
        :meth:`append_raw`.
        """
        self.append_raw(
            session,
            transaction.label,
            transaction.committed,
            [(op.is_write, op.key, op.value) for op in transaction.operations],
        )

    def finalize(self) -> Dict[IsolationLevel, CheckResult]:
        """Flush pending state and return one :class:`CheckResult` per level.

        Unresolved reads become thin-air violations.  Then the fold's
        columns become a resolved IR (:meth:`_resolved_history`), and each
        level runs the batch checkers' post-read-consistency function on it
        (:func:`~repro.core.compiled.checkers.rc_cycles`,
        :func:`~repro.core.compiled.checkers.ra_cycles`,
        :func:`~repro.core.compiled.checkers.cc_cycles`); each result's
        stats carry the IR ``build`` lap and that function's laps.
        Idempotent.
        """
        if self._results is not None:
            return self._results
        start = time.perf_counter()

        key_names = self._key_table.values
        value_objs = self._value_table.values
        t_unres = self._t_unres
        for wid, row in list(self._pending.items()):
            kid = wid >> _VALUE_SHIFT
            vid = wid & ((1 << _VALUE_SHIFT) - 1)
            key = key_names[kid]
            value = value_objs[vid]
            for p in range(0, len(row), 2):
                otid = row[p]
                slot = row[p + 1]
                if slot < 0:  # pragma: no cover - unreachable by proof
                    # A clean-parked read's writer registers later in the
                    # *same* batch (that is what the kernel proved), so none
                    # can still be parked at finalize; materialize a _Read
                    # anyway for defense in depth.
                    read = _Read(-slot - 1, kid, vid, None)
                else:
                    read = self._live_reads[otid][slot]
                read.bad = True
                self._add_rc_violation(
                    otid,
                    read,
                    ViolationKind.THIN_AIR_READ,
                    f"{self._name(otid)} reads R({key}, {value!r}) but no "
                    f"transaction writes {value!r} to {key!r}",
                    write=None,
                )
                t_unres[otid] -= 1
                if t_unres[otid] == 0:
                    self._on_resolved(otid)
        self._pending.clear()
        self._num_parked = 0

        build = Stopwatch()
        ch, bad_ops = self._resolved_history()
        # Release the fold state the checkers do not read (the resolved IR
        # holds its own copy of the runs).
        self._writes = {}
        self._live_reads = {}
        self._prefold = {}
        self._writes_index = _kernels.WritesIndex()
        self._folded_read_wids = set()
        self._fw_kid = array("q")
        self._xr_po = array("q")
        self._xr_kid = array("q")
        self._xr_writer = array("q")
        self._bad_reads = set()
        build_seconds = build.lap("build")

        rc_violations = [v for _, v in sorted(self._rc_axiom, key=lambda item: item[0])]
        max_witnesses = self._max_witnesses
        results: Dict[IsolationLevel, CheckResult] = {}
        if self._rc_enabled:
            watch = Stopwatch()
            cycles, stats = rc_cycles(ch, bad_ops, watch, max_witnesses)
            results[IsolationLevel.READ_COMMITTED] = self._result(
                IsolationLevel.READ_COMMITTED, rc_violations + cycles, "awdit-stream",
                stats, watch, build_seconds,
            )
        if self._ra_enabled:
            rr_violations = [v for _, v in sorted(self._rr, key=lambda item: item[0])]
            single = ch.num_sessions <= 1
            watch = Stopwatch()
            cycles, stats = ra_cycles(ch, bad_ops, watch, max_witnesses, so_only=single)
            results[IsolationLevel.READ_ATOMIC] = self._result(
                IsolationLevel.READ_ATOMIC, rc_violations + rr_violations + cycles,
                "awdit-stream-1session" if single else "awdit-stream",
                stats, watch, build_seconds,
            )
        if self._cc_enabled:
            watch = Stopwatch()
            cycles, stats = cc_cycles(ch, bad_ops, watch, max_witnesses)
            results[IsolationLevel.CAUSAL_CONSISTENCY] = self._result(
                IsolationLevel.CAUSAL_CONSISTENCY, rc_violations + cycles, "awdit-stream",
                stats, watch, build_seconds,
            )
        for result in results.values():
            self._live.extend(
                v for v in result.violations if v.kind
                in (ViolationKind.CAUSALITY_CYCLE, ViolationKind.COMMIT_ORDER_CYCLE)
                and v not in self._live
            )
        self._elapsed += time.perf_counter() - start
        for result in results.values():
            result.elapsed_seconds = self._elapsed
        self._results = results
        return results

    # -- live-state accounting --------------------------------------------------

    def live_stats(self) -> Dict[str, int]:
        """Peak live-state footprint of the online core, component by component.

        ``resident_transactions`` is the number of transaction-level
        summaries currently held (operation data itself is dropped at
        fold); the ``peak_*`` entries are high-water marks over the whole
        run.  The fold infers no edges and joins no clocks (finalize runs
        the batch checkers), so ``inferred_edge_log`` and ``cc_joins_*``
        read 0; the keys remain for existing readers of these stats.
        """
        return {
            "transactions": self._next_tid,
            "operations": self._num_operations,
            "sessions": len(self._by_session),
            "resident_transactions": len(self._t_sid),
            "pending_reads": self._num_parked,
            "peak_pending_reads": self._peak_parked,
            "unfolded_transactions": self._num_unfolded,
            "peak_unfolded_transactions": self._peak_unfolded,
            "interned_keys": len(self._key_table),
            "interned_values": len(self._value_table),
            "writes_index": len(self._writes),
            "cc_joins_vectorized": 0,
            "cc_joins_fallback": 0,
            "classify_vectorized": self._resolve_vectorized,
            "classify_fallback": self._resolve_scalar,
            "resolve_fast_path": self._resolve_fast,
            "resolve_slow_path": self._resolve_slow,
            "resolve_parked": self._resolve_parked,
            "resolve_rebound": self._resolve_rebound,
            "inferred_edge_log": 0,
        }

    # -- checkpoint/resume -------------------------------------------------------

    def save_checkpoint(self, path: str, source: Optional[dict] = None) -> None:
        """Serialize the whole online state to ``path``.

        The checkpoint captures everything :meth:`append_raw` has folded so
        far -- intern tables, transaction summaries, written-key and
        external-read runs, bad reads, and pending reads -- so a :func:`load_checkpoint`'ed checker
        continues the stream from record ``num_transactions`` onward and
        finalizes byte-identically to an uninterrupted run.  Finalized
        checkers cannot be checkpointed.

        ``source`` optionally records a fingerprint of the stream being
        checked (see :func:`repro.stream.runner.source_fingerprint`);
        :func:`load_checkpoint` verifies it so a checkpoint cannot silently
        resume against a different history.  The write is atomic and
        durable: the temp file is fsynced before it is renamed over
        ``path``, the directory is fsynced after the rename so the rename
        itself survives a crash, and a failed write removes the temp file,
        so an interrupted save never destroys the previous checkpoint.
        """
        if self._results is not None:
            raise RuntimeError("cannot checkpoint a finalized checker")
        payload = {
            "records_consumed": self._next_tid,
            "levels": [level.name for level in self._levels],
            "source": source,
            "checker": self,
        }
        scratch = checkpoint_temp_path(path)
        try:
            with open(scratch, "wb") as handle:
                handle.write(CHECKPOINT_MAGIC)
                handle.write(bytes([CHECKPOINT_VERSION]))
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, path)
        except BaseException:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            raise
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Derived kernel cache: cheap to rebuild, numpy-shaped, and not
        # part of the checkpoint format; __setstate__ starts a fresh mirror
        # that the next batch repopulates from the pickled writes dict.
        state.pop("_writes_index", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._writes_index = _kernels.WritesIndex()

    # -- session bookkeeping ---------------------------------------------------

    def _register_session(self, external: object) -> int:
        dense = len(self._by_session)
        self._session_ids[external] = dense
        self._by_session.append(array("q"))
        return dense

    def _name(self, tid: int) -> str:
        label = self._t_labels[tid]
        return label if label is not None else f"t{tid}"

    # -- read classification (Algorithm 4, incremental) ------------------------

    def _op_repr(self, read: _Read) -> str:
        key = self._key_table.values[read.kid]
        value = self._value_table.values[read.vid]
        return f"R({key}, {value!r})"

    def _add_rc_violation(
        self,
        tid: int,
        read: _Read,
        kind: ViolationKind,
        message: str,
        write: Optional[OpRef],
    ) -> None:
        read.bad = True
        violation = ReadConsistencyViolation(
            kind=kind, message=message, read=OpRef(tid, read.index), write=write
        )
        self._rc_axiom.append(
            ((self._t_sid[tid], self._t_sidx[tid], read.index), violation)
        )
        self._live.append(violation)

    def _unclassify(self, tid: int, read: _Read) -> None:
        """Withdraw a read's previous classification before rebinding it."""
        if read.bad:
            sort_key = (self._t_sid[tid], self._t_sidx[tid], read.index)
            for i, (key, violation) in enumerate(self._rc_axiom):
                if key == sort_key and violation.read == OpRef(tid, read.index):
                    del self._rc_axiom[i]
                    try:
                        self._live.remove(violation)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    break
        read.bad = False
        read.writer = None

    def _classify(
        self, tid: int, read: _Read, hit: Tuple[int, int, int, int, bool]
    ) -> None:
        """Classify a freshly resolved read against the five RC axioms."""
        _wsid, _wsidx, writer_index, writer_tid, is_final = hit
        read.writer = writer_tid
        if writer_tid == tid:
            if writer_index > read.index:
                self._add_rc_violation(
                    tid,
                    read,
                    ViolationKind.FUTURE_READ,
                    f"{self._name(tid)} reads {self._op_repr(read)} before writing "
                    f"it (write at position {writer_index}, read at {read.index})",
                    write=OpRef(writer_tid, writer_index),
                )
            elif read.own_prev is not None and read.own_prev != writer_index:
                key = self._key_table.values[read.kid]
                self._add_rc_violation(
                    tid,
                    read,
                    ViolationKind.NOT_LATEST_WRITE,
                    f"{self._name(tid)} reads {self._op_repr(read)} from a stale "
                    f"own write to {key!r} (a later own write precedes the read)",
                    write=OpRef(writer_tid, writer_index),
                )
            return
        if not self._t_committed[writer_tid]:
            self._add_rc_violation(
                tid,
                read,
                ViolationKind.ABORTED_READ,
                f"{self._name(tid)} reads {self._op_repr(read)} written by aborted "
                f"transaction {self._name(writer_tid)}",
                write=OpRef(writer_tid, writer_index),
            )
        elif read.own_prev is not None:
            key = self._key_table.values[read.kid]
            self._add_rc_violation(
                tid,
                read,
                ViolationKind.NOT_OWN_WRITE,
                f"{self._name(tid)} reads {self._op_repr(read)} from "
                f"{self._name(writer_tid)} although it wrote {key!r} earlier itself",
                write=OpRef(writer_tid, writer_index),
            )
        elif not is_final:
            key = self._key_table.values[read.kid]
            self._add_rc_violation(
                tid,
                read,
                ViolationKind.NOT_LATEST_WRITE,
                f"{self._name(tid)} reads {self._op_repr(read)} from a non-final "
                f"write of {self._name(writer_tid)} to {key!r}",
                write=OpRef(writer_tid, writer_index),
            )

    def _on_resolved(self, tid: int) -> None:
        """All reads of ``tid`` are classified: fold it into the online state."""
        self._num_unfolded -= 1
        # ``folded_wids`` remembers which (key, value) identities this
        # transaction read (any bound read, own/aborted writers included):
        # its operation data is dropped below, so a later duplicate write
        # for one of them could never rebind the read -- append_batch
        # raises the duplicate-write diagnostic when it sees such a wid.
        folded_wids = self._folded_read_wids
        pre = self._prefold.pop(tid, None)
        if pre is not None:
            # Clean parked transaction: its external-read run was written at
            # consume from the resolve-kernel columns (the eventual binding
            # of each read was already known) and every read is good; only
            # the wid list rode the prefold map.
            folded_wids.update(pre)
            if self._ra_enabled:
                self._check_repeatable_run(tid)
            return
        reads = self._live_reads.pop(tid, ())
        t_committed = self._t_committed
        bad_reads = self._bad_reads
        xr_po = self._xr_po
        xr_kid = self._xr_kid
        xr_writer = self._xr_writer
        start = len(xr_po)
        for read in reads:
            writer = read.writer
            if writer is None:
                continue
            folded_wids.add((read.kid << _VALUE_SHIFT) | read.vid)
            if writer == tid or not t_committed[writer]:
                continue
            if read.bad:
                bad_reads.add((tid << 32) | read.index)
            xr_po.append(read.index)
            xr_kid.append(read.kid)
            xr_writer.append(writer)
        if len(xr_po) > start:
            self._xr_start[tid] = start
            self._xr_len[tid] = len(xr_po) - start
        if self._ra_enabled:
            self._check_repeatable_reads(tid, reads)

    def _non_repeatable(
        self, tid: int, kid: int, previous: int, writer: int, index: int
    ) -> None:
        """Record that ``tid`` reads key ``kid`` from both ``previous`` and ``writer``."""
        key = self._key_table.values[kid]
        violation = RepeatableReadViolation(
            kind=ViolationKind.NON_REPEATABLE_READ,
            message=(
                f"{self._name(tid)} reads {key!r} from both "
                f"{self._name(previous)} and {self._name(writer)}"
            ),
            txn=tid,
            key=key,
            writers=(previous, writer),
        )
        self._rr.append(((self._t_sid[tid], self._t_sidx[tid], index), violation))
        self._live.append(violation)

    def _check_repeatable_run(self, tid: int) -> None:
        """Algorithm 2's repeatable-reads pre-pass over ``tid``'s external-read run.

        Only called for transactions whose every read is good and external,
        so this is :meth:`_check_repeatable_reads` without its filters.  A
        violation needs a repeated key, so one C-level set build skips the
        scan in the common all-distinct case; on a violation the last-writer
        entry is not updated, matching the scalar check.
        """
        a = self._xr_start[tid]
        n = self._xr_len[tid]
        kids = self._xr_kid[a : a + n]
        if len(set(kids)) == n:
            return
        last_writer: Dict[int, int] = {}
        for g, kid, writer in zip(range(a, a + n), kids, self._xr_writer[a : a + n]):
            previous = last_writer.setdefault(kid, writer)
            if previous != writer:
                self._non_repeatable(tid, kid, previous, writer, self._xr_po[g])

    def _check_repeatable_reads(self, tid: int, reads: Sequence[_Read]) -> None:
        """Per-transaction repeatable-reads check (Algorithm 2's pre-pass)."""
        last_writer: Dict[int, int] = {}
        for read in reads:
            if read.bad or read.writer is None:
                continue
            writer = read.writer
            previous = last_writer.get(read.kid)
            if writer != tid and previous is not None and previous != writer:
                self._non_repeatable(tid, read.kid, previous, writer, read.index)
            else:
                last_writer[read.kid] = writer

    # -- finalize helpers --------------------------------------------------------

    def _resolved_history(self) -> Tuple[CompiledHistory, Set[int]]:
        """The fold's columns as a resolved IR, plus its bad reads as ``bad_ops``.

        Transactions are renumbered session-blocked, sessions in arrival
        order -- the numbering ``History.from_sessions`` assigns.  The IR
        carries the transaction arrays, ``sessions``, ``labels``, the
        intern tables, ``txn_start`` (from the operation counts), the
        written-key CSR ``_kw_*`` of committed transactions, and ``_xr_*``:
        every external read whose writer is committed, bad reads included.
        That is everything the per-level checker functions read; there are
        no operation columns.  The bad reads come back as the global
        operation indices ``txn_start[tid] + po`` the checkers take.
        """
        order = array("q")
        for records in self._by_session:
            order.extend(records)
        mapping = [0] * len(order)
        for batch_tid, tid in enumerate(order):
            mapping[tid] = batch_tid

        t_committed = self._t_committed
        t_labels = self._t_labels
        ch = CompiledHistory()
        ch.key_table = self._key_table
        ch.value_table = self._value_table
        ch.session_table = list(self._session_ids)
        ch.txn_session = array("q", map(self._t_sid.__getitem__, order))
        ch.txn_session_index = array("q", map(self._t_sidx.__getitem__, order))
        ch.txn_committed = bytearray(map(t_committed.__getitem__, order))
        ch.txn_start.extend(accumulate(map(self._t_nops.__getitem__, order)))
        ch.labels = {
            batch_tid: t_labels[tid]
            for batch_tid, tid in enumerate(order)
            if t_labels[tid] is not None
        }
        offset = 0
        for records in self._by_session:
            ch.sessions.append(list(range(offset, offset + len(records))))
            offset += len(records)

        fw_off = self._fw_off
        fw_kid = self._fw_kid
        run_start = self._xr_start
        run_len = self._xr_len
        run_po = self._xr_po
        run_kid = self._xr_kid
        run_writer = self._xr_writer
        kw_start = ch._kw_start
        kw_key = ch._kw_key
        xr_start = ch._xr_start
        xr_po = array("q")
        xr_key = array("q")
        writers = array("q")
        for tid in order:
            if t_committed[tid]:
                kw_key.extend(fw_kid[fw_off[tid] : fw_off[tid + 1]])
                length = run_len[tid]
                if length:
                    a = run_start[tid]
                    xr_po.extend(run_po[a : a + length])
                    xr_key.extend(run_kid[a : a + length])
                    writers.extend(run_writer[a : a + length])
            kw_start.append(len(kw_key))
            xr_start.append(len(xr_po))
        ch._xr_po = xr_po
        ch._xr_key = xr_key
        ch._xr_writer = array("q", map(mapping.__getitem__, writers))
        ch._kw_sets = [None] * len(order)

        txn_start = ch.txn_start
        bad_ops = {
            txn_start[mapping[packed >> 32]] + (packed & 0xFFFFFFFF)
            for packed in self._bad_reads
        }
        return ch, bad_ops

    def _result(
        self,
        level: IsolationLevel,
        violations: List[Violation],
        checker: str,
        stats: Dict[str, object],
        watch: Stopwatch,
        build_seconds: float,
    ) -> CheckResult:
        stats = {**stats, "build": build_seconds, **watch.laps}
        if self._resolve_vectorized or self._resolve_scalar:
            # Which read-resolution kernel ran, plus the resolve tallies
            # ("mixed" is normal: sub-threshold tail batches take the
            # fallback twin even with numpy on).
            if not self._resolve_scalar:
                stats["classify_kernel"] = "vectorized"
            elif not self._resolve_vectorized:
                stats["classify_kernel"] = "fallback"
            else:
                stats["classify_kernel"] = "mixed"
            stats["resolve_fast"] = self._resolve_fast
            stats["resolve_slow"] = self._resolve_slow
            stats["resolve_parked"] = self._resolve_parked
            stats["resolve_rebound"] = self._resolve_rebound
        return CheckResult(
            level=level,
            violations=violations,
            checker=checker,
            elapsed_seconds=self._elapsed,
            num_operations=self._num_operations,
            num_transactions=self._next_tid,
            num_sessions=len(self._by_session),
            stats=stats,
        )


def load_checkpoint(
    path: str, source_path: Optional[str] = None
) -> CompiledIncrementalChecker:
    """Restore a :class:`CompiledIncrementalChecker` from a checkpoint file.

    The returned checker has consumed ``checker.num_transactions`` records;
    skip that many records of the stream and keep appending.  Raises
    :class:`~repro.core.exceptions.HistoryFormatError` on a bad header, an
    unsupported version, or a truncated or corrupt body, or -- when
    ``source_path`` is given and the checkpoint recorded a source
    fingerprint -- when ``source_path`` is not the history the checkpoint
    was taken from (resuming against a different file would silently mix
    two runs; the comparison re-hashes the recorded prefix length, so a
    log that merely *grew* since the save still matches).  Checkpoints are
    pickles: load only files you wrote yourself.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise HistoryFormatError(f"{path}: not an awdit checkpoint file")
        version = handle.read(1)
        if not version or version[0] != CHECKPOINT_VERSION:
            raise HistoryFormatError(
                f"{path}: unsupported checkpoint version "
                f"{version[0] if version else '<missing>'}"
            )
        try:
            payload = pickle.load(handle)
            checker = payload["checker"]
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            # What a cut-short or bit-flipped pickle raises varies with
            # where the damage lands; every case means the same thing.
            raise HistoryFormatError(
                f"{path}: truncated or corrupt checkpoint; re-run without --resume"
            ) from exc
    if not isinstance(checker, CompiledIncrementalChecker):  # pragma: no cover
        raise HistoryFormatError(f"{path}: checkpoint does not contain a checker")
    recorded = payload.get("source")
    if source_path is not None and recorded is not None:
        current = source_fingerprint(source_path, prefix_len=recorded["prefix_len"])
        if current != recorded:
            raise HistoryFormatError(
                f"{path}: checkpoint was taken from a different history than "
                f"{source_path} (source fingerprint mismatch); re-run without "
                "--resume"
            )
    return checker


def check_stream_compiled(
    records: Iterable[Tuple[object, Tuple[Optional[str], bool, list]]],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
    num_sessions: Optional[int] = None,
) -> CheckResult:
    """One-pass check of a raw record stream against ``level``.

    Feed it :func:`repro.histories.formats.stream_raw_history` and no model
    objects are ever constructed.
    """
    checker = CompiledIncrementalChecker(
        levels=(level,),
        num_sessions=num_sessions,
        max_witnesses=max_witnesses,
    )
    checker.extend_raw(records)
    return checker.finalize()[level]
