"""The compiled streaming core: online checking on packed interned ids.

:class:`CompiledIncrementalChecker` is the online formulation of AWDIT's
Algorithms 1-4 (read classification on resolution, per-transaction RC
saturation, per-session RA frontier, causal CC frontier with monotone
saturation pointers), fed straight from the parsers' columnar record-batch
layer -- ``append_batch`` folds a whole
:class:`~repro.histories.formats._raw.RecordBatch` at a time (bulk intern
over the key/value columns, per-transaction dispatch amortized across the
batch), and ``append_raw`` wraps one ``(is_write, key, value)`` record as a
single-record batch, so no :class:`~repro.core.model.Operation` or
:class:`~repro.core.model.Transaction` objects exist on the hot path at all:

* keys *and* values are interned to dense ints on arrival
  (:class:`~repro.core.compiled.ir.Intern`); the writes index and the
  pending-read table are keyed by packed ``(key_id << 32) | value_id`` ints
  instead of ``(key, value)`` tuples;
* the CC saturation's per-(session, key) monotone pointers live in flat
  ``array('q')`` rows indexed by dense bucket ids (one bucket per
  ``(writer session, key)`` writer list, allocated when the first write
  registers), exactly like the batch
  :func:`~repro.core.compiled.checkers.saturate_cc_compiled`;
* inferred edges are recorded in the same packed ``int -> int`` logs and
  replayed in batch order at :meth:`finalize`, so verdicts, violation
  kinds, witnesses, and inferred-edge counts are byte-identical to every
  batch engine (property-tested in ``tests/test_online_compiled.py`` and
  ``tests/test_matrix.py``).

Memory model: each transaction's operation data is dropped the moment the
transaction is folded into the online state; what stays resident is the
*live state*, laid out as structure-of-arrays columns indexed by
``tid - _txns_base`` -- flat ``array('q')`` transaction summaries (session
ids/indices, status flags, written-key and first-read-per-writer runs in
shared values arrays with per-transaction offsets), the writes index, a
columnar park queue of reads whose writes have not arrived
(:class:`~repro.core.compiled.kernels.ParkQueue`), the per-(session, key)
writer lists, and one flat row-major clock matrix each for the hb clocks
and the session clocks -- so checking a multi-gigabyte log is bounded by
live state, not by operation count, and the resident footprint is array
bytes the cyclic GC never walks, not a per-transaction object heap.
:meth:`live_stats` reports the peak footprint of each component
(``awdit stats --stream`` prints it); the README's "Fold memory model"
section maps each column to what it holds.

Checkpoint/resume: :meth:`save_checkpoint` serializes the whole online
state (intern tables, frontiers, pending reads, edge logs) to a file;
:func:`load_checkpoint` restores it so an interrupted long-running check
continues exactly where it stopped (``awdit check --stream --checkpoint
state.awd`` / ``--resume``).  Checkpoints use :mod:`pickle` under a
versioned magic header -- load them only from trusted paths, like any
pickle.

Duplicate ``(key, value)`` writes resolve exactly like the batch unique-
writes convention -- the *last* write in transaction-id order wins: a
later-ordered duplicate supersedes the registry entry and rebinds every
already-resolved read of a transaction that has not yet been folded into
the frontiers.  A duplicate arriving only after a reading transaction was
folded can no longer rebind it (that would require a second pass over
dropped state), so :meth:`append_batch` detects the case at fold time and
raises :class:`~repro.core.exceptions.HistoryFormatError` with a pointer at
batch mode instead of silently diverging from the batch engines.  Every
stream that replays a history in its session-blocked order with writes
ahead of their readers never trips the diagnostic and resolves identically
to batch.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from array import array
from bisect import bisect_left
from itertools import chain, islice, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cc import causality_cycles, causality_labels
from repro.core.commit import CommitRelation
from repro.core.compiled.ir import Intern
from repro.core.exceptions import HistoryFormatError
from repro.core.isolation import IsolationLevel
from repro.core.model import OpRef
from repro.core.result import CheckResult
from repro.core.violations import (
    ReadConsistencyViolation,
    RepeatableReadViolation,
    Violation,
    ViolationKind,
)
from repro.core.compiled import kernels as _kernels
from repro.core.compiled.retire import (
    RetirementPolicy,
    RetireStats,
    SegmentStore,
    check_identity_reuse,
    check_retired_reads,
    load_retired_state,
    low_watermark_flat,
    stable_digest,
)
from repro.graph.csr import _np, freeze_packed
from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT, pack_edge
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RecordBatch

__all__ = [
    "CompiledIncrementalChecker",
    "check_stream_compiled",
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

#: Bit budget per sort-key component of the packed inferred-edge logs
#: (``(t2 << EDGE_SHIFT) | t1`` -> ``(sort key << EDGE_SHIFT) | (kid + 1)``,
#: where the sort key packs (sid, session index, attempt) and records the
#: position the batch algorithm would first add the edge at): up to 2^24
#: transactions per session and 2^24 edge attempts per transaction keep
#: batch-order replay exact; beyond that only witness selection (never
#: verdicts) could diverge from batch.
_KEY_SHIFT = 24

#: Checkpoint file header: magic + format version.  Checkpoints are transient
#: resume state, so only the current version loads; older ones are rejected.
CHECKPOINT_MAGIC = b"AWDITCKPT"
CHECKPOINT_VERSION = 6

#: Bytes of file prefix hashed into the checkpoint source fingerprint.
_FINGERPRINT_PREFIX = 1 << 16


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


def _sort_base(sid: int, sidx: int) -> int:
    """The sort-key base for transaction (sid, sidx); add the attempt number."""
    return ((sid << _KEY_SHIFT) | sidx) << _KEY_SHIFT


class _Read:
    """A read awaiting (or holding) its write-read resolution, all-int form.

    Only reads routed through the general slow path (own reads, aborted or
    non-final writers) materialize as ``_Read`` objects, held in the
    ``_live_reads`` side table until their transaction resolves; the fast
    and clean paths never allocate one.
    """

    __slots__ = ("index", "kid", "vid", "own_prev", "writer", "writer_index", "bad")

    def __init__(self, index: int, kid: int, vid: int, own_prev: Optional[int]) -> None:
        self.index = index
        self.kid = kid
        self.vid = vid
        self.own_prev = own_prev
        self.writer: Optional[int] = None
        self.writer_index = -1
        self.bad = False


class CompiledIncrementalChecker:
    """Online checker for RC / RA / CC over a stream of raw transactions.

    ``levels`` selects the checks (default: all three); ``num_sessions``
    pre-registers sessions ``0..n-1`` (others register on first arrival);
    ``max_witnesses`` caps the cycle witnesses per level; ``retire``
    enables watermark-based retirement.  :meth:`append_batch` folds whole
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
        retire: Optional[RetirementPolicy] = None,
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

        # Watermark-based retirement (see repro.core.compiled.retire): the
        # resident lists below hold only transactions at or above the bases;
        # everything before them rotated into archival segments.  ``tid``s
        # and session indices stay *absolute* -- only the list indexing is
        # offset -- so clocks, packed edges, and sort keys never renumber
        # mid-stream.
        self._retire = retire
        self._retire_stats = RetireStats()
        self._segments = SegmentStore(retire.segment_dir) if retire else None
        self._txns_base = 0
        self._next_tid = 0
        self._sess_base: List[int] = []
        #: key id -> tid of the arrival-order latest registered writer; a
        #: transaction owning any current entry is pinned (a future read may
        #: still resolve to it), which stops the retirement scan.
        self._latest_writer: Dict[int, int] = {}
        self._retire_last = 0
        self._retired_final = None

        # Columnar transaction summaries: one row per resident transaction,
        # indexed by ``j = tid - _txns_base``.  ``_t_flags`` packs the four
        # status booleans (bit 0 committed, bit 1 resolved, bit 2 cc_done,
        # bit 3 cc_registered).  The written-key and first-read-per-writer
        # summaries are *runs* into shared append-only values arrays:
        # ``_fw_kid[_fw_off[j]:_fw_off[j+1]]`` is the transaction's written
        # kids in first-write order, and the ``_wr_any`` / ``_wr_good``
        # (start, len) pairs slice parallel (writer tid, kid) arrays in
        # first-read order.  ``_wr_good_start[j] == -1`` is a sentinel for
        # "the good run equals the any run", and ``_wr_any_start[j] == -2``
        # for "derive both maps from the good-read run at consume time"
        # (the overwhelmingly common clean-fold case: every read is good,
        # so first-kid-per-distinct-writer over the run *is* the any map)
        # -- the hot fold stores no wr bytes at all for such rows.
        self._t_sid = array("q")
        self._t_sidx = array("q")
        self._t_flags = array("B")
        self._t_unres = array("q")
        self._t_ccpend = array("q")
        self._t_slow = array("q")
        self._t_labels: List[Optional[str]] = []
        self._fw_off = array("q", (0,))
        self._fw_kid = array("q")
        self._wr_any_start = array("q")
        self._wr_any_len = array("q")
        self._wr_any_writer = array("q")
        self._wr_any_kid = array("q")
        self._wr_good_start = array("q")
        self._wr_good_len = array("q")
        self._wr_good_writer = array("q")
        self._wr_good_kid = array("q")
        # Good-read runs: ``(op index, kid, writer tid)`` triples of every
        # committed transaction's good reads, in read order, as three shared
        # append-only arrays sliced by the per-row ``(_gr_start, _gr_len)``
        # pair.  Fast and clean-parked transactions alias the resolve
        # kernel's batch columns (one bulk extend per batch covers them);
        # slow-path rows append their triples at resolve.  The run feeds RC
        # saturation, the RA pre-pass, the CC prefilter and probe flush, and
        # -- through the ``_wr_any_start[j] == -2`` derive sentinel -- the
        # finalize wr maps, so no per-transaction tuple lists stay resident.
        self._gr_start = array("q")
        self._gr_len = array("q")
        self._gr_index = array("q")
        self._gr_kid = array("q")
        self._gr_writer = array("q")
        # Side tables bounded by the unfolded backlog, never by stream
        # length (every entry is popped when its transaction folds): tid ->
        # live ``_Read`` objects of a slow-path transaction still parked,
        # tid -> parked wid column of a clean parked transaction.
        self._live_reads: Dict[int, List[_Read]] = {}
        self._prefold: Dict[int, list] = {}
        self._session_ids: Dict[object, int] = {}
        #: Per session: resident transaction tids in session order (absolute;
        #: entry ``i`` of session ``s`` is session index ``_sess_base[s]+i``).
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

        # RA state: per-session frontier index and lastWrite map.
        self._ra_next: List[int] = []
        self._ra_last_write: List[Dict[int, int]] = []

        # CC state: per-session causal frontier, session clocks, writer lists
        # with dense bucket ids, and the flat per-reader-session pointer rows.
        self._cc_next: List[int] = []
        # Flat row-major clock matrices, both with the same power-of-two row
        # stride (grown geometrically by ``_grow_clock_stride`` when a new
        # session overflows it): ``_sc_data`` holds one session-clock row
        # per dense sid, ``_hb_data`` one hb-clock row per *resident*
        # transaction (row ``tid - _txns_base``).  Cells are -1-padded; a -1
        # entry compares exactly like the missing entry of the old ragged
        # ``List[List[int]]`` clocks (``sidx <= -1`` is false for any real
        # session index).  -1 as int64 is all 0xff bytes, so ``_hb_pad``
        # (one padded row) appends a fresh row with a single frombytes.
        self._clock_stride = 4
        self._sc_data = array("q")
        self._hb_data = array("q")
        self._hb_pad = b"\xff" * (8 * self._clock_stride)
        #: key id -> (sorted writer session ids, slots aligned with them,
        #: {sid: slot}, bucket ids aligned with the slots); a slot is
        #: (tids, sidxs, bucket id, writer sid).  The slot list is what the
        #: CC loop iterates -- one tuple unpack per probe instead of a dict
        #: lookup per (read, session) pair -- and the parallel bucket-id
        #: list lets the vectorized probe flush build its key CSR with two
        #: C-level extends per key instead of a Python loop over slots.
        self._writers_by_key: Dict[
            int,
            Tuple[
                List[int],
                List[Tuple[List[int], List[int], int, int]],
                Dict[int, Tuple[List[int], List[int], int, int]],
                List[int],
            ],
        ] = {}
        self._num_buckets = 0
        #: Per reader session: monotone pointer / latest-hb-writer rows,
        #: indexed by bucket id (grown lazily to ``_num_buckets``).  Plain
        #: int lists, not ``array``: the saturation loop indexes them per
        #: (read, session) probe and list indexing skips the box/unbox.
        #: The t2 rows store each writer tid pre-shifted by ``EDGE_SHIFT``
        #: (-1 = no writer), so the saturation packs an edge with one
        #: bitwise-or; part of the checkpoint format (see
        #: ``CHECKPOINT_VERSION``).
        self._cc_ptr_rows: List[List[int]] = []
        self._cc_t2_rows: List[List[int]] = []
        #: writer tid -> tids of registered readers waiting on its cc_done
        #: (one entry per waiting read occurrence, like the dependency count).
        self._cc_waiters: Dict[int, List[int]] = {}
        #: Append-order mirror of every writer registration -- (bucket id,
        #: session index, tid) rows the vectorized probe flush sorts into a
        #: searchsorted-able composite (see ``_flush_cc_probes``); part of
        #: the checkpoint format (``CHECKPOINT_VERSION`` 4).
        self._wb_bucket = array("q")
        self._wb_sidx = array("q")
        self._wb_tid = array("q")
        #: Transactions (tids) whose CC clock join ran but whose
        #: edge-emission probes are deferred to the end of the batch, where
        #: one flush answers them all (vectorized when numpy is on and the
        #: batch is big enough, the scalar pointer loop otherwise).
        self._cc_probe_pending: List[int] = []
        #: Flush-implementation tallies, surfaced as the
        #: ``saturation_kernel`` stat (``--profile`` self-description).
        self._flush_vectorized = 0
        self._flush_scalar = 0
        #: Clock joins run (``kernels.join_clocks``), surfaced by
        #: ``live_stats`` as ``cc_joins_fallback``.
        self._join_scalar = 0

        #: Derived kernel caches (never pickled, rebuilt after restore or
        #: retirement): the sorted flat mirror of ``_writes`` behind
        #: ``kernels.resolve_reads``, and the incrementally sorted CC
        #: writer-registry view behind the probe flush.
        self._writes_index = _kernels.WritesIndex()
        self._wb_probe = _kernels.WriterProbeIndex()
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

        # Recorded inferred edges, replayed in batch order at finalize.
        self._rc_log: Dict[int, int] = {}
        self._ra_log: Dict[int, int] = {}
        self._ra_so_log: Dict[int, int] = {}
        self._cc_log: Dict[int, int] = {}

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
        self._peak_cc_backlog = 0
        self._cc_backlog = 0

        # Packed (key, value) identities read by already-folded transactions.
        # A later duplicate write superseding one of these could not rebind
        # the folded reader (its operation data is gone), so the fold raises
        # a diagnostic instead of silently diverging from the batch engines.
        self._folded_read_wids: Set[int] = set()
        # --profile sub-laps of the fold ("intern" / "dispatch" /
        # "classify" / "clock_join" wall seconds); None unless
        # enable_fold_profile() ran.
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
        """Number of transactions appended so far (retired ones included)."""
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
        resolution, own-read classification, and the RA/CC frontier
        advances.  Verdicts and violations do not depend on how the stream
        was cut into batches.

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
            cc_lap_before = laps["clock_join"]

        t_sid = self._t_sid
        t_sidx = self._t_sidx
        t_flags = self._t_flags
        t_unres = self._t_unres
        t_ccpend = self._t_ccpend
        t_slow = self._t_slow
        t_labels = self._t_labels
        fw_off = self._fw_off
        fw_kid = self._fw_kid
        wany_start = self._wr_any_start
        wany_len = self._wr_any_len
        wgood_start = self._wr_good_start
        wgood_len = self._wr_good_len
        gr_start = self._gr_start
        gr_len = self._gr_len
        gr_index = self._gr_index
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer
        live_reads = self._live_reads
        prefold_map = self._prefold
        session_ids = self._session_ids
        by_session = self._by_session
        writes = self._writes
        pending = self._pending
        folded_wids = self._folded_read_wids
        writers_by_key = self._writers_by_key
        cc_enabled = self._cc_enabled
        value_cap = 1 << _VALUE_SHIFT
        tbase = self._txns_base
        sess_base = self._sess_base
        latest_writer = self._latest_writer
        value_objs = self._value_table.values
        writes_index = self._writes_index
        retiring = self._retire is not None
        ra_enabled = self._ra_enabled
        rc_enabled = self._rc_enabled
        classify = self._classify
        on_resolved = self._on_resolved
        rc_saturate = self._rc_saturate
        advance_ra = self._advance_ra
        advance_cc = self._advance_cc
        pending_add = pending.add
        # The underlying dict's pop, not the ParkQueue method: one write
        # arrival per parked wid pays this call, so skipping the Python
        # wrapper frame is measurable on write-heavy streams.
        pending_pop = pending._rows.pop
        writes_get = writes.get
        wb_bucket_append = self._wb_bucket.append
        wb_sidx_append = self._wb_sidx.append
        wb_tid_append = self._wb_tid.append
        # The hb matrix (and its pad row) are rebound after any mid-batch
        # session registration: a registration can grow the clock stride,
        # which replaces both.
        hb_data = self._hb_data
        hb_pad = self._hb_pad
        # Resolve counters accumulate in locals for the whole batch (the
        # live-stats surface only reads them between batches).
        n_fast = n_slow = n_parked = n_rebound = 0
        # Fast-path and aborted folds defer their frontier advances to one
        # sweep per touched session at the end of the batch: the frontiers
        # always process in session order from their own cursors, so when
        # the advance runs does not change what it computes -- only the
        # per-transaction call overhead.  (_on_resolved keeps its inline
        # advances: parked resolutions are rare and may cross batches.)
        touched_sids: Set[int] = set()
        touch = touched_sids.add

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
            lambda wtid: t_flags[wtid - tbase] & 1,
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
        r_windex = res.r_windex
        w_start = res.w_start
        w_index = res.w_index
        w_kid = res.w_kid
        w_wid = res.w_wid
        w_final = res.w_final
        txn_fast = res.txn_fast
        txn_clean = res.txn_clean
        txn_hazard = res.txn_hazard

        # The batch's read columns land in the shared good-run arrays in one
        # bulk extend; fast and clean-parked transactions then alias their
        # ``[ra:rb)`` slice by offset instead of materializing tuple lists.
        # Rows of slow-path reads (writer still -1) are never referenced --
        # those transactions append their resolved triples at fold time.
        gbase = len(gr_index)
        gr_index.extend(r_index)
        gr_kid.extend(r_kid)
        gr_writer.extend(r_writer)

        if txn_end:
            self._num_operations += txn_end[-1]
        try:
            for t in range(len(txn_end)):
                sid = session_ids.get(sessions_col[t])
                if sid is None:
                    sid = self._register_session(sessions_col[t])
                    hb_data = self._hb_data
                    hb_pad = self._hb_pad
                records = by_session[sid]
                tid = self._next_tid
                if tid >= (1 << 31):
                    # Transaction ids are packed-edge endpoints, and the CC t2
                    # rows store them pre-shifted in signed array('q') slots;
                    # checked once per transaction so the saturation loops can
                    # pack and store without guards.
                    raise HistoryFormatError(
                        "history has too many transactions for packed edges"
                    )
                committed = bool(committed_col[t])
                sidx = sess_base[sid] + len(records)
                t_sid.append(sid)
                t_sidx.append(sidx)
                t_flags.append(1 if committed else 0)
                t_unres.append(0)
                t_ccpend.append(0)
                t_slow.append(0)
                t_labels.append(labels_col[t])
                wany_start.append(-1)
                wany_len.append(0)
                wgood_start.append(-1)
                wgood_len.append(0)
                gr_start.append(-1)
                gr_len.append(0)
                hb_data.frombytes(hb_pad)
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

                # ``final_write`` maps key id -> the transaction's final write
                # index; dict(zip) keeps first-write key order with the last
                # write winning, exactly the map the per-op scan used to build.
                # Its keys land in the ``_fw_kid`` run for this row; the write
                # indices are only needed transiently for registration.
                superseded: List[int] = ()
                wa = w_start[t]
                wz = w_start[t + 1]
                if wa != wz:
                    final_write: Dict[int, int] = dict(
                        zip(w_kid[wa:wz], w_index[wa:wz])
                    )
                    fw_kid.extend(final_write)

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
                    if retiring:
                        for kid in final_write:
                            latest_writer[kid] = tid
                else:
                    final_write = None
                    new_writes = ()
                fw_off.append(len(fw_kid))

                if committed and cc_enabled and final_write:
                    num_buckets = self._num_buckets
                    for kid in final_write:
                        entry2 = writers_by_key.get(kid)
                        if entry2 is None:
                            entry2 = ([], [], {}, [])
                            writers_by_key[kid] = entry2
                        sids, slots, per_sid, buckets = entry2
                        slot = per_sid.get(sid)
                        if slot is None:
                            slot = ([], [], num_buckets, sid)
                            num_buckets += 1
                            per_sid[sid] = slot
                            position = bisect_left(sids, sid)
                            sids.insert(position, sid)
                            slots.insert(position, slot)
                            buckets.insert(position, slot[2])
                        slot[0].append(tid)
                        slot[1].append(sidx)
                        wb_bucket_append(slot[2])
                        wb_sidx_append(sidx)
                        wb_tid_append(tid)
                    self._num_buckets = num_buckets

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
                            t_slow[otid - tbase] += 1
                            n_rebound += 1

                # Resolve earlier reads that were parked waiting for these writes.
                for wid in new_writes:
                    row = pending_pop(wid, None)
                    if not row:
                        continue
                    hit = writes[wid]
                    windex = hit[2]
                    # Parked reads resolve against this transaction's fresh
                    # write (always external to the parked reader): the common
                    # _classify exit binds inline.
                    self._num_parked -= len(row) >> 1
                    clean = hit[4] and committed
                    for p in range(0, len(row), 2):
                        otid = row[p]
                        slot = row[p + 1]
                        oj = otid - tbase
                        if slot < 0:
                            # Clean-parked read: its binding was proved by the
                            # resolve kernel and already sits in the reader's
                            # good-read run; nothing to materialize unless the
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
                                t_slow[oj] += 1
                                n_slow += 1
                        else:
                            read = live_reads[otid][slot]
                            if clean and read.own_prev is None:
                                read.writer = tid
                                read.writer_index = windex
                                n_fast += 1
                            else:
                                classify(otid, read, hit)
                                t_slow[oj] += 1
                                n_slow += 1
                        t_unres[oj] -= 1
                        if t_unres[oj] == 0:
                            on_resolved(otid)

                # Resolve this transaction's own reads against everything seen
                # so far, consuming the kernel's whole-batch answers.
                jrow = tid - tbase
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
                            gr_start[jrow] = gbase + ra
                            gr_len[jrow] = rb - ra
                        wany_start[jrow] = -2
                        if ra_enabled and rb - ra > 1 and (
                            # A non-repeatable read needs a repeated key;
                            # one C-level set build skips the per-read dict
                            # loop for the (dominant) all-distinct case.
                            len(set(kids := r_kid[ra:rb])) != rb - ra
                        ):
                            writers = r_writer[ra:rb]
                            # _check_repeatable_reads, inlined (the writer is
                            # never the reader itself on the fast path); on a
                            # violation the last-writer entry is *not* updated,
                            # matching the scalar check.
                            last_writer: Dict[int, int] = {}
                            lw_get = last_writer.get
                            for j, w in enumerate(writers):
                                kd = kids[j]
                                previous = lw_get(kd)
                                if previous is None:
                                    last_writer[kd] = w
                                elif previous != w:
                                    key = self._key_table.values[kd]
                                    violation = RepeatableReadViolation(
                                        kind=ViolationKind.NON_REPEATABLE_READ,
                                        message=(
                                            f"{self._name(tid)} reads {key!r} "
                                            f"from both "
                                            f"{self._name(previous)} "
                                            f"and {self._name(w)}"
                                        ),
                                        txn=tid,
                                        key=key,
                                        writers=(previous, w),
                                    )
                                    self._rr.append(
                                        ((sid, sidx, r_index[ra + j]), violation)
                                    )
                                    self._live.append(violation)
                        t_flags[jrow] |= 2
                        self._num_unfolded -= 1
                        if cc_enabled:
                            self._cc_backlog += 1
                            if self._cc_backlog > self._peak_cc_backlog:
                                self._peak_cc_backlog = self._cc_backlog
                        if rc_enabled:
                            rc_saturate(tid)
                        touch(sid)
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
                            gr_start[jrow] = gbase + ra
                            gr_len[jrow] = rb - ra
                        wany_start[jrow] = -2
                        prefold_map[tid] = r_wid[ra:rb]
                        t_unres[jrow] = unresolved
                        self._num_parked += unresolved
                        if self._num_parked > self._peak_parked:
                            self._peak_parked = self._num_parked
                    else:
                        reads: List[_Read] = []
                        reads_append = reads.append
                        unresolved = 0
                        slow = 0
                        for j in range(ra, rb):
                            ov = r_own_prev[j]
                            read = _Read(
                                r_index[j], r_kid[j], r_vid[j], ov if ov >= 0 else None
                            )
                            reads_append(read)
                            if r_fast[j]:
                                read.writer = r_writer[j]
                                read.writer_index = r_windex[j]
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
                                    and t_flags[writer_tid - tbase] & 1
                                ):
                                    read.writer = writer_tid
                                    read.writer_index = hit[2]
                                    n_fast += 1
                                else:
                                    classify(tid, read, hit)
                                    slow += 1
                                    n_slow += 1
                        live_reads[tid] = reads
                        t_slow[jrow] = slow
                        if unresolved == 0:
                            on_resolved(tid)
                        else:
                            t_unres[jrow] = unresolved
                            self._num_parked += unresolved
                            if self._num_parked > self._peak_parked:
                                self._peak_parked = self._num_parked
                else:
                    t_flags[jrow] |= 2
                    touch(sid)
        except BaseException:
            # A mid-batch error (packed-edge/value-cap overflow, the
            # duplicate-write refusal) leaves the writes dict holding a
            # prefix of the batch while this batch's bulk mirror notes
            # were never applied; drop the mirror so any further use
            # rebuilds from the dict.
            writes_index.invalidate()
            raise
        finally:
            # The deferred frontier sweep runs on the error path too, so a
            # refused batch leaves the frontiers exactly where the per-fold
            # advances would have.
            for touched in sorted(touched_sids):
                advance_ra(touched)
                advance_cc(touched)
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

        if self._cc_probe_pending:
            # Answer every CC probe deferred by _cc_process in one flush per
            # batch; the time belongs to the clock_join lap (it *is* the
            # saturation half of the CC work) and is therefore accounted
            # before the classify subtraction below.
            if laps is not None:
                flush_mark = time.perf_counter()
                self._flush_cc_probes()
                laps["clock_join"] += time.perf_counter() - flush_mark
            else:
                self._flush_cc_probes()
        if laps is not None:
            # The fold loop is classification + frontier work; the CC clock
            # joins and the resolve-kernel dispatch time themselves (into
            # laps["clock_join"] / laps["dispatch"]), so subtract their
            # deltas to keep the three laps disjoint.
            laps["classify"] += (
                time.perf_counter()
                - lap_mark
                - (laps["clock_join"] - cc_lap_before)
                - dispatch_delta
            )
        if self._retire is not None:
            self._maybe_retire()
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

        The dict maps ``"intern"`` / ``"dispatch"`` / ``"classify"`` /
        ``"clock_join"`` to wall seconds spent in the columnar key intern
        pass, the resolve-kernel dispatch, the per-transaction resolution
        loop (which also lazily interns values), and the CC frontier's
        clock joins respectively (``awdit check --stream --profile``
        prints them as ``fold_*``).
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

        Unresolved reads become thin-air violations, the frontiers drain,
        and the packed edge logs are replayed in the batch algorithms'
        order.  Idempotent.
        """
        if self._results is not None:
            return self._results
        start = time.perf_counter()

        key_names = self._key_table.values
        value_objs = self._value_table.values
        if self._segments is not None and len(self._segments):
            # Reload the archival segments once: the retired transaction
            # metadata feeds the batch renumbering below, and the merged
            # digest set backs the two refusal scans -- a pending read that
            # resolves to an evicted write, and a live write identity that
            # was registered again after its first incarnation was evicted
            # (load_retired_state itself refuses segment-vs-segment reuse).
            vmask = (1 << _VALUE_SHIFT) - 1
            retired = load_retired_state(self._segments, len(self._by_session))
            check_retired_reads(
                retired.digests,
                (
                    (key_names[wid >> _VALUE_SHIFT], value_objs[wid & vmask])
                    for wid in self._pending.wids()
                ),
            )
            check_identity_reuse(
                retired.digests,
                (
                    (key_names[wid >> _VALUE_SHIFT], value_objs[wid & vmask])
                    for wid in self._writes
                ),
            )
            self._retired_final = retired
        t_slow = self._t_slow
        t_unres = self._t_unres
        tbase = self._txns_base
        for wid, row in list(self._pending.items()):
            kid = wid >> _VALUE_SHIFT
            vid = wid & ((1 << _VALUE_SHIFT) - 1)
            key = key_names[kid]
            value = value_objs[vid]
            for p in range(0, len(row), 2):
                otid = row[p]
                slot = row[p + 1]
                oj = otid - tbase
                if slot < 0:  # pragma: no cover - unreachable by proof
                    # A clean-parked read's writer registers later in the
                    # *same* batch (that is what the kernel proved), so none
                    # can still be parked at finalize; materialize a _Read
                    # anyway for defense in depth.
                    read = _Read(-slot - 1, kid, vid, None)
                else:
                    read = self._live_reads[otid][slot]
                read.bad = True
                t_slow[oj] += 1
                self._add_rc_violation(
                    otid,
                    read,
                    ViolationKind.THIN_AIR_READ,
                    f"{self._name(otid)} reads R({key}, {value!r}) but no "
                    f"transaction writes {value!r} to {key!r}",
                    write=None,
                )
                t_unres[oj] -= 1
                if t_unres[oj] == 0:
                    self._on_resolved(otid)
        self._pending.clear()
        self._num_parked = 0
        # Thin-air resolution above may have advanced the CC frontier;
        # answer any probes it deferred before the logs are replayed.
        self._flush_cc_probes()

        if self._ra_enabled:
            for sid in range(len(self._by_session)):
                if self._ra_next[sid] != self._sess_base[sid] + len(
                    self._by_session[sid]
                ):
                    raise AssertionError("RA frontier failed to drain at finalize")

        cc_complete = all(
            self._cc_next[sid] == self._sess_base[sid] + len(self._by_session[sid])
            for sid in range(len(self._by_session))
        )
        mapping, names, committed_ids, so_edges = self._batch_numbering()
        rc_violations = [v for _, v in sorted(self._rc_axiom, key=lambda item: item[0])]

        # Release the online state before rebuilding the commit relations so
        # peak memory stays close to one relation.
        self._writes = {}
        self._pending = _kernels.ParkQueue()
        self._hb_data = array("q")
        self._sc_data = array("q")
        # The good-read run columns stay alive: _build_relation and
        # _causality_graph derive each resident row's wr maps from its run
        # (the -2 sentinel) during the replay below.
        self._live_reads = {}
        self._prefold = {}
        self._writers_by_key = {}
        self._cc_ptr_rows = []
        self._cc_t2_rows = []
        self._cc_waiters = {}
        self._cc_probe_pending = []
        self._wb_bucket = array("q")
        self._wb_sidx = array("q")
        self._wb_tid = array("q")
        self._ra_last_write = []
        self._latest_writer = {}

        results: Dict[IsolationLevel, CheckResult] = {}
        if self._rc_enabled:
            relation = self._build_relation(
                mapping, names, committed_ids, so_edges, self._rc_log,
                spilled=self._spilled_run("rc"),
            )
            self._rc_log = {}
            violations = rc_violations + relation.find_cycles(
                max_witnesses=self._max_witnesses
            )
            results[IsolationLevel.READ_COMMITTED] = self._result(
                IsolationLevel.READ_COMMITTED, violations, "awdit-stream", relation
            )
            del relation
        if self._ra_enabled:
            rr_violations = [v for _, v in sorted(self._rr, key=lambda item: item[0])]
            single = len(self._by_session) <= 1
            log = self._ra_so_log if single else self._ra_log
            relation = self._build_relation(
                mapping, names, committed_ids, so_edges, log,
                spilled=self._spilled_run("ra_so" if single else "ra"),
            )
            self._ra_log = {}
            self._ra_so_log = {}
            violations = (
                rc_violations
                + rr_violations
                + relation.find_cycles(max_witnesses=self._max_witnesses)
            )
            checker = "awdit-stream-1session" if single else "awdit-stream"
            results[IsolationLevel.READ_ATOMIC] = self._result(
                IsolationLevel.READ_ATOMIC, violations, checker, relation,
                co_edges=not single,
            )
            del relation
        if self._cc_enabled:
            if not cc_complete:
                graph, labels = self._causality_graph(mapping)
                violations = rc_violations + causality_cycles(names, graph, labels)
                results[IsolationLevel.CAUSAL_CONSISTENCY] = self._result(
                    IsolationLevel.CAUSAL_CONSISTENCY, violations, "awdit-stream", None
                )
            else:
                relation = self._build_relation(
                    mapping, names, committed_ids, so_edges, self._cc_log,
                    spilled=self._spilled_run("cc"),
                )
                self._cc_log = {}
                violations = rc_violations + relation.find_cycles(
                    max_witnesses=self._max_witnesses
                )
                results[IsolationLevel.CAUSAL_CONSISTENCY] = self._result(
                    IsolationLevel.CAUSAL_CONSISTENCY, violations, "awdit-stream",
                    relation,
                )
                del relation
        for result in results.values():
            self._live.extend(
                v for v in result.violations if v.kind
                in (ViolationKind.CAUSALITY_CYCLE, ViolationKind.COMMIT_ORDER_CYCLE)
                and v not in self._live
            )
        self._retired_final = None
        if self._segments is not None:
            # Owned (temporary) segment directories are deleted; an explicit
            # --segment-dir keeps its segments as the user's archive.
            self._segments.cleanup()
        self._elapsed += time.perf_counter() - start
        for result in results.values():
            result.elapsed_seconds = self._elapsed
        self._results = results
        return results

    # -- live-state accounting --------------------------------------------------

    def live_stats(self) -> Dict[str, int]:
        """Peak live-state footprint of the online core, component by component.

        ``resident_transactions`` is the number of transaction-level
        summaries currently held (operation data itself is dropped at fold,
        and retirement evicts summaries past the watermark); the ``peak_*``
        entries are high-water marks over the whole run, and the
        ``retire*``/``remap_epochs`` counters describe the retirement layer
        (all zero when ``--retire`` is off).
        """
        stats = {
            "transactions": self._next_tid,
            "operations": self._num_operations,
            "sessions": len(self._by_session),
            "resident_transactions": len(self._t_sid),
            "pending_reads": self._num_parked,
            "peak_pending_reads": self._peak_parked,
            "unfolded_transactions": self._num_unfolded,
            "peak_unfolded_transactions": self._peak_unfolded,
            "peak_cc_backlog": self._peak_cc_backlog,
            "interned_keys": len(self._key_table),
            "interned_values": len(self._value_table),
            "writes_index": len(self._writes),
            "cc_writer_buckets": self._num_buckets,
            "cc_flushes_vectorized": self._flush_vectorized,
            "cc_flushes_fallback": self._flush_scalar,
            # The clock join has one (scalar) side; the vectorized count
            # stays as a key for existing readers of these stats.
            "cc_joins_vectorized": 0,
            "cc_joins_fallback": self._join_scalar,
            "classify_vectorized": self._resolve_vectorized,
            "classify_fallback": self._resolve_scalar,
            "resolve_fast_path": self._resolve_fast,
            "resolve_slow_path": self._resolve_slow,
            "resolve_parked": self._resolve_parked,
            "resolve_rebound": self._resolve_rebound,
            "inferred_edge_log": (
                len(self._rc_log)
                + len(self._ra_log)
                + len(self._ra_so_log)
                + len(self._cc_log)
            ),
            "retire_enabled": int(self._retire is not None),
        }
        stats.update(self._retire_stats.as_dict())
        return stats

    # -- checkpoint/resume -------------------------------------------------------

    def save_checkpoint(self, path: str, source: Optional[dict] = None) -> None:
        """Serialize the whole online state to ``path``.

        The checkpoint captures everything :meth:`append_raw` has folded so
        far -- intern tables, transaction summaries, frontiers, pending
        reads, and edge logs -- so a :func:`load_checkpoint`'ed checker
        continues the stream from record ``num_transactions`` onward and
        finalizes byte-identically to an uninterrupted run.  Finalized
        checkers cannot be checkpointed.

        ``source`` optionally records a fingerprint of the stream being
        checked (see :func:`repro.stream.runner.source_fingerprint`);
        :func:`load_checkpoint` verifies it so a checkpoint cannot silently
        resume against a different history.  The write is atomic (temp file
        + rename), so an interrupted save never destroys the previous
        checkpoint.
        """
        if self._results is not None:
            raise RuntimeError("cannot checkpoint a finalized checker")
        payload = {
            "records_consumed": self._next_tid,
            "levels": [level.name for level in self._levels],
            "source": source,
            "checker": self,
        }
        scratch = f"{path}.tmp"
        with open(scratch, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(bytes([CHECKPOINT_VERSION]))
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, path)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Derived kernel caches: cheap to rebuild, numpy-shaped, and not
        # part of the checkpoint format; __setstate__ starts fresh mirrors
        # that the next batch repopulates from the pickled dict/registry.
        state.pop("_writes_index", None)
        state.pop("_wb_probe", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._writes_index = _kernels.WritesIndex()
        self._wb_probe = _kernels.WriterProbeIndex()

    # -- watermark-based retirement (see repro.core.compiled.retire) ------------

    def enable_retirement(self, policy: RetirementPolicy) -> None:
        """Enable (or re-tune) watermark-based retirement on a live checker.

        The resume path uses this: a checkpoint written without retirement
        resumes with it disabled, and ``--retire`` turns it on for the rest
        of the run.  The latest-writer pins are rebuilt exactly from the
        resident writes index -- nothing was evicted while the policy was
        off, so every write's registration is still resident.  On a checker
        that already retires, only the policy knobs change; the segment
        store (and its manifest) carries on so earlier segments stay valid.
        """
        if self._results is not None:
            raise RuntimeError("cannot enable retirement on a finalized checker")
        enabling = self._retire is None
        self._retire = policy
        if self._segments is None:
            self._segments = SegmentStore(policy.segment_dir)
        if enabling:
            latest: Dict[int, int] = {}
            for wid, entry in self._writes.items():
                kid = wid >> _VALUE_SHIFT
                if entry[3] > latest.get(kid, -1):
                    latest[kid] = entry[3]
            self._latest_writer = latest
            self._retire_last = self._next_tid

    def _maybe_retire(self) -> None:
        """Attempt one retirement pass (end of ``append_batch``).

        The global guard first: a pass runs only on a *fully drained* fold
        -- no parked reads, no unresolved transactions (which also means no
        read can still rebind), and (when CC is on) no CC backlog or
        deferred probes.  Under the guard
        every frontier has passed every resident transaction and no live
        structure dereferences a summary by tid except through still-live
        reads, so retiring a prefix can never be observed by later folds.
        Anomalous histories park reads or stall the CC frontier, which
        stalls the guard -- retirement never advances past an anomaly, and
        byte-identical violations follow for free.
        """
        policy = self._retire
        if self._next_tid - self._retire_last < policy.every:
            return
        self._retire_last = self._next_tid
        if self._num_unfolded or self._pending:
            return
        if self._cc_enabled and (
            self._cc_backlog or self._cc_probe_pending or self._cc_waiters
        ):
            return
        limit = self._next_tid - policy.lag
        base = self._txns_base
        if limit <= base:
            return
        # Eligibility scan, strictly in tid order (the retired set is always
        # a prefix, so tids stay dense below the base -- no hole maps).  A
        # committed transaction must be at or below the global low-watermark
        # of its session (every clock has passed it; no future causal probe
        # can answer with it), and *no* transaction may own a current
        # latest-writer pin (a future read could still resolve to it).
        wm = (
            low_watermark_flat(
                self._sc_data, self._clock_stride, len(self._by_session)
            )
            if self._cc_enabled
            else None
        )
        t_sid = self._t_sid
        t_sidx = self._t_sidx
        t_flags = self._t_flags
        fw_off = self._fw_off
        fw_kid = self._fw_kid
        latest_writer = self._latest_writer
        new_base = base
        while new_base < limit:
            j = new_base - base
            if (t_flags[j] & 1) and wm is not None and t_sidx[j] > wm[t_sid[j]]:
                break
            pinned = False
            for kid in fw_kid[fw_off[j] : fw_off[j + 1]]:
                if latest_writer.get(kid) == new_base:
                    pinned = True
                    break
            if pinned:
                break
            new_base += 1
        if new_base > base:
            self._retire_to(new_base)

    def _retire_to(self, new_base: int) -> None:
        """Retire every transaction below ``new_base`` into one segment.

        Columnar compaction: the retiring transactions are a prefix of
        every column, so eviction is one ``del column[:count]`` per flat
        array (the hb matrix drops ``count`` whole rows the same way) plus
        an O(live) rebuild of the shared run arrays the survivors index.
        """
        base = self._txns_base
        count = new_base - base
        stats = self._retire_stats
        t_sid = self._t_sid
        t_sidx = self._t_sidx
        t_flags = self._t_flags
        t_labels = self._t_labels
        fw_off = self._fw_off
        fw_kid = self._fw_kid
        wany_start = self._wr_any_start
        wany_len = self._wr_any_len
        wany_writer = self._wr_any_writer
        wany_kid = self._wr_any_kid
        wgood_start = self._wr_good_start
        wgood_len = self._wr_good_len
        wgood_writer = self._wr_good_writer
        wgood_kid = self._wr_good_kid
        gr_start = self._gr_start
        gr_len = self._gr_len
        gr_index = self._gr_index
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer

        seg_txns: List[Tuple[int, int, int, bool, Optional[str]]] = []
        seg_wr: List[Tuple[int, list, list]] = []
        per_session: Dict[int, int] = {}
        for j in range(count):
            tid = base + j
            sid = t_sid[j]
            committed = bool(t_flags[j] & 1)
            seg_txns.append((tid, sid, t_sidx[j], committed, t_labels[j]))
            if committed:
                a = wany_start[j]
                if a == -2:
                    # Derive sentinel: the first-per-writer map materializes
                    # from the good-read run only here, at the segment
                    # boundary (the fold never built the dict at all).
                    any_pairs = []
                    seen: Set[int] = set()
                    ga = gr_start[j]
                    for g in range(ga, ga + gr_len[j]):
                        w = gr_writer[g]
                        if w not in seen:
                            seen.add(w)
                            any_pairs.append((w, gr_kid[g]))
                    if any_pairs:
                        seg_wr.append((tid, any_pairs, list(any_pairs)))
                else:
                    alen = wany_len[j]
                    gs = wgood_start[j]
                    glen = alen if gs < 0 else wgood_len[j]
                    if alen or glen:
                        any_pairs = list(
                            zip(wany_writer[a : a + alen], wany_kid[a : a + alen])
                        )
                        if gs < 0:
                            good_pairs = list(any_pairs)
                        else:
                            good_pairs = list(
                                zip(
                                    wgood_writer[gs : gs + glen],
                                    wgood_kid[gs : gs + glen],
                                )
                            )
                        seg_wr.append((tid, any_pairs, good_pairs))
            per_session[sid] = per_session.get(sid, 0) + 1
        del t_sid[:count]
        del t_sidx[:count]
        del t_flags[:count]
        del self._t_unres[:count]
        del self._t_ccpend[:count]
        del self._t_slow[:count]
        del t_labels[:count]
        del self._hb_data[: count * self._clock_stride]
        # Final-write runs: drop the retired prefix of the shared kid array
        # and rebase the offsets.
        cut = fw_off[count]
        del fw_kid[:cut]
        self._fw_off = array("q", (value - cut for value in islice(fw_off, count, None)))
        # wr runs: prefix-delete the per-txn columns, then rebuild the
        # shared pair arrays from the survivors (O(live state)).
        del wany_start[:count]
        del wany_len[:count]
        del wgood_start[:count]
        del wgood_len[:count]
        new_aw = array("q")
        new_ak = array("q")
        for j in range(len(wany_start)):
            length = wany_len[j]
            if length:
                s = wany_start[j]
                wany_start[j] = len(new_aw)
                new_aw.extend(wany_writer[s : s + length])
                new_ak.extend(wany_kid[s : s + length])
            elif wany_start[j] != -2:
                # Keep the derive sentinel: those rows' wr maps live in the
                # good-read runs, not here.
                wany_start[j] = -1
        self._wr_any_writer = new_aw
        self._wr_any_kid = new_ak
        new_gw = array("q")
        new_gk = array("q")
        for j in range(len(wgood_start)):
            gs = wgood_start[j]
            if gs >= 0:
                length = wgood_len[j]
                wgood_start[j] = len(new_gw)
                new_gw.extend(wgood_writer[gs : gs + length])
                new_gk.extend(wgood_kid[gs : gs + length])
        self._wr_good_writer = new_gw
        self._wr_good_kid = new_gk
        # Good-read runs compact the same way: prefix-delete the per-txn
        # columns, rebuild the shared triple arrays from the survivors.
        del gr_start[:count]
        del gr_len[:count]
        new_gi = array("q")
        new_gd = array("q")
        new_gr = array("q")
        for j in range(len(gr_start)):
            length = gr_len[j]
            if length:
                s = gr_start[j]
                gr_start[j] = len(new_gi)
                new_gi.extend(gr_index[s : s + length])
                new_gd.extend(gr_kid[s : s + length])
                new_gr.extend(gr_writer[s : s + length])
            else:
                gr_start[j] = -1
        self._gr_index = new_gi
        self._gr_kid = new_gd
        self._gr_writer = new_gr
        self._txns_base = new_base
        by_session = self._by_session
        sess_base = self._sess_base
        for sid, removed in per_session.items():
            # Within a session tids ascend with the session index, so the
            # retiring transactions are exactly its oldest ``removed``.
            del by_session[sid][:removed]
            sess_base[sid] += removed

        # Evict writes whose writer retired.  Their identities survive only
        # as digests inside the segment: zero resident bytes per evicted
        # write, and the finalize-time scans still catch a read of (or a
        # duplicate registration for) an evicted identity.
        writes = self._writes
        folded = self._folded_read_wids
        key_names = self._key_table.values
        value_objs = self._value_table.values
        vmask = (1 << _VALUE_SHIFT) - 1
        digests: List[int] = []
        evicted = [wid for wid, entry in writes.items() if entry[3] < new_base]
        for wid in evicted:
            del writes[wid]
            folded.discard(wid)
            digests.append(
                stable_digest(key_names[wid >> _VALUE_SHIFT], value_objs[wid & vmask])
            )
        digests.sort()

        # Spill finalized edge-log entries: an entry is immutable once its
        # *reader* endpoint (the low half) retires -- only the reader's own
        # saturation could have lowered its meta, and a retired reader never
        # saturates again.  Writer endpoints may still be live; tids are
        # absolute and stable, so the entries serialize as-is.
        spilled_logs: Dict[str, List[Tuple[int, int]]] = {}
        total_spilled = 0
        for name, log in (
            ("rc", self._rc_log),
            ("ra", self._ra_log),
            ("ra_so", self._ra_so_log),
            ("cc", self._cc_log),
        ):
            doomed = [edge for edge in log if (edge & EDGE_MASK) < new_base]
            if doomed:
                spilled_logs[name] = [(edge, log.pop(edge)) for edge in doomed]
                total_spilled += len(doomed)

        # Compact the CC writer registry: inside each (key, session) slot
        # the retired rows form a prefix (rows append in arrival order);
        # keep only the *last* retired row.  Any future probe's bound is at
        # least the watermark, and the kept row's session index is at most
        # the watermark -- so the kept row answers every probe any removed
        # row could have answered, and the "latest row <= bound" answer is
        # unchanged.  Reader pointer rows shift down by the removed count
        # (a pointer landing at 0 re-advances on its next probe, because
        # the kept row is always at or below the bound); the flat
        # append-order mirror compacts through the kernels module.
        removed_per_bucket: Dict[int, int] = {}
        if self._cc_enabled:
            for entry in self._writers_by_key.values():
                for slot in entry[1]:
                    retired_rows = bisect_left(slot[0], new_base)
                    if retired_rows > 1:
                        removed = retired_rows - 1
                        del slot[0][:removed]
                        del slot[1][:removed]
                        removed_per_bucket[slot[2]] = removed
            if removed_per_bucket:
                for row in self._cc_ptr_rows:
                    for bid, removed in removed_per_bucket.items():
                        if bid < len(row) and row[bid]:
                            row[bid] = row[bid] - removed if row[bid] > removed else 0
                self._wb_bucket, self._wb_sidx, self._wb_tid = (
                    _kernels.compact_writer_registry(
                        self._wb_bucket,
                        self._wb_sidx,
                        self._wb_tid,
                        removed_per_bucket,
                    )
                )

        # Value-intern compaction: under the guard the only vid references
        # left are the keys of the writes index, so rebuild the table over
        # the survivors (relative order preserved; vid assignment is
        # invisible in output -- witnesses render value *objects*).  Only
        # worth the O(live) rebuild when eviction freed a real chunk.
        remapped = False
        live_vids = {wid & vmask for wid in writes}
        if len(value_objs) - len(live_vids) >= 1024:
            ordered = sorted(live_vids)
            vid_map = {old: new for new, old in enumerate(ordered)}
            table = Intern()
            for old in ordered:
                table.intern(value_objs[old])
            self._value_table = table
            self._writes = {
                (wid & ~vmask) | vid_map[wid & vmask]: entry
                for wid, entry in writes.items()
            }
            self._folded_read_wids = {
                (wid & ~vmask) | vid_map[wid & vmask] for wid in folded
            }
            remapped = True

        self._segments.write(
            {
                "txns": seg_txns,
                "wr": seg_wr,
                "logs": spilled_logs,
                "digests": digests,
            }
        )

        # The resolve/probe kernel mirrors index structures this pass just
        # compacted (wid eviction, value-id remap, writer-registry rows);
        # drop them and let the next batch rebuild from the live dicts.
        self._writes_index.invalidate()
        self._wb_probe.invalidate()

        stats.retired_transactions += count
        stats.passes += 1
        stats.segments = len(self._segments)
        stats.evicted_writes += len(digests)
        stats.spilled_edges += total_spilled
        if remapped or removed_per_bucket:
            stats.remap_epochs += 1
        resident = len(t_sid)
        if resident > stats.post_compaction_peak:
            stats.post_compaction_peak = resident

    # -- session bookkeeping ---------------------------------------------------

    def _register_session(self, external: object) -> int:
        dense = len(self._by_session)
        self._session_ids[external] = dense
        self._by_session.append(array("q"))
        self._sess_base.append(0)
        self._ra_next.append(0)
        self._ra_last_write.append({})
        self._cc_next.append(0)
        self._cc_ptr_rows.append([])
        self._cc_t2_rows.append([])
        if dense + 1 > self._clock_stride:
            self._grow_clock_stride(dense + 1)
        self._sc_data.frombytes(self._hb_pad)
        return dense

    def _grow_clock_stride(self, needed: int) -> None:
        """Double the clock-matrix row stride until it covers ``needed``.

        Rebuilds both matrices row by row (old rows keep their values in
        the widened rows' prefixes, the tails stay -1 padding).  Amortized
        over geometric growth; sessions register rarely relative to folds.
        """
        stride = self._clock_stride
        new_stride = stride
        while new_stride < needed:
            new_stride <<= 1
        for attr in ("_hb_data", "_sc_data"):
            old = getattr(self, attr)
            rows = len(old) // stride
            widened = array("q")
            widened.frombytes(b"\xff" * (8 * new_stride * rows))
            for r in range(rows):
                widened[r * new_stride : r * new_stride + stride] = old[
                    r * stride : (r + 1) * stride
                ]
            setattr(self, attr, widened)
        self._clock_stride = new_stride
        self._hb_pad = b"\xff" * (8 * new_stride)

    def _name(self, tid: int) -> str:
        label = self._t_labels[tid - self._txns_base]
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
        j = tid - self._txns_base
        self._rc_axiom.append(
            ((self._t_sid[j], self._t_sidx[j], read.index), violation)
        )
        self._live.append(violation)

    def _unclassify(self, tid: int, read: _Read) -> None:
        """Withdraw a read's previous classification before rebinding it."""
        if read.bad:
            j = tid - self._txns_base
            sort_key = (self._t_sid[j], self._t_sidx[j], read.index)
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
        read.writer_index = -1

    def _classify(
        self, tid: int, read: _Read, hit: Tuple[int, int, int, int, bool]
    ) -> None:
        """Classify a freshly resolved read against the five RC axioms."""
        _wsid, _wsidx, writer_index, writer_tid, is_final = hit
        read.writer = writer_tid
        read.writer_index = writer_index
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
        if not self._t_flags[writer_tid - self._txns_base] & 1:
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

    def _store_wr_runs(
        self,
        j: int,
        wr_any: Dict[int, int],
        wr_good: Optional[Dict[int, int]],
    ) -> None:
        """Store a transaction's first-read-per-writer maps as column runs.

        ``wr_good is None`` means the good map equals the any map (the
        clean-fold case): the good run stays the -1 sentinel and readers
        fall through to the any run.  Dict insertion order (= first-read
        order) is what the runs preserve; the finalize replay depends on it.
        """
        if wr_any:
            self._wr_any_start[j] = len(self._wr_any_writer)
            self._wr_any_len[j] = len(wr_any)
            aw = self._wr_any_writer.append
            ak = self._wr_any_kid.append
            for writer, kid in wr_any.items():
                aw(writer)
                ak(kid)
        if wr_good is not None:
            self._wr_good_start[j] = len(self._wr_good_writer)
            self._wr_good_len[j] = len(wr_good)
            gw = self._wr_good_writer.append
            gk = self._wr_good_kid.append
            for writer, kid in wr_good.items():
                gw(writer)
                gk(kid)

    def _on_resolved(self, tid: int) -> None:
        """All reads of ``tid`` are classified: fold it into the online state."""
        j = tid - self._txns_base
        sid = self._t_sid[j]
        pre = self._prefold.pop(tid, None)
        if pre is not None:
            # Clean parked transaction: the good-read run and the wr-map
            # sentinel were written at consume from the resolve-kernel
            # columns (the eventual binding of each read was already
            # known) and every read is good; only the wid list rode the
            # prefold map.
            self._t_flags[j] |= 2
            self._num_unfolded -= 1
            self._folded_read_wids.update(pre)
            a = self._gr_start[j]
            n = self._gr_len[j]
            if self._ra_enabled and n > 1:
                # _check_repeatable_reads, inlined: no bad/own/unbound
                # reads exist here, and on a violation the last-writer
                # entry is not updated, matching the scalar check.
                last_writer: Dict[int, int] = {}
                lw_get = last_writer.get
                sidx = self._t_sidx[j]
                gr_index = self._gr_index
                gr_kid = self._gr_kid
                gr_writer = self._gr_writer
                for g in range(a, a + n):
                    kd = gr_kid[g]
                    w = gr_writer[g]
                    previous = lw_get(kd)
                    if previous is not None and previous != w:
                        key = self._key_table.values[kd]
                        violation = RepeatableReadViolation(
                            kind=ViolationKind.NON_REPEATABLE_READ,
                            message=(
                                f"{self._name(tid)} reads {key!r} from both "
                                f"{self._name(previous)} and "
                                f"{self._name(w)}"
                            ),
                            txn=tid,
                            key=key,
                            writers=(previous, w),
                        )
                        self._rr.append(((sid, sidx, gr_index[g]), violation))
                        self._live.append(violation)
                    else:
                        last_writer[kd] = w
            if self._cc_enabled:
                self._cc_backlog += 1
                if self._cc_backlog > self._peak_cc_backlog:
                    self._peak_cc_backlog = self._cc_backlog
            if self._rc_enabled:
                self._rc_saturate(tid)
            self._advance_ra(sid)
            self._advance_cc(sid)
            return
        self._t_flags[j] |= 2
        self._num_unfolded -= 1
        reads = self._live_reads.pop(tid, ())
        # ``folded_wids`` remembers which (key, value) identities this
        # transaction read (any bound read, own/aborted writers included):
        # its operation data is dropped below, so a later duplicate write
        # for one of them could never rebind the read -- append_batch
        # raises the duplicate-write diagnostic when it sees such a wid.
        folded_wids = self._folded_read_wids
        if self._t_slow[j] == 0:
            # No read ever went through scalar _classify: every bound read
            # is a clean external committed final-write read, so the
            # re-checking loop below collapses to straight projections
            # into the shared good-read run columns.
            folded_wids.update(
                (read.kid << _VALUE_SHIFT) | read.vid for read in reads
            )
            if reads:
                gr_index = self._gr_index
                gr_kid = self._gr_kid
                gr_writer = self._gr_writer
                self._gr_start[j] = len(gr_index)
                self._gr_len[j] = len(reads)
                for read in reads:
                    gr_index.append(read.index)
                    gr_kid.append(read.kid)
                    gr_writer.append(read.writer)
            self._wr_any_start[j] = -2
            if self._ra_enabled and len(reads) > 1:
                # _check_repeatable_reads, inlined: no bad/own/unbound
                # reads exist here, and on a violation the last-writer
                # entry is not updated, matching the scalar check.
                last_writer: Dict[int, int] = {}
                lw_get = last_writer.get
                sidx = self._t_sidx[j]
                for read in reads:
                    kd = read.kid
                    w = read.writer
                    previous = lw_get(kd)
                    if previous is not None and previous != w:
                        key = self._key_table.values[kd]
                        violation = RepeatableReadViolation(
                            kind=ViolationKind.NON_REPEATABLE_READ,
                            message=(
                                f"{self._name(tid)} reads {key!r} from both "
                                f"{self._name(previous)} and "
                                f"{self._name(w)}"
                            ),
                            txn=tid,
                            key=key,
                            writers=(previous, w),
                        )
                        self._rr.append(((sid, sidx, read.index), violation))
                        self._live.append(violation)
                    else:
                        last_writer[kd] = w
            if self._cc_enabled:
                self._cc_backlog += 1
                if self._cc_backlog > self._peak_cc_backlog:
                    self._peak_cc_backlog = self._cc_backlog
            if self._rc_enabled:
                self._rc_saturate(tid)
            self._advance_ra(sid)
            self._advance_cc(sid)
            return
        t_flags = self._t_flags
        tbase = self._txns_base
        gr_index = self._gr_index
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer
        gstart = len(gr_index)
        wr_any = {}
        wr_good: Dict[int, int] = {}
        for read in reads:
            writer = read.writer
            if writer is None:
                continue
            folded_wids.add((read.kid << _VALUE_SHIFT) | read.vid)
            if writer == tid:
                continue
            if not t_flags[writer - tbase] & 1:
                continue
            wr_any.setdefault(writer, read.kid)
            if read.bad:
                continue
            gr_index.append(read.index)
            gr_kid.append(read.kid)
            gr_writer.append(writer)
            wr_good.setdefault(writer, read.kid)
        if len(gr_index) > gstart:
            self._gr_start[j] = gstart
            self._gr_len[j] = len(gr_index) - gstart
        self._store_wr_runs(j, wr_any, None if wr_good == wr_any else wr_good)
        if self._ra_enabled:
            self._check_repeatable_reads(tid, reads)
        if self._cc_enabled:
            self._cc_backlog += 1
            if self._cc_backlog > self._peak_cc_backlog:
                self._peak_cc_backlog = self._cc_backlog
        if self._rc_enabled:
            self._rc_saturate(tid)
        self._advance_ra(sid)
        self._advance_cc(sid)

    def _check_repeatable_reads(self, tid: int, reads: Sequence[_Read]) -> None:
        """Per-transaction repeatable-reads check (Algorithm 2's pre-pass)."""
        last_writer: Dict[int, int] = {}
        key_names = self._key_table.values
        j = tid - self._txns_base
        sid = self._t_sid[j]
        sidx = self._t_sidx[j]
        for read in reads:
            if read.bad or read.writer is None:
                continue
            writer = read.writer
            previous = last_writer.get(read.kid)
            if writer != tid and previous is not None and previous != writer:
                key = key_names[read.kid]
                violation = RepeatableReadViolation(
                    kind=ViolationKind.NON_REPEATABLE_READ,
                    message=(
                        f"{self._name(tid)} reads {key!r} from both "
                        f"{self._name(previous)} and "
                        f"{self._name(writer)}"
                    ),
                    txn=tid,
                    key=key,
                    writers=(previous, writer),
                )
                self._rr.append(((sid, sidx, read.index), violation))
                self._live.append(violation)
            else:
                last_writer[read.kid] = writer

    # -- inferred-edge recording -----------------------------------------------

    @staticmethod
    def _record(log: Dict[int, int], t2: int, t1: int, kid: int, sort_key: int) -> None:
        """Keep the batch-order-earliest ``(sort key, key id)`` per packed edge."""
        edge = pack_edge(t2, t1)
        meta = (sort_key << EDGE_SHIFT) | (kid + 1)
        current = log.get(edge)
        if current is None or meta < current:
            log[edge] = meta

    def _rc_saturate(self, tid: int) -> None:
        """Per-transaction RC saturation (the body of Algorithm 1's main loop)."""
        tbase = self._txns_base
        j = tid - tbase
        n = self._gr_len[j]
        if not n:
            return
        a = self._gr_start[j]
        gr_index = self._gr_index
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer
        seen_txns: Set[int] = set()
        first_txn_reads: Set[int] = set()
        for g in range(a, a + n):
            writer = gr_writer[g]
            if writer not in seen_txns:
                seen_txns.add(writer)
                first_txn_reads.add(gr_index[g])
        earliest: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        read_keys: Dict[int, None] = {}
        seq = _sort_base(self._t_sid[j], self._t_sidx[j])
        fw_off = self._fw_off
        fw_kid = self._fw_kid
        rc_log = self._rc_log
        rc_log_get = rc_log.get
        for g in range(a + n - 1, a - 1, -1):
            index = gr_index[g]
            key = gr_kid[g]
            t2 = gr_writer[g]
            if index in first_txn_reads:
                wj = t2 - tbase
                a = fw_off[wj]
                b = fw_off[wj + 1]
                if b - a <= len(read_keys):
                    candidates = [x for x in fw_kid[a:b] if x in read_keys]
                else:
                    keys_written = set(fw_kid[a:b])
                    candidates = [x for x in read_keys if x in keys_written]
                for x in candidates:
                    older, newer = earliest[x]
                    t1 = newer
                    if t1 == t2:
                        t1 = older
                    if t1 is not None and t1 != t2:
                        # _record, inlined (hot path).
                        edge = (t2 << EDGE_SHIFT) | t1
                        meta = (seq << EDGE_SHIFT) | (x + 1)
                        current = rc_log_get(edge)
                        if current is None or meta < current:
                            rc_log[edge] = meta
                        seq += 1
            pair = earliest.get(key)
            if pair is None:
                earliest[key] = (None, t2)
            elif pair[1] != t2:
                earliest[key] = (pair[1], t2)
            read_keys[key] = None

    # -- RA frontier (Algorithm 2, online) --------------------------------------

    def _advance_ra(self, sid: int) -> None:
        if not self._ra_enabled:
            return
        records = self._by_session[sid]
        base = self._sess_base[sid]
        index = self._ra_next[sid]
        last_write = self._ra_last_write[sid]
        t_flags = self._t_flags
        tbase = self._txns_base
        while index - base < len(records):
            tid = records[index - base]
            flags = t_flags[tid - tbase]
            if flags & 1:
                if not flags & 2:
                    break
                self._ra_process(tid, last_write)
            index += 1
        self._ra_next[sid] = index

    def _ra_process(self, tid: int, last_write: Dict[int, int]) -> None:
        tbase = self._txns_base
        j = tid - tbase
        ga = self._gr_start[j]
        gn = self._gr_len[j]
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer
        seq = _sort_base(self._t_sid[j], self._t_sidx[j])
        reader_of_key: Dict[int, int] = {}
        distinct_writers: List[int] = []
        seen_writers: Set[int] = set()
        for g in range(ga, ga + gn):
            writer = gr_writer[g]
            reader_of_key.setdefault(gr_kid[g], writer)
            if writer not in seen_writers:
                seen_writers.add(writer)
                distinct_writers.append(writer)

        ra_log = self._ra_log
        ra_so_log = self._ra_so_log
        record = self._record
        # Case t2 -so-> t3 (also the whole single-session specialization).
        for g in range(ga, ga + gn):
            key = gr_kid[g]
            t1 = gr_writer[g]
            t2 = last_write.get(key)
            if t2 is not None and t2 != t1:
                record(ra_so_log, t2, t1, key, seq)
                record(ra_log, t2, t1, key, seq)
                seq += 1

        # Case t2 -wr-> t3: intersect writer keys with read keys, iterating
        # the smaller side in deterministic order (as the batch checker does).
        keys_read = reader_of_key.keys()
        fw_off = self._fw_off
        fw_kid = self._fw_kid
        for t2 in distinct_writers:
            wj = t2 - tbase
            a = fw_off[wj]
            b = fw_off[wj + 1]
            if b - a <= len(keys_read):
                candidates = (x for x in fw_kid[a:b] if x in reader_of_key)
            else:
                keys_written = set(fw_kid[a:b])
                candidates = (x for x in keys_read if x in keys_written)
            for x in candidates:
                t1 = reader_of_key[x]
                if t1 != t2:
                    record(ra_log, t2, t1, x, seq)
                    seq += 1

        for key in fw_kid[fw_off[j] : fw_off[j + 1]]:
            last_write[key] = tid

    # -- CC frontier (Algorithm 3, online) --------------------------------------

    def _advance_cc(self, sid: int) -> None:
        if not self._cc_enabled:
            return
        laps = self._fold_laps
        lap_start = 0.0 if laps is None else time.perf_counter()
        by_session = self._by_session
        cc_next = self._cc_next
        t_flags = self._t_flags
        t_ccpend = self._t_ccpend
        tbase = self._txns_base
        sess_base = self._sess_base
        cc_waiters = self._cc_waiters
        gr_start = self._gr_start
        gr_len = self._gr_len
        gr_writer = self._gr_writer
        cc_process = self._cc_process
        queue = [sid]
        while queue:
            current = queue.pop()
            records = by_session[current]
            base = sess_base[current]
            num_records = base + len(records)
            index = cc_next[current]
            while index < num_records:
                tid = records[index - base]
                jrow = tid - tbase
                flags = t_flags[jrow]
                if flags & 1:
                    if not flags & 2:
                        break
                    if not flags & 8:
                        t_flags[jrow] = flags | 8
                        pending = 0
                        # Duplicate writers need no dedup: each occurrence
                        # both increments ``pending`` and enqueues one
                        # waiter entry, and every entry is decremented
                        # when the writer completes.
                        ga = gr_start[jrow]
                        for writer in gr_writer[ga : ga + gr_len[jrow]]:
                            if not t_flags[writer - tbase] & 4:
                                pending += 1
                                cc_waiters.setdefault(writer, []).append(tid)
                        t_ccpend[jrow] = pending
                    if t_ccpend[jrow] > 0:
                        break
                    queue.extend(cc_process(tid))
                index += 1
            cc_next[current] = index
        if laps is not None:
            laps["clock_join"] += time.perf_counter() - lap_start

    def _cc_process(self, tid: int) -> List[int]:
        """ComputeHB + saturate_cc for one transaction; returns sessions to poke."""
        tbase = self._txns_base
        j = tid - tbase
        t_sid = self._t_sid
        t_sidx = self._t_sidx
        rec_sid = t_sid[j]
        stride = self._clock_stride
        sc_data = self._sc_data
        hb_data = self._hb_data
        soff = rec_sid * stride
        boff = j * stride
        ga = self._gr_start[j]
        gn = self._gr_len[j]
        # Pre-filter against the *base* session clock, then join the
        # survivors' rows in one commutative batched max (kernels.join_clocks).
        # A same-session writer is an so-predecessor -- the base clock
        # already joins every predecessor's clock and session index.  And by
        # vector-clock transitivity a writer at or below the base clock's
        # entry for its session is already joined in whole.  The old scalar
        # loop also skipped writers dominated by *earlier joins of this same
        # batch*; dropping that refinement only adds redundant rows to an
        # idempotent max, so the joined clock is value-identical.
        rows: List[int] = []
        wsids: List[int] = []
        wsidxs: List[int] = []
        if gn:
            for writer in self._gr_writer[ga : ga + gn]:
                wj = writer - tbase
                wsid = t_sid[wj]
                if wsid == rec_sid:
                    continue
                wsidx = t_sidx[wj]
                if wsidx <= sc_data[soff + wsid]:
                    continue
                rows.append(wj)
                wsids.append(wsid)
                wsidxs.append(wsidx)
        if rows:
            row = _kernels.join_clocks(hb_data, stride, sc_data, soff, rows, wsids, wsidxs)
            self._join_scalar += 1
            hb_data[boff : boff + stride] = row
            sc_row_source = row
        else:
            # No external joins: the transaction's clock IS the base
            # session clock (stored by copy -- rows are fixed slots).
            row = sc_data[soff : soff + stride]
            hb_data[boff : boff + stride] = row
            sc_row_source = None

        # The edge-emission probes are *deferred* to a per-batch flush
        # (_flush_cc_probes): the probe answer -- the latest registered
        # writer at or below the clock bound -- is time-invariant once the
        # clock is joined (every writer under the bound is in rec's causal
        # past, so it registered before this point; later registrations sit
        # strictly above the bound), so batching them loses nothing and
        # lets one vectorized pass answer the whole batch.
        if gn:
            self._cc_probe_pending.append(tid)

        if sc_row_source is not None:
            sc_data[soff : soff + stride] = sc_row_source
        rec_sidx = t_sidx[j]
        if rec_sidx > sc_data[soff + rec_sid]:
            sc_data[soff + rec_sid] = rec_sidx

        t_flags = self._t_flags
        t_flags[j] |= 4
        self._cc_backlog -= 1
        waiters = self._cc_waiters.pop(tid, None)
        poke: List[int] = []
        if waiters:
            t_ccpend = self._t_ccpend
            for waiter in waiters:
                wjj = waiter - tbase
                t_ccpend[wjj] -= 1
                if t_ccpend[wjj] == 0:
                    poke.append(t_sid[wjj])
        return poke

    def _cc_probe_scalar(self, tid: int) -> None:
        """Answer one transaction's deferred CC probes with the pointer loop.

        The pre-deferral saturation half of ``_cc_process``, verbatim: the
        monotone per-(reader session, bucket) pointer rows memoize the scan
        frontier.  Bounds per (reader, writer) session pair only grow over
        a session's life, so pointer state left lagging by a vectorized
        flush (which never touches the rows) self-corrects on the next
        scalar advance -- the rows are a cache of the stateless answer,
        never ahead of it.
        """
        j = tid - self._txns_base
        rec_sid = self._t_sid[j]
        hb_data = self._hb_data
        boff = j * self._clock_stride
        ptr_row = self._cc_ptr_rows[rec_sid]
        t2_row = self._cc_t2_rows[rec_sid]
        # Grow the flat pointer rows once per transaction to cover every
        # bucket allocated so far (zeros = untouched, -1 = no writer), so
        # the slot loop below can index without a bounds check.
        num_buckets = self._num_buckets
        if len(ptr_row) < num_buckets:
            grow = num_buckets - len(ptr_row)
            ptr_row.extend([0] * grow)
            t2_row.extend([-1] * grow)
        # Clock rows are stride-wide and -1-padded, and the stride always
        # covers every registered session (writer session ids always index
        # a registered session), so the slot loop reads bounds straight
        # from the row without a pad step.
        # The meta base advances by one whole seq step (1 << EDGE_SHIFT) per
        # recorded attempt, so the shift happens once per transaction
        # instead of once per attempt; the t2 row stores writers
        # *pre-shifted* (see the checkpoint format note on _cc_t2_rows), so
        # the packed edge is a single bitwise-or per attempt.
        meta_base = _sort_base(rec_sid, self._t_sidx[j]) << EDGE_SHIFT
        meta_step = 1 << EDGE_SHIFT
        cc_log = self._cc_log
        cc_log_setdefault = cc_log.setdefault
        writers_by_key = self._writers_by_key
        ga = self._gr_start[j]
        gn = self._gr_len[j]
        for key, t1 in zip(
            self._gr_kid[ga : ga + gn], self._gr_writer[ga : ga + gn]
        ):
            entry = writers_by_key.get(key)
            if entry is None:
                continue
            key1 = key + 1
            t1s = t1 << EDGE_SHIFT
            for writer_list, writer_indices, bid, other in entry[1]:
                ptr = ptr_row[bid]
                bound = hb_data[boff + other]
                count = len(writer_list)
                if ptr < count and writer_indices[ptr] <= bound:
                    while ptr < count and writer_indices[ptr] <= bound:
                        ptr += 1
                    t2s_val = writer_list[ptr - 1] << EDGE_SHIFT
                    ptr_row[bid] = ptr
                    t2_row[bid] = t2s_val
                else:
                    t2s_val = t2_row[bid]
                if t2s_val >= 0 and t2s_val != t1s:
                    # _record, inlined (hot path); both sides pre-shifted,
                    # so the self-edge test and the edge packing are one
                    # comparison and one bitwise-or, and setdefault makes
                    # the common first-occurrence case a single dict probe.
                    edge = t2s_val | t1
                    meta = meta_base | key1
                    current = cc_log_setdefault(edge, meta)
                    if meta < current:
                        cc_log[edge] = meta
                    meta_base += meta_step

    def _flush_cc_probes(self) -> None:
        """Answer every CC probe deferred by ``_cc_process`` since last flush.

        Runs once per ``append_batch`` (and once in ``finalize``).  The
        probe answer -- the latest registered writer at or below a clock
        bound -- is stateless, so the vectorized path keeps the append-order
        writer registry incrementally sorted as a per-bucket
        ``bucket * 2^32 + sidx`` composite (:class:`kernels.WriterProbeIndex`;
        only rows appended since the last flush are sorted per flush) and
        answers every (read, writer-session) probe of the batch with one
        ``searchsorted`` per run, then reduces the per-edge minimum meta
        with one lexsort before merging into the packed log.  The scalar metas
        are reproduced exactly: the attempt counter advances only per
        *emitted* attempt, and deferral can only add non-emitting probes
        (any writer at or below a bound registered before the clock join
        that produced the bound).  Falls back to the scalar pointer loop
        when numpy is off, the batch is small, or a packing guard fails;
        both paths are bit-identical.
        """
        pending = self._cc_probe_pending
        if not pending:
            return
        self._cc_probe_pending = []
        np = _np
        tbase = self._txns_base
        gr_len = self._gr_len
        js_list = [tid - tbase for tid in pending]
        total = 0
        for jrow in js_list:
            total += gr_len[jrow]
        use_vectorized = (
            np is not None
            and total >= _kernels._MIN_VECTOR_READS
            and len(self._wb_bucket) > 0
            # Composite packing head-room: bucket * 2^32 + sidx and the
            # meta hi component ((sid << 24) | sidx, shifted 24) must both
            # stay inside a signed int64.
            and self._num_buckets < _kernels._MAX_BUCKETS
            and len(self._by_session) < (1 << 15)
        )
        if not use_vectorized:
            self._flush_scalar += 1
            probe = self._cc_probe_scalar
            for i, tid in enumerate(pending):
                if gr_len[js_list[i]]:
                    probe(tid)
            return
        self._flush_vectorized += 1

        # The sorted composite over the writer registry is maintained
        # *incrementally* (kernels.WriterProbeIndex): only rows appended
        # since the last flush are sorted here, and they merge into the
        # main run amortized -- the full-registry argsort every flush used
        # to dominate the small-batch_ops regime.
        probe_index = self._wb_probe
        probe_index.sync(
            self._wb_bucket, self._wb_sidx, self._wb_tid, self._num_buckets
        )

        # Gather the batch: one clock row per pending transaction, one row
        # per good read, and a CSR of the flush-time slot lists of every
        # distinct key probed.  Slots that appeared after a transaction's
        # clock join hold only writers above its bounds (registration is
        # arrival-ordered), so sharing the flush-time snapshot emits the
        # same attempts the per-transaction loop would have.
        k = len(self._by_session)
        nrec = len(pending)
        stride = self._clock_stride
        # One fancy-index gather replaces the per-transaction row copies:
        # clock rows are -1-padded past each session's horizon, so the
        # :k column slice reproduces the old np.full(-1) fill exactly.
        hb_view = np.frombuffer(self._hb_data, dtype=np.int64).reshape(-1, stride)
        js = np.asarray(js_list, dtype=np.int64)
        clock_mat = hb_view[js, :k]
        # hi components: _sort_base, vectorized (the session-count guard
        # above keeps the packed value inside int64 exactly as the scalar
        # per-transaction assignment into an int64 array did).
        sid_a = np.frombuffer(self._t_sid, dtype=np.int64)[js]
        sidx_a = np.frombuffer(self._t_sidx, dtype=np.int64)[js]
        rec_hi = ((sid_a << _KEY_SHIFT) | sidx_a) << _KEY_SHIFT
        # Per-read rows come straight off the shared good-read run columns:
        # each pending transaction's (start, len) run expands to flat
        # positions with one arange/cumsum, no per-read Python loop.
        lens = np.frombuffer(gr_len, dtype=np.int64)[js]
        starts_g = np.frombuffer(self._gr_start, dtype=np.int64)[js]
        read_rec_a = np.repeat(np.arange(nrec, dtype=np.int64), lens)
        cum = np.cumsum(lens) - lens
        pos = (
            np.arange(total, dtype=np.int64)
            - cum[read_rec_a]
            + starts_g[read_rec_a]
        )
        read_key_a = np.frombuffer(self._gr_kid, dtype=np.int64)[pos]
        read_t1_a = np.frombuffer(self._gr_writer, dtype=np.int64)[pos]
        # The key CSR numbers distinct keys in sorted-unique order (the old
        # loop used first-seen order); only which rows belong to which key
        # matters -- per-read probe order still follows each key's slot
        # entry order, so the emitted attempts are unchanged.
        uniq_keys, read_kpos_a = np.unique(read_key_a, return_inverse=True)
        key_start: List[int] = [0]
        slot_bucket: List[int] = []
        slot_sid: List[int] = []
        writers_by_key = self._writers_by_key
        for key in uniq_keys.tolist():
            entry = writers_by_key.get(key)
            if entry is not None:
                # entry[3] mirrors the slots' bucket ids and entry[0] their
                # writer sids, both in the same sid-sorted order -- two
                # extends replace the per-slot tuple unpack loop.
                slot_bucket.extend(entry[3])
                slot_sid.extend(entry[0])
            key_start.append(len(slot_bucket))
        key_start_a = np.asarray(key_start, dtype=np.int64)
        starts = key_start_a[read_kpos_a]
        nslots = key_start_a[read_kpos_a + 1] - starts
        total_probes = int(nslots.sum())
        if total_probes == 0:
            return
        slot_bucket_a = np.asarray(slot_bucket, dtype=np.int64)
        slot_sid_a = np.asarray(slot_sid, dtype=np.int64)

        # Expand (read x slot) probe pairs and answer them all at once.
        probe_read = np.repeat(
            np.arange(read_rec_a.shape[0], dtype=np.int64), nslots
        )
        base = np.cumsum(nslots) - nslots
        probe_slot = (
            np.arange(total_probes, dtype=np.int64)
            - base[probe_read]
            + starts[probe_read]
        )
        probe_rec = read_rec_a[probe_read]
        probe_bucket = slot_bucket_a[probe_slot]
        bound = clock_mat[probe_rec, slot_sid_a[probe_slot]]
        has, t2 = probe_index.probe(probe_bucket, bound)
        t1_probe = read_t1_a[probe_read]
        emit = has & (t2 != t1_probe)
        if not emit.any():
            return

        # Emission metas: hi advances per emitted attempt within each
        # transaction (probe order is read order is pending order, so the
        # emitted rec indices are non-decreasing and bincount gives each
        # transaction's attempt base).
        t2_e = t2[emit]
        t1_e = t1_probe[emit]
        erec = probe_rec[emit]
        ekey = read_key_a[probe_read[emit]]
        ecounts = np.bincount(erec, minlength=nrec)
        estarts = np.cumsum(ecounts) - ecounts
        attempt = np.arange(erec.shape[0], dtype=np.int64) - estarts[erec]
        if int(attempt.max()) >= (1 << _KEY_SHIFT):
            # Meta hi head-room exhausted (2^24 emissions for a single
            # transaction); the scalar loop's Python ints cannot overflow.
            self._flush_vectorized -= 1
            self._flush_scalar += 1
            probe = self._cc_probe_scalar
            for i, tid in enumerate(pending):
                if gr_len[js_list[i]]:
                    probe(tid)
            return
        hi = rec_hi[erec] + attempt
        lo = ekey + 1
        edges = (t2_e << EDGE_SHIFT) | t1_e

        # Per-edge minimum meta via one lexsort (last key is primary), then
        # merge first occurrences into the packed log.
        order2 = np.lexsort((lo, hi, edges))
        edges_sorted = edges[order2]
        first = np.empty(edges_sorted.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(edges_sorted[1:], edges_sorted[:-1], out=first[1:])
        sel = order2[first]
        # Metas pack as Python ints (hi occupies bits above EDGE_SHIFT and
        # overflows int64 for large session ids, exactly like the scalar
        # path), so the per-edge packing stays a comprehension -- but the
        # merge itself runs at dict speed: the batch map is already
        # min-reduced per edge, fresh edges land through one C-level
        # update, and only edges an earlier flush recorded (rare) need the
        # min against the incumbent meta.
        batch_map = dict(
            zip(
                edges[sel].tolist(),
                [
                    (h << EDGE_SHIFT) | low
                    for h, low in zip(hi[sel].tolist(), lo[sel].tolist())
                ],
            )
        )
        cc_log = self._cc_log
        for edge in cc_log.keys() & batch_map.keys():
            if cc_log[edge] < batch_map[edge]:
                batch_map[edge] = cc_log[edge]
        cc_log.update(batch_map)

    # -- finalize helpers --------------------------------------------------------

    def _final_sessions(self):
        """Per-session record sequences for the finalize loops.

        Without retirement this is ``_by_session`` itself (zero overhead);
        with retirement each session's retired stand-ins (reloaded from the
        segments) are prepended, so the loops below see every transaction
        of the history in session order exactly as a never-evicting run
        would.  Entries are therefore *mixed*: plain ``int`` transaction
        ids for resident rows (read through the columns) and retired
        stand-in objects (read through their attributes).
        """
        retired = self._retired_final
        if retired is None:
            return self._by_session
        merged = []
        for sid, records in enumerate(self._by_session):
            front = retired.records[sid]
            if len(front) != self._sess_base[sid]:  # pragma: no cover - defensive
                raise AssertionError("segment store lost retired transactions")
            merged.append(front + list(records))
        return merged

    def _spilled_run(self, name: str):
        """The segments' spilled ``(edge, meta)`` entries for one edge log."""
        retired = self._retired_final
        if retired is None:
            return None
        return retired.log_runs.get(name)

    def _batch_numbering(self):
        """Renumber transactions the way ``History.from_sessions`` would.

        ``so_edges`` comes back *packed* (``(prev << EDGE_SHIFT) | next``),
        ready to extend a relation's so log without re-boxing.
        """
        mapping = [0] * self._next_tid
        names = [""] * self._next_tid
        committed_ids: List[int] = []
        so_edges = array("Q")
        so_append = so_edges.append
        batch_tid = 0
        tbase = self._txns_base
        t_flags = self._t_flags
        t_labels = self._t_labels
        for records in self._final_sessions():
            previous = -1
            for rec in records:
                if type(rec) is int:
                    jrow = rec - tbase
                    mapping[rec] = batch_tid
                    label = t_labels[jrow]
                    committed = t_flags[jrow] & 1
                else:
                    mapping[rec.tid] = batch_tid
                    label = rec.label
                    committed = rec.committed
                names[batch_tid] = label if label is not None else f"t{batch_tid}"
                if committed:
                    committed_ids.append(batch_tid)
                    if previous >= 0:
                        so_append((previous << EDGE_SHIFT) | batch_tid)
                    previous = batch_tid
                batch_tid += 1
        return mapping, names, committed_ids, so_edges

    def _build_relation(
        self,
        mapping: List[int],
        names: List[str],
        committed_ids: List[int],
        so_edges,
        log: Dict[int, int],
        spilled: Optional[List[Tuple[int, int]]] = None,
    ) -> CommitRelation:
        relation = CommitRelation(
            names=names,
            committed=committed_ids,
            key_names=self._key_table.values,
        )
        relation._so_log.extend(so_edges)
        wr_append = relation._wr_log.append
        wrk_append = relation._wr_keys.append
        tbase = self._txns_base
        t_flags = self._t_flags
        wany_start = self._wr_any_start
        wany_len = self._wr_any_len
        wany_writer = self._wr_any_writer
        wany_kid = self._wr_any_kid
        gr_start = self._gr_start
        gr_len = self._gr_len
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer
        for records in self._final_sessions():
            for rec in records:
                if type(rec) is int:
                    jrow = rec - tbase
                    if not t_flags[jrow] & 1:
                        continue
                    reader = mapping[rec]
                    a = wany_start[jrow]
                    if a >= 0:
                        for idx in range(a, a + wany_len[jrow]):
                            wr_append(
                                (mapping[wany_writer[idx]] << EDGE_SHIFT) | reader
                            )
                            wrk_append(wany_kid[idx])
                    elif a == -2:
                        # Derive sentinel: every external committed read was
                        # good, so the first-read-per-writer map falls out of
                        # the good-read run in read order -- exactly the dict
                        # insertion order _store_wr_runs used to serialize.
                        ga = gr_start[jrow]
                        seen: Set[int] = set()
                        for g in range(ga, ga + gr_len[jrow]):
                            w = gr_writer[g]
                            if w not in seen:
                                seen.add(w)
                                wr_append((mapping[w] << EDGE_SHIFT) | reader)
                                wrk_append(gr_kid[g])
                else:
                    if not rec.committed:
                        continue
                    reader = mapping[rec.tid]
                    for writer, kid in rec.wr_first_any.items():
                        wr_append((mapping[writer] << EDGE_SHIFT) | reader)
                        wrk_append(kid)
        self._drain_log(log, mapping, relation, spilled)
        return relation

    def _drain_log(
        self,
        log: Dict[int, int],
        mapping: List[int],
        relation: CommitRelation,
        spilled: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        """Drain a packed inferred-edge log into the relation's co rows.

        Entries land in batch order (ascending meta = batch position of the
        earliest firing attempt), renumbered through ``mapping`` -- so the
        lazy label replay matches the batch engines bit for bit.  Dedup
        against so/wr and the witness labels happen at the relation's CSR
        freeze.  The vectorized path splits each meta into (seq, key) halves
        -- metas overflow 64 bits by construction -- and lexsorts them,
        which reproduces ``sorted(log, key=log.__getitem__)`` exactly; it
        bails to the scalar loop if a seq half ever exceeds uint64 (only
        possible past ~65k sessions).

        ``spilled`` carries the retired readers' finalized ``(edge, meta)``
        entries reloaded from the archival segments.  Metas are globally
        unique (each reader's attempt counter advances per emission and the
        per-reader bases are distinct), an edge appears in at most one of
        the runs (a spilled edge's reader retired and never records again),
        and every spilled entry already holds its global minimum meta -- so
        one sort over the concatenation restores the exact order a
        never-evicting log would drain in.
        """
        n_spilled = len(spilled) if spilled else 0
        n = len(log) + n_spilled
        if _np is not None and n:
            try:
                if n_spilled:
                    keys_iter = chain(log.keys(), (edge for edge, _ in spilled))
                    metas = list(log.values())
                    metas.extend(meta for _, meta in spilled)
                else:
                    keys_iter = log.keys()
                    metas = log.values()
                packed = _np.fromiter(keys_iter, _np.uint64, n)
                hi = _np.fromiter((m >> EDGE_SHIFT for m in metas), _np.uint64, n)
                lo = _np.fromiter((m & EDGE_MASK for m in metas), _np.uint64, n)
            except OverflowError:  # pragma: no cover - >65k sessions
                pass
            else:
                log.clear()
                order = _np.lexsort((lo, hi))
                remap = _np.asarray(mapping, _np.uint64)
                src = remap[(packed >> EDGE_SHIFT).astype(_np.int64)]
                dst = remap[(packed & EDGE_MASK).astype(_np.int64)]
                relation._co_log.frombytes(((src << EDGE_SHIFT) | dst)[order].tobytes())
                relation._co_keys.frombytes(
                    (lo.astype(_np.int64) - 1)[order].tobytes()
                )
                return
        co_append = relation._co_log.append
        cok_append = relation._co_keys.append
        if n_spilled:
            items = list(log.items())
            items.extend(spilled)
            log.clear()
            items.sort(key=lambda item: item[1])
            for edge, meta in items:
                co_append(
                    (mapping[edge >> EDGE_SHIFT] << EDGE_SHIFT)
                    | mapping[edge & EDGE_MASK]
                )
                cok_append((meta & EDGE_MASK) - 1)
            return
        log_pop = log.pop
        for edge in sorted(log, key=log.__getitem__):
            kid = (log_pop(edge) & EDGE_MASK) - 1
            co_append(
                (mapping[edge >> EDGE_SHIFT] << EDGE_SHIFT) | mapping[edge & EDGE_MASK]
            )
            cok_append(kid)

    def _causality_graph(self, mapping: List[int]):
        """The committed ``so ∪ good-wr`` graph, frozen to CSR rows.

        Returns ``(frozen_graph, labels)`` for :func:`causality_cycles`;
        only called when the stream ends with a causality cycle, so the
        labels build eagerly here.
        """
        so_log: List[int] = []
        wr_log: List[int] = []
        wr_keys: List[int] = []
        tbase = self._txns_base
        t_flags = self._t_flags
        final_sessions = self._final_sessions()
        for records in final_sessions:
            previous = -1
            for rec in records:
                if type(rec) is int:
                    if not t_flags[rec - tbase] & 1:
                        continue
                    current = mapping[rec]
                else:
                    if not rec.committed:
                        continue
                    current = mapping[rec.tid]
                if previous >= 0:
                    so_log.append((previous << EDGE_SHIFT) | current)
                previous = current
        wany_start = self._wr_any_start
        wany_len = self._wr_any_len
        wany_writer = self._wr_any_writer
        wany_kid = self._wr_any_kid
        wgood_start = self._wr_good_start
        wgood_len = self._wr_good_len
        wgood_writer = self._wr_good_writer
        wgood_kid = self._wr_good_kid
        gr_start = self._gr_start
        gr_len = self._gr_len
        gr_kid = self._gr_kid
        gr_writer = self._gr_writer
        for records in final_sessions:
            for rec in records:
                if type(rec) is int:
                    jrow = rec - tbase
                    if not t_flags[jrow] & 1:
                        continue
                    reader = mapping[rec]
                    gs = wgood_start[jrow]
                    if gs >= 0:
                        # Explicit good run (possibly empty: every external
                        # committed read was bad).
                        src_w, src_k = wgood_writer, wgood_kid
                        a, n = gs, wgood_len[jrow]
                    elif wany_start[jrow] == -2:
                        # Derive sentinel: good == any == first-per-writer
                        # over the good-read run (see _build_relation).
                        ga = gr_start[jrow]
                        seen: Set[int] = set()
                        for g in range(ga, ga + gr_len[jrow]):
                            w = gr_writer[g]
                            if w not in seen:
                                seen.add(w)
                                wr_log.append(
                                    (mapping[w] << EDGE_SHIFT) | reader
                                )
                                wr_keys.append(gr_kid[g])
                        continue
                    else:
                        # -1 sentinel: the good map equals the any map.
                        src_w, src_k = wany_writer, wany_kid
                        a = wany_start[jrow]
                        n = wany_len[jrow] if a >= 0 else 0
                    for idx in range(a, a + n):
                        wr_log.append((mapping[src_w[idx]] << EDGE_SHIFT) | reader)
                        wr_keys.append(src_k[idx])
                else:
                    if not rec.committed:
                        continue
                    reader = mapping[rec.tid]
                    for writer, kid in rec.wr_first_good.items():
                        wr_log.append((mapping[writer] << EDGE_SHIFT) | reader)
                        wr_keys.append(kid)
        graph = freeze_packed(self._next_tid, (so_log, wr_log))
        labels = causality_labels(
            so_log, wr_log, wr_keys, key_names=self._key_table.values
        )
        return graph, labels

    def _result(
        self,
        level: IsolationLevel,
        violations: List[Violation],
        checker: str,
        relation: Optional[CommitRelation],
        co_edges: bool = True,
    ) -> CheckResult:
        stats: Dict[str, float] = {}
        if relation is not None:
            stats["inferred_edges"] = relation.num_inferred_edges
            if co_edges:
                stats["co_edges"] = relation.num_edges
            # freeze/acyclicity/witness wall laps, for `--stream --profile`.
            stats.update(relation.timings)
        if self._flush_vectorized or self._flush_scalar:
            # Which CC probe-flush implementation ran (bench snapshots and
            # `--profile` are self-describing about the kernel in play).
            if not self._flush_scalar:
                stats["saturation_kernel"] = "vectorized"
            elif not self._flush_vectorized:
                stats["saturation_kernel"] = "fallback"
            else:
                stats["saturation_kernel"] = "mixed"
        if self._resolve_vectorized or self._resolve_scalar:
            # Likewise for the read-resolution kernel, plus the resolve
            # tallies ("mixed" is normal: sub-threshold tail batches take
            # the fallback twin even with numpy on).
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
    retire: Optional[RetirementPolicy] = None,
) -> CheckResult:
    """One-pass check of a raw record stream against ``level``.

    Feed it :func:`repro.histories.formats.stream_raw_history` and no model
    objects are ever constructed.
    """
    checker = CompiledIncrementalChecker(
        levels=(level,),
        num_sessions=num_sessions,
        max_witnesses=max_witnesses,
        retire=retire,
    )
    checker.extend_raw(records)
    return checker.finalize()[level]
