"""The compiled history IR: interned ids and flat parallel arrays.

The object model of :mod:`repro.core.model` is convenient but pays Python
object overhead per event: one frozen dataclass per operation, string keys
hashed in every hot loop, tuples and ``OpRef`` objects allocated per edge.
This module *compiles* a history into a dense integer form once, so the
checkers (:mod:`repro.core.compiled.checkers`) can run on machine-word ids:

* **Intern tables** (:class:`Intern`) map keys, values, and external session
  names to dense ints; the tables double as the id -> object mapping used to
  render verdict witnesses, which therefore stay byte-identical to the
  object-path checkers.
* **Operations** live in flat parallel arrays (``array('q')`` /
  ``bytearray``): kind, key id, value id, owning transaction, resolved
  write-read source, and a final-write flag, indexed by a global operation
  index.  A transaction is a contiguous slice ``txn_start[t]:txn_start[t+1]``.
* **Derived structures** the checkers need repeatedly are precomputed once:
  per-transaction external reads (the transaction-level ``wr`` edges) and the
  distinct written keys in first-write program order.

Histories are compiled either from a :class:`~repro.core.model.History`
(:func:`compile_history`) or directly from the raw streaming parsers via
:class:`CompiledHistoryBuilder`, which never materializes ``Operation`` or
``Transaction`` objects at all.

One deliberate corner: values are interned *by equality*, exactly like the
unique-writes index of the object model, so ``1``/``True``/``1.0`` share an
id (and hence match the same reads).  Witness messages render the first-seen
representative of such an equality class; histories mixing bools and equal
ints in values may therefore render ``1`` where the object path rendered
``True``.  Verdicts are unaffected.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, repeat
from operator import add, sub
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.exceptions import HistoryFormatError

if TYPE_CHECKING:
    from repro.core.model import History

__all__ = [
    "Intern",
    "CompiledHistory",
    "CompiledHistoryBuilder",
    "compile_history",
    "session_order",
]

#: Bit width of a value id inside a packed ``(key_id, value_id)`` write
#: identity.  4.3e9 distinct values per history is far beyond the in-memory
#: regime of the tester.
_VALUE_SHIFT = 32

#: Bytes per list slot (a pointer, on the 64-bit builds the tester targets).
_POINTER_BYTES = 8

#: CPython's cached small ints: a list slot holding one shares the object.
_SMALL_INTS = range(-5, 257)


class Intern:
    """A dense interning table: object -> small int, and back.

    ``values[i]`` is the representative object of id ``i`` (the first object
    interned for its equality class).  Objects must be hashable.
    """

    __slots__ = ("_ids", "values")

    def __init__(self) -> None:
        self._ids: Dict[object, int] = {}
        self.values: List[object] = []

    def intern(self, obj: object) -> int:
        """Return the id of ``obj``, assigning the next dense id if new."""
        ident = self._ids.get(obj)
        if ident is None:
            ident = len(self.values)
            self._ids[obj] = ident
            self.values.append(obj)
        return ident

    def get(self, obj: object) -> Optional[int]:
        """The id of ``obj`` if already interned, else ``None``."""
        return self._ids.get(obj)

    def intern_column(self, column: List[object]) -> List[int]:
        """Intern a whole column, returning the aligned id list.

        The bulk path for record batches: one C-level ``map`` over the dict
        probe resolves every already-known object; only first occurrences
        fall back to the per-object fixup loop, which assigns new ids in
        column order -- exactly the order :meth:`intern` called per element
        would, so the table's first-seen representative order (and hence
        witness rendering) is unchanged.
        """
        ids = list(map(self._ids.get, column))
        if None in ids:
            _ids = self._ids
            values = self.values
            for position, ident in enumerate(ids):
                if ident is None:
                    obj = column[position]
                    # Re-probe: an earlier fixup in this very column may have
                    # interned the same new object already (and an interned
                    # literal ``None`` object resolves here too).
                    ident = _ids.get(obj)
                    if ident is None:
                        ident = len(values)
                        _ids[obj] = ident
                        values.append(obj)
                    ids[position] = ident
        return ids

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, ident: int) -> object:
        return self.values[ident]

    def memory_bytes(self) -> int:
        """Rough in-memory footprint of the table (dict + list + objects)."""
        total = sys.getsizeof(self._ids) + sys.getsizeof(self.values)
        for obj in self.values:
            total += sys.getsizeof(obj)
        return total


class CompiledHistory:
    """A history compiled to interned ids and flat parallel arrays.

    Instances are produced by :func:`compile_history` or
    :class:`CompiledHistoryBuilder.finalize`; the attributes below are
    read-only by convention (the checkers never mutate them).
    """

    __slots__ = (
        "key_table",
        "value_table",
        "session_table",
        "op_kind",
        "op_key",
        "op_value",
        "op_txn",
        "op_wr",
        "op_final",
        "txn_start",
        "txn_session",
        "txn_session_index",
        "txn_committed",
        "labels",
        "op_ids",
        "sessions",
        "_kw_start",
        "_kw_key",
        "_xr_start",
        "_xr_po",
        "_xr_key",
        "_xr_writer",
        "_kw_sets",
        "_kernel_cache",
    )

    def __init__(self) -> None:
        self.key_table = Intern()
        self.value_table = Intern()
        #: External session names in dense-session-id order (ints for the
        #: positional formats, arbitrary labels otherwise).
        self.session_table: List[object] = []
        # -- operation arrays (length n) --------------------------------------
        self.op_kind = bytearray()  # 1 = write, 0 = read
        self.op_key = array("q")
        self.op_value = array("q")
        self.op_txn = array("q")
        self.op_wr = array("q")  # global op index of the observed write, or -1
        self.op_final = bytearray()  # write is its txn's final write to the key
        # -- transaction arrays (length T, txn_start has T+1) ------------------
        self.txn_start = array("q", [0])
        self.txn_session = array("q")
        self.txn_session_index = array("q")
        self.txn_committed = bytearray()
        self.labels: Dict[int, str] = {}
        self.op_ids: Dict[int, int] = {}
        #: Transaction ids per session, in session order.
        self.sessions: List[List[int]] = []
        # -- derived: distinct written keys, first-write po order --------------
        self._kw_start = array("q", [0])
        self._kw_key = array("q")
        # -- derived: external reads (transaction-level wr edges) --------------
        self._xr_start = array("q", [0])
        self._xr_po: List[int] = []
        self._xr_key: List[int] = []
        self._xr_writer: List[int] = []
        self._kw_sets: List[Optional[frozenset]] = []
        #: Lazy per-IR cache for the vectorized saturation kernels
        #: (:mod:`repro.core.compiled.kernels`); the IR is immutable once
        #: frozen, so derived numpy indexes are built at most once.
        self._kernel_cache: Optional[Dict[str, object]] = None

    # -- sizes ----------------------------------------------------------------

    @property
    def num_operations(self) -> int:
        """The history size ``n``: total number of operations."""
        return len(self.op_key)

    @property
    def num_transactions(self) -> int:
        """Total number of transactions (committed and aborted)."""
        return len(self.txn_committed)

    @property
    def num_sessions(self) -> int:
        """The number of sessions ``k``."""
        return len(self.sessions)

    @property
    def num_keys(self) -> int:
        """Number of distinct (interned) keys."""
        return len(self.key_table)

    @property
    def num_values(self) -> int:
        """Number of distinct (interned) values."""
        return len(self.value_table)

    @property
    def committed(self) -> List[int]:
        """Dense ids of committed transactions (``T_c``)."""
        flags = self.txn_committed
        return [tid for tid in range(len(flags)) if flags[tid]]

    # -- rendering -------------------------------------------------------------

    def name_of(self, tid: int) -> str:
        """Printable transaction name: the label if set, else ``t<tid>``."""
        label = self.labels.get(tid)
        return label if label is not None else f"t{tid}"

    def op_repr(self, index: int) -> str:
        """Render operation ``index`` exactly like ``Operation.__repr__``."""
        kind = "W" if self.op_kind[index] else "R"
        key = self.key_table.values[self.op_key[index]]
        value = self.value_table.values[self.op_value[index]]
        op_id = self.op_ids.get(index)
        suffix = "" if op_id is None else f"#{op_id}"
        return f"{kind}({key}, {value!r}){suffix}"

    def describe(self) -> str:
        """One-line summary, format-compatible with ``History.describe``."""
        return (
            f"History(sessions={self.num_sessions}, "
            f"transactions={self.num_transactions}, "
            f"operations={self.num_operations}, keys={self.num_keys})"
        )

    def __repr__(self) -> str:
        return f"<Compiled{self.describe()}>"

    # -- derived accessors ------------------------------------------------------

    def keys_written(self, tid: int) -> "array":
        """Distinct keys written by ``tid`` (ids, first-write po order)."""
        return self._kw_key[self._kw_start[tid] : self._kw_start[tid + 1]]

    def keys_written_set(self, tid: int) -> frozenset:
        """Cached frozenset view of :meth:`keys_written` for membership tests."""
        cached = self._kw_sets[tid]
        if cached is None:
            cached = frozenset(self.keys_written(tid))
            self._kw_sets[tid] = cached
        return cached

    def external_reads(self, tid: int) -> Iterable[Tuple[int, int, int]]:
        """``(po_index, key_id, writer_tid)`` per external read of ``tid``.

        Mirrors ``History.txn_read_froms``: reads with a ``wr`` edge to a
        *different* transaction, in program order; only built for committed
        transactions.
        """
        lo, hi = self._xr_start[tid], self._xr_start[tid + 1]
        return zip(self._xr_po[lo:hi], self._xr_key[lo:hi], self._xr_writer[lo:hi])

    # -- memory accounting -------------------------------------------------------

    def memory_footprint(self) -> Dict[str, int]:
        """Estimated resident bytes per component of the IR.

        A column counts the bytes its elements use, not its allocated
        capacity: capacity depends on how the column grew, and the numpy and
        pure-Python sides of unique-writes resolution and of ``_freeze`` grow
        columns differently, so one history would report two footprints.  A
        list element costs its pointer and, outside CPython's small-int
        cache, the int object behind it: every list here holds ints boxed one
        by one (by indexing an ``array('q')``, ``range`` or ``tolist()``).
        """
        def _used(column) -> int:
            if isinstance(column, list):
                boxed = sum(sys.getsizeof(v) for v in column if v not in _SMALL_INTS)
                return _POINTER_BYTES * len(column) + boxed
            return memoryview(column).nbytes

        arrays = (
            _used(self.op_kind)
            + _used(self.op_key)
            + _used(self.op_value)
            + _used(self.op_txn)
            + _used(self.op_wr)
            + _used(self.op_final)
            + _used(self.txn_start)
            + _used(self.txn_session)
            + _used(self.txn_session_index)
            + _used(self.txn_committed)
            + _used(self._kw_start)
            + _used(self._kw_key)
            + _used(self._xr_start)
            + _used(self._xr_po)
            + _used(self._xr_key)
            + _used(self._xr_writer)
            + sum(_used(s) for s in self.sessions)
        )
        interns = (
            self.key_table.memory_bytes()
            + self.value_table.memory_bytes()
            + sys.getsizeof(self.session_table)
        )
        return {
            "arrays_bytes": arrays,
            "intern_tables_bytes": interns,
            "total_bytes": arrays + interns,
        }

    # -- finishing (shared by both construction paths) ---------------------------

    def _freeze(self) -> None:
        """Compute the derived structures once the base arrays are complete.

        A CC process derives them with numpy
        (:func:`repro.core.compiled.numpy_sides.freeze`), any other with the
        loop below; both build the same columns of the same types.
        """
        self._kw_sets = [None] * self.num_transactions
        # Lazy import: kernels imports this module for the IR types.
        from repro.core.compiled.kernels import vector_sides

        sides = vector_sides(self.num_operations)
        if sides is not None and sides.freeze(self):
            return
        op_kind = self.op_kind
        op_key = self.op_key
        op_wr = self.op_wr
        op_txn = self.op_txn
        op_final = self.op_final
        txn_start = self.txn_start
        committed = self.txn_committed
        kw_start = self._kw_start
        kw_key = self._kw_key
        xr_start = self._xr_start
        xr_po = self._xr_po
        xr_key = self._xr_key
        xr_writer = self._xr_writer

        for tid in range(self.num_transactions):
            lo, hi = txn_start[tid], txn_start[tid + 1]
            if committed[tid]:
                # Distinct written keys in first-write order (dict insertion
                # order is stable under value updates) + final-write flags.
                last_write: Dict[int, int] = {}
                for i in range(lo, hi):
                    if op_kind[i]:
                        last_write[op_key[i]] = i
                for i in last_write.values():
                    op_final[i] = 1
                kw_key.extend(last_write.keys())
                # External reads in program order (writer as a transaction id).
                for i in range(lo, hi):
                    if not op_kind[i]:
                        w = op_wr[i]
                        if w >= 0 and op_txn[w] != tid:
                            xr_po.append(i - lo)
                            xr_key.append(op_key[i])
                            xr_writer.append(op_txn[w])
            else:
                # Aborted transactions: flags only (the checkers skip them,
                # but `op_final` keeps rendering and the writes index honest).
                last_write = {}
                for i in range(lo, hi):
                    if op_kind[i]:
                        last_write[op_key[i]] = i
                for i in last_write.values():
                    op_final[i] = 1
            kw_start.append(len(kw_key))
            xr_start.append(len(xr_po))


def compile_history(history: History) -> CompiledHistory:
    """Compile a :class:`History` into the array IR (one linear pass).

    The write-read relation is taken verbatim from ``history.wr`` (which may
    have been inferred or supplied explicitly), so the compiled checkers see
    exactly the same ``wr`` as the object-path checkers.
    """
    from repro.core.model import OpKind

    ch = CompiledHistory()
    intern_key = ch.key_table.intern
    intern_value = ch.value_table.intern
    op_kind = ch.op_kind
    op_key = ch.op_key
    op_value = ch.op_value
    op_txn = ch.op_txn
    txn_start = ch.txn_start

    write_kind = OpKind.WRITE
    transactions = history.transactions
    for tid, txn in enumerate(transactions):
        for op in txn.operations:
            op_kind.append(1 if op.kind is write_kind else 0)
            op_key.append(intern_key(op.key))
            op_value.append(intern_value(op.value))
            op_txn.append(tid)
            if op.op_id is not None:
                ch.op_ids[len(op_key) - 1] = op.op_id
        txn_start.append(len(op_key))
        ch.txn_session.append(txn.session)
        ch.txn_session_index.append(txn.session_index)
        ch.txn_committed.append(1 if txn.committed else 0)
        if txn.label is not None:
            ch.labels[tid] = txn.label

    ch.sessions = [list(session) for session in history.sessions]
    ch.session_table = list(range(history.num_sessions))

    ch.op_wr = array("q", [-1]) * len(op_key) if op_key else array("q")
    op_wr = ch.op_wr
    for read_ref, write_ref in history.wr.items():
        op_wr[txn_start[read_ref.txn] + read_ref.index] = (
            txn_start[write_ref.txn] + write_ref.index
        )

    ch.op_final = bytearray(len(op_key))
    ch._freeze()
    return ch


def session_order(sessions: Iterable[object], fill_gaps: bool = False) -> List[object]:
    """The external session ids of a parsed history, in dense-session-id order.

    The one numbering rule of every loader: sessions sort by external id, so
    arrival order never changes the numbering, and unsortable mixed ids keep
    their first-seen (iteration) order.  With ``fill_gaps`` (the format's
    :func:`~repro.histories.formats.session_gaps`), integer ids also get an
    empty session per missing id from ``min(0, lowest)`` up.
    """
    try:
        # sorted() (not list.sort) so a mid-sort TypeError on mixed
        # unorderable ids leaves the first-seen order intact.
        externals = sorted(sessions)  # type: ignore[type-var]
    except TypeError:
        externals = list(sessions)
    if fill_gaps and externals and all(isinstance(e, int) for e in externals):
        lo = min(0, min(externals))  # type: ignore[type-var]
        externals = list(range(lo, max(externals) + 1))  # type: ignore[arg-type]
    return externals


class CompiledHistoryBuilder:
    """Accumulate raw parser events into a :class:`CompiledHistory`.

    The builder is the one ingest path from a file to the IR, for
    :func:`~repro.histories.formats.load_compiled` and for ``awdit check
    --stream`` (:class:`~repro.core.compiled.online.CompiledIncrementalChecker`)
    alike: the parsers' record batches, or ``(session, label, committed,
    ops)`` records with plain-tuple operations, go in, so no
    :class:`Operation` or :class:`Transaction` objects are ever created.
    Per-session buffers keep arrival order; :meth:`finalize` renumbers
    transactions session-blocked (the numbering
    :meth:`History.from_sessions` would assign) and resolves the write-read
    relation with the same last-write-wins unique-writes convention as
    ``History._infer_wr``.
    """

    class _SessionBuffer:
        __slots__ = ("kind", "key", "value", "txn_end", "committed", "labels")

        def __init__(self) -> None:
            self.kind = bytearray()
            self.key = array("q")
            self.value = array("q")
            self.txn_end = array("q")  # op count after each transaction
            self.committed = bytearray()
            self.labels: Dict[int, str] = {}

    def __init__(self) -> None:
        self._key_table = Intern()
        self._value_table = Intern()
        self._session_ids: Dict[object, int] = {}
        self._buffers: List[CompiledHistoryBuilder._SessionBuffer] = []

    def add_transaction(
        self,
        session: object,
        label: Optional[str],
        committed: bool,
        ops: Iterable[Tuple[bool, object, object]],
    ) -> None:
        """Append one transaction of ``(is_write, key, value)`` operations."""
        buf = self._buffer(session)
        intern_key = self._key_table.intern
        intern_value = self._value_table.intern
        for is_write, key, value in ops:
            buf.kind.append(1 if is_write else 0)
            buf.key.append(intern_key(key))
            buf.value.append(intern_value(value))
        if label is not None:
            buf.labels[len(buf.committed)] = label
        buf.committed.append(1 if committed else 0)
        buf.txn_end.append(len(buf.kind))

    def add_batch(self, batch) -> None:
        """Append a whole :class:`~repro.histories.formats._raw.RecordBatch`.

        The columnar fast path over :meth:`add_transaction`: both intern
        tables are probed once per column (C-level ``map``), and each
        record's operation rows land in its session buffer via slice
        ``extend``s.  Byte-identical to calling :meth:`add_transaction` per
        record -- including intern-table order, since
        :meth:`Intern.intern_column` assigns new ids in column (= op) order
        and the key and value tables are independent.
        """
        kid_col = self._key_table.intern_column(batch.keys)
        vid_col = self._value_table.intern_column(batch.values)
        kinds = batch.kinds
        sessions = batch.txn_session
        labels = batch.txn_labels
        committed_col = batch.txn_committed
        buffer = self._buffer
        lo = 0
        for t, hi in enumerate(batch.txn_end):
            buf = buffer(sessions[t])
            buf.kind += kinds[lo:hi]
            buf.key.extend(kid_col[lo:hi])
            buf.value.extend(vid_col[lo:hi])
            label = labels[t]
            if label is not None:
                buf.labels[len(buf.committed)] = label
            buf.committed.append(1 if committed_col[t] else 0)
            buf.txn_end.append(len(buf.kind))
            lo = hi

    def _buffer(self, session: object) -> "CompiledHistoryBuilder._SessionBuffer":
        sid = self._session_ids.get(session)
        if sid is None:
            sid = self._session_ids[session] = len(self._buffers)
            self._buffers.append(self._SessionBuffer())
        return self._buffers[sid]

    def finalize(self, fill_gaps: bool = False) -> CompiledHistory:
        """Assemble the buffered sessions into a :class:`CompiledHistory`.

        Sessions are numbered by :func:`session_order`, so arrival order
        never changes the numbering; ``fill_gaps`` additionally materializes
        empty sessions for missing integer ids (see
        :func:`repro.histories.formats.session_gaps`).
        """
        externals = session_order(self._session_ids, fill_gaps)

        ch = CompiledHistory()
        ch.key_table = self._key_table
        ch.value_table = self._value_table
        ch.session_table = externals

        empty = self._SessionBuffer()
        ordered = [
            self._buffers[self._session_ids[e]] if e in self._session_ids else empty
            for e in externals
        ]

        # Whole session buffers at a time, each column copied at C level.
        op_key = ch.op_key
        tid = 0
        for dense_sid, buf in enumerate(ordered):
            count = len(buf.committed)
            ends = buf.txn_end
            ch.txn_start.extend(map(add, ends, repeat(len(op_key))))  # before the copy
            ch.op_kind += buf.kind
            op_key += buf.key
            ch.op_value += buf.value
            ch.op_txn.extend(
                chain.from_iterable(
                    map(repeat, range(tid, tid + count), map(sub, ends, chain((0,), ends)))
                )
            )
            ch.txn_session.extend(repeat(dense_sid, count))
            ch.txn_session_index.extend(range(count))
            ch.txn_committed += buf.committed
            # Positions ascend in each buffer, so labels go in in tid order.
            ch.labels.update((tid + pos, label) for pos, label in buf.labels.items())
            ch.sessions.append(list(range(tid, tid + count)))
            tid += count
        self._buffers = []
        self._session_ids = {}

        # Unique-writes wr inference, last write wins (History._infer_wr).
        # Lazy import: kernels imports this module for the IR types.
        from repro.core.compiled.kernels import resolve_unique_writes

        ch.op_wr = resolve_unique_writes(ch.op_kind, op_key, ch.op_value)

        ch.op_final = bytearray(len(op_key))
        if len(ch.value_table) >= (1 << _VALUE_SHIFT):
            raise HistoryFormatError(
                "history has too many distinct values for the compiled IR"
            )
        ch._freeze()
        return ch
