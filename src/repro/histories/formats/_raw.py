"""The raw record layer every reader shares.

Every format's ``stream_batches`` parser -- the only parser each format has
-- yields :class:`RecordBatch` containers: flat parallel columns (operation
kinds, keys, values; per-record session ids, labels, committed flags,
source lines) covering up to ``batch_ops`` operations each.  The batches
feed both assemblers: :meth:`repro.core.compiled.ir.CompiledHistoryBuilder.add_batch`
bulk-interns whole columns into the compiled IR (``load_compiled``, ``awdit
check`` and ``--stream``), and ``load_history`` turns each record into a
:class:`~repro.core.model.Transaction` with :func:`transaction_from_raw`
(the object engine, the baselines and ``awdit convert``).

:meth:`RecordBatch.iter_records` gives the per-record view: ``(session_id,
raw)`` pairs where ``raw`` is a :data:`RawTransaction` (``(label,
committed, ops)`` with plain ``(is_write, key, value)`` operation tuples).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from repro.core.model import Operation, OpKind, Transaction

__all__ = [
    "DEFAULT_BATCH_OPS",
    "RawOps",
    "RawTransaction",
    "RecordBatch",
    "transaction_from_raw",
]

#: ``(is_write, key, value)`` per operation, in program order.
RawOps = List[Tuple[bool, object, object]]

#: ``(label, committed, ops)``.
RawTransaction = Tuple[Optional[str], bool, RawOps]

#: Default operations per :class:`RecordBatch`.  Large enough to amortize
#: per-batch dispatch to nothing, small enough that one in-flight batch stays
#: trivially within the streaming memory bound.
DEFAULT_BATCH_OPS = 4096


class RecordBatch:
    """A columnar slice of parsed history records.

    Operations live in three parallel columns (``kinds``/``keys``/``values``,
    one entry per op, file order); records live in five parallel columns
    (``txn_session``/``txn_labels``/``txn_committed``/``txn_line``/
    ``txn_end``).  Record ``t`` owns the operation rows
    ``txn_end[t-1]:txn_end[t]`` (``txn_end`` is cumulative, ``txn_end[-1]``
    is the total op count).  ``txn_line`` records each record's source line
    (0 when the producer has no line numbers).
    """

    __slots__ = (
        "kinds",
        "keys",
        "values",
        "txn_end",
        "txn_session",
        "txn_labels",
        "txn_committed",
        "txn_line",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()  # 1 = write, 0 = read
        self.keys: List[object] = []
        self.values: List[object] = []
        self.txn_end = array("q")
        self.txn_session: List[object] = []
        self.txn_labels: List[Optional[str]] = []
        self.txn_committed = bytearray()
        self.txn_line = array("q")

    @property
    def num_records(self) -> int:
        """Number of records (transactions) in the batch."""
        return len(self.txn_end)

    @property
    def num_ops(self) -> int:
        """Number of operations in the batch."""
        return len(self.kinds)

    def __len__(self) -> int:
        return len(self.txn_end)

    def add_record(
        self,
        session: object,
        label: Optional[str],
        committed: bool,
        ops: RawOps,
        line: int = 0,
    ) -> None:
        """Append one raw record (the tuple-shaped producer surface)."""
        kinds = self.kinds
        keys = self.keys
        values = self.values
        for is_write, key, value in ops:
            kinds.append(1 if is_write else 0)
            keys.append(key)
            values.append(value)
        self.txn_session.append(session)
        self.txn_labels.append(label)
        self.txn_committed.append(1 if committed else 0)
        self.txn_line.append(line)
        self.txn_end.append(len(kinds))

    def full(self, batch_ops: int) -> bool:
        """Whether the batch has reached the flush threshold.

        Counted in operations, with a record-count backstop so batches of
        empty transactions still flush (``batch_ops=1`` must yield one
        record per batch even when records carry no ops).
        """
        return len(self.kinds) >= batch_ops or len(self.txn_end) >= batch_ops

    def iter_records(self) -> Iterator[Tuple[object, RawTransaction]]:
        """Yield the records back as ``(session, (label, committed, ops))``.

        The per-record view of the columns, with plain ``(is_write, key,
        value)`` operation tuples: what ``load_history`` and
        ``stream_raw_history`` (:mod:`repro.histories.formats`) read.
        """
        kinds = self.kinds
        keys = self.keys
        values = self.values
        lo = 0
        for t, hi in enumerate(self.txn_end):
            ops = [
                (bool(kinds[i]), keys[i], values[i]) for i in range(lo, hi)
            ]
            yield self.txn_session[t], (
                self.txn_labels[t],
                bool(self.txn_committed[t]),
                ops,
            )
            lo = hi

    def tail(self, skip: int) -> "RecordBatch":
        """The batch without its first ``skip`` records (checkpoint resume).

        Columns are sliced, not copied record by record; ``skip`` larger
        than the batch returns an empty batch.
        """
        if skip <= 0:
            return self
        if skip >= len(self.txn_end):
            return RecordBatch()
        cut = self.txn_end[skip - 1]
        out = RecordBatch()
        out.kinds = self.kinds[cut:]
        out.keys = self.keys[cut:]
        out.values = self.values[cut:]
        out.txn_end = array("q", (end - cut for end in self.txn_end[skip:]))
        out.txn_session = self.txn_session[skip:]
        out.txn_labels = self.txn_labels[skip:]
        out.txn_committed = self.txn_committed[skip:]
        out.txn_line = self.txn_line[skip:]
        return out


def transaction_from_raw(raw: RawTransaction) -> Transaction:
    """Materialize a :class:`Transaction` from a raw record."""
    label, committed, ops = raw
    return Transaction(
        [
            Operation(OpKind.WRITE if is_write else OpKind.READ, key, value)
            for is_write, key, value in ops
        ],
        committed=committed,
        label=label,
    )
