"""A CSV-like operation-per-line format in the style of Cobra's logs.

Each line records one operation::

    session,txn_index,op,key,value,committed
    0,0,W,x,1,1
    0,0,W,y,1,1
    1,0,R,x,1,1

``txn_index`` is the transaction's position within its session; consecutive
lines with the same ``(session, txn_index)`` pair belong to the same
transaction, in program order.  ``committed`` is ``1`` or ``0`` (``true`` /
``True`` and ``false`` / ``False`` are accepted too; anything else is a parse
error) and must be consistent across the lines of one transaction.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.exceptions import ParseError
from repro.core.model import History
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RawOps, RecordBatch

__all__ = ["dumps", "stream_batches"]

#: Missing integer session ids denote empty sessions: a history has
#: ``max(session) + 1`` of them.
COMPILED_SESSION_GAPS = True

_HEADER = ["session", "txn_index", "op", "key", "value", "committed"]

#: Accepted spellings of the ``committed`` column; anything else is an error.
_COMMITTED = ("1", "true", "True")
_ABORTED = ("0", "false", "False")


def _parse_row(line_number: int, row: List[str]) -> Tuple[int, int, bool, str, object, bool]:
    """Parse one data row into ``(session, txn_index, is_write, key, value, committed)``."""
    if len(row) != 6:
        raise ParseError(f"line {line_number}: expected 6 columns, got {len(row)}")
    try:
        sid = int(row[0])
        txn_index = int(row[1])
    except ValueError as exc:
        raise ParseError(f"line {line_number}: bad session/txn index") from exc
    if sid < 0:
        # Session ids number the history's sessions from 0 (gaps are
        # empty sessions), so a negative one has no place in it.
        raise ParseError(f"line {line_number}: negative session id {sid}")
    kind = row[2].strip()
    if kind not in ("R", "W"):
        raise ParseError(f"line {line_number}: op must be R or W, got {kind!r}")
    key = row[3]
    raw_value = row[4]
    try:
        value: object = int(raw_value)
    except ValueError:
        value = raw_value
    flag = row[5].strip()
    if flag in _COMMITTED:
        is_committed = True
    elif flag in _ABORTED:
        is_committed = False
    else:
        raise ParseError(f"line {line_number}: committed must be 1 or 0, got {flag!r}")
    return sid, txn_index, kind == "W", key, value, is_committed


def stream_batches(
    handle: Iterable[str], batch_ops: Optional[int] = None
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns of up to ``batch_ops`` operations.

    The format's one parser, read by every loader.  Consecutive rows with
    the same ``(session, txn_index)`` pair form one transaction; a
    transaction's rows must be contiguous and its per-session indices
    strictly increasing across transactions (files written by :func:`dumps`
    always are), so interleaved rows and an index that goes backwards are
    rejected.  A repeated index is rejected as a duplicate transaction id.
    A transaction lands in a batch only once its last row is seen, so
    memory stays bounded by one batch plus one open transaction plus one
    index per session.
    """
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    if batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    current: Optional[Tuple[int, int]] = None
    current_line = 0
    ops: RawOps = []
    committed = True
    before_first_row = True
    last_index: Dict[int, int] = {}
    batch = RecordBatch()
    for line_number, row in enumerate(csv.reader(handle), start=1):
        if not row:
            continue
        if before_first_row:
            before_first_row = False
            if [cell.strip() for cell in row] == _HEADER:
                continue
        sid, txn_index, is_write, key, value, is_committed = _parse_row(line_number, row)
        ident = (sid, txn_index)
        if ident != current:
            if current is not None:
                batch.add_record(current[0], None, committed, ops, line=current_line)
                if batch.full(batch_ops):
                    yield batch
                    batch = RecordBatch()
            # A repeated or smaller index means rows of an already-emitted
            # transaction turned up again (a duplicate transaction id, or
            # rows that are non-contiguous / out of order).
            previous_index = last_index.get(sid)
            if previous_index is not None and previous_index >= txn_index:
                raise ParseError(
                    f"line {line_number}: rows of session {sid} are not "
                    f"contiguous per transaction (saw txn index {txn_index} "
                    f"after {previous_index})"
                )
            if txn_index < 0:
                raise ParseError(
                    f"line {line_number}: negative txn index {txn_index}"
                )
            last_index[sid] = txn_index
            current = ident
            current_line = line_number
            ops = []
            committed = is_committed
        elif committed != is_committed:
            raise ParseError(
                f"line {line_number}: inconsistent committed flag for transaction {ident}"
            )
        ops.append((is_write, key, value))
    if current is None:
        raise ParseError("history file contains no transactions")
    batch.add_record(current[0], None, committed, ops, line=current_line)
    yield batch


def dumps(history: History) -> str:
    """Serialize ``history`` to the CSV-like Cobra-style format."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_HEADER)
    for sid, session in enumerate(history.sessions):
        for index, tid in enumerate(session):
            txn = history.transactions[tid]
            for op in txn.operations:
                writer.writerow(
                    [sid, index, op.kind.value, op.key, op.value, int(txn.committed)]
                )
    return buffer.getvalue()
