"""A nested-JSON history format in the style of DBCop's histories.

DBCop stores a history as a list of sessions, each a list of transactions,
each a list of events with ``write``/``variable``/``value``/``success``
fields.  This module follows that shape::

    {
      "id": 0,
      "sessions": [
        [
          {"events": [{"write": true, "variable": "x", "value": 1, "success": true}],
           "success": true},
          ...
        ]
      ]
    }

``success`` on a transaction maps to committed/aborted; ``success`` on an
event is retained for compatibility but events with ``success: false`` are
dropped on load (they never reached the database).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, TextIO

from repro.core.exceptions import ParseError
from repro.histories.formats._jsonstream import iter_session_objects, require_scalar
from repro.histories.formats._raw import (
    DEFAULT_BATCH_OPS,
    RawOps,
    RawTransaction,
    RecordBatch,
)

if TYPE_CHECKING:
    from repro.core.model import History

__all__ = ["dumps", "stream_batches"]

#: Missing integer session ids denote empty sessions (positional format).
COMPILED_SESSION_GAPS = True


def _raw_from_doc(txn_doc: object) -> RawTransaction:
    """Convert one DBCop transaction document to a raw record.

    Malformed events (a non-object, or one missing ``variable``/``value``)
    raise :class:`ParseError` rather than leaking ``KeyError``/``TypeError``
    from a truncated or hand-edited capture.
    """
    if not isinstance(txn_doc, dict):
        raise ParseError(f"each transaction must be an object, got {txn_doc!r}")
    events = txn_doc.get("events", [])
    if not isinstance(events, list):
        raise ParseError(f"'events' must be a list, got {events!r}")
    ops: RawOps = []
    for event in events:
        if not isinstance(event, dict):
            raise ParseError(f"each event must be an object, got {event!r}")
        if not event.get("success", True):
            continue
        if "variable" not in event or "value" not in event:
            raise ParseError(f"event missing 'variable'/'value' field: {event!r}")
        require_scalar("event 'variable'", event["variable"])
        require_scalar("event 'value'", event["value"])
        ops.append((bool(event.get("write")), event["variable"], event["value"]))
    return None, bool(txn_doc.get("success", True)), ops


def stream_batches(
    handle: TextIO, batch_ops: Optional[int] = None
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns of up to ``batch_ops`` operations.

    The format's one parser, read by every loader: transaction documents
    are decoded one at a time from the sliding JSON buffer and accumulated
    into flat batch columns.  A malformed document raises immediately with
    its line context; the partially-filled batch is discarded, never
    yielded.
    """
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    if batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    batch = RecordBatch()
    for sid, txn_doc, line in iter_session_objects(handle):
        try:
            label, committed, ops = _raw_from_doc(txn_doc)
        except ParseError as exc:
            raise ParseError(f"line {line}: {exc}") from exc
        batch.add_record(sid, label, committed, ops)
        if batch.full(batch_ops):
            yield batch
            batch = RecordBatch()
    if len(batch.txn_end):
        yield batch


def dumps(history: History) -> str:
    """Serialize ``history`` to DBCop-style JSON."""
    sessions: List[List[Dict[str, Any]]] = []
    for session in history.sessions:
        rendered: List[Dict[str, Any]] = []
        for tid in session:
            txn = history.transactions[tid]
            events = [
                {
                    "write": op.is_write,
                    "variable": op.key,
                    "value": op.value,
                    "success": True,
                }
                for op in txn.operations
            ]
            rendered.append({"events": events, "success": txn.committed})
        sessions.append(rendered)
    return json.dumps({"id": 0, "sessions": sessions}, indent=2)
