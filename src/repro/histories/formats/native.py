"""The native JSON history format.

A history is a JSON object::

    {
      "format": "awdit-native",
      "version": 1,
      "sessions": [
        [
          {"label": "t1", "committed": true,
           "ops": [["W", "x", 1], ["R", "y", 2]]},
          ...
        ],
        ...
      ]
    }

The write-read relation is not stored: it is re-inferred from the
unique-writes convention on load, exactly as the black-box testing setting of
the paper assumes.  Values may be any JSON scalar.
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

FORMAT_NAME = "awdit-native"
FORMAT_VERSION = 1

#: Missing integer session ids denote empty sessions (positional format).
COMPILED_SESSION_GAPS = True


def _raw_from_doc(txn_doc: object) -> RawTransaction:
    """Convert one transaction document to a raw record (no model objects)."""
    if not isinstance(txn_doc, dict) or "ops" not in txn_doc:
        raise ParseError("each transaction must be an object with an 'ops' field")
    ops_doc = txn_doc["ops"]
    if not isinstance(ops_doc, list):
        raise ParseError(f"'ops' must be a list of operations, got {ops_doc!r}")
    ops: RawOps = []
    for op_doc in ops_doc:
        if not (isinstance(op_doc, list) and len(op_doc) == 3):
            raise ParseError(f"malformed operation {op_doc!r}")
        kind, key, value = op_doc
        if kind not in ("R", "W"):
            raise ParseError(f"operation kind must be 'R' or 'W', got {kind!r}")
        require_scalar("operation key", key)
        require_scalar("operation value", value)
        ops.append((kind == "W", key, value))
    return txn_doc.get("label"), bool(txn_doc.get("committed", True)), ops


def stream_batches(
    handle: TextIO, batch_ops: Optional[int] = None
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns of up to ``batch_ops`` operations.

    The format's one parser, read by every loader: transaction documents
    are decoded one at a time from the sliding JSON buffer and accumulated
    into flat batch columns, so the consumers can bulk-intern them.  A
    malformed document raises immediately with its line context; the
    partially-filled batch is discarded, never yielded.
    """
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    if batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")

    def check_header(key: str, value: object) -> None:
        if key == "format" and value not in (None, FORMAT_NAME):
            raise ParseError(f"unexpected format marker {value!r}")

    batch = RecordBatch()
    for sid, txn_doc, line in iter_session_objects(handle, on_header=check_header):
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
    """Serialize ``history`` to a JSON string."""
    sessions: List[List[Dict[str, Any]]] = []
    for session in history.sessions:
        rendered: List[Dict[str, Any]] = []
        for tid in session:
            txn = history.transactions[tid]
            rendered.append(
                {
                    "label": txn.label,
                    "committed": txn.committed,
                    "ops": [[op.kind.value, op.key, op.value] for op in txn.operations],
                }
            )
        sessions.append(rendered)
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "sessions": sessions,
    }
    return json.dumps(document, indent=2)
