"""On-disk history formats.

The AWDIT tool of the paper parses histories in the formats used by other
isolation testers (Plume, PolySI, DBCop, Cobra).  The exact external formats
are tied to those tools' artifacts; this package provides four formats with
the same flavour and information content, all loss-lessly round-tripping the
:class:`~repro.core.model.History` model:

* ``native`` -- a JSON document (:mod:`repro.histories.formats.native`).
* ``plume`` -- a line-oriented text format with one transaction per line,
  in the style of Plume's text histories
  (:mod:`repro.histories.formats.plume_text`).
* ``dbcop`` -- a nested-JSON format in the style of DBCop's histories
  (:mod:`repro.histories.formats.dbcop`).
* ``cobra`` -- a CSV-like operation-per-line format in the style of Cobra's
  logs (:mod:`repro.histories.formats.cobra`).

A format module is ``dumps`` (the writer), ``stream_batches`` (its one
parser, yielding columnar :class:`~repro.histories.formats._raw.RecordBatch`
objects) and ``COMPILED_SESSION_GAPS`` (its session convention).  Every
reader goes through that parser via :func:`stream_raw_batches`:
:func:`load_compiled` builds the IR, :func:`load_history` assembles the
object :class:`~repro.core.model.History`, and both number sessions by
:func:`~repro.core.compiled.ir.session_order`, so the compiled and object
engines, the baselines and ``awdit convert`` all read one history, or refuse
one file with one message.  :func:`load_history` / :func:`save_history`
dispatch on a format name or on the file extension.

Importing this package loads no format module and no part of the IR or the
object model: :data:`FORMATS` holds module *names*, so the CLI's parser can
list the formats for free.  A load or save imports the one format module it
reads or writes, and :func:`load_compiled` / :func:`load_history` import
the builder or the model when they are called.
"""

from __future__ import annotations

import importlib
import os
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.core.exceptions import ParseError, UsageError

if TYPE_CHECKING:
    from repro.core.compiled.ir import CompiledHistory
    from repro.core.model import History, Transaction
    from repro.histories.formats._raw import RecordBatch

__all__ = [
    "load_history",
    "load_compiled",
    "save_history",
    "session_gaps",
    "stream_raw_batches",
    "FORMATS",
    "detect_format",
]

#: Format name -> the submodule that reads and writes it, imported by the
#: first load or save in that format.
FORMATS: Dict[str, str] = {
    "native": "native",
    "json": "native",
    "plume": "plume_text",
    "dbcop": "dbcop",
    "cobra": "cobra",
}

_EXTENSIONS = {
    ".json": "native",
    ".plume": "plume",
    ".txt": "plume",
    ".dbcop": "dbcop",
    ".cobra": "cobra",
    ".csv": "cobra",
}


def detect_format(path: str) -> str:
    """Guess the format name from a file extension."""
    _, ext = os.path.splitext(path)
    if ext.lower() in _EXTENSIONS:
        return _EXTENSIONS[ext.lower()]
    raise UsageError(f"cannot detect history format from extension {ext!r}")


def _module_for(fmt: Optional[str], path: str):
    name = fmt or detect_format(path)
    if name not in FORMATS:
        raise UsageError(f"unknown history format {name!r}; known: {sorted(FORMATS)}")
    return importlib.import_module(f"{__name__}.{FORMATS[name]}")


def _decode_error(path: str, exc: UnicodeDecodeError) -> ParseError:
    """The :class:`ParseError` for a history file that is not UTF-8 text."""
    byte = exc.object[exc.start]
    return ParseError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})")


def load_history(
    path: str, fmt: Optional[str] = None, batch_ops: Optional[int] = None
) -> History:
    """Load a history from ``path`` in the given (or detected) format.

    The object-model twin of :func:`load_compiled`: the same record batches
    (:func:`stream_raw_batches`, ``batch_ops`` operations each; the history
    is identical for any value) are assembled into transactions, and
    sessions are numbered by the same
    :func:`~repro.core.compiled.ir.session_order` rule, so both loaders
    read one history and refuse one file with one message.
    """
    from repro.core.compiled.ir import session_order
    from repro.core.model import History
    from repro.histories.formats._raw import batch_transactions

    sessions: Dict[object, List[Transaction]] = {}
    for batch in stream_raw_batches(path, fmt, batch_ops=batch_ops):
        for session, txn in batch_transactions(batch):
            sessions.setdefault(session, []).append(txn)
    order = session_order(sessions, session_gaps(path, fmt))
    return History.from_sessions([sessions.get(session, []) for session in order])


def save_history(history: History, path: str, fmt: Optional[str] = None) -> None:
    """Save a history to ``path`` in the given (or detected) format."""
    module = _module_for(fmt, path)
    text = module.dumps(history)  # type: ignore[attr-defined]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def stream_raw_batches(
    path: str, fmt: Optional[str] = None, batch_ops: Optional[int] = None
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns from ``path``, one pass.

    The ingestion path of every reader -- :func:`load_compiled`,
    :func:`load_history` and ``awdit check --stream``: each batch covers up
    to ``batch_ops`` operations (``None`` = the formats' default) in flat
    parallel columns, ready for bulk interning.  Parse failures carry the
    file path next to the parser's line context.
    """
    module = _module_for(fmt, path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            for batch in module.stream_batches(  # type: ignore[attr-defined]
                handle, batch_ops=batch_ops
            ):
                yield batch
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc


def session_gaps(path: str, fmt: Optional[str] = None) -> bool:
    """Whether the IR of ``path`` gets an empty session per missing integer id.

    The loaders' session convention: the JSON and cobra formats keep a
    session that has no transactions, so their histories fill the gaps in
    the integer ids; plume does not.  :func:`load_history`,
    :func:`load_compiled` and ``awdit check --stream`` all pass it to
    :func:`~repro.core.compiled.ir.session_order`, so all number sessions,
    and print witnesses, alike.  A trailing empty session leaves no record
    in the file's batches, so no reader sees it.
    """
    return getattr(_module_for(fmt, path), "COMPILED_SESSION_GAPS", False)


def load_compiled(
    path: str,
    fmt: Optional[str] = None,
    timings: Optional[Dict[str, float]] = None,
    batch_ops: Optional[int] = None,
) -> CompiledHistory:
    """Load ``path`` directly into a :class:`CompiledHistory`.

    The file is parsed with the columnar record-batch layer and compiled on
    the fly, skipping ``Operation``/``Transaction`` objects entirely: peak
    memory is the compiled arrays plus the intern tables plus one in-flight
    batch, not the object graph.  It holds the history
    ``load_history(path)`` holds: both read the same batches and number
    sessions alike.

    ``timings`` (for ``awdit check --profile``) receives separate ``parse``
    and ``build`` wall seconds, measured per batch around the generator
    pull and the builder's ``add_batch`` -- no materialization needed.
    ``batch_ops`` tunes the operations per batch (``--batch-ops``).
    """
    from repro.core.compiled.ir import CompiledHistoryBuilder

    builder = CompiledHistoryBuilder()
    if timings is None:
        for batch in stream_raw_batches(path, fmt, batch_ops=batch_ops):
            builder.add_batch(batch)
    else:
        import time

        parse_lap = 0.0
        build_lap = 0.0
        batches = stream_raw_batches(path, fmt, batch_ops=batch_ops)
        while True:
            start = time.perf_counter()
            batch = next(batches, None)
            parse_lap += time.perf_counter() - start
            if batch is None:
                break
            start = time.perf_counter()
            builder.add_batch(batch)
            build_lap += time.perf_counter() - start
        timings["parse"] = parse_lap
        start = time.perf_counter()
    compiled = builder.finalize(fill_gaps=session_gaps(path, fmt))
    if timings is not None:
        timings["build"] = build_lap + time.perf_counter() - start
    return compiled
