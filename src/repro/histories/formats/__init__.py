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

:func:`load_history` / :func:`save_history` dispatch on a format name or on
the file extension.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, Optional, Tuple

from repro.core.compiled import CompiledHistory, CompiledHistoryBuilder
from repro.core.exceptions import ParseError, UsageError
from repro.core.model import History, Transaction
from repro.histories.formats import cobra, dbcop, native, plume_text
from repro.histories.formats._raw import RawTransaction, RecordBatch

__all__ = [
    "load_history",
    "load_compiled",
    "save_history",
    "session_gaps",
    "stream_history",
    "stream_raw_batches",
    "stream_raw_history",
    "FORMATS",
    "detect_format",
]

FORMATS: Dict[str, object] = {
    "native": native,
    "json": native,
    "plume": plume_text,
    "dbcop": dbcop,
    "cobra": cobra,
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
    return FORMATS[name]


def _decode_error(path: str, exc: UnicodeDecodeError) -> ParseError:
    """The :class:`ParseError` for a history file that is not UTF-8 text."""
    byte = exc.object[exc.start]
    return ParseError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})")


def load_history(path: str, fmt: Optional[str] = None) -> History:
    """Load a history from ``path`` in the given (or detected) format."""
    module = _module_for(fmt, path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc
    return module.loads(text)  # type: ignore[attr-defined]


def save_history(history: History, path: str, fmt: Optional[str] = None) -> None:
    """Save a history to ``path`` in the given (or detected) format."""
    module = _module_for(fmt, path)
    text = module.dumps(history)  # type: ignore[attr-defined]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def stream_history(
    path: str, fmt: Optional[str] = None
) -> Iterator[Tuple[int, Transaction]]:
    """Iterate ``(session_id, transaction)`` pairs from ``path``, one pass.

    Unlike :func:`load_history`, the file is parsed incrementally and the
    history is never materialized; memory stays proportional to one
    transaction (plus the parser's sliding buffer).  Feed the pairs to
    :meth:`repro.stream.CompiledIncrementalChecker.append` to check a log
    without materializing it.
    Parse failures carry the file path next to the parser's line context.
    """
    module = _module_for(fmt, path)
    # newline="" keeps the csv-based cobra parser happy; harmless elsewhere.
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            for item in module.stream(handle):  # type: ignore[attr-defined]
                yield item
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc


def stream_raw_history(
    path: str, fmt: Optional[str] = None
) -> Iterator[Tuple[int, RawTransaction]]:
    """Iterate raw ``(session_id, (label, committed, ops))`` records from ``path``.

    The allocation-light sibling of :func:`stream_history`: operations are
    plain tuples, so no model objects are created at all.  This is the
    ingestion path of :func:`load_compiled`.
    """
    module = _module_for(fmt, path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            for item in module.stream_ops(handle):  # type: ignore[attr-defined]
                yield item
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc


def stream_raw_batches(
    path: str, fmt: Optional[str] = None, batch_ops: Optional[int] = None
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns from ``path``, one pass.

    The columnar sibling of :func:`stream_raw_history` and the ingestion
    path of every compiled consumer: each batch covers up to ``batch_ops``
    operations (``None`` = the formats' default) in flat parallel columns,
    ready for bulk interning.  Parse failures carry the file path next to
    the parser's line context.
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

    The batch loaders' session convention: the JSON and cobra formats keep
    a session that has no transactions, so their IR fills the gaps in the
    integer ids; plume does not.  :func:`load_compiled` and ``awdit check
    --stream`` both finish their :class:`CompiledHistoryBuilder` with it,
    so both number sessions, and print witnesses, alike.
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
    batch, not the object graph.  The result is identical to
    ``compile_history(load_history(path))`` up to trailing empty sessions
    (which a one-pass parse cannot observe).

    ``timings`` (for ``awdit check --profile``) receives separate ``parse``
    and ``build`` wall seconds, measured per batch around the generator
    pull and the builder's ``add_batch`` -- no materialization needed.
    ``batch_ops`` tunes the operations per batch (``--batch-ops``).
    """
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
