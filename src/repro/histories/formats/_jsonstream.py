"""Incremental parsing support for the JSON-based history formats.

Both the native and the DBCop-style formats store a history as a JSON object
whose ``"sessions"`` field is a list of sessions, each a list of transaction
objects.  :func:`iter_session_objects` walks that structure directly off a
file handle, decoding one transaction object at a time with
:meth:`json.JSONDecoder.raw_decode` over a bounded sliding buffer, so
multi-gigabyte histories never need to be resident in memory.
:func:`require_scalar` is the check both formats apply to operation keys
and values.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator, Optional, TextIO, Tuple

from repro.core.exceptions import ParseError

__all__ = ["iter_session_objects", "require_scalar"]

_WHITESPACE = " \t\r\n"


def require_scalar(what: str, value: object) -> None:
    """Raise :class:`ParseError` unless ``value`` is a JSON scalar.

    Keys and values are interned and hashed downstream, so an array or
    object there must be rejected as malformed input, not left to fail as a
    ``TypeError`` deep inside a checker.
    """
    if value is not None and not isinstance(value, (str, int, float)):
        kind = "an array" if isinstance(value, list) else "an object"
        raise ParseError(
            f"{what} must be a JSON string, number, boolean or null, got {kind}"
        )


class _Cursor:
    """A sliding window over a text stream with JSON-value decoding.

    The cursor tracks the 1-based line number of its position so parse errors
    can carry line context even though the consumed prefix is discarded.
    """

    def __init__(self, handle: TextIO, chunk_size: int = 1 << 16) -> None:
        self._handle = handle
        self._chunk_size = chunk_size
        self.buffer = ""
        self.pos = 0
        self.eof = False
        self._decoder = json.JSONDecoder()
        # Newlines are counted incrementally: `_counted_lines` covers every
        # dropped prefix plus ``buffer[:_counted_pos]``.  ``pos`` only moves
        # forward between fills, so each character is scanned at most once no
        # matter how often ``line`` is queried (it is read per transaction).
        self._counted_pos = 0
        self._counted_lines = 0

    @property
    def line(self) -> int:
        """1-based line number of the current position."""
        if self.pos > self._counted_pos:
            self._counted_lines += self.buffer.count("\n", self._counted_pos, self.pos)
            self._counted_pos = self.pos
        return self._counted_lines + 1

    def _fill(self) -> bool:
        """Read one more chunk; drop the consumed prefix to bound memory."""
        if self.eof:
            return False
        if self.pos > 0:
            if self.pos > self._counted_pos:
                self._counted_lines += self.buffer.count(
                    "\n", self._counted_pos, self.pos
                )
            self.buffer = self.buffer[self.pos :]
            self.pos = 0
            self._counted_pos = 0
        chunk = self._handle.read(self._chunk_size)
        if not chunk:
            self.eof = True
            return False
        self.buffer += chunk
        return True

    def peek(self) -> str:
        """The next non-whitespace character, or ``""`` at end of input."""
        while True:
            while self.pos < len(self.buffer) and self.buffer[self.pos] in _WHITESPACE:
                self.pos += 1
            if self.pos < len(self.buffer):
                return self.buffer[self.pos]
            if not self._fill():
                return ""

    def expect(self, wanted: str) -> None:
        found = self.peek()
        if found != wanted:
            at = found if found else "end of input"
            raise ParseError(f"line {self.line}: expected {wanted!r}, found {at!r}")
        self.pos += 1

    def decode_value(self) -> object:
        """Decode one JSON value at the cursor, reading more input as needed."""
        self.peek()  # position on the first value character
        while True:
            try:
                value, end = self._decoder.raw_decode(self.buffer, self.pos)
            except RecursionError as exc:
                raise ParseError(f"line {self.line}: JSON nested too deeply") from exc
            except json.JSONDecodeError as exc:
                # The buffer may simply end mid-value; retry with more input
                # and only report a real syntax error (or mid-record EOF) at
                # end of input.
                if self._fill():
                    continue
                raise ParseError(f"line {self.line}: invalid JSON: {exc}") from exc
            if end == len(self.buffer) and not self.eof:
                # A scalar at the buffer boundary (`12` vs `123`) may be a
                # prefix of the real value; delimited values are complete.
                head = self.buffer[self.pos] if self.pos < len(self.buffer) else ""
                if head not in "{[\"" and self._fill():
                    continue
            self.pos = end
            return value


def iter_session_objects(
    handle: TextIO,
    on_header: Optional[Callable[[str, object], None]] = None,
) -> Iterator[Tuple[int, object, int]]:
    """Yield ``(session_index, transaction_object, line)`` triples incrementally.

    Walks ``{..., "sessions": [[obj, ...], ...], ...}``; every top-level
    field other than ``"sessions"`` is decoded whole and reported through
    ``on_header`` (e.g. to validate a format marker).  ``line`` is the
    1-based line the transaction object starts on, for error context.  A
    document whose sessions hold no transaction at all is rejected, as the
    line-based formats reject an empty file: a truncated capture must not
    pass as consistent.
    """
    cursor = _Cursor(handle)
    cursor.expect("{")
    seen_sessions = False
    empty = True
    if cursor.peek() == "}":
        cursor.pos += 1
    else:
        while True:
            key = cursor.decode_value()
            if not isinstance(key, str):
                raise ParseError(f"object keys must be strings, got {key!r}")
            cursor.expect(":")
            if key == "sessions":
                if seen_sessions:
                    raise ParseError("duplicate 'sessions' field")
                seen_sessions = True
                for item in _iter_sessions(cursor):
                    empty = False
                    yield item
            else:
                value = cursor.decode_value()
                if on_header is not None:
                    on_header(key, value)
            token = cursor.peek()
            if token == ",":
                cursor.pos += 1
                continue
            cursor.expect("}")
            break
    if not seen_sessions:
        raise ParseError("expected a JSON object with a 'sessions' field")
    trailing = cursor.peek()
    if trailing != "":
        # A concatenated or rewritten capture must not pass as a valid
        # history: nothing may follow the history object.
        raise ParseError(f"unexpected trailing data after history object: {trailing!r}")
    if empty:
        raise ParseError("history file contains no transactions")


def _iter_sessions(cursor: _Cursor) -> Iterator[Tuple[int, object, int]]:
    cursor.expect("[")
    if cursor.peek() == "]":
        cursor.pos += 1
        return
    sid = 0
    while True:
        cursor.expect("[")
        if cursor.peek() == "]":
            cursor.pos += 1
        else:
            while True:
                cursor.peek()  # land on the object start for line reporting
                line = cursor.line
                yield sid, cursor.decode_value(), line
                token = cursor.peek()
                if token == ",":
                    cursor.pos += 1
                    continue
                cursor.expect("]")
                break
        sid += 1
        token = cursor.peek()
        if token == ",":
            cursor.pos += 1
            continue
        cursor.expect("]")
        break
