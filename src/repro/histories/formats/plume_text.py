"""A line-oriented text format in the style of Plume's history files.

One transaction per line::

    # comments and blank lines are ignored
    session=0 txn=t1 committed ops= W(x,1) W(y,1)
    session=1 txn=t2 committed ops= R(x,1) W(x,2)
    session=1 txn=t3 aborted   ops= W(z,9)

Transactions appear in session order within each session (lines of the same
session are taken in file order).  Values are parsed as integers when
possible and kept as strings otherwise.

The parser reads a block of lines at a time.  A block whose record lines
all have the shape :func:`dumps` writes -- one space or tab between the
fields, and keys and values with no whitespace, comma or parenthesis -- is
parsed by a few whole-block regex and string calls (:func:`_parse_block`).
Any other block goes to the per-line parser (:func:`_parse_line_into`),
which accepts every such line alike and raises every error with its line
number, so the block parse changes no accepted file and no message.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.exceptions import ParseError
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RecordBatch

if TYPE_CHECKING:
    from repro.core.model import History

__all__ = ["dumps", "stream_batches"]

#: Sparse session ids are compacted, not filled: sessions 0 and 5 make a
#: two-session history.
COMPILED_SESSION_GAPS = False

#: Lines per block, at most: ``min(batch_ops, _BLOCK_LINES)``.  256 parsed
#: the shipped histories as fast as 1,024 and faster than 64 or 4,096, and
#: a block with an unusual line sends at most this many lines to the
#: per-line parser.
_BLOCK_LINES = 256

_OP_PATTERN = re.compile(r"([RW])\(([^,()]+),([^()]*)\)")
_LINE_PATTERN = re.compile(
    r"session=(\d+)\s+txn=(\S+)\s+(committed|aborted)\s+ops=\s*(.*)"
)
#: Fast-path check: the whole ops field is well-formed operations and
#: whitespace, so the malformed-gap bookkeeping below can be skipped.
_OPS_WELL_FORMED = re.compile(r"\s*(?:[RW]\([^,()]+,[^()]*\)\s*)*\Z")

#: A block's record lines, one match per line.
_HEADER = re.compile(
    r"^session=(\d+)[ \t]+txn=(\S+)[ \t]+(committed|aborted)[ \t]+ops=(.*)$", re.M
)
#: A block's ops fields, joined by newlines, when every operation is
#: token-safe: then ``str.split`` cuts them into kind, key and value tokens.
#: Each quantified class stops at a character the next token must start
#: with, so a failed match backtracks in linear time without the possessive
#: quantifiers Python 3.9 and 3.10 lack.
_TOKEN_SAFE_OPS = re.compile(r"(?:[ \t\n]*[RW]\([^\s,()]+,[^\s,()]+\))*[ \t\n]*")
_PUNCTUATION = str.maketrans("(),", "   ")
_WRITE_FLAGS = bytes.maketrans(b"RW", b"\x00\x01")

#: A parsed block: per-record sessions, labels, committed flags and op
#: counts, then the kinds, keys and values of all its operations.
_Block = Tuple[List[int], Tuple[str, ...], bytes, List[int], bytes, List[str], list]


def _render_value(value: object) -> str:
    return str(value)


def _parse_value(text: str) -> object:
    # int() tolerates surrounding whitespace itself, so the common
    # integer-valued case skips the strip.
    try:
        return int(text)
    except ValueError:
        return text.strip()


def dumps(history: History, order: Optional[Iterable[int]] = None) -> str:
    """Serialize ``history`` to the line-oriented text format.

    Every line carries its ``session=`` tag, so interleaved files are
    expressible: ``order`` optionally lists the dense transaction ids in the
    file order to emit (e.g. an arrival order from the generator).
    Transactions of one session must stay in session order within ``order``
    (arrival orders always do).  The default is session-blocked order.
    """
    lines = ["# AWDIT reproduction history (plume-style text format)"]
    if order is None:
        order = (tid for session in history.sessions for tid in session)
    sid_of = [0] * len(history.transactions)
    for sid, session in enumerate(history.sessions):
        for tid in session:
            sid_of[tid] = sid
    for tid in order:
        txn = history.transactions[tid]
        ops = " ".join(
            f"{op.kind.value}({op.key},{_render_value(op.value)})"
            for op in txn.operations
        )
        status = "committed" if txn.committed else "aborted"
        label = txn.label if txn.label is not None else f"t{tid}"
        lines.append(f"session={sid_of[tid]} txn={label} {status} ops= {ops}")
    return "\n".join(lines) + "\n"


def _parse_line_into(batch: RecordBatch, line_number: int, raw_line: str) -> bool:
    """Parse one line straight into ``batch``'s columns.

    Returns ``False`` for comments and blank lines.  On a parse error the
    batch may hold a partially-appended record; the caller discards the
    whole batch on error, so no rollback is needed.
    """
    line = raw_line.strip()
    if not line or line.startswith("#"):
        return False
    match = _LINE_PATTERN.match(line)
    if match is None:
        raise ParseError(f"line {line_number}: cannot parse {line!r}")
    sid = int(match.group(1))
    ops_text = match.group(4)
    kinds = batch.kinds
    keys = batch.keys
    values = batch.values
    if _OPS_WELL_FORMED.match(ops_text):
        # Hot path: no gaps or truncation possible, so findall's C loop
        # replaces the per-match slicing below, and the operations land in
        # the batch columns with no per-op tuples at all.
        for kind, key, value in _OP_PATTERN.findall(ops_text):
            kinds.append(1 if kind == "W" else 0)
            keys.append(key.strip())
            values.append(_parse_value(value))
    else:
        # Anything between or after the matched operations is a malformed or
        # truncated operation (e.g. a mid-record EOF cutting `W(y,` off);
        # dropping it silently would pass a damaged capture as consistent.
        pos = 0
        appended = 0
        for op_match in _OP_PATTERN.finditer(ops_text):
            gap = ops_text[pos : op_match.start()].strip()
            if gap:
                raise ParseError(
                    f"line {line_number}: malformed or truncated operation {gap!r}"
                )
            kind, key, value = op_match.groups()
            kinds.append(1 if kind == "W" else 0)
            keys.append(key.strip())
            values.append(_parse_value(value))
            appended += 1
            pos = op_match.end()
        if ops_text.strip() and not appended:
            raise ParseError(
                f"line {line_number}: no operations parsed from {ops_text!r}"
            )
        leftover = ops_text[pos:].strip()
        if leftover:
            raise ParseError(
                f"line {line_number}: malformed or truncated operation {leftover!r}"
            )
    batch.txn_session.append(sid)
    batch.txn_labels.append(match.group(2))
    batch.txn_committed.append(1 if match.group(3) == "committed" else 0)
    batch.txn_end.append(len(kinds))
    return True


def _parse_block(lines: List[str], seen: Set[Tuple[int, str]]) -> Optional[_Block]:
    """The columns of a block of lines, or ``None`` to parse it line by line.

    Blank and ``#`` lines are dropped; every other line must match
    :data:`_HEADER`, the joined ops fields :data:`_TOKEN_SAFE_OPS`, and no
    ``(session, label)`` pair may repeat one in the block or in ``seen``,
    which the accepted block's pairs join.  A line with leading whitespace
    counts as a record line here and matches no header, so its block goes
    to the per-line parser, which reads it as that parser always has.
    """
    records = [line for line in lines if line[:1] not in "#\n"]
    headers = _HEADER.findall("\n".join(records))
    if len(headers) != len(records):
        return None
    if not headers:
        return [], (), b"", [], b"", [], []
    sids, labels, statuses, fields = zip(*headers)
    ops_text = "\n".join(fields)
    if _TOKEN_SAFE_OPS.fullmatch(ops_text) is None:
        return None
    sessions = list(map(int, sids))
    pairs = set(zip(sessions, labels))
    if len(pairs) != len(labels) or not seen.isdisjoint(pairs):
        return None
    seen |= pairs
    tokens = ops_text.translate(_PUNCTUATION).split()
    kinds = "".join(tokens[0::3]).encode().translate(_WRITE_FLAGS)
    try:
        values: list = list(map(int, tokens[2::3]))
    except ValueError:
        values = [_parse_value(value) for value in tokens[2::3]]
    committed = bytes(status == "committed" for status in statuses)
    counts = [field.count("(") for field in fields]
    return sessions, labels, committed, counts, kinds, tokens[1::3], values


def _fill(
    batch: RecordBatch, block: _Block, batch_ops: int
) -> Tuple[List[RecordBatch], RecordBatch]:
    """Append ``block``'s records to ``batch``: the full batches, and the open one.

    A batch is cut after the record that brings it to ``batch_ops``
    operations or records (:meth:`RecordBatch.full`), as the per-line loop
    cuts it.
    """
    sessions, labels, committed, counts, kinds, keys, values = block
    ends = list(accumulate(counts, initial=0))
    done: List[RecordBatch] = []
    start = 0
    while start < len(counts):
        # The record that fills the batch by operations, by records, or
        # the block's last record.
        room = batch_ops - len(batch.kinds)
        by_ops = bisect_left(ends, ends[start] + room, start + 1) - 1
        by_records = start + batch_ops - len(batch.txn_end) - 1
        stop = min(by_ops, by_records, len(counts) - 1) + 1
        lo, hi = ends[start], ends[stop]
        shift = len(batch.kinds) - lo
        batch.kinds += kinds[lo:hi]
        batch.keys += keys[lo:hi]
        batch.values += values[lo:hi]
        batch.txn_end.extend([end + shift for end in ends[start + 1 : stop + 1]])
        batch.txn_session += sessions[start:stop]
        batch.txn_labels += labels[start:stop]
        batch.txn_committed += committed[start:stop]
        if batch.full(batch_ops):
            done.append(batch)
            batch = RecordBatch()
        start = stop
    return done, batch


def stream_batches(
    handle: Iterable[str], batch_ops: Optional[int] = None
) -> Iterator[RecordBatch]:
    """Iterate :class:`RecordBatch` columns of up to ``batch_ops`` operations.

    The format's one parser, read by every loader.  One line is one
    transaction, so the parse is naturally one-pass; lines of one session
    must appear in session order (they always do in files written by
    :func:`dumps`).  A file with no transactions at all is rejected (a
    truncated capture must not pass as consistent), and a
    ``txn=`` id repeated within one session is rejected as a duplicate
    transaction id (memory cost: one ``(session, label)`` pair per
    transaction).  Errors surface with the offending line's context; the
    partially-filled batch holding earlier, well-formed records is
    discarded, never yielded.

    Lines are read ``min(batch_ops, 256)`` at a time, and batches are cut
    where a line-at-a-time loop would cut them, so the batches do not
    depend on the block parse.
    """
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    if batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    block_lines = min(batch_ops, _BLOCK_LINES)
    seen: Set[Tuple[int, str]] = set()
    batch = RecordBatch()
    lines_read = 0
    handle = iter(handle)
    while True:
        lines = list(islice(handle, block_lines))
        if not lines:
            break
        first_line = lines_read + 1
        lines_read += len(lines)
        block = _parse_block(lines, seen)
        if block is not None:
            done, batch = _fill(batch, block, batch_ops)
            yield from done
            continue
        for line_number, raw_line in enumerate(lines, first_line):
            if not _parse_line_into(batch, line_number, raw_line):
                continue
            pair = (batch.txn_session[-1], batch.txn_labels[-1])
            if pair in seen:
                raise ParseError(
                    f"line {line_number}: duplicate transaction id {pair[1]!r} "
                    f"in session {pair[0]}"
                )
            seen.add(pair)
            if batch.full(batch_ops):
                yield batch
                batch = RecordBatch()
    if len(batch.txn_end):
        yield batch
    if not seen:
        raise ParseError("history file contains no transactions")
