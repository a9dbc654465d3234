"""The plume parser's block path against the line-at-a-time loop it replaced.

``plume_text.stream_batches`` parses a block of lines at a time when every
record line in it has the shape ``dumps`` writes, and hands any other
block to the per-line parser with its real line numbers.  So it must yield
exactly the batches the old loop yielded (every column, batch boundaries
included) or raise exactly its ``ParseError``, whatever the file holds.
The old loop is kept here as the reference: :func:`per_line_batches`.
"""

import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ParseError
from repro.histories.formats import plume_text, stream_raw_batches
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RecordBatch
from repro.histories.generator import RandomHistoryConfig, generate_random_history

#: Single-record batches, a batch size whose blocks are 7 lines, the default.
BATCH_OPS = (1, 7, None)


def per_line_batches(handle, batch_ops=None):
    """The line-at-a-time loop ``stream_batches`` ran before it read blocks."""
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    empty = True
    seen_labels = {}
    batch = RecordBatch()
    for line_number, raw_line in enumerate(handle, start=1):
        if not plume_text._parse_line_into(batch, line_number, raw_line):
            continue
        sid = batch.txn_session[-1]
        label = batch.txn_labels[-1]
        session_labels = seen_labels.setdefault(sid, set())
        if label in session_labels:
            raise ParseError(
                f"line {line_number}: duplicate transaction id {label!r} "
                f"in session {sid}"
            )
        session_labels.add(label)
        empty = False
        if batch.full(batch_ops):
            yield batch
            batch = RecordBatch()
    if len(batch.txn_end):
        yield batch
    if empty:
        raise ParseError("history file contains no transactions")


def _columns(batch):
    return (
        bytes(batch.kinds),
        [(type(key), key) for key in batch.keys],
        [(type(value), value) for value in batch.values],
        list(batch.txn_end),
        list(batch.txn_session),
        list(batch.txn_labels),
        bytes(batch.txn_committed),
    )


def _outcome(parser, text, batch_ops):
    """Every batch's columns until the parse ends, and its error message."""
    batches = []
    try:
        for batch in parser(io.StringIO(text, newline=""), batch_ops):
            batches.append(_columns(batch))
    except ParseError as exc:
        return batches, str(exc)
    return batches, None


def _assert_same_as_per_line(text, batch_ops):
    want = _outcome(per_line_batches, text, batch_ops)
    got = _outcome(plume_text.stream_batches, text, batch_ops)
    assert got == want


#: The ways one line of a generated file departs from what ``dumps`` writes.
#: Each is either accepted by the per-line parser or refused by it.
HOSTILE = (
    "tab-separators",
    "vt-separators",
    "nbsp-separators",
    "crlf",
    "inner-space-key",
    "comma-value",
    "empty-value",
    "space-before-paren",
    "extra-paren",
    "value-outside",
    "comment",
    "indented-comment",
    "blank",
    "whitespace-line",
    "leading-whitespace",
    "trailing-whitespace",
    "garbage",
    "no-ops",
    "duplicate-label",
    "non-int-value",
)

_KEYS = st.sampled_from(["x", "y", "k:1", "w0:d1:ytd", "ключ", "=#"])
_VALUES = st.one_of(
    st.integers(-5, 10**6).map(str),
    st.sampled_from(["abc", "1.5", "+7", "1_000", "٣", "-0"]),
)


@st.composite
def plume_texts(draw):
    """A plume file: well-formed record lines with hostile ones mixed in."""
    lines = []
    labels = []
    # Files of mostly empty transactions fill batches by record count.
    max_ops = draw(st.sampled_from([0, 1, 6]))
    for index in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(HOSTILE)) if draw(st.integers(0, 5)) == 0 else None
        if kind == "comment":
            lines.append("# a comment (with, punctuation)")
            continue
        if kind == "indented-comment":
            lines.append("   # indented")
            continue
        if kind == "blank":
            lines.append("")
            continue
        if kind == "whitespace-line":
            lines.append(" \t ")
            continue
        if kind == "garbage":
            lines.append("this is not a history line")
            continue
        ops = [
            f"{draw(st.sampled_from('RW'))}({draw(_KEYS)},{draw(_VALUES)})"
            for _ in range(draw(st.integers(0, max_ops)))
        ]
        if kind == "inner-space-key":
            ops.append("W(my key,1)")
        elif kind == "comma-value":
            ops.append("W(x,1,2)")
        elif kind == "empty-value":
            ops.append("W(x,)")
        elif kind == "space-before-paren":
            ops.append("W (x,1)")
        elif kind == "extra-paren":
            ops.append("W(x,1))")
        elif kind == "value-outside":
            ops.append("W(a)1,")
        elif kind == "non-int-value":
            ops.append("R(x,not-an-int)")
        label = f"t{index}"
        if kind == "duplicate-label" and labels:
            label = draw(st.sampled_from(labels))
        labels.append(label)
        sep = {"tab-separators": "\t", "vt-separators": "\x0b", "nbsp-separators": "\xa0"}
        sep = sep.get(kind, " ")
        status = draw(st.sampled_from(["committed", "aborted"]))
        session = draw(st.integers(0, 3))
        body = "" if kind == "no-ops" else " ".join(ops)
        line = f"session={session}{sep}txn={label}{sep}{status}{sep}ops={sep}{body}"
        if kind == "leading-whitespace":
            line = "  " + line
        elif kind == "trailing-whitespace":
            line += " \t "
        elif kind == "crlf":
            line += "\r"
        lines.append(line)
    text = "\n".join(lines)
    if draw(st.booleans()):
        text += "\n"
    return text


class TestBlockParseMatchesPerLine:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        text=plume_texts(),
        batch_ops=st.sampled_from(BATCH_OPS),
        block_lines=st.sampled_from([2, 5, plume_text._BLOCK_LINES]),
    )
    def test_same_batches_or_same_error(self, text, batch_ops, block_lines):
        # Small blocks put hostile and well-formed lines in separate blocks
        # at every batch size, so both paths run within one file.
        with mock.patch.object(plume_text, "_BLOCK_LINES", block_lines):
            _assert_same_as_per_line(text, batch_ops)

    @pytest.mark.parametrize("batch_ops", (1, 7, 100, None))
    def test_generated_history_matches(self, batch_ops):
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=5, num_transactions=700, num_keys=20, abort_probability=0.1, seed=3
            )
        )
        _assert_same_as_per_line(plume_text.dumps(history), batch_ops)


class TestBlockPath:
    def test_dumps_output_never_needs_the_per_line_parser(self):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=4, num_transactions=600, abort_probability=0.1, seed=8)
        )
        text = plume_text.dumps(history)
        with mock.patch.object(
            plume_text, "_parse_line_into", side_effect=AssertionError("per-line parse")
        ):
            batches = list(plume_text.stream_batches(io.StringIO(text)))
        assert sum(batch.num_records for batch in batches) == history.num_transactions

    def test_duplicate_in_a_later_block_names_its_line(self, tmp_path):
        lines = [
            f"session={i % 3} txn=t{i} committed ops= W(k{i},{i})" for i in range(400)
        ]
        lines.insert(350, "session=1 txn=t7 committed ops= R(k7,7)")
        path = tmp_path / "dup.plume"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"dup\.plume: line 351: duplicate "):
            list(stream_raw_batches(str(path)))

    def test_a_hostile_line_leaves_the_other_blocks_on_the_block_path(self):
        lines = [f"session=0 txn=t{i} committed ops= W(x,{i})" for i in range(600)]
        lines[300] = "session=0 txn=odd committed ops= W(my key,1)"
        calls = []
        real = plume_text._parse_line_into

        def counting(batch, line_number, raw_line):
            calls.append(line_number)
            return real(batch, line_number, raw_line)

        with mock.patch.object(plume_text, "_parse_line_into", counting):
            batches = list(plume_text.stream_batches(io.StringIO("\n".join(lines))))
        assert [key for batch in batches for key in batch.keys][300] == "my key"
        # Only the 256-line block holding line 301 went line by line.
        assert calls == list(range(257, 513))
