"""Tests for the byte-range splitter (repro.shard.split)."""

import os

import pytest

from repro.core.exceptions import ParseError
from repro.histories.formats import save_history, stream_raw_history
from repro.histories.generator import RandomHistoryConfig, generate_random_history
from repro.shard import (
    parse_byte_range,
    split_byte_ranges,
    splittable,
    validate_range_summaries,
)


def _history(seed=3, n=120):
    return generate_random_history(
        RandomHistoryConfig(
            num_sessions=5, num_transactions=n, seed=seed, abort_probability=0.1
        )
    )


FMT_EXTS = [("plume", ".plume"), ("cobra", ".cobra")]


class TestSplitBoundaries:
    @pytest.mark.parametrize("fmt,ext", FMT_EXTS)
    @pytest.mark.parametrize("parts", [1, 2, 3, 8])
    def test_ranges_cover_file_and_preserve_records(self, tmp_path, fmt, ext, parts):
        path = tmp_path / f"h{ext}"
        save_history(_history(), str(path), fmt=fmt)
        ranges = split_byte_ranges(str(path), parts, fmt=fmt)
        size = os.path.getsize(str(path))
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(lo < hi for lo, hi in ranges)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

        serial = list(stream_raw_history(str(path), fmt))
        rejoined = []
        summaries = []
        for lo, hi in ranges:
            records, summary = parse_byte_range(str(path), lo, hi, fmt=fmt)
            rejoined.extend(records)
            summaries.append(summary)
        assert rejoined == serial
        validate_range_summaries(str(path), summaries, fmt=fmt)

    def test_cobra_with_csv_quoting_is_not_split(self, tmp_path):
        # A quoted field may hide a newline inside a value; only the serial
        # csv parse can cross it, so such files refuse to split.
        from repro.core.model import History, Transaction, write

        history = History.from_sessions(
            [[Transaction([write("k", 'a\nb')], label=None)]]
        )
        path = tmp_path / "quoted.cobra"
        save_history(history, str(path), fmt="cobra")
        assert '"' in path.read_text()
        assert split_byte_ranges(str(path), 4, fmt="cobra") is None

    def test_plume_unicode_line_separator_values_survive_split(self, tmp_path):
        # str.splitlines() would cut values on U+2028; the range parser must
        # split on '\n' only, like text-mode file iteration.
        lines = [
            "session=0 txn=a committed ops= W(x,weird value)",
            "session=0 txn=b committed ops= R(x,weird value)",
            "session=1 txn=c committed ops= W(y,1)",
            "session=1 txn=d committed ops= R(y,1)",
        ]
        path = tmp_path / "u2028.plume"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        serial = list(stream_raw_history(str(path), "plume"))
        rejoined = []
        for lo, hi in split_byte_ranges(str(path), 3, fmt="plume"):
            records, _summary = parse_byte_range(str(path), lo, hi, fmt="plume")
            rejoined.extend(records)
        assert rejoined == serial

    def test_json_formats_are_not_splittable(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(_history(n=10), str(path))
        assert not splittable(str(path))
        assert split_byte_ranges(str(path), 4) is None

    def test_line_formats_are_splittable(self, tmp_path):
        for fmt, ext in FMT_EXTS:
            path = tmp_path / f"s{ext}"
            save_history(_history(n=10), str(path), fmt=fmt)
            assert splittable(str(path), fmt=fmt)

    def test_cobra_transactions_never_split_across_ranges(self, tmp_path):
        # Multi-op transactions: every range must start at a (session,
        # txn_index) change, so each transaction's rows stay in one region.
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=3,
                num_transactions=60,
                min_ops_per_txn=4,
                max_ops_per_txn=8,
                seed=11,
            )
        )
        path = tmp_path / "h.cobra"
        save_history(history, str(path), fmt="cobra")
        serial = list(stream_raw_history(str(path), "cobra"))
        for parts in (2, 5, 9):
            rejoined = []
            for lo, hi in split_byte_ranges(str(path), parts, fmt="cobra"):
                records, _summary = parse_byte_range(str(path), lo, hi, fmt="cobra")
                rejoined.extend(records)
            assert rejoined == serial, parts


class TestCrossRegionValidation:
    def test_plume_duplicate_label_across_regions_rejected(self, tmp_path):
        lines = [f"session=0 txn=t{i} committed ops= W(k{i},{i})" for i in range(40)]
        lines[35] = lines[35].replace("txn=t35", "txn=t3")  # duplicate of line 3
        path = tmp_path / "dup.plume"
        path.write_text("\n".join(lines) + "\n")
        ranges = split_byte_ranges(str(path), 4, fmt="plume")
        assert len(ranges) > 1
        summaries = [
            parse_byte_range(str(path), lo, hi, fmt="plume")[1] for lo, hi in ranges
        ]
        with pytest.raises(ParseError) as excinfo:
            validate_range_summaries(str(path), summaries, fmt="plume")
        assert "duplicate" in str(excinfo.value)

    def test_cobra_non_contiguous_across_regions_rejected(self, tmp_path):
        rows = [f"0,{i},W,k{i},{i},1" for i in range(40)]
        rows[35] = "0,2,W,oops,1,1"  # session 0 index going backwards
        path = tmp_path / "bad.cobra"
        path.write_text("\n".join(rows) + "\n")
        ranges = split_byte_ranges(str(path), 4, fmt="cobra")
        summaries = []
        raised = False
        try:
            for lo, hi in ranges:
                summaries.append(parse_byte_range(str(path), lo, hi, fmt="cobra")[1])
            validate_range_summaries(str(path), summaries, fmt="cobra")
        except ParseError as exc:
            # Either the region parser (same region) or the cross-region
            # chain catches it, matching the serial parse's rejection.
            raised = True
            assert "contiguous" in str(exc)
        assert raised

    def test_empty_history_rejected_like_serial(self, tmp_path):
        path = tmp_path / "empty.plume"
        path.write_text("# only a comment\n")
        ranges = split_byte_ranges(str(path), 3, fmt="plume")
        summaries = [
            parse_byte_range(str(path), lo, hi, fmt="plume")[1] for lo, hi in ranges
        ]
        with pytest.raises(ParseError):
            validate_range_summaries(str(path), summaries, fmt="plume")

