"""Tests for byte-offset record-boundary splitting.

The load-bearing property: cutting an archive *file* into byte-ranges
at record boundaries and splitting each range independently yields
chunk lists whose concatenation is byte-identical to the in-memory
splitter over the whole text — for every format, at any shard budget.
"""

import io

import pytest

from repro.bugdb.enums import Application
from repro.corpus.render import (
    apache_raw_archive,
    gnome_raw_archive,
    mysql_raw_archive,
)
from repro.pipeline.formats import FORMATS, format_for
from repro.pipeline.streamsplit import (
    ByteRange,
    format_byte_ranges,
    iter_cut_points,
    read_range,
    shard_byte_ranges,
)


def split_by_ranges(fmt, source, max_shard_bytes):
    """Concatenated per-range splits of ``source``."""
    return [
        chunk
        for byte_range in format_byte_ranges(fmt, source, max_shard_bytes=max_shard_bytes)
        for chunk in fmt.split(read_range(source, byte_range))
    ]


def render(application, corpus, scale=None):
    if application is Application.APACHE:
        return apache_raw_archive(corpus, total_reports=scale)
    if application is Application.GNOME:
        return gnome_raw_archive(corpus, total_reports=scale)
    return mysql_raw_archive(corpus, total_messages=scale)


@pytest.fixture(scope="module")
def archives(study):
    """Rendered scaled archives per application (shared by this module)."""
    scales = {
        Application.APACHE: 800,
        Application.GNOME: 400,
        Application.MYSQL: 3000,
    }
    return {
        application: render(
            application, study.corpus(application), scales[application]
        )
        for application in Application
    }


class TestIterCutPoints:
    def test_substring_marker_offsets(self):
        data = b"aaaXbbbXccc"
        handle = io.BytesIO(data)
        assert list(iter_cut_points(handle, b"X")) == [3, 7]

    def test_marker_spanning_block_boundary(self):
        # the carry buffer must catch a marker cut in half by a block edge
        data = b"aa" + b"MARK" + b"bb" + b"MARK" + b"cc"
        for block_size in range(1, 10):
            handle = io.BytesIO(data)
            assert list(
                iter_cut_points(handle, b"MARK", block_size=block_size)
            ) == [2, 8], block_size

    def test_overlapping_candidates_match_str_split(self):
        # "XX" in "XXXX": str.split finds non-overlapping matches at 0, 2
        data = b"XXXX"
        handle = io.BytesIO(data)
        assert list(iter_cut_points(handle, b"XX", block_size=3)) == [0, 2]

    def test_line_anchored_only_matches_at_line_start(self):
        data = b"From a\nnot From b\nFrom c"
        handle = io.BytesIO(data)
        assert list(iter_cut_points(handle, b"From ", line_anchored=True)) == [
            0,
            18,
        ]

    def test_line_anchor_across_blocks(self):
        data = b"x\nFrom a\nyy From b\nFrom c"
        expected = [2, 19]
        for block_size in range(1, 12):
            handle = io.BytesIO(data)
            found = list(
                iter_cut_points(
                    handle, b"From ", line_anchored=True, block_size=block_size
                )
            )
            assert found == expected, block_size

    def test_empty_input(self):
        assert list(iter_cut_points(io.BytesIO(b""), b"X")) == []


class TestShardByteRanges:
    def write(self, tmp_path, data):
        path = tmp_path / "archive"
        path.write_bytes(data)
        return path

    def test_ranges_tile_the_file(self, tmp_path):
        path = self.write(tmp_path, b"aaaa\nSEP\nbbbb\nSEP\ncccc\n")
        ranges = shard_byte_ranges(path, b"SEP", max_shard_bytes=8)
        assert ranges[0].start == 0
        assert ranges[-1].end == path.stat().st_size
        for left, right in zip(ranges, ranges[1:]):
            assert left.end == right.start

    def test_ranges_start_on_boundaries(self, tmp_path):
        data = b"aaaa\nSEP\nbbbb\nSEP\ncccc\n"
        path = self.write(tmp_path, data)
        ranges = shard_byte_ranges(path, b"SEP", max_shard_bytes=8)
        for byte_range in ranges[1:]:
            assert data[byte_range.start:].startswith(b"SEP")

    def test_oversized_record_gets_its_own_range(self, tmp_path):
        data = b"X" * 100 + b"SEP" + b"Y" * 5
        path = self.write(tmp_path, data)
        ranges = shard_byte_ranges(path, b"SEP", max_shard_bytes=10)
        assert ranges[0] == ByteRange(0, 100)
        assert ranges[-1].end == len(data)

    def test_final_range_closes_at_pending_cut(self, tmp_path):
        # The tail must not absorb the pending boundary: no range may
        # exceed the budget unless a single record does.
        data = b"aaaa" + b"SEP" + b"bbbb" + b"SEP" + b"cccc"
        path = self.write(tmp_path, data)
        ranges = shard_byte_ranges(path, b"SEP", max_shard_bytes=10)
        assert ranges == [ByteRange(0, 4), ByteRange(4, 11), ByteRange(11, 18)]
        assert all(byte_range.size <= 10 for byte_range in ranges)

    def test_whole_file_when_budget_is_large(self, tmp_path):
        path = self.write(tmp_path, b"aaSEPbb")
        assert shard_byte_ranges(path, b"SEP", max_shard_bytes=1 << 20) == [
            ByteRange(0, 7)
        ]

    def test_empty_file_has_no_ranges(self, tmp_path):
        path = self.write(tmp_path, b"")
        assert shard_byte_ranges(path, b"SEP") == []


class TestFormatEquivalence:
    """Per-range splits concatenate to the in-memory split, all formats."""

    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("max_shard_bytes", [1 << 12, 1 << 16, 1 << 22])
    def test_concatenated_range_splits_equal_whole_split(
        self, tmp_path, archives, application, max_shard_bytes
    ):
        fmt = format_for(application)
        text = archives[application]
        path = tmp_path / f"{application.value}.archive"
        path.write_text(text, encoding="utf-8")

        whole = fmt.split(text)
        assert split_by_ranges(fmt, path, max_shard_bytes) == whole
        assert split_by_ranges(fmt, text.encode("utf-8"), max_shard_bytes) == whole

    @pytest.mark.parametrize("application", list(Application))
    def test_ranges_cover_file_exactly(self, tmp_path, archives, application):
        fmt = format_for(application)
        path = tmp_path / f"{application.value}.archive"
        path.write_text(archives[application], encoding="utf-8")
        ranges = format_byte_ranges(fmt, path, max_shard_bytes=1 << 14)
        assert ranges[0].start == 0
        assert ranges[-1].end == path.stat().st_size
        reassembled = "".join(read_range(path, byte_range) for byte_range in ranges)
        assert reassembled == archives[application]

    def test_every_format_declares_a_marker(self):
        for fmt in FORMATS.values():
            assert fmt.boundary_marker is not None

    def test_format_without_marker_raises(self, tmp_path):
        import dataclasses

        fmt = dataclasses.replace(
            format_for(Application.APACHE), boundary_marker=None
        )
        path = tmp_path / "a"
        path.write_text("x")
        with pytest.raises(ValueError, match="boundary marker"):
            format_byte_ranges(fmt, path)


class TestFullArchiveEquivalence:
    """The satellite check: the *full* paper-scale archives, all formats."""

    @pytest.mark.parametrize("application", list(Application))
    def test_full_archive_byte_range_split_identical(
        self, tmp_path, study, application
    ):
        fmt = format_for(application)
        text = render(application, study.corpus(application))
        path = tmp_path / f"{application.value}.full"
        path.write_text(text, encoding="utf-8")

        whole = fmt.split(text)
        piecewise = split_by_ranges(fmt, path, 64 << 10)
        assert len(piecewise) == len(whole)
        assert piecewise == whole
