"""Tests for the LSM-style segmented text index."""

import json

import pytest

from repro.bugdb.segments import (
    CompactionStats,
    SegmentedTextIndex,
    SegmentError,
    segment_from_index,
    write_segment,
)
from repro.bugdb.textindex import TextIndex
from tests.oracles import segmented_equal_to_monolithic

TEXTS = [
    "the server crashed during startup",
    "question about LEFT JOIN syntax",
    "a race between two threads; crashes often",
    "the stack trace shows nothing",
    "segmentation fault deep in the parser",
    "assertion failed: table handler returned error",
    "how do I tune the key buffer",
    "deadlock detected while inserting rows",
]

PROBES = ("crash", "race", "segmentation", "deadlock", "join", "missing", "the")


def monolithic(texts=TEXTS):
    index = TextIndex()
    for position, text in enumerate(texts):
        index.add(position, text)
    return index


class TestSegmentFiles:
    def test_write_segment_round_trips_postings(self, tmp_path):
        info = write_segment(
            tmp_path, "s1", [("crash", [0, 2]), ("race", [1])], doc_count=3
        )
        assert info.token_count == 2
        assert info.doc_count == 3
        assert (tmp_path / "s1.seg").exists()
        assert (tmp_path / "s1.toc").exists()
        toc = json.loads((tmp_path / "s1.toc").read_text())
        assert toc["doc_count"] == 3

    def test_segment_from_index_uses_sorted_postings(self, tmp_path):
        index = TextIndex()
        index.add(0, "zebra apple")
        index.add(1, "apple")
        info = segment_from_index(tmp_path, "s1", index)
        assert info.doc_count == 2
        lines = (tmp_path / "s1.seg").read_bytes().decode().splitlines()
        tokens = [line.split("\t")[0] for line in lines]
        assert tokens == sorted(tokens)


class TestSegmentedTextIndex:
    def build(self, tmp_path, *, memtable_limit=50_000):
        index = SegmentedTextIndex(tmp_path, memtable_limit=memtable_limit)
        for text in TEXTS:
            index.add(text)
        return index

    def test_add_returns_sequential_global_ids(self, tmp_path):
        index = SegmentedTextIndex(tmp_path)
        assert [index.add(text) for text in TEXTS] == list(range(len(TEXTS)))
        assert index.document_count == len(TEXTS)

    def test_ids_stay_sequential_across_auto_flush(self, tmp_path):
        # the add that trips the memtable limit must return its own id,
        # not one shifted by the flush it triggered.
        index = SegmentedTextIndex(tmp_path, memtable_limit=3)
        assert [index.add(text) for text in TEXTS] == list(range(len(TEXTS)))

    def test_memtable_only_queries_match_monolithic(self, tmp_path):
        index = self.build(tmp_path)
        assert segmented_equal_to_monolithic(index, monolithic(), probes=PROBES)

    def test_flushed_queries_match_monolithic(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        assert index.segment_count == 1
        assert segmented_equal_to_monolithic(index, monolithic(), probes=PROBES)

    def test_auto_flush_at_memtable_limit(self, tmp_path):
        index = self.build(tmp_path, memtable_limit=3)
        assert index.segment_count >= 2
        assert index.document_count == len(TEXTS)
        assert segmented_equal_to_monolithic(index, monolithic(), probes=PROBES)

    def test_queries_span_segments_and_memtable(self, tmp_path):
        index = SegmentedTextIndex(tmp_path)
        for text in TEXTS[:4]:
            index.add(text)
        index.flush()
        for text in TEXTS[4:]:
            index.add(text)  # stays in the memtable
        assert index.lookup_prefix("crash") == monolithic().lookup_prefix("crash")
        assert index.lookup("deadlock") == monolithic().lookup("deadlock")

    def test_lookup_is_case_insensitive(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        assert index.lookup("LEFT") == {1}

    def test_search_any_and_all(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        mono = monolithic()
        keywords = ("crash", "race")
        assert index.search_any(keywords) == mono.search_any(keywords)
        assert index.search_all(keywords) == mono.search_all(keywords)
        assert index.search_all(()) == set()

    def test_persistence_across_reopen(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        reopened = SegmentedTextIndex(tmp_path)
        assert reopened.document_count == len(TEXTS)
        assert segmented_equal_to_monolithic(reopened, monolithic(), probes=PROBES)

    def test_reopen_continues_global_id_space(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        reopened = SegmentedTextIndex(tmp_path)
        assert reopened.add("yet another crash report") == len(TEXTS)
        assert len(TEXTS) in reopened.lookup_prefix("crash")

    def test_iter_postings_matches_monolithic(self, tmp_path):
        index = self.build(tmp_path, memtable_limit=3)
        assert list(index.iter_postings()) == list(monolithic().iter_postings())

    def test_commit_assigns_cumulative_doc_bases(self, tmp_path):
        left, right = TextIndex(), TextIndex()
        for position, text in enumerate(TEXTS[:5]):
            left.add(position, text)
        for position, text in enumerate(TEXTS[5:]):
            right.add(position, text)
        segment_from_index(tmp_path, "wal-000000", left)
        segment_from_index(tmp_path, "wal-000001", right)
        index = SegmentedTextIndex(tmp_path)
        committed = index.commit_segments(["wal-000000", "wal-000001"])
        assert [info.doc_base for info in committed] == [0, 5]
        assert segmented_equal_to_monolithic(index, monolithic(), probes=PROBES)

    def test_commit_missing_segment_raises(self, tmp_path):
        index = SegmentedTextIndex(tmp_path)
        with pytest.raises(SegmentError, match="not found"):
            index.commit_segments(["wal-999999"])

    def test_commit_rejects_already_committed_name(self, tmp_path):
        staged = TextIndex()
        staged.add(0, "crash report")
        segment_from_index(tmp_path, "wal-000001", staged)
        index = SegmentedTextIndex(tmp_path)
        index.commit_segments(["wal-000001"])
        with pytest.raises(SegmentError, match="already committed"):
            index.commit_segments(["wal-000001"])
        with pytest.raises(SegmentError, match="already committed"):
            SegmentedTextIndex(tmp_path).commit_segments(
                ["wal-000002", "wal-000002"]
            )

    def test_commit_with_memtable_documents_raises(self, tmp_path):
        staged = TextIndex()
        staged.add(0, "crash report")
        segment_from_index(tmp_path, "wal-000001", staged)
        index = SegmentedTextIndex(tmp_path)
        index.add("a memtable document")
        with pytest.raises(SegmentError, match="memtable"):
            index.commit_segments(["wal-000001"])
        # flush() keeps every id add() handed out, then the commit lands.
        index.flush()
        committed = index.commit_segments(["wal-000001"])[0]
        assert committed.doc_base == 1
        assert index.lookup("memtable") == {0}
        assert index.lookup("report") == {1}

    def test_commit_tolerates_dashless_digit_names(self, tmp_path):
        staged = TextIndex()
        staged.add(0, "crash report")
        segment_from_index(tmp_path, "123456", staged)
        index = SegmentedTextIndex(tmp_path)
        committed = index.commit_segments(["123456"])[0]
        assert committed.doc_count == 1
        assert index.next_segment_name() == "seg-123457"

    def test_reserved_names_never_collide_with_committed(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        reopened = SegmentedTextIndex(tmp_path)
        committed = {info.name for info in reopened.segments}
        reserved = reopened.reserve_segment_names(3)
        assert len(set(reserved)) == 3
        assert not committed & set(reserved)
        numbers = {int(name.rsplit("-", 1)[-1]) for name in committed}
        assert all(
            int(name.rsplit("-", 1)[-1]) not in numbers for name in reserved
        )

    def test_status_shape(self, tmp_path):
        index = self.build(tmp_path)
        index.flush()
        status = index.status()
        assert status["documents"] == len(TEXTS)
        assert status["segment_count"] == 1
        assert status["size_bytes"] > 0
        assert status["memtable_documents"] == 0
        json.dumps(status)  # JSON-safe for the CLI

    def test_equivalence_reports_mismatched_probe(self, tmp_path):
        index = self.build(tmp_path)
        other = monolithic()
        other.add(99, "crashproof extra document")
        missed = []
        assert not segmented_equal_to_monolithic(
            index, other, probes=("crash",), on_mismatch=missed.append
        )
        assert missed == ["crash"]


class TestCompaction:
    def fill(self, tmp_path, *, docs=40, memtable_limit=5):
        index = SegmentedTextIndex(tmp_path, memtable_limit=memtable_limit)
        texts = [TEXTS[i % len(TEXTS)] + f" filler{i}" for i in range(docs)]
        for text in texts:
            index.add(text)
        index.flush()
        mono = TextIndex()
        for position, text in enumerate(texts):
            mono.add(position, text)
        return index, mono

    def test_tiered_compaction_reduces_segments(self, tmp_path):
        index, mono = self.fill(tmp_path)
        before = index.segment_count
        stats = index.compact()
        assert isinstance(stats, CompactionStats)
        assert stats.compacted
        assert index.segment_count < before
        assert segmented_equal_to_monolithic(index, mono, probes=PROBES)

    def test_full_compaction_yields_single_segment(self, tmp_path):
        index, mono = self.fill(tmp_path)
        stats = index.compact(full=True)
        assert stats.compacted
        assert index.segment_count == 1
        assert index.document_count == mono.document_count
        assert segmented_equal_to_monolithic(index, mono, probes=PROBES)
        assert list(index.iter_postings()) == list(mono.iter_postings())

    def test_compaction_survives_reopen(self, tmp_path):
        index, mono = self.fill(tmp_path)
        index.compact(full=True)
        reopened = SegmentedTextIndex(tmp_path)
        assert reopened.segment_count == 1
        assert segmented_equal_to_monolithic(reopened, mono, probes=PROBES)

    def test_compaction_removes_merged_files(self, tmp_path):
        index, _ = self.fill(tmp_path)
        index.compact(full=True)
        survivors = {info.name for info in index.segments}
        on_disk = {path.stem for path in index.root.glob("*.seg")}
        assert on_disk == survivors

    def test_compact_on_single_segment_is_a_no_op(self, tmp_path):
        index = SegmentedTextIndex(tmp_path)
        index.add("one crash")
        index.flush()
        stats = index.compact(full=True)
        assert not stats.compacted
        assert index.segment_count == 1

    def test_candidates_group_by_size_tier(self, tmp_path):
        index, _ = self.fill(tmp_path)
        candidates = index.compaction_candidates(tier_fanout=2)
        assert candidates
        for group in candidates:
            assert len(group) >= 2


class TestQueryDecoding:
    """Queries decode doc ids only on the lines they return."""

    def build(self, tmp_path):
        # "crab" sorts just before "crash" in the same TOC block and
        # posts every document: a scan from the block start passes it.
        texts = [f"crab number{position % 7}" for position in range(3000)]
        texts[10] += " crash"
        texts[20] += " crashed"
        texts[2999] += " crate"
        segmented = SegmentedTextIndex(tmp_path / "idx")
        for text in texts:
            segmented.add(text)
        segmented.flush()
        return segmented, monolithic(texts)

    def test_only_matching_lines_are_decoded(self, tmp_path, monkeypatch):
        import repro.bugdb.segments as segments

        segmented, reference = self.build(tmp_path)
        decoded = []
        original = segments._decode_ids

        def counting(ids):
            result = original(ids)
            decoded.append(len(result))
            return result

        monkeypatch.setattr(segments, "_decode_ids", counting)
        assert segmented.lookup_prefix("crash") == reference.lookup_prefix("crash") == {10, 20}
        assert decoded == [1, 1]
        decoded.clear()
        assert segmented.lookup("crate") == reference.lookup("crate") == {2999}
        assert decoded == [1]
        decoded.clear()
        assert segmented.lookup("crabs") == reference.lookup("crabs") == set()
        assert decoded == []
        assert segmented.lookup("crab") == reference.lookup("crab")
        assert decoded == [3000]
