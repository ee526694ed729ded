"""Trace edge cases: empty files, single spans, orphans, determinism.

The JSONL sink writes one line per span and the root last, so a killed
run's trace can arrive truncated -- so the summary
and flame paths must degrade deterministically instead of silently
dropping whole subtrees.
"""

import pytest

from repro import obs
from repro.obs.flame import ORPHAN_FRAME, fold_stacks, format_folded
from repro.obs.summary import ORPHAN_PHASE, summarize_trace


def span(name, span_id, start, end, parent_id=None, pid=100):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": "t1",
        "start": float(start),
        "end": float(end),
        "pid": pid,
    }


class TestEmptyTrace:
    def test_summary_of_no_records(self):
        summary = summarize_trace([])
        assert summary.spans == 0
        assert summary.root is None
        assert summary.coverage == 0.0
        assert summary.orphaned == 0
        assert summary.phases == []
        assert summary.slowest == []

    def test_empty_trace_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("", encoding="utf-8")
        assert obs.read_trace(path) == ([], 0)


class TestSingleSpan:
    def test_summary(self):
        summary = summarize_trace([span("only", "o", 1.0, 3.0)])
        assert summary.spans == 1
        assert summary.root["name"] == "only"
        assert summary.root_seconds == pytest.approx(2.0)
        # A childless root attributes nothing below itself.
        assert summary.coverage == 0.0
        assert summary.orphaned == 0

    def test_folds_to_one_stack(self):
        folded = fold_stacks([span("only", "o", 1.0, 3.0)])
        assert folded == [(("only",), pytest.approx(2.0))]


class TestOrphanedSpans:
    def trace(self):
        """A truncated trace: the wave record was lost, its subtree kept."""
        return [
            span("study.run", "r", 0.0, 10.0),
            # parent "w" (the wave) is missing from the trace.
            span("unit:studygraph", "u", 1.0, 5.0, parent_id="w", pid=200),
            span("node:T1", "n", 2.0, 4.0, parent_id="u", pid=200),
        ]

    def test_counted_and_phased_as_orphans(self):
        summary = summarize_trace(self.trace())
        assert summary.spans == 3
        assert summary.orphaned == 1  # the unit span; node:T1's parent exists
        phases = {s.name: s for s in summary.phases}
        assert phases[ORPHAN_PHASE].count == 1
        assert phases[ORPHAN_PHASE].total_seconds == pytest.approx(4.0)

    def test_orphan_time_counts_toward_coverage(self):
        summary = summarize_trace(self.trace())
        # The root has no surviving direct children; coverage is the
        # orphaned subtree's 4s over the root's 10s.
        assert summary.coverage == pytest.approx(0.4)

    def test_coverage_never_exceeds_one(self):
        records = [
            span("root", "r", 0.0, 1.0),
            span("child", "c", 0.0, 1.0, parent_id="r"),
            span("lost", "x", 0.0, 1.0, parent_id="gone"),
        ]
        assert summarize_trace(records).coverage == 1.0

    def test_orphan_subtree_keeps_internal_structure_when_folded(self):
        folded = dict(fold_stacks(self.trace()))
        assert (ORPHAN_FRAME, "unit:studygraph") in folded
        assert (ORPHAN_FRAME, "unit:studygraph", "node:T1") in folded

    def test_cross_process_orphans(self):
        records = [
            span("lost-a", "a", 0.0, 1.0, parent_id="gone", pid=1),
            span("lost-b", "b", 0.0, 2.0, parent_id="gone", pid=2),
        ]
        summary = summarize_trace(records)
        assert summary.orphaned == 2
        assert summary.processes == 2


class TestFoldedDeterminism:
    def trace(self, pid_offset=0):
        return [
            span("root", "r", 0.0, 10.0, pid=100 + pid_offset),
            span("wave", "w1", 0.0, 4.0, parent_id="r", pid=100 + pid_offset),
            span("wave", "w2", 5.0, 9.0, parent_id="r", pid=100 + pid_offset),
            span("node:T1", "n", 1.0, 3.0, parent_id="w1", pid=200 + pid_offset),
            span("lost", "x", 6.0, 7.0, parent_id="gone", pid=300 + pid_offset),
        ]

    def test_byte_identical_across_record_orderings(self):
        import itertools

        reference = format_folded(self.trace())
        assert reference.endswith("\n")
        for permutation in itertools.permutations(self.trace()):
            assert format_folded(list(permutation)) == reference

    def test_repeated_folds_are_byte_identical(self):
        texts = {format_folded(self.trace()) for _ in range(5)}
        assert len(texts) == 1
