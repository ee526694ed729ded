"""Archive scale-out bench: streaming ingest with bounded memory.

The point of the streaming pipeline (`repro.corpus.stream` ->
`repro.pipeline.streamsplit` -> `repro.bugdb.segments`) is that memory
is a function of the shard budget, never the corpus.  This bench
asserts exactly that, in forked children whose peak RSS is measured by
the :class:`~repro.obs.resources.ResourceSampler` series sampled
*during* the work (with an ``ru_maxrss`` delta fallback where ``/proc``
is unavailable) -- so the number is the observed high-water mark of the
run itself, not memory inherited from the pytest parent:

* the same streaming parse+index over a 4x larger archive must not use
  meaningfully more memory;
* a million-message archive (~275 MB mbox; scale via
  ``REPRO_BENCH_SCALE``) parses and indexes under a hard RSS ceiling;
* the segmented index answers the full 44k-message archive's keyword
  queries identically to the monolithic index, with warm queries
  sub-second after compaction.

Throughput (MB/s, reports/s) lands in the perf history when
``REPRO_PERFDB`` is set, through the same
:func:`~repro.obs.perfdb.throughput_record` path CI's scale-smoke uses.
"""

import json
import os
import resource

import pytest

from repro.bugdb.enums import Application
from repro.bugdb.segments import SegmentedTextIndex
from repro.bugdb.textindex import TextIndex
from repro.corpus import write_archive
from repro.corpus.render import mysql_raw_archive
from repro.mining.keywords import MYSQL_STUDY_KEYWORDS
from repro.obs.perfdb import PerfDB, throughput_record
from repro.obs.resources import ResourceSampler, proc_available
from repro.pipeline import format_for, parse_archive_streamed
from tests.oracles import segmented_equal_to_monolithic

SHARD_BUDGET = 4 << 20

#: Hard per-child peak-RSS ceiling for the million-message parse.  The
#: archive alone is ~275 MB; a non-streaming parse materializes the text
#: plus every record and blows far past this.
MILLION_RSS_CEILING_MB = 600

#: Growth allowance between the small and large corpus runs: 4x the
#: data may cost at most 1.5x the peak plus a fixed slack.
GROWTH_FACTOR = 1.5
GROWTH_SLACK_MB = 96


#: Sampling cadence inside the forked child.  Fast enough to catch a
#: transient spike during a shard flush; slow enough to stay invisible
#: in the throughput numbers.
SAMPLE_INTERVAL = 0.02


def _child_peak_rss_mb(work) -> float:
    """Run ``work`` in a forked child; return its sampled peak RSS in MB.

    A :class:`ResourceSampler` runs for the duration of the work and the
    peak is the high-water mark of its RSS *series* -- the whole run is
    observed, not one end-of-run readout, and the number reflects the
    work rather than memory inherited from the (large) pytest parent
    (samples are instantaneous RSS, so the parent's historical peak
    never leaks in the way an un-reset ``ru_maxrss`` would).  Falls back
    to the ``ru_maxrss`` delta where ``/proc`` is unavailable.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 1
        try:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            sampler = None
            if proc_available():
                sampler = ResourceSampler(
                    SAMPLE_INTERVAL, attribute=False
                ).start()
            work()
            if sampler is not None:
                sampler.stop()  # takes one final sample first
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if sampler is not None and sampler.peak_rss_bytes() > 0:
                peak_kb = sampler.peak_rss_bytes() / 1024
                samples = len(sampler.rss_log())
            else:
                peak_kb = float(after - before)
                samples = 0
            os.write(
                write_fd,
                json.dumps({"peak_kb": peak_kb, "samples": samples}).encode(),
            )
            status = 0
        finally:
            os.close(write_fd)
            os._exit(status)
    os.close(write_fd)
    try:
        payload = b""
        while True:
            block = os.read(read_fd, 65536)
            if not block:
                break
            payload += block
    finally:
        os.close(read_fd)
    _, exit_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(exit_status) == 0, "forked child failed"
    return json.loads(payload.decode())["peak_kb"] / 1024


def _stream_work(path, index_dir):
    fmt = format_for(Application.MYSQL)

    def work():
        parsed = parse_archive_streamed(
            fmt, path, max_shard_bytes=SHARD_BUDGET, index_dir=index_dir
        )
        assert parsed.record_count > 0

    return work


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scale-archives")


class TestBoundedMemory:
    def test_peak_rss_independent_of_corpus_size(self, mysql, archive_dir):
        """4x the archive must not cost 4x the memory."""
        small_path = archive_dir / "small.mbox"
        large_path = archive_dir / "large.mbox"
        small = write_archive(small_path, Application.MYSQL, mysql, scale=60_000)
        large = write_archive(large_path, Application.MYSQL, mysql, scale=240_000)
        assert large.bytes > 3 * small.bytes

        small_peak = _child_peak_rss_mb(
            _stream_work(small_path, archive_dir / "idx-small")
        )
        large_peak = _child_peak_rss_mb(
            _stream_work(large_path, archive_dir / "idx-large")
        )
        assert large_peak <= small_peak * GROWTH_FACTOR + GROWTH_SLACK_MB, (
            f"streaming parse peak RSS grew with corpus size: "
            f"{small.megabytes:.0f}MB archive -> {small_peak:.0f}MB peak, "
            f"{large.megabytes:.0f}MB archive -> {large_peak:.0f}MB peak"
        )

    def test_million_report_archive_under_hard_ceiling(self, mysql, archive_dir):
        """The headline number: 1M+ messages, bounded RSS, throughput recorded."""
        scale = int(os.environ.get("REPRO_BENCH_SCALE", "1000000"))
        path = archive_dir / "million.mbox"
        stats = write_archive(path, Application.MYSQL, mysql, scale=scale)
        assert stats.records >= scale

        fmt = format_for(Application.MYSQL)
        outcome = {}

        def work():
            parsed = parse_archive_streamed(
                fmt,
                path,
                max_shard_bytes=SHARD_BUDGET,
                index_dir=archive_dir / "idx-million",
            )
            outcome["records"] = parsed.record_count
            outcome["bytes"] = parsed.bytes_total
            outcome["wall"] = parsed.wall_seconds
            outcome["mb_per_s"] = parsed.mb_per_second
            outcome["records_per_s"] = parsed.records_per_second

        # the child writes outcome into a file since it runs forked
        outcome_path = archive_dir / "million-outcome.json"

        def forked_work():
            work()
            outcome_path.write_text(json.dumps(outcome))

        peak_mb = _child_peak_rss_mb(forked_work)
        outcome = json.loads(outcome_path.read_text())
        assert outcome["records"] >= scale
        assert peak_mb < MILLION_RSS_CEILING_MB, (
            f"peak RSS {peak_mb:.0f}MB over ceiling for "
            f"{stats.megabytes:.0f}MB archive"
        )
        # archive is far larger than the shard budget: memory cannot have
        # tracked the corpus
        assert stats.bytes > 5 * SHARD_BUDGET

        record = throughput_record(
            "stream:parse:mysql",
            wall_seconds=outcome["wall"],
            bytes_count=outcome["bytes"],
            records_count=outcome["records"],
            label="bench-archive-scale",
            peak_rss_bytes=int(peak_mb * 1024 * 1024),
        )
        assert record.counters["stream:parse:mysql.mb_per_s"] > 0
        assert record.counters["stream:parse:mysql.reports_per_s"] > 0
        assert record.nodes["stream:parse:mysql"].peak_rss_bytes is not None
        db_path = os.environ.get("REPRO_PERFDB")
        if db_path:
            PerfDB(db_path).append(record)

        # the committed index covers every record and survives reopen
        index = SegmentedTextIndex(archive_dir / "idx-million")
        assert index.document_count == outcome["records"]


class TestFullArchiveEquivalence:
    @pytest.fixture(scope="class")
    def full_archive(self, mysql, tmp_path_factory):
        root = tmp_path_factory.mktemp("full-mysql")
        text = mysql_raw_archive(mysql)
        path = root / "full.mbox"
        path.write_text(text, encoding="utf-8")
        return root, path, text

    @pytest.fixture(scope="class")
    def indexes(self, full_archive):
        root, path, text = full_archive
        fmt = format_for(Application.MYSQL)
        parsed = parse_archive_streamed(
            fmt, path, max_shard_bytes=1 << 20, index_dir=root / "idx"
        )
        monolithic: TextIndex = TextIndex()
        for position, chunk in enumerate(fmt.split(text)):
            monolithic.add(position, fmt.index_text(fmt.parse_record(chunk)))
        assert parsed.index is not None
        return parsed.index, monolithic

    def test_segmented_identical_to_monolithic_on_full_archive(self, indexes):
        segmented, monolithic = indexes
        assert segmented.document_count == monolithic.document_count
        mismatches = []
        assert segmented_equal_to_monolithic(
            segmented,
            monolithic,
            probes=MYSQL_STUDY_KEYWORDS,
            on_mismatch=mismatches.append,
        ), mismatches
        assert segmented.search_any(MYSQL_STUDY_KEYWORDS) == (
            monolithic.search_any(MYSQL_STUDY_KEYWORDS)
        )

    def test_warm_query_subsecond_after_compaction(self, benchmark, indexes):
        segmented, monolithic = indexes
        stats = segmented.compact(full=True)
        assert segmented.segment_count == 1
        assert segmented.search_any(MYSQL_STUDY_KEYWORDS) == (
            monolithic.search_any(MYSQL_STUDY_KEYWORDS)
        )  # warm the page cache / readers

        result = benchmark(segmented.search_any, MYSQL_STUDY_KEYWORDS)
        assert result == monolithic.search_any(MYSQL_STUDY_KEYWORDS)
        wall = getattr(getattr(benchmark, "stats", None), "stats", None)
        median = getattr(wall or benchmark.stats, "median", None)
        if median is not None:
            assert median < 1.0, f"warm keyword query took {median:.3f}s"
        benchmark.extra_info["documents"] = segmented.document_count
        benchmark.extra_info["compaction_bytes_read"] = stats.bytes_read


def test_bench_streaming_parse_throughput(benchmark, mysql, archive_dir):
    """pytest-benchmark timing for the streaming parse (no index)."""
    path = archive_dir / "bench.mbox"
    write_archive(path, Application.MYSQL, mysql, scale=60_000)
    fmt = format_for(Application.MYSQL)

    def parse():
        return parse_archive_streamed(fmt, path, max_shard_bytes=SHARD_BUDGET)

    parsed = benchmark.pedantic(parse, rounds=3, iterations=1)
    assert parsed.record_count >= 60_000
    benchmark.extra_info["mb"] = round(parsed.bytes_total / (1024 * 1024), 1)
    benchmark.extra_info["mb_per_s"] = round(parsed.mb_per_second, 1)
    benchmark.extra_info["records_per_s"] = round(parsed.records_per_second)
