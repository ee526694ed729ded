"""Tests for the one archive parse driver and the pipelines on top of it."""

import pytest

from repro.bugdb.enums import Application
from repro.bugdb.segments import SegmentedTextIndex
from repro.obs import MetricsRegistry
from repro.mining.keywords import MYSQL_STUDY_KEYWORDS
from repro.mining.mysql import build_message_index
from repro.pipeline import format_for, mine_application, parse_archive_streamed
from repro.pipeline.cache import ParseMineCache, archive_digest, archive_file_digest
from repro.pipeline.runner import mine_archive_file, mine_archive_text
from repro.pipeline.streamsplit import DEFAULT_MAX_SHARD_BYTES
from tests.oracles import segmented_equal_to_monolithic

SCALES = {
    Application.APACHE: 400,
    Application.GNOME: 300,
    Application.MYSQL: 2000,
}


@pytest.fixture(scope="module")
def archive_files(study, tmp_path_factory):
    """Rendered archive files per application (shared across tests)."""
    root = tmp_path_factory.mktemp("archives")
    paths = {}
    for application, scale in SCALES.items():
        fmt = format_for(application)
        text = fmt.render(study.corpus(application), scale)
        path = root / f"{application.value}.archive"
        path.write_text(text, encoding="utf-8")
        paths[application] = (path, text)
    return paths


def monolithic_index(fmt, text):
    """The in-memory positional index the study builds over ``text``."""
    return build_message_index(fmt.parse(text))


@pytest.fixture(scope="module")
def driver_inputs(archive_files, tmp_path_factory):
    """Named archives for the text-vs-file check: application, path, text.

    Besides the three rendered archives: a MySQL archive whose final
    message is torn off mid-body, and a one-record Apache archive.
    """
    from repro.bugdb import gnats

    root = tmp_path_factory.mktemp("driver-inputs")
    inputs = {
        application.value: (application, path, text)
        for application, (path, text) in archive_files.items()
    }
    mysql_text = archive_files[Application.MYSQL][1]
    last_body = mysql_text.index("\n\n", mysql_text.rindex("\nFrom "))
    torn = mysql_text[: (last_body + len(mysql_text)) // 2]
    apache = format_for(Application.APACHE)
    single = gnats.render_archive(
        apache.parse(archive_files[Application.APACHE][1])[:1]
    )
    for name, application, text in (
        ("torn", Application.MYSQL, torn),
        ("single", Application.APACHE, single),
    ):
        path = root / f"{name}.archive"
        path.write_text(text, encoding="utf-8")
        inputs[name] = (application, path, text)
    return inputs


class TestOneDriver:
    """In-memory text and a file of the same bytes: one driver, one answer."""

    @pytest.mark.parametrize(
        "max_shard_bytes", [64 << 10, DEFAULT_MAX_SHARD_BYTES], ids=["64KiB", "default"]
    )
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    @pytest.mark.parametrize("source", ["text", "file"])
    @pytest.mark.parametrize(
        "name", ["apache", "gnome", "mysql", "torn", "single"]
    )
    def test_text_and_file_agree(
        self, driver_inputs, name, source, workers, max_shard_bytes
    ):
        application, path, text = driver_inputs[name]
        fmt = format_for(application)
        sources = {"text": text.encode("utf-8"), "file": path}
        other = "file" if source == "text" else "text"

        parsed = parse_archive_streamed(
            fmt,
            sources[source],
            max_shard_bytes=max_shard_bytes,
            workers=workers,
            keep_records=True,
        )
        serial = fmt.parse(text)
        assert parsed.records == serial
        assert parsed.ranges == parse_archive_streamed(
            fmt, sources[other], max_shard_bytes=max_shard_bytes
        ).ranges

        if source == "text":
            run = mine_archive_text(application, text, workers=workers)
        else:
            run = mine_archive_file(
                application, path, max_shard_bytes=max_shard_bytes, workers=workers
            )
        reference = fmt.mine(serial, None)
        assert run.result.items == reference.items
        assert run.result.trace.as_rows() == reference.trace.as_rows()


class TestStreamedEquivalence:
    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_records_match_serial_parse(
        self, archive_files, application, workers
    ):
        fmt = format_for(application)
        path, text = archive_files[application]
        serial = fmt.parse(text)
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, workers=workers,
            keep_records=True,
        )
        assert streamed.records == serial
        assert streamed.record_count == len(serial)
        assert streamed.bytes_total == path.stat().st_size
        assert streamed.shards > 1

    def test_records_dropped_by_default(self, archive_files):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        streamed = parse_archive_streamed(fmt, path, max_shard_bytes=64 << 10)
        assert streamed.records is None
        assert streamed.record_count == len(fmt.parse(text))

    def test_telemetry_counters(self, archive_files):
        fmt = format_for(Application.MYSQL)
        path, _ = archive_files[Application.MYSQL]
        telemetry = MetricsRegistry()
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, telemetry=telemetry
        )
        assert telemetry.counter("stream.ranges") == streamed.shards
        assert telemetry.counter("stream.bytes") == streamed.bytes_total
        assert telemetry.counter("stream.records") == streamed.record_count
        assert telemetry.timer("stream.wall").count == 1
        assert streamed.mb_per_second > 0
        assert streamed.records_per_second > 0

    def test_stream_span_carries_bytes_and_records(self, archive_files):
        from repro import obs

        fmt = format_for(Application.MYSQL)
        path, _ = archive_files[Application.MYSQL]
        sink = obs.MemorySink()
        with obs.tracing(sink):
            streamed = parse_archive_streamed(fmt, path, max_shard_bytes=64 << 10)
        (record,) = [r for r in sink.records if r["name"] == "stream:parse:mysql"]
        assert record["attrs"]["bytes"] == streamed.bytes_total > 0
        assert record["attrs"]["records"] == streamed.record_count > 0


class TestStreamedIndex:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_segmented_index_matches_monolithic(
        self, tmp_path, archive_files, workers
    ):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, workers=workers,
            index_dir=tmp_path / f"idx{workers}",
        )
        assert streamed.index is not None
        assert streamed.index.document_count == streamed.record_count
        monolithic = monolithic_index(fmt, text)
        assert segmented_equal_to_monolithic(
            streamed.index, monolithic, probes=MYSQL_STUDY_KEYWORDS
        )
        assert streamed.index.search_any(
            MYSQL_STUDY_KEYWORDS
        ) == monolithic.search_any(MYSQL_STUDY_KEYWORDS)

    def test_index_persists_for_reopen(self, tmp_path, archive_files):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, index_dir=tmp_path / "idx"
        )
        reopened = SegmentedTextIndex(tmp_path / "idx")
        assert reopened.document_count == streamed.record_count
        monolithic = monolithic_index(fmt, text)
        assert reopened.search_any(MYSQL_STUDY_KEYWORDS) == monolithic.search_any(
            MYSQL_STUDY_KEYWORDS
        )

    def test_rerun_extends_index_without_clobbering(self, tmp_path, archive_files):
        # Re-running against an existing index_dir must append new
        # segments (fresh WAL names), never overwrite committed ones.
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        first = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, index_dir=tmp_path / "idx"
        )
        second = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, index_dir=tmp_path / "idx"
        )
        names = [info.name for info in second.index.segments]
        assert len(names) == len(set(names))
        assert second.index.document_count == 2 * first.record_count
        # Both passes of the archive answer queries under their own bases.
        monolithic = monolithic_index(fmt, text)
        expected = monolithic.search_any(MYSQL_STUDY_KEYWORDS)
        shifted = {doc + first.record_count for doc in expected}
        assert second.index.search_any(MYSQL_STUDY_KEYWORDS) == expected | shifted

    def test_index_dir_without_index_text_raises(self, tmp_path, archive_files):
        fmt = format_for(Application.APACHE)
        if fmt.index_text is not None:
            pytest.skip("apache format gained index_text")
        path, _ = archive_files[Application.APACHE]
        with pytest.raises(ValueError, match="index_text"):
            parse_archive_streamed(fmt, path, index_dir=tmp_path / "idx")


class TestMineArchiveFile:
    def test_matches_in_memory_pipeline(self, study, archive_files):
        path, _ = archive_files[Application.MYSQL]
        streamed = mine_archive_file(Application.MYSQL, path)
        rendered = mine_application(
            Application.MYSQL,
            scale=SCALES[Application.MYSQL],
            corpus=study.corpus(Application.MYSQL),
        )
        assert streamed.result.items == rendered.result.items
        assert streamed.result.trace.as_rows() == rendered.result.trace.as_rows()

    def test_segment_index_feeds_the_miner(self, tmp_path, study, archive_files):
        path, _ = archive_files[Application.MYSQL]
        streamed = mine_archive_file(
            Application.MYSQL, path, index_dir=tmp_path / "idx"
        )
        rendered = mine_application(
            Application.MYSQL,
            scale=SCALES[Application.MYSQL],
            corpus=study.corpus(Application.MYSQL),
        )
        assert streamed.result.items == rendered.result.items
        assert (tmp_path / "idx" / "manifest.json").exists()

    def test_rerun_over_one_index_dir_mines_the_same_bugs(self, tmp_path, archive_files):
        # A second run without a cache re-parses and appends segments, so
        # the index then holds ids up to twice the record count; ids with
        # no message must be ignored, not looked up.
        path, _ = archive_files[Application.MYSQL]
        first = mine_archive_file(Application.MYSQL, path, index_dir=tmp_path / "idx")
        second = mine_archive_file(Application.MYSQL, path, index_dir=tmp_path / "idx")
        raw = first.result.trace.as_rows()[0]
        assert raw[0] == "raw messages"
        assert SegmentedTextIndex(tmp_path / "idx").document_count == 2 * raw[1]
        assert len(first.result.items) == 44
        assert second.result.items == first.result.items
        assert second.result.trace.as_rows() == first.result.trace.as_rows()

    def test_file_digest_equals_text_digest(self, archive_files):
        path, text = archive_files[Application.MYSQL]
        assert archive_file_digest(path) == archive_digest(text)

    def test_shares_cache_with_text_pipeline(self, tmp_path, archive_files):
        path, text = archive_files[Application.MYSQL]
        cache = ParseMineCache(tmp_path / "cache")
        cold = mine_archive_file(Application.MYSQL, path, cache=cache)
        assert not cold.mine_cache_hit
        warm = mine_archive_file(Application.MYSQL, path, cache=cache)
        assert warm.mine_cache_hit
        assert warm.result.items == cold.result.items
        text_run = mine_archive_text(Application.MYSQL, text, cache=cache)
        assert text_run.mine_cache_hit

    def test_warm_cache_still_builds_requested_index(self, tmp_path, archive_files):
        # A mine-cache hit must not skip building a missing segmented
        # index: cache reads are bypassed until the artifact exists.
        path, _ = archive_files[Application.MYSQL]
        cache = ParseMineCache(tmp_path / "cache")
        cold = mine_archive_file(Application.MYSQL, path, cache=cache)
        index_dir = tmp_path / "idx"
        warm = mine_archive_file(
            Application.MYSQL, path, cache=cache, index_dir=index_dir
        )
        assert not warm.mine_cache_hit
        # The bypass is reported, and no lookup is counted that never ran.
        assert warm.telemetry.counter("cache.lookups") == 0
        assert warm.telemetry.counter("cache.bypassed") == 1
        assert (
            "cache: reads bypassed to build the segment index (entries stored)"
            in warm.summary_lines()
        )
        assert (index_dir / "manifest.json").exists()
        built = SegmentedTextIndex(index_dir)
        assert built.document_count > 0
        assert warm.result.items == cold.result.items
        # Once the index exists, cache hits short-circuit again.
        third = mine_archive_file(
            Application.MYSQL, path, cache=cache, index_dir=index_dir
        )
        assert third.mine_cache_hit
        assert SegmentedTextIndex(index_dir).document_count == built.document_count

    def test_summary_mentions_streaming(self, archive_files):
        path, _ = archive_files[Application.MYSQL]
        run = mine_archive_file(Application.MYSQL, path)
        summary = "\n".join(run.summary_lines())
        assert "stream:" in summary
        assert "MB/s" in summary
        assert "records/s" in summary
