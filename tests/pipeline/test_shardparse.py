"""Tests for sharded parallel archive parsing."""

import pytest

from repro.bugdb.enums import Application
from repro.bugdb.textindex import TextIndex
from repro.obs import MetricsRegistry
from repro.mining.keywords import MYSQL_STUDY_KEYWORDS
from repro.mining.mysql import message_search_text
from repro.pipeline import format_for, parse_archive_sharded


@pytest.fixture(scope="module")
def archives(study):
    """Small rendered archives per application (shared across tests)."""
    scales = {
        Application.APACHE: 300,
        Application.GNOME: None,
        Application.MYSQL: 1500,
    }
    rendered = {}
    for application, scale in scales.items():
        fmt = format_for(application)
        rendered[application] = fmt.render(study.corpus(application), scale)
    return rendered


class TestEquivalence:
    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_matches_serial_for_any_worker_count(
        self, archives, application, workers
    ):
        fmt = format_for(application)
        text = archives[application]
        serial = fmt.parse(text)
        parsed = parse_archive_sharded(fmt, text, workers=workers)
        assert parsed.records == serial

    def test_torn_final_shard(self, archives):
        """Chunk counts that do not divide evenly still merge in order."""
        from repro.bugdb import gnats

        fmt = format_for(Application.APACHE)
        # 23 records over 7 workers: shard sizes differ and the final
        # shard is smaller than the rest.
        serial = fmt.parse(archives[Application.APACHE])[:23]
        text = gnats.render_archive(serial)
        parsed = parse_archive_sharded(fmt, text, workers=7)
        assert parsed.records == serial

    def test_single_record_archive_takes_serial_path(self, archives):
        from repro.bugdb import gnats

        fmt = format_for(Application.APACHE)
        text = gnats.render_archive(fmt.parse(archives[Application.APACHE])[:1])
        parsed = parse_archive_sharded(fmt, text, workers=4)
        assert parsed.shards == 1
        assert parsed.records == fmt.parse(text)


class TestPartialIndex:
    def test_merged_index_matches_serial_index(self, archives):
        fmt = format_for(Application.MYSQL)
        text = archives[Application.MYSQL]
        parsed = parse_archive_sharded(fmt, text, workers=4)
        assert parsed.index is not None

        serial_index = TextIndex()
        for position, message in enumerate(parsed.records):
            serial_index.add(position, message_search_text(message))
        assert parsed.index.search_any(MYSQL_STUDY_KEYWORDS) == (
            serial_index.search_any(MYSQL_STUDY_KEYWORDS)
        )

    def test_formats_without_index_text_get_no_index(self, archives):
        fmt = format_for(Application.APACHE)
        parsed = parse_archive_sharded(fmt, archives[Application.APACHE], workers=4)
        assert parsed.index is None


class TestTelemetryAndShape:
    def test_parallel_run_records_telemetry(self, archives):
        telemetry = MetricsRegistry()
        fmt = format_for(Application.MYSQL)
        parsed = parse_archive_sharded(
            fmt, archives[Application.MYSQL], workers=4, telemetry=telemetry
        )
        assert telemetry.counter("parse.chunks") == len(parsed.records)
        assert telemetry.timer("parse.wall").count == 1
        assert telemetry.timer("parse.shard.wall").count == parsed.shards
        assert telemetry.gauge_value("parse.shards") == parsed.shards
        assert 0.0 < telemetry.gauge_value("parse.shard_utilization") <= 1.0

    def test_serial_run_reports_one_shard(self, archives):
        telemetry = MetricsRegistry()
        fmt = format_for(Application.APACHE)
        parsed = parse_archive_sharded(
            fmt, archives[Application.APACHE], workers=1, telemetry=telemetry
        )
        assert parsed.shards == 1
        assert parsed.worker_pids
        assert parsed.shard_utilization == 1.0
        assert telemetry.gauge_value("parse.shards") == 1

    def test_wall_time_is_recorded(self, archives):
        fmt = format_for(Application.GNOME)
        parsed = parse_archive_sharded(fmt, archives[Application.GNOME], workers=2)
        assert parsed.wall_seconds > 0
