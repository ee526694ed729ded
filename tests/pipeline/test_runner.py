"""Tests for the end-to-end fast archive path (render -> parse -> mine)."""

import pytest

from repro.bugdb.enums import Application
from repro.obs import MetricsRegistry
from repro.pipeline import (
    ParseMineCache,
    archive_digest,
    format_for,
    mine_application,
    mine_archive_text,
)

MYSQL_SCALE = 1500


@pytest.fixture(scope="module")
def mysql_archive(mysql):
    fmt = format_for(Application.MYSQL)
    return fmt.render(mysql, MYSQL_SCALE)


@pytest.fixture(scope="module")
def serial_result(mysql_archive):
    fmt = format_for(Application.MYSQL)
    return fmt.mine(fmt.parse(mysql_archive), None)


def assert_same_result(run, serial):
    assert run.result.items == serial.items
    assert run.result.trace.as_rows() == serial.trace.as_rows()


class TestColdPath:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_matches_serial_mining(self, mysql_archive, serial_result, workers):
        run = mine_archive_text(Application.MYSQL, mysql_archive, workers=workers)
        assert_same_result(run, serial_result)
        assert not run.mine_cache_hit
        assert not run.parse_cache_hit

    def test_digest_is_content_addressed(self, mysql_archive):
        run = mine_archive_text(Application.MYSQL, mysql_archive)
        assert run.digest == archive_digest(mysql_archive)

    @pytest.mark.parametrize(
        "application", [Application.APACHE, Application.GNOME]
    )
    def test_other_applications_match_serial(self, study, application):
        fmt = format_for(application)
        text = fmt.render(
            study.corpus(application),
            300 if application is Application.APACHE else None,
        )
        serial = fmt.mine(fmt.parse(text), None)
        run = mine_archive_text(application, text, workers=2)
        assert_same_result(run, serial)


class TestCachePath:
    def test_warm_mine_hit_returns_identical_result(
        self, tmp_path, mysql_archive, serial_result
    ):
        cache = ParseMineCache(tmp_path)
        cold = mine_archive_text(Application.MYSQL, mysql_archive, cache=cache)
        warm = mine_archive_text(Application.MYSQL, mysql_archive, cache=cache)
        assert not cold.mine_cache_hit
        assert warm.mine_cache_hit
        assert_same_result(cold, serial_result)
        assert_same_result(warm, serial_result)

    def test_parse_hit_with_mine_miss_still_matches(
        self, tmp_path, mysql_archive, serial_result
    ):
        cache = ParseMineCache(tmp_path)
        fmt = format_for(Application.MYSQL)
        digest = archive_digest(mysql_archive)
        mine_archive_text(Application.MYSQL, mysql_archive, cache=cache)
        # Drop only the mined entry: the next run re-mines from the
        # cached parse, and must still match the serial cold path.
        cache._entry_path(digest, fmt.mine_tag).unlink()
        run = mine_archive_text(Application.MYSQL, mysql_archive, cache=cache)
        assert run.parse_cache_hit
        assert not run.mine_cache_hit
        assert_same_result(run, serial_result)

    def test_corrupt_entry_falls_back_to_cold_path(
        self, tmp_path, mysql_archive, serial_result
    ):
        cache = ParseMineCache(tmp_path)
        mine_archive_text(Application.MYSQL, mysql_archive, cache=cache)
        for path in cache.entry_paths():
            path.write_text("{not json", encoding="utf-8")
        run = mine_archive_text(Application.MYSQL, mysql_archive, cache=cache)
        assert not run.mine_cache_hit
        assert not run.parse_cache_hit
        assert_same_result(run, serial_result)

    def test_different_archives_never_collide(self, tmp_path, mysql):
        cache = ParseMineCache(tmp_path)
        fmt = format_for(Application.MYSQL)
        small = fmt.render(mysql, 1200)
        large = fmt.render(mysql, 1800)
        run_small = mine_archive_text(Application.MYSQL, small, cache=cache)
        run_large = mine_archive_text(Application.MYSQL, large, cache=cache)
        assert run_small.digest != run_large.digest
        warm_small = mine_archive_text(Application.MYSQL, small, cache=cache)
        assert warm_small.mine_cache_hit
        assert warm_small.result.trace.as_rows() == run_small.result.trace.as_rows()
        assert warm_small.result.trace.as_rows() != run_large.result.trace.as_rows()


class TestMineApplication:
    def test_no_cache_dir_means_no_cache(self, mysql, serial_result):
        run = mine_application(
            Application.MYSQL, scale=MYSQL_SCALE, corpus=mysql
        )
        assert_same_result(run, serial_result)
        assert "cache: disabled" in run.summary_lines()

    def test_use_cache_false_ignores_cache_dir(self, tmp_path, mysql):
        run = mine_application(
            Application.MYSQL,
            scale=MYSQL_SCALE,
            cache_dir=tmp_path,
            use_cache=False,
            corpus=mysql,
        )
        assert not run.mine_cache_hit
        assert list(tmp_path.rglob("*.json")) == []
        assert "cache: disabled" in run.summary_lines()

    def test_cache_dir_round_trip(self, tmp_path, mysql, serial_result):
        cold = mine_application(
            Application.MYSQL, scale=MYSQL_SCALE, cache_dir=tmp_path, corpus=mysql
        )
        warm = mine_application(
            Application.MYSQL, scale=MYSQL_SCALE, cache_dir=tmp_path, corpus=mysql
        )
        assert not cold.mine_cache_hit
        assert warm.mine_cache_hit
        assert_same_result(warm, serial_result)


class TestSummaryLines:
    def test_cold_run_reports_parse_mine_and_cache(self, tmp_path, mysql):
        run = mine_application(
            Application.MYSQL,
            scale=MYSQL_SCALE,
            workers=2,
            cache_dir=tmp_path,
            corpus=mysql,
        )
        lines = "\n".join(run.summary_lines())
        assert "stream:" in lines
        assert "parse:" not in lines
        assert "mine:" in lines
        assert "cache: mine miss, parse miss" in lines
        assert "pipeline total:" in lines

    def test_warm_run_reports_mine_hit(self, tmp_path, mysql):
        mine_application(
            Application.MYSQL, scale=MYSQL_SCALE, cache_dir=tmp_path, corpus=mysql
        )
        warm = mine_application(
            Application.MYSQL, scale=MYSQL_SCALE, cache_dir=tmp_path, corpus=mysql
        )
        assert "cache: mine hit" in warm.summary_lines()

    def test_telemetry_counters(self, tmp_path, mysql):
        telemetry = MetricsRegistry()
        mine_application(
            Application.MYSQL,
            scale=MYSQL_SCALE,
            cache_dir=tmp_path,
            corpus=mysql,
            telemetry=telemetry,
        )
        assert telemetry.counter("cache.lookups") == 1
        assert telemetry.counter("cache.mine.misses") == 1
        assert telemetry.counter("cache.parse.misses") == 1
