"""M1 -- Section 4 narrowing at the paper's full archive scale.

5220 Apache problem reports -> 50 unique bugs; ~500 GNOME reports -> 45;
~44,000 MySQL mailing-list messages -> 44.  Benchmarks the whole
parse-and-narrow path per application, then the fast archive path on
top of it: parallel byte-range parsing (stall-bound regime, as in the
harness scaling benchmark) and the content-addressed warm cache.  Both
fast-path variants assert traces and mined records identical to the
serial cold path -- speed never buys a different answer.
"""

import dataclasses
import time

from repro.bugdb import debbugs, gnats, mbox
from repro.bugdb.enums import Application
from repro.corpus.render import apache_raw_archive, gnome_raw_archive, mysql_raw_archive
from repro.mining import GNOME_STUDY_COMPONENTS, mine_apache, mine_gnome, mine_mysql
from repro.pipeline import (
    ParseMineCache,
    format_for,
    mine_archive_text,
    parse_archive_streamed,
)

#: Simulated per-record stall (I/O, decompression) for the parallel
#: parse benchmark, mirroring the harness scaling benchmark's regime:
#: real archive mining is dominated by waits, not Python compute, and
#: the timing container exposes a single core.
PARSE_STALL_SECONDS = 0.006

#: Records in the stall-bound parallel parse benchmark.
PARSE_STALL_RECORDS = 150

#: Byte ranges the stall-bound archive is cut into (about 10 records
#: each), so every worker count up to 4 has ranges to share.
PARSE_STALL_RANGES = 16

#: Timing repetitions per configuration (min is reported).
REPETITIONS = 2


def test_bench_mining_apache_full_scale(benchmark, apache):
    archive = apache_raw_archive(apache)

    def narrow():
        return mine_apache(gnats.parse_archive(archive))

    result = benchmark(narrow)
    assert result.trace.initial == 5220
    assert result.trace.final == 50
    benchmark.extra_info["paper"] = "5220 reports -> 50 unique bugs"
    benchmark.extra_info["measured_trace"] = result.trace.as_rows()


def test_bench_mining_gnome_full_scale(benchmark, gnome):
    archive = gnome_raw_archive(gnome, study_components=GNOME_STUDY_COMPONENTS)

    def narrow():
        return mine_gnome(debbugs.parse_archive(archive))

    result = benchmark(narrow)
    assert result.trace.initial == 500
    assert result.trace.final == 45
    benchmark.extra_info["paper"] = "~500 reports -> 45 unique bugs"
    benchmark.extra_info["measured_trace"] = result.trace.as_rows()


def test_bench_mining_mysql_full_scale(benchmark, mysql):
    archive = mysql_raw_archive(mysql)

    def narrow():
        return mine_mysql(mbox.parse_archive(archive))

    result = benchmark(narrow)
    assert result.trace.initial >= 44000
    assert result.trace.final == 44
    benchmark.extra_info["paper"] = "~44,000 messages -> 44 unique bugs"
    benchmark.extra_info["measured_trace"] = result.trace.as_rows()


def _stalled_parse_pr(chunk):
    """gnats.parse_pr behind a fixed per-record stall.

    Module-level so forked pool workers resolve it by reference.
    """
    time.sleep(PARSE_STALL_SECONDS)
    return gnats.parse_pr(chunk)


def test_bench_mining_parallel_parse_scaling(benchmark, apache):
    fmt = dataclasses.replace(
        format_for(Application.APACHE), parse_record=_stalled_parse_pr
    )
    archive = gnats.render_archive(
        gnats.parse_archive(apache_raw_archive(apache, total_reports=400))[
            :PARSE_STALL_RECORDS
        ]
    )
    serial_records = gnats.parse_archive(archive)
    assert len(serial_records) == PARSE_STALL_RECORDS
    archive = archive.encode("utf-8")
    shard_bytes = len(archive) // PARSE_STALL_RANGES

    def parse(workers):
        return parse_archive_streamed(
            fmt,
            archive,
            max_shard_bytes=shard_bytes,
            workers=workers,
            keep_records=True,
        )

    wall = {}
    for workers in (1, 2, 4):
        best = float("inf")
        for _ in range(REPETITIONS):
            started = time.perf_counter()
            parsed = parse(workers)
            best = min(best, time.perf_counter() - started)
            # Output equality: sharding can reorder completion, never
            # the record stream.
            assert parsed.records == serial_records, f"drift at workers={workers}"
        wall[workers] = best

    speedup_2 = wall[1] / wall[2]
    speedup_4 = wall[1] / wall[4]
    assert speedup_4 > 1.5, (
        f"4 workers must beat serial by >1.5x on a stall-bound parse, "
        f"got {speedup_4:.2f}x ({wall[1]:.3f}s -> {wall[4]:.3f}s)"
    )

    benchmark.pedantic(parse, args=(4,), rounds=2, iterations=1)
    benchmark.extra_info["wall_seconds"] = {
        str(workers): round(seconds, 4) for workers, seconds in wall.items()
    }
    benchmark.extra_info["speedup"] = (
        f"2 workers {speedup_2:.2f}x, 4 workers {speedup_4:.2f}x over serial "
        f"({PARSE_STALL_RECORDS} records, "
        f"{PARSE_STALL_SECONDS * 1000:.0f} ms stall each)"
    )
    benchmark.extra_info["determinism"] = (
        "record stream bit-identical to serial parse_archive at 1/2/4 workers"
    )


def test_bench_mining_mysql_warm_cache(benchmark, mysql, tmp_path):
    archive = mysql_raw_archive(mysql)
    serial = mine_mysql(mbox.parse_archive(archive))
    cache = ParseMineCache(tmp_path)

    started = time.perf_counter()
    cold = mine_archive_text(Application.MYSQL, archive, cache=cache)
    cold_wall = time.perf_counter() - started

    warm_wall = float("inf")
    for _ in range(REPETITIONS + 1):
        started = time.perf_counter()
        warm = mine_archive_text(Application.MYSQL, archive, cache=cache)
        warm_wall = min(warm_wall, time.perf_counter() - started)
        assert warm.mine_cache_hit

    # Equality first: the cache may only ever return the serial answer.
    for run in (cold, warm):
        assert run.result.items == serial.items
        assert run.result.trace.as_rows() == serial.trace.as_rows()
    assert warm.result.trace.final == 44

    speedup = cold_wall / warm_wall
    assert speedup > 5, (
        f"warm cache must beat the cold path by >5x, got {speedup:.1f}x "
        f"({cold_wall:.3f}s -> {warm_wall:.4f}s)"
    )

    benchmark.pedantic(
        mine_archive_text,
        args=(Application.MYSQL, archive),
        kwargs={"cache": cache},
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["cold_wall_seconds"] = round(cold_wall, 4)
    benchmark.extra_info["warm_wall_seconds"] = round(warm_wall, 4)
    benchmark.extra_info["speedup"] = f"{speedup:.1f}x cold -> warm"
    benchmark.extra_info["determinism"] = (
        "items and trace bit-identical to serial mine_mysql, cold and warm"
    )
