"""``archive-stream`` (a part of ``batch``): stream, index and mine a large mbox.

Set-up renders a seeded archive of :data:`MESSAGES` messages with
:func:`repro.corpus.stream.write_archive`.  A pass mines that file with
:func:`repro.pipeline.runner.mine_archive_file` into a fresh on-disk
segment index, with no cache: byte-range split, mbox parse, segment
writes, index-backed keyword search, thread grouping and dedup.

Checks: every pass agrees; the seed-independent invariants hold (44
unique bugs, the corpus's own fault ids, 55 reporting threads, every
written message counted); and once per run the in-memory reference
path (:func:`~repro.pipeline.runner.mine_archive_text` with a
monolithic index) gives the same items and narrowing trace.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from perfbench import layers
from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    passes_until,
    peak_rss_mb,
    reset_peak_rss,
)
from perfbench.pins import PINS
from perfbench.stats import median
from perfbench.tracer import Tracer

#: Archive size: large enough that parsing, indexing and thread grouping
#: dominate the pass (about 2-3 s, 16.6 MB).
MESSAGES = 60_000
MB = 1_000_000


def _signature(result) -> tuple:
    """Everything the pass produced that a check compares."""
    from repro.pipeline import records

    payload = records.result_to_payload(result, records.report_to_dict)
    return payload["trace"], payload["items"]


def _check_invariants(out: Outcome, result, written: int) -> None:
    pins = PINS["archive"]
    rows = dict(result.trace.as_rows())
    out.check(list(rows) == pins["stages"], f"archive: narrowing stages {list(rows)}")
    raw = rows.get("raw messages")
    out.check(raw == written, f"archive: {raw} of {written} messages parsed")
    reporting = rows.get("reporting threads (root matches keywords)")
    out.check(reporting == pins["reporting_threads"], f"archive: {reporting} reporting threads")
    found = len(result.items)
    out.check(found == pins["unique_bugs"], f"archive: {found} unique bugs")
    # Mined report ids are "<fault id>.root@<list>".
    ids = sorted(item.report_id.split(".", 1)[0] for item in result.items)
    out.check(ids == pins["report_ids"], "archive: mined bug ids differ from the corpus faults")


def _mine(path: Path, index_dir: Path):
    from repro.bugdb.enums import Application
    from repro.pipeline.runner import mine_archive_file

    return mine_archive_file(Application.MYSQL, path, index_dir=index_dir)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.bugdb.enums import Application
    from repro.corpus.loader import full_study
    from repro.corpus.stream import write_archive

    out = Outcome()
    corpus = full_study().corpus(Application.MYSQL)
    path = work / "mysql.mbox"
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        stats = write_archive(path, Application.MYSQL, corpus, scale=MESSAGES, seed=seed)
        out.setup_s.append(time.perf_counter() - started)
    size_mb = stats.bytes / MB

    first = None
    started = time.perf_counter()
    while passes_until(seconds, started, len(out.wall_s)):
        index_dir = work / f"index-{len(out.wall_s)}"
        if first is None:
            reset_peak_rss()
        began, cpu = time.perf_counter(), time.process_time()
        run_ = _mine(path, index_dir)
        out.wall_s.append(time.perf_counter() - began)
        out.cpu_s.append(time.process_time() - cpu)
        if first is None:
            out.peak_rss_mb = peak_rss_mb()
        shutil.rmtree(index_dir)
        signature = _signature(run_.result)
        if first is None:
            first = run_.result
            _check_invariants(out, first, stats.records)
            first_signature = signature
        out.check(signature == first_signature, "archive: passes over one archive disagree")
        out.ops.add(stats.records, 0)

    from repro.pipeline.runner import mine_archive_text

    reference = mine_archive_text(Application.MYSQL, path.read_text(encoding="utf-8"))
    out.check(
        _signature(reference.result) == first_signature,
        "archive: streamed result differs from the in-memory reference path",
    )

    mb_per_s = [size_mb / wall for wall in out.wall_s]
    out.line(
        "mb_per_s", median(mb_per_s), "MB/s", len(mb_per_s),
        f"archive {size_mb:.1f} MB, {stats.records} messages",
    )

    if trace:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        index_dir = work / "index-traced"
        try:
            began = time.perf_counter()
            run_ = _mine(path, index_dir)
            traced_s = time.perf_counter() - began
        finally:
            tracer.uninstall()
        tracer.count("segments.bytes", _dir_bytes(index_dir))
        out.check(_signature(run_.result) == first_signature, "archive: traced pass differs")
        tracer.require(layers.EXPECTED["archive-stream"])
        out.trace_report = tracer.report()
        out.traced_s = traced_s
    return out
