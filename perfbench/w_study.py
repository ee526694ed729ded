"""``study`` (a part of ``batch``): the 144-node study, cold, then a warm CLI re-run.

A pass runs :func:`repro.studygraph.run_study` over every registered
experiment into an empty cache directory (one worker), then starts a
fresh ``python -m repro study run`` process over that same cache.  The
seed fixes a dispatch order for each wave's nodes: scheduling only, so
every payload digest must still equal the pinned set.

Set-up is a fresh interpreter importing the package and wiring the
study graph: the cost every pass after the first reuses in-process.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import time
from pathlib import Path

from perfbench import layers
from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    passes_until,
    run_child,
    peak_rss_mb,
    reset_peak_rss,
)
from perfbench.pins import PINS
from perfbench.stats import median
from perfbench.tracer import Tracer

SETUP_CODE = (
    "import repro.cli\n"
    "from repro.studygraph import default_registry\n"
    "from repro.corpus.loader import full_study\n"
    "default_registry(); full_study()\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)
_SUMMARY = re.compile(r"Study run: (\d+) executed, (\d+) cached")
_ROW = re.compile(r"^(\S+)\s+\|\s+(\w+)\s+\|\s+[\d.]+\s+\|\s+([0-9a-f]{12})\s*$")


def _priorities(seed: int, names: list[str]) -> dict[str, float]:
    """A seeded dispatch order (run_study runs higher values first)."""
    rng = random.Random(seed)
    return {name: rng.random() for name in names}


def _check_cold(out: Outcome, result, pins: dict) -> None:
    digests = {name: run.digest for name, run in result.runs.items()}
    wrong = sorted(n for n, d in pins["digests"].items() if digests.get(n) != d)
    out.check(not wrong, f"study: digests differ from the pinned set at {wrong[:5]}")
    out.check(
        set(digests) == set(pins["digests"]),
        f"study: ran {len(digests)} nodes, pinned {len(pins['digests'])}",
    )
    out.check(result.executed == len(pins["digests"]), "study: cold run hit the cache")
    for table, counts in pins["class_counts"].items():
        got = result.outputs[table]["counts"]
        out.check(got == counts, f"study: {table} class counts {got} != {counts}")
    rate = result.outputs["E1"]["overall_rates"]["checkpoint-rollback"]
    survived = round(rate * pins["faults"])
    out.check(
        survived == pins["checkpoint_rollback_survived"],
        f"study: checkpoint-rollback survived {survived}/{pins['faults']}",
    )


def _check_warm(out: Outcome, child, pins: dict) -> None:
    out.check(child.returncode == 0, f"study: warm CLI exited {child.returncode}")
    summary = _SUMMARY.search(child.stdout)
    total = len(pins["digests"])
    out.check(
        summary is not None and summary.groups() == ("0", str(total)),
        f"study: warm CLI summary {summary.group(0) if summary else None!r}",
    )
    rows = [
        m.groups() for m in map(_ROW.match, child.stdout.splitlines()) if m is not None
    ]
    bad = [
        name for name, _, digest in rows
        if not pins["digests"].get(name, "").startswith(digest)
    ]
    out.check(bool(rows) and not bad, f"study: warm CLI digests differ at {bad[:5]}")


def _pass(work: Path, index: int, seed: int, out: Outcome, pins: dict):
    """The cold run; returns its cache directory, wall, CPU and node count."""
    from repro.studygraph import StudyContext, default_registry, run_study

    cache_dir = work / f"study-cache-{index}"
    context = StudyContext.default(workers=1, cache_dir=cache_dir)
    targets = [node.name for node in default_registry().experiments()]
    priorities = _priorities(seed, list(pins["digests"]))
    started, cpu = time.perf_counter(), time.process_time()
    result = run_study(context, nodes=targets, priorities=priorities)
    cold_s, cold_cpu = time.perf_counter() - started, time.process_time() - cpu
    _check_cold(out, result, pins)
    return cache_dir, cold_s, cold_cpu, len(result.runs)


def _warm(work: Path, cache_dir: Path, argv_prefix: list[str]):
    return run_child(
        [*argv_prefix, "study", "run", "--workers", "1", "--cache-dir", str(cache_dir)],
        work / "warm.out",
    )


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    pins = PINS["study"]
    for _ in range(SETUP_REPEATS):
        child = run_child(["-c", SETUP_CODE], work / "setup.out")
        out.check(child.returncode == 0, "study: set-up interpreter failed")
        out.setup_s.append(child.wall_s)
    from repro.studygraph import default_registry

    default_registry()  # this process's own set-up, untimed

    cold, warm = [], []
    started = time.perf_counter()
    while passes_until(seconds, started, len(out.wall_s)):
        if not out.wall_s:
            reset_peak_rss()
        cache_dir, cold_s, cold_cpu, nodes = _pass(work, len(out.wall_s), seed, out, pins)
        if not out.wall_s:
            out.peak_rss_mb = peak_rss_mb()
        child = _warm(work, cache_dir, ["-m", "repro"])
        _check_warm(out, child, pins)
        shutil.rmtree(cache_dir)
        cold.append(cold_s)
        warm.append(child.wall_s)
        out.wall_s.append(cold_s + child.wall_s)
        out.cpu_s.append(cold_cpu + child.cpu_s)
        out.ops.add(nodes, 0)
        out.ops.add(nodes, 0 if child.returncode == 0 else nodes)
    out.line("cold_s", median(cold), "s", len(cold), "in-process run_study, empty cache")
    out.line("warm_s", median(warm), "s", len(warm), "fresh `repro study run` over that cache")

    if trace:
        out.layers.update(_traced(seed, work, out, pins))
    return out


def _traced(seed: int, work: Path, out: Outcome, pins: dict) -> dict:
    from repro.studygraph.nodes import build_registry

    imports = [float(run_child(["-c", IMPORT_CODE], work / "import.out").stdout)
               for _ in range(SETUP_REPEATS)]
    registry = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build_registry()
        registry.append(time.perf_counter() - started)

    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        cache_dir, cold_s, _, _ = _pass(work, 999, seed, out, pins)
    finally:
        tracer.uninstall()
    report = work / "warm-trace.json"
    traced_cli = ["-m", "perfbench.child", "cli", "--trace-out", str(report), "--"]
    child = _warm(work, cache_dir, traced_cli)
    _check_warm(out, child, pins)
    tracer.merge_report(json.loads(report.read_text(encoding="utf-8")))
    shutil.rmtree(cache_dir)
    tracer.require(layers.EXPECTED["study"])
    out.trace_report = tracer.report()
    out.traced_s = cold_s + child.wall_s
    return {"cli.import_s": median(imports), "studygraph.registry_s": median(registry)}
