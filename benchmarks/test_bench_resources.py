"""Resource-sampling overhead: a sampled campaign must cost < 5%.

The sampler's contract mirrors the tracer's: observing a run may not
change it.  This benchmark drives a stall-bound 4-worker campaign --
the regime real campaigns live in, where workers wait on simulated
process spawns rather than the CPU -- and asserts that turning the
sampler on (dispatcher plus every forked worker, 20ms interval, samples
shipped through the trace channel) adds less than 5% wall time, while
every payload digest stays bit-identical to the unsampled run.

The sampled run must also actually produce evidence: span-attributed
samples from more than one process, and a nonzero peak-RSS gauge --
overhead under budget buys nothing if nothing was observed.
"""

import time

import pytest

from repro import obs
from repro.harness import WorkUnit, run_campaign
from repro.harness.pool import fork_available
from repro.obs import MetricsRegistry, resources
from repro.obs.resources import proc_available
from repro.studygraph.artifact import artifact_digest

pytestmark = [
    pytest.mark.skipif(not proc_available(), reason="no /proc on this platform"),
    pytest.mark.skipif(not fork_available(), reason="no fork start method"),
]

#: Simulated per-unit stall (process spawn / IO wait) in seconds.
STALL_SECONDS = 0.05

#: Units per campaign; at 4 workers the run is ~6 stalls deep.
UNIT_COUNT = 24

WORKERS = 4

#: Sampled wall-time budget over the unsampled run.
OVERHEAD_BUDGET = 0.05

SAMPLE_INTERVAL = 0.02


def stall_runner(unit, context):
    """Module-level for fork: a stall plus a deterministic payload."""
    time.sleep(STALL_SECONDS)
    return {"fault": unit.fault_id, "value": unit.seed * 3, "squares": [
        i * i for i in range(unit.seed % 7 + 1)
    ]}


def _units():
    return [WorkUnit.build("toy", f"F-{i}", seed=i) for i in range(UNIT_COUNT)]


def _digests(campaign):
    return [artifact_digest(result) for result in campaign.results]


@pytest.fixture(autouse=True)
def _sampling_off_between_tests(monkeypatch):
    monkeypatch.delenv(resources.SAMPLE_ENV, raising=False)
    resources.configure(None)
    yield
    resources.configure(None)


def test_bench_sampling_overhead(benchmark):
    # Interleave off/on pairs so drift in machine load hits both sides.
    off_walls, on_walls = [], []
    off_campaign = on_campaign = None
    sink = None
    telemetry = None
    for _ in range(2):
        resources.configure(None)
        started = time.perf_counter()
        off_campaign = run_campaign(_units(), stall_runner, workers=WORKERS)
        off_walls.append(time.perf_counter() - started)

        resources.configure(SAMPLE_INTERVAL)
        sink = obs.MemorySink()
        telemetry = MetricsRegistry()
        started = time.perf_counter()
        with obs.tracing(sink):
            on_campaign = run_campaign(
                _units(), stall_runner, workers=WORKERS, telemetry=telemetry
            )
        on_walls.append(time.perf_counter() - started)

    # Sampling must never change a payload: digests bit-identical.
    assert _digests(on_campaign) == _digests(off_campaign)

    off_wall = min(off_walls)
    on_wall = min(on_walls)
    overhead = on_wall / off_wall - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"sampling must cost < {OVERHEAD_BUDGET:.0%} on a stall-bound "
        f"{WORKERS}-worker campaign, measured {overhead:.1%} "
        f"({off_wall:.3f}s -> {on_wall:.3f}s)"
    )

    # The overhead must have bought actual observation.
    samples = resources.resource_records(sink.records)
    assert samples, "sampled run emitted no resource records"
    pids = {record["pid"] for record in samples}
    assert len(pids) >= 2, f"expected dispatcher + workers, saw pids {pids}"
    attributed = [
        record for record in samples
        if record.get("span_id") or record.get("span_name")
    ]
    assert attributed, "no sample carries a span attribution"
    assert telemetry.gauge_value("resources.peak_rss_bytes") > 0

    def _sampled_run():
        resources.configure(SAMPLE_INTERVAL)
        with obs.tracing(obs.MemorySink()):
            return run_campaign(_units(), stall_runner, workers=WORKERS)

    benchmark.pedantic(_sampled_run, rounds=2, iterations=1)
    benchmark.extra_info["wall_seconds"] = {
        "unsampled": round(off_wall, 4),
        "sampled": round(on_wall, 4),
    }
    benchmark.extra_info["overhead"] = (
        f"{overhead:+.2%} with {len(samples)} samples from {len(pids)} "
        f"process(es) at {SAMPLE_INTERVAL * 1000:.0f}ms interval"
    )
