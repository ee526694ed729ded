"""Tracing overhead: a traced study run must cost < 5% over untraced.

The zero-overhead-by-default contract is structural (a disabled span is
one module-global check returning a shared no-op), but the *enabled*
path also has a budget: recording every wave, memo probe, node, and
unit span to a flushed JSONL trace must add less than 5% wall time to a
stall-bound study run -- and must never change a payload.  Coverage is
asserted here too: the trace has to attribute >= 95% of the scheduler's
wall time to named spans, or the overhead it does cost buys nothing.

As in the scheduling benchmark, every node carries a fixed simulated
stall so the benchmark measures the regime real campaigns live in, with
archives at reduced scale.
"""

import dataclasses
import functools
import time

from repro import obs
from repro.studygraph import StudyContext, default_registry, run_study
from repro.studygraph.registry import Registry

#: Simulated per-node stall (process spawn / archive I/O) in seconds.
STALL_SECONDS = 0.08

#: Reduced archive scales: the stall, not the parse, must dominate.
SCALE_OVERRIDES = {
    "parsed.apache": {"scale": 300},
    "parsed.mysql": {"scale": 800},
}

#: Enabled-tracing wall-time budget over the untraced run.
OVERHEAD_BUDGET = 0.05


def _stalled(producer, ctx, inputs, params):
    """One real producer behind a fixed stall (module-level for fork)."""
    time.sleep(STALL_SECONDS)
    return producer(ctx, inputs, params)


def _stalled_registry():
    return Registry(
        dataclasses.replace(
            node, producer=functools.partial(_stalled, node.producer)
        )
        for node in default_registry().with_overrides(SCALE_OVERRIDES).nodes()
    )


def _run(registry):
    return run_study(StudyContext.default(), registry=registry)


def test_bench_tracing_overhead(benchmark, tmp_path):
    registry = _stalled_registry()

    # Interleave untraced/traced pairs so drift in machine load hits both.
    untraced_walls, traced_walls = [], []
    trace_path = tmp_path / "bench.trace"
    untraced = traced = None
    for _ in range(2):
        started = time.perf_counter()
        untraced = _run(registry)
        untraced_walls.append(time.perf_counter() - started)

        started = time.perf_counter()
        with obs.tracing(trace_path):
            traced = _run(registry)
        traced_walls.append(time.perf_counter() - started)

    # Tracing must never change a payload.
    assert traced.outputs == untraced.outputs
    for name, run in untraced.runs.items():
        assert traced.runs[name].digest == run.digest, f"digest drift at {name}"

    untraced_wall = min(untraced_walls)
    traced_wall = min(traced_walls)
    overhead = traced_wall / untraced_wall - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"enabled tracing must cost < {OVERHEAD_BUDGET:.0%} on a stall-bound "
        f"study run, measured {overhead:.1%} "
        f"({untraced_wall:.3f}s -> {traced_wall:.3f}s)"
    )

    # The trace the overhead paid for must actually attribute the time.
    records, _ = obs.read_trace(trace_path)
    summary = obs.summarize_trace(records)
    assert summary.root["name"] == "study.run"
    assert summary.coverage >= 0.95, (
        f"trace attributes only {summary.coverage:.1%} of scheduler wall "
        "time to named spans (acceptance bar is 95%)"
    )

    def _traced_run():
        with obs.tracing(tmp_path / "bench-round.trace"):
            return _run(registry)

    benchmark.pedantic(_traced_run, rounds=2, iterations=1)
    benchmark.extra_info["wall_seconds"] = {
        "untraced_serial": round(untraced_wall, 4),
        "traced_serial": round(traced_wall, 4),
    }
    benchmark.extra_info["overhead"] = (
        f"{overhead:+.2%} with full span recording to flushed JSONL "
        f"({len(records)} spans, coverage {summary.coverage:.1%})"
    )
