"""Parameter-grid scaling and longest-first dispatch.

Two claims behind the grid refactor, measured:

1. Registry structure scales: a 1000+ point grid family registers and
   topo-sorts in linear-ish time (the dependents index is built at
   registration; Kahn's algorithm replaces the old per-wave rescans),
   and the memoized re-ask is effectively free.
2. Longest-first dispatch beats FIFO on a stall-skewed wave: with one
   slow point registered last, FIFO strands the slow unit in the final
   dispatch slot while longest-first starts it immediately -- at equal
   payload digests, because dispatch order is scheduling-only.
"""

import time

from repro.studygraph import GridSpec, NodeSpec, StudyContext, run_study
from repro.studygraph.registry import Registry

#: Stall-skewed wave: the slow point dwarfs its siblings.
FAST_STALL = 0.1
SLOW_STALL = 0.6
FAST_POINTS = 8


def _counted(ctx, inputs, params):
    return {"point": params["i"]}


def _stalled_point(ctx, inputs, params):
    time.sleep(SLOW_STALL if params["i"] == 0 else FAST_STALL)
    return {"point": params["i"]}


def _grid_registry(size, producer=_counted):
    # The slow point (i=0) is declared LAST so FIFO dispatches it last.
    axis = tuple(range(1, size)) + (0,)
    registry = Registry()
    grid = GridSpec.build(
        "sweep.bench", producer, axes={"i": axis}, kind="artifact"
    )
    registry.register_grid(
        grid,
        aggregate=NodeSpec.build(
            "sweep.bench", _aggregate, deps=tuple(grid.point_names())
        ),
    )
    return registry, grid


def _aggregate(ctx, inputs, params):
    return {"points": sorted(payload["point"] for payload in inputs.values())}


def _topo_walls(size):
    started = time.perf_counter()
    registry, _ = _grid_registry(size)
    build_wall = time.perf_counter() - started
    started = time.perf_counter()
    order = registry.topo_order()
    cold_wall = time.perf_counter() - started
    started = time.perf_counter()
    assert registry.topo_order() == order
    warm_wall = time.perf_counter() - started
    assert len(order) == size + 1
    assert order[-1] == "sweep.bench"
    return build_wall, cold_wall, warm_wall


def test_bench_grid_registry_scaling(benchmark):
    build_1k, cold_1k, warm_1k = _topo_walls(1500)
    build_6k, cold_6k, warm_6k = _topo_walls(6000)

    # Absolute bounds: thousands of points must stay interactive.
    assert build_6k < 2.0, f"6000-point registration took {build_6k:.3f}s"
    assert cold_6k < 1.0, f"6000-point topo sort took {cold_6k:.3f}s"
    assert warm_6k < 0.05, f"memoized topo re-ask took {warm_6k:.4f}s"
    # Scaling bound: 4x the nodes must not cost quadratically (16x);
    # the generous 12x margin absorbs timer noise at millisecond scale.
    if cold_1k > 0.005:
        assert cold_6k / cold_1k < 12, (
            f"topo scaling looks quadratic: {cold_1k:.4f}s -> {cold_6k:.4f}s"
        )

    registry, _ = _grid_registry(1500)
    benchmark.pedantic(
        lambda: Registry(registry.nodes()).topo_order(), rounds=3, iterations=1
    )
    benchmark.extra_info["wall_seconds"] = {
        "build_1500": round(build_1k, 4),
        "topo_cold_1500": round(cold_1k, 4),
        "build_6000": round(build_6k, 4),
        "topo_cold_6000": round(cold_6k, 4),
        "topo_warm_6000": round(warm_6k, 6),
    }


def _run_wave(priorities=None):
    registry, _ = _grid_registry(FAST_POINTS + 1, producer=_stalled_point)
    context = StudyContext.default(workers=4)
    started = time.perf_counter()
    result = run_study(context, registry=registry, priorities=priorities)
    return result, time.perf_counter() - started


def test_bench_longest_first_beats_fifo(benchmark):
    registry, grid = _grid_registry(FAST_POINTS + 1, producer=_stalled_point)

    # The expected cost the scheduler orders by: each point's true stall.
    priorities = {
        name: SLOW_STALL if name.endswith("[i=0]") else FAST_STALL
        for name in grid.point_names()
    }

    fifo, fifo_wall = _run_wave()
    longest, lf_wall = _run_wave(priorities)

    # Equal results first: dispatch order must never move a payload.
    assert longest.outputs == fifo.outputs
    assert {name: run.digest for name, run in longest.runs.items()} == {
        name: run.digest for name, run in fifo.runs.items()
    }

    # FIFO strands the slow point in the last dispatch slot
    # (~fast-rounds + slow); longest-first overlaps it with the fast
    # points (~max(slow, fast-rounds)).
    assert lf_wall < fifo_wall, (
        f"longest-first ({lf_wall:.3f}s) must beat FIFO ({fifo_wall:.3f}s) "
        f"on a stall-skewed wave at 4 workers"
    )

    benchmark.pedantic(_run_wave, args=(priorities,), rounds=2, iterations=1)
    benchmark.extra_info["wall_seconds"] = {
        "fifo_4": round(fifo_wall, 4),
        "longest_first_4": round(lf_wall, 4),
    }
    benchmark.extra_info["speedup"] = (
        f"longest-first {fifo_wall / lf_wall:.2f}x over FIFO "
        f"({FAST_POINTS}x{FAST_STALL * 1000:.0f}ms + 1x{SLOW_STALL * 1000:.0f}ms "
        f"stall wave, equal digests)"
    )
