"""The run-wide metrics registry: counters, timers, and sharded gauges.

:class:`MetricsRegistry` is the single place harness campaigns, the
archive pipeline, and the study-graph scheduler report their numbers.
It replaced the harness's original campaign telemetry class: counters
accumulate integers, timers accumulate observed durations, and gauges
hold floats *per shard* so that folding snapshots from parallel shards
is deterministic regardless of arrival order.

The old gauge semantics -- last write wins across :meth:`merge` calls --
made merged values depend on completion order under parallel runs
(``workers.utilization`` could come from whichever shard finished last).
Gauges are now keyed by the reporting registry's ``shard`` id and
reduced *last-by-shard-id* (the value of the lexicographically greatest
shard key), so any permutation of the same snapshots merges to the same
value.  :meth:`gauge_max` is the keyed-max reduction for gauges where
the peak is the meaningful aggregate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Iterator, Mapping

#: Shard key used by registries that never declared one (and by legacy
#: snapshots that predate sharded gauges).
LOCAL_SHARD = "local"


@dataclasses.dataclass(frozen=True)
class TimerStats:
    """Aggregate statistics for one named timer."""

    count: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


class MetricsRegistry:
    """Named counters, timers, and gauges for one run.

    Counters accumulate integers (``units.executed``, ``units.survived``);
    timers accumulate observed durations (``unit.wall``, ``unit.queue``);
    gauges hold last-written floats per shard (``workers.utilization``).

    Args:
        shard: identity of this registry's gauge shard.  Give each
            parallel reporter a distinct, stable id (``"shard0003"``, a
            worker index, ...) so merged gauges reduce deterministically.
    """

    def __init__(self, *, shard: str = LOCAL_SHARD) -> None:
        self.shard = shard
        self._counters: dict[str, int] = {}
        self._timers: dict[str, list[float]] = {}  # [count, total, min, max]
        self._gauges: dict[str, dict[str, float]] = {}  # name -> shard -> value

    # -- counters ------------------------------------------------------ #

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    # -- timers -------------------------------------------------------- #

    def observe(self, name: str, seconds: float) -> None:
        """Record one observed duration under timer ``name``."""
        stats = self._timers.get(name)
        if stats is None:
            self._timers[name] = [1, seconds, seconds, seconds]
        else:
            stats[0] += 1
            stats[1] += seconds
            stats[2] = min(stats[2], seconds)
            stats[3] = max(stats[3], seconds)

    @contextlib.contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager observing the enclosed block's wall time."""
        started = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - started)

    def timer(self, name: str) -> TimerStats:
        """Aggregate stats for timer ``name`` (zeros if never observed)."""
        stats = self._timers.get(name)
        if stats is None:
            return TimerStats(count=0, total=0.0, min=0.0, max=0.0)
        return TimerStats(count=stats[0], total=stats[1], min=stats[2], max=stats[3])

    # -- gauges -------------------------------------------------------- #

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` for this registry's shard (last write wins
        *within* a shard; across shards the reduction is deterministic)."""
        self._gauges.setdefault(name, {})[self.shard] = value

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Reduced value of gauge ``name``: last-by-shard-id.

        The value written by the lexicographically greatest shard key --
        identical for any merge order of the same shard snapshots.
        """
        shards = self._gauges.get(name)
        if not shards:
            return default
        return shards[max(shards)]

    def gauge_max(self, name: str, default: float = 0.0) -> float:
        """Keyed-max reduction of gauge ``name`` across shards."""
        shards = self._gauges.get(name)
        if not shards:
            return default
        return max(shards.values())

    def gauge_shards(self, name: str) -> dict[str, float]:
        """Per-shard values recorded for gauge ``name``."""
        return dict(self._gauges.get(name, {}))

    # -- snapshots ----------------------------------------------------- #

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-serialisable dict.

        ``gauges`` carries the reduced per-gauge values (the shape the
        original harness telemetry emitted); ``gauge_shards`` carries the full
        per-shard breakdown that :meth:`merge` folds deterministically.
        """
        return {
            "shard": self.shard,
            "counters": dict(self._counters),
            "timers": {
                name: dataclasses.asdict(self.timer(name)) for name in self._timers
            },
            "gauges": {name: self.gauge_value(name) for name in self._gauges},
            "gauge_shards": {
                name: dict(shards) for name, shards in self._gauges.items()
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; timers combine their aggregates; gauges fold by
        shard key, so merging the same set of shard snapshots in any
        order leaves every :meth:`gauge_value` identical.  Legacy
        snapshots without ``gauge_shards`` fold under their ``shard`` id
        (or :data:`LOCAL_SHARD` when absent).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, stats in snapshot.get("timers", {}).items():
            current = self._timers.get(name)
            if current is None:
                self._timers[name] = [
                    stats["count"], stats["total"], stats["min"], stats["max"],
                ]
            else:
                current[0] += stats["count"]
                current[1] += stats["total"]
                current[2] = min(current[2], stats["min"])
                current[3] = max(current[3], stats["max"])
        shard_map = snapshot.get("gauge_shards")
        if shard_map is None:
            source = snapshot.get("shard", LOCAL_SHARD)
            shard_map = {
                name: {source: value}
                for name, value in snapshot.get("gauges", {}).items()
            }
        for name, shards in shard_map.items():
            bucket = self._gauges.setdefault(name, {})
            for shard, value in shards.items():
                bucket[shard] = value

    def summary_lines(self) -> list[str]:
        """Human-readable one-liners for the CLI footer."""
        lines = []
        executed = self.counter("units.executed")
        resumed = self.counter("units.resumed")
        lines.append(
            f"units: {self.counter('units.total')} total, "
            f"{executed} executed, {resumed} resumed from journal"
        )
        wall = self.timer("unit.wall")
        if wall.count:
            lines.append(
                f"unit wall time: mean {wall.mean * 1000:.2f} ms, "
                f"max {wall.max * 1000:.2f} ms"
            )
        queue = self.timer("unit.queue")
        if queue.count:
            lines.append(f"queue latency: mean {queue.mean * 1000:.2f} ms")
        if "workers.utilization" in self._gauges:
            lines.append(
                f"workers: {self.gauge_value('workers.count'):.0f} "
                f"({self.gauge_value('workers.utilization'):.0%} utilized)"
            )
        survived = self.counter("units.survived")
        if executed or survived:
            lines.append(f"survived: {survived}/{self.counter('units.finished')}")
        return lines
