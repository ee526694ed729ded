"""Live run monitoring: heartbeat snapshots and the watch renderer.

A long study run is opaque from outside the process: the journal says
what finished, the trace says where time went -- afterwards.  This
module adds the *during*: the dispatching process periodically writes a
small, atomic JSON snapshot (:func:`repro.fileio.atomic_write`, so a
reader never sees a half-written file) and ``repro study watch``
renders it as a refreshing one-line status: per-wave progress, the
currently slowest in-flight nodes, and an ETA from the run's own pace.

Two layers feed the snapshot:

* the study-graph scheduler reports run/wave/node lifecycle events
  (:meth:`RunMonitor.run_started`, :meth:`RunMonitor.wave_started`,
  :meth:`RunMonitor.node_finished`);
* the harness engine reports the heartbeat protocol
  (:meth:`RunMonitor.campaign_started`, :meth:`RunMonitor.dispatched`,
  :meth:`RunMonitor.completed`) as units are submitted to and drained
  from the worker pool.

Writes are throttled (default twice a second) and each write is one
small ``json.dump``, so enabled monitoring stays inside the same < 5%
overhead budget the tracing path honours
(``benchmarks/test_bench_livestatus.py`` enforces it).

Layering: like the rest of :mod:`repro.obs`, nothing here imports from
the wider ``repro`` package but :mod:`repro.fileio` -- the scheduler and
engine call in, never the other way around.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping

from repro import fileio

#: Snapshot format version.
SNAPSHOT_VERSION = 1

#: Run states a snapshot can report.
STATE_RUNNING = "running"
STATE_FINISHED = "finished"

#: How many in-flight nodes a snapshot lists (slowest first).
IN_FLIGHT_LIMIT = 8

#: Seconds without a heartbeat after which a snapshot reads as stale.
DEFAULT_STALE_AFTER = 30.0


def write_snapshot(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Atomically replace ``path`` with ``payload`` as JSON.

    :func:`repro.fileio.atomic_write`: a concurrent reader sees either
    the previous snapshot or this one, never a torn write.
    """
    fileio.atomic_write(
        path, json.dumps(payload, separators=(",", ":"), sort_keys=True)
    )


def read_snapshot(path: str | Path) -> dict[str, Any] | None:
    """The snapshot at ``path``, or None when missing or unreadable.

    A snapshot mid-replace is impossible to observe (writes are atomic),
    so unreadable means "not written yet" or "not a snapshot file".
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict) or data.get("version") != SNAPSHOT_VERSION:
        return None
    return data


class RunMonitor:
    """Accumulates run state and heartbeats it into a snapshot file.

    One instance per monitored run, owned by the dispatching process.
    The scheduler drives the node-level methods; the harness engine
    drives the heartbeat protocol while a wave's units are on the pool.
    Every method is cheap and write-throttled, so the monitor can be
    called per unit completion without blowing the overhead budget.

    Args:
        path: snapshot file to keep up to date.
        interval: minimum seconds between snapshot writes (lifecycle
            transitions force a write regardless).
        label: run label rendered by ``repro study watch``.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        interval: float = 0.5,
        label: str = "study",
    ) -> None:
        self.path = Path(path)
        self.interval = interval
        self.label = label
        self._started = time.monotonic()
        self._last_write = float("-inf")
        self._state = STATE_RUNNING
        self._workers = 1
        self._total = 0
        self._done = 0
        self._cached = 0
        self._executed = 0
        self._wave_index = 0
        self._wave_ready = 0
        self._pending: set[str] = set()
        self._in_flight: dict[str, float] = {}
        self._done_wall = 0.0
        self._info: dict[str, Any] = {}

    # -- scheduler lifecycle ------------------------------------------- #

    def run_started(
        self, *, total: int, workers: int, pending: list[str] | None = None
    ) -> None:
        """A run over ``total`` nodes is beginning."""
        self._started = time.monotonic()
        self._total = total
        self._workers = workers
        self._pending = set(pending or [])
        self._write(force=True)

    def wave_started(self, index: int, *, ready: int) -> None:
        """Dependency wave ``index`` with ``ready`` resolvable nodes."""
        self._wave_index = index
        self._wave_ready = ready
        self._write(force=True)

    def node_finished(
        self, name: str, *, status: str, wall_seconds: float = 0.0
    ) -> None:
        """A node resolved without passing through the pool (memo hit)."""
        self._account(name, status=status, wall_seconds=wall_seconds)
        self._write()

    def run_finished(self) -> None:
        """The run completed; force-write the terminal snapshot."""
        self._state = STATE_FINISHED
        self._in_flight.clear()
        self._write(force=True)

    def set_info(self, **fields: Any) -> None:
        """Merge owner-specific fields into the snapshot's ``info`` map.

        Long-running owners (the ``repro serve`` daemon) use this to
        publish state the run/wave protocol has no slot for -- queue
        depth, rejection counters, client counts.  Values must be
        JSON-serialisable; setting a key to None removes it.
        """
        for key, value in fields.items():
            if value is None:
                self._info.pop(key, None)
            else:
                self._info[key] = value
        self._write()

    def resource_peak(self, rss_bytes: int) -> None:
        """Record the run's peak RSS so far (from the resource sampler).

        The engine calls this as worker samples arrive; the watch line
        renders it so a leaking run is visible while it is still going.
        """
        current = self._info.get("peak_rss_bytes", 0)
        if rss_bytes > current:
            self._info["peak_rss_bytes"] = int(rss_bytes)
            self._write()

    # -- harness heartbeat protocol ------------------------------------ #

    def campaign_started(self, *, total: int, resumed: int = 0) -> None:
        """A wave's campaign put ``total`` units in front of the pool."""
        self._write(force=True)

    def dispatched(self, units: Any) -> None:
        """Units were submitted to the pool (now potentially running)."""
        now = time.monotonic()
        for unit in units:
            name = getattr(unit, "fault_id", None) or str(unit)
            self._in_flight.setdefault(name, now)
        self._write()

    def completed(self, name: str, *, wall_seconds: float = 0.0) -> None:
        """A pool unit finished; account it and drop it from in-flight."""
        self._in_flight.pop(name, None)
        self._account(name, status="executed", wall_seconds=wall_seconds)
        self._write()

    def campaign_finished(self) -> None:
        """The wave's campaign drained."""
        self._in_flight.clear()
        self._write()

    # -- snapshot ------------------------------------------------------- #

    def _account(self, name: str, *, status: str, wall_seconds: float) -> None:
        self._pending.discard(name)
        self._done += 1
        if status == "cached":
            self._cached += 1
        else:
            self._executed += 1
            self._done_wall += wall_seconds

    def snapshot(self) -> dict[str, Any]:
        """The current run state as a JSON-serialisable snapshot."""
        now = time.monotonic()
        in_flight = sorted(
            (
                {"name": name, "seconds": round(now - since, 3)}
                for name, since in self._in_flight.items()
            ),
            key=lambda entry: (-entry["seconds"], entry["name"]),
        )
        snapshot = {
            "version": SNAPSHOT_VERSION,
            "state": self._state,
            "label": self.label,
            "updated_at": time.time(),
            "elapsed_seconds": round(now - self._started, 3),
            "workers": self._workers,
            "total": self._total,
            "done": self._done,
            "cached": self._cached,
            "executed": self._executed,
            "done_wall_seconds": round(self._done_wall, 3),
            "wave": {"index": self._wave_index, "ready": self._wave_ready},
            "in_flight": in_flight[:IN_FLIGHT_LIMIT],
            "in_flight_total": len(in_flight),
            "pending": sorted(self._pending),
        }
        if self._info:
            snapshot["info"] = dict(self._info)
        return snapshot

    def _write(self, *, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_write < self.interval:
            return
        self._last_write = now
        write_snapshot(self.path, self.snapshot())


# -- the health side ----------------------------------------------------- #


def healthz_view(
    snapshot: Mapping[str, Any] | None,
    *,
    now: float | None = None,
    stale_after: float = DEFAULT_STALE_AFTER,
) -> dict[str, Any]:
    """A service-health summary derived from a :class:`RunMonitor` snapshot.

    The serve daemon keeps one long-lived monitor heartbeating its
    snapshot file; this view reduces that snapshot to the fields an
    operator (or ``repro serve status``) asks about: liveness, uptime,
    in-flight work, queue depth, and whether the heartbeat has gone
    quiet.  Pure given its inputs (pass ``now`` in tests).

    Returns:
        ``{"healthy", "state", "uptime_seconds", "in_flight",
        "queue_depth", "requests_done", "heartbeat_age_seconds",
        "stale", ...}`` -- with ``state`` ``"missing"`` (and ``healthy``
        False) when there is no snapshot at all.  Owner ``info`` fields
        (see :meth:`RunMonitor.set_info`) are merged in verbatim.
    """
    if snapshot is None:
        return {"healthy": False, "state": "missing", "stale": True}
    now = now if now is not None else time.time()
    age = max(0.0, now - snapshot.get("updated_at", now))
    stale = age > stale_after
    state = snapshot.get("state", "unknown")
    info = snapshot.get("info", {})
    view = {
        "healthy": state == STATE_RUNNING and not stale,
        "state": state,
        "label": snapshot.get("label", "run"),
        "uptime_seconds": snapshot.get("elapsed_seconds", 0.0),
        "in_flight": snapshot.get("in_flight_total", 0),
        "queue_depth": info.get("queue_depth", 0),
        "requests_done": snapshot.get("done", 0),
        "workers": snapshot.get("workers", 1),
        "heartbeat_age_seconds": round(age, 3),
        "stale": stale,
    }
    for key, value in info.items():
        view.setdefault(key, value)
    return view


# -- the watch side ------------------------------------------------------ #


def eta_seconds(snapshot: Mapping[str, Any]) -> float | None:
    """Estimated seconds to completion, or None when unknowable.

    Pace-based: each pending or in-flight node is budgeted at the run's
    observed mean node cost (less time already spent in flight), and
    the sum is divided by the worker count.
    """
    total = snapshot.get("total", 0)
    done = snapshot.get("done", 0)
    remaining_count = max(0, total - done)
    if total <= 0 or remaining_count == 0:
        return 0.0 if snapshot.get("state") == STATE_FINISHED else None

    executed = snapshot.get("executed", 0)
    if not executed:
        return None
    mean_cost = snapshot.get("done_wall_seconds", 0.0) / executed

    in_flight = {
        entry["name"]: entry.get("seconds", 0.0)
        for entry in snapshot.get("in_flight", [])
    }
    # In-flight nodes are still pending (they leave only on completion),
    # so the union avoids budgeting them twice.
    remaining_names = set(snapshot.get("pending", [])) | set(in_flight)
    if not remaining_names:
        return None

    budget = 0.0
    for name in sorted(remaining_names):
        budget += max(0.0, mean_cost - in_flight.get(name, 0.0))
    if len(remaining_names) < remaining_count:
        # Scale up for remaining nodes the snapshot did not name.
        budget *= remaining_count / len(remaining_names)
    workers = max(1, snapshot.get("workers", 1))
    return budget / workers


def render_watch_line(
    snapshot: Mapping[str, Any] | None,
    *,
    now: float | None = None,
    stale_after: float = DEFAULT_STALE_AFTER,
) -> str:
    """One status line for ``repro study watch``.

    Pure given its inputs (pass ``now`` in tests): renders per-wave
    progress, the slowest in-flight nodes, the ETA, and heartbeat age --
    flagging the snapshot as stale when the writer has gone quiet.
    """
    if snapshot is None:
        return "waiting for snapshot..."
    now = now if now is not None else time.time()
    label = snapshot.get("label", "run")
    total = snapshot.get("total", 0)
    done = snapshot.get("done", 0)
    fraction = done / total if total else 0.0
    wave = snapshot.get("wave", {})
    parts = [
        f"[{label}] wave {wave.get('index', 0)}"
        f" · {done}/{total} nodes ({fraction:.0%})"
        f" · {snapshot.get('executed', 0)} executed,"
        f" {snapshot.get('cached', 0)} cached"
    ]
    in_flight = snapshot.get("in_flight", [])
    if in_flight:
        shown = ", ".join(
            f"{entry['name']} ({entry.get('seconds', 0.0):.1f}s)"
            for entry in in_flight[:3]
        )
        parts.append(f"in flight: {shown}")
    peak_rss = snapshot.get("info", {}).get("peak_rss_bytes")
    if peak_rss:
        parts.append(f"rss {peak_rss / (1024 * 1024):.0f}MB")
    if snapshot.get("state") == STATE_FINISHED:
        parts.append(f"finished in {snapshot.get('elapsed_seconds', 0.0):.1f}s")
    else:
        eta = eta_seconds(snapshot)
        if eta is not None:
            parts.append(f"eta ~{eta:.0f}s")
        age = now - snapshot.get("updated_at", now)
        if age > stale_after:
            parts.append(f"STALE: no heartbeat for {age:.0f}s")
    return " · ".join(parts)
