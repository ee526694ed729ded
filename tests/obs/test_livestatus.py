"""Live monitoring: snapshot writes, the monitor protocol, the renderer."""

import json

import pytest

from repro.obs.livestatus import (
    SNAPSHOT_VERSION,
    RunMonitor,
    eta_seconds,
    read_snapshot,
    render_watch_line,
    write_snapshot,
)


class _Unit:
    def __init__(self, fault_id):
        self.fault_id = fault_id


class TestSnapshotIO:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "live.json"
        write_snapshot(path, {"version": SNAPSHOT_VERSION, "state": "running"})
        assert read_snapshot(path)["state"] == "running"

    def test_missing_file_reads_none(self, tmp_path):
        assert read_snapshot(tmp_path / "absent.json") is None

    def test_garbage_reads_none(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        assert read_snapshot(path) is None

    def test_version_mismatch_reads_none(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 999}), encoding="utf-8")
        assert read_snapshot(path) is None

    def test_write_replaces_not_appends(self, tmp_path):
        path = tmp_path / "live.json"
        write_snapshot(path, {"version": SNAPSHOT_VERSION, "done": 1})
        write_snapshot(path, {"version": SNAPSHOT_VERSION, "done": 2})
        assert read_snapshot(path)["done"] == 2
        # No leftover temp files from the atomic-replace dance.
        assert [p.name for p in tmp_path.iterdir()] == ["live.json"]


class TestRunMonitor:
    def monitor(self, tmp_path, **kwargs):
        kwargs.setdefault("interval", 0.0)  # every update writes
        return RunMonitor(tmp_path / "live.json", **kwargs)

    def test_full_run_lifecycle(self, tmp_path):
        monitor = self.monitor(tmp_path)
        monitor.run_started(total=3, workers=2, pending=["a", "b", "c"])
        snapshot = read_snapshot(monitor.path)
        assert snapshot["state"] == "running"
        assert snapshot["total"] == 3
        assert snapshot["workers"] == 2
        assert snapshot["pending"] == ["a", "b", "c"]

        monitor.wave_started(1, ready=2)
        monitor.node_finished("a", status="cached")
        monitor.campaign_started(total=1)
        monitor.dispatched([_Unit("b")])
        snapshot = read_snapshot(monitor.path)
        assert snapshot["wave"] == {"index": 1, "ready": 2}
        assert snapshot["cached"] == 1
        assert [e["name"] for e in snapshot["in_flight"]] == ["b"]
        assert snapshot["pending"] == ["b", "c"]

        monitor.completed("b", wall_seconds=0.5)
        monitor.campaign_finished()
        monitor.wave_started(2, ready=1)
        monitor.campaign_started(total=1)
        monitor.dispatched([_Unit("c")])
        monitor.completed("c", wall_seconds=0.25)
        monitor.campaign_finished()
        monitor.run_finished()

        snapshot = read_snapshot(monitor.path)
        assert snapshot["state"] == "finished"
        assert snapshot["done"] == 3
        assert snapshot["executed"] == 2
        assert snapshot["cached"] == 1
        assert snapshot["in_flight"] == []
        assert snapshot["pending"] == []
        assert snapshot["done_wall_seconds"] == pytest.approx(0.75)

    def test_throttled_writes_skip_fast_updates(self, tmp_path):
        monitor = RunMonitor(tmp_path / "live.json", interval=3600.0)
        monitor.run_started(total=2, workers=1, pending=["a", "b"])  # forced
        monitor.node_finished("a", status="cached")  # throttled away
        snapshot = read_snapshot(monitor.path)
        assert snapshot["done"] == 0
        monitor.run_finished()  # forced
        assert read_snapshot(monitor.path)["done"] == 1

    def test_in_flight_sorted_slowest_first(self, tmp_path):
        monitor = self.monitor(tmp_path)
        monitor.run_started(total=2, workers=2, pending=["x", "y"])
        monitor.dispatched([_Unit("x")])
        monitor.dispatched([_Unit("y")])
        monitor._in_flight["x"] -= 5.0  # x has been running longer
        names = [e["name"] for e in monitor.snapshot()["in_flight"]]
        assert names == ["x", "y"]

    def test_dispatched_tolerates_plain_names(self, tmp_path):
        monitor = self.monitor(tmp_path)
        monitor.run_started(total=1, workers=1, pending=["a"])
        monitor.dispatched(["a"])  # no fault_id attribute
        assert [e["name"] for e in monitor.snapshot()["in_flight"]] == ["a"]


class TestEta:
    def snapshot(self, **overrides):
        base = {
            "version": SNAPSHOT_VERSION,
            "state": "running",
            "workers": 1,
            "total": 4,
            "done": 2,
            "executed": 2,
            "done_wall_seconds": 4.0,
            "in_flight": [],
            "pending": ["c", "d"],
        }
        base.update(overrides)
        return base

    def test_pace_fallback_uses_mean_node_cost(self):
        # 4s over 2 executed nodes -> 2s each for the remaining 2.
        assert eta_seconds(self.snapshot()) == pytest.approx(4.0)

    def test_in_flight_progress_subtracted_not_double_counted(self):
        snapshot = self.snapshot(
            in_flight=[{"name": "c", "seconds": 2.0}], pending=["c", "d"]
        )
        # Mean node cost is 2.0s; "c" has already spent 2.0s in flight.
        assert eta_seconds(snapshot) == pytest.approx(0.0 + 2.0)

    def test_workers_divide_the_budget(self):
        assert eta_seconds(self.snapshot(workers=2)) == pytest.approx(2.0)

    def test_finished_run_is_zero(self):
        assert eta_seconds(self.snapshot(state="finished", done=4)) == 0.0

    def test_unknowable_without_any_signal(self):
        snapshot = self.snapshot(executed=0, done_wall_seconds=0.0)
        assert eta_seconds(snapshot) is None


class TestRenderWatchLine:
    def test_waiting_for_snapshot(self):
        assert render_watch_line(None) == "waiting for snapshot..."

    def test_running_line(self):
        line = render_watch_line(
            {
                "version": SNAPSHOT_VERSION,
                "state": "running",
                "label": "study",
                "updated_at": 1000.0,
                "workers": 2,
                "total": 10,
                "done": 4,
                "executed": 3,
                "cached": 1,
                "done_wall_seconds": 6.0,
                "wave": {"index": 2, "ready": 3},
                "in_flight": [{"name": "node-x", "seconds": 1.25}],
                "pending": ["node-x"],
            },
            now=1001.0,
        )
        assert "[study] wave 2" in line
        assert "4/10 nodes (40%)" in line
        assert "3 executed, 1 cached" in line
        assert "node-x (1.2s)" in line
        assert "eta" in line
        assert "STALE" not in line

    def test_finished_line(self):
        line = render_watch_line(
            {
                "version": SNAPSHOT_VERSION,
                "state": "finished",
                "label": "study",
                "updated_at": 1000.0,
                "elapsed_seconds": 12.5,
                "total": 10,
                "done": 10,
                "executed": 10,
                "cached": 0,
                "wave": {"index": 3, "ready": 1},
                "in_flight": [],
                "pending": [],
            },
            now=5000.0,  # staleness is irrelevant once finished
        )
        assert "finished in 12.5s" in line
        assert "STALE" not in line

    def test_stale_snapshot_flagged(self):
        line = render_watch_line(
            {
                "version": SNAPSHOT_VERSION,
                "state": "running",
                "updated_at": 1000.0,
                "total": 2,
                "done": 1,
                "wave": {},
                "in_flight": [],
                "pending": ["b"],
            },
            now=1100.0,
            stale_after=30.0,
        )
        assert "STALE: no heartbeat for 100s" in line
