"""Scheduler mechanics on a toy graph: waves, memoization, laziness.

The toy producers are module-level so forked pool workers resolve them
by reference; the domain-level graph is covered by test_equivalence.
"""

import gc
import json
import time
import weakref
from pathlib import Path

import pytest

from repro.studygraph.artifact import DATA_TAG, canonical_json
from repro.studygraph.context import StudyContext
from repro.studygraph.diff import diff_caches
from repro.studygraph.node import KIND_ARTIFACT, GridSpec, NodeSpec
from repro.studygraph.registry import GraphError, Registry
from repro.studygraph.scheduler import (
    order_longest_first,
    run_single_node,
    run_study,
    study_status,
    traced_node_walls,
)


def _root(ctx, inputs, params):
    return {"value": params["value"], "workers_seen": ctx.workers}


def _double(ctx, inputs, params):
    return {"value": inputs["root"]["value"] * 2}


def _total(ctx, inputs, params):
    total = inputs["root"]["value"] + inputs["double"]["value"]
    return {"total": total, "text": f"total: {total}"}


def _indep(ctx, inputs, params):
    return {"n": params["n"], "text": f"n: {params['n']}"}


def toy_registry():
    return Registry(
        [
            NodeSpec.build(
                "root", _root, params={"value": 3}, kind=KIND_ARTIFACT
            ),
            NodeSpec.build("double", _double, deps=("root",), kind=KIND_ARTIFACT),
            NodeSpec.build("total", _total, deps=("root", "double")),
            NodeSpec.build("indep", _indep, params={"n": 5}),
        ]
    )


def _ctx(tmp_path=None, workers=1):
    return StudyContext.default(
        workers=workers,
        cache_dir=None if tmp_path is None else tmp_path / "memo",
    )


def _data_path(context, key):
    return Path(context.cache.root) / key[:2] / f"{key}.sgdata.json"


class TestColdExecution:
    def test_executes_closure_in_waves(self):
        result = run_study(_ctx(), registry=toy_registry())
        assert result.executed == 4
        assert result.cached == 0
        assert result.waves >= 3  # root -> double -> total
        assert result.outputs["total"]["total"] == 9
        assert result.output_text("indep") == "n: 5"

    def test_targets_restrict_the_closure(self):
        result = run_study(_ctx(), nodes=["indep"], registry=toy_registry())
        assert set(result.runs) == {"indep"}

    def test_output_outside_closure_is_rejected(self):
        with pytest.raises(GraphError, match="not in the executed closure"):
            run_study(
                _ctx(), nodes=["indep"], outputs=["total"], registry=toy_registry()
            )

    def test_producers_always_see_serial_context(self):
        result = run_study(
            _ctx(workers=2),
            nodes=["total"],
            outputs=["root"],
            registry=toy_registry(),
        )
        # Nested campaigns must stay inline inside pool workers.
        assert result.outputs["root"]["workers_seen"] == 1


class TestParallelEquality:
    def test_worker_count_never_changes_payloads(self):
        serial = run_study(_ctx(), registry=toy_registry())
        parallel = run_study(_ctx(workers=2), registry=toy_registry())
        assert parallel.outputs == serial.outputs
        assert {name: run.digest for name, run in parallel.runs.items()} == {
            name: run.digest for name, run in serial.runs.items()
        }


class TestMemoization:
    def test_warm_rerun_is_fully_cached(self, tmp_path):
        cold = run_study(_ctx(tmp_path), registry=toy_registry())
        warm = run_study(_ctx(tmp_path), registry=toy_registry())
        assert warm.executed == 0
        assert warm.cached == len(cold.runs)
        assert warm.outputs == cold.outputs
        assert {name: run.digest for name, run in warm.runs.items()} == {
            name: run.digest for name, run in cold.runs.items()
        }

    def test_param_override_invalidates_only_its_cone(self, tmp_path):
        run_study(_ctx(tmp_path), registry=toy_registry())
        patched = toy_registry().with_overrides({"indep": {"n": 8}})
        rerun = run_study(_ctx(tmp_path), registry=patched)
        assert rerun.runs["indep"].status == "executed"
        assert rerun.runs["total"].status == "cached"
        assert rerun.output_text("indep") == "n: 8"

    def test_upstream_param_change_invalidates_downstream(self, tmp_path):
        run_study(_ctx(tmp_path), registry=toy_registry())
        patched = toy_registry().with_overrides({"root": {"value": 10}})
        rerun = run_study(_ctx(tmp_path), registry=patched)
        statuses = {name: run.status for name, run in rerun.runs.items()}
        assert statuses["root"] == "executed"
        assert statuses["double"] == "executed"
        assert statuses["total"] == "executed"
        assert statuses["indep"] == "cached"
        assert rerun.outputs["total"]["total"] == 30

    def test_warm_run_never_loads_unneeded_payloads(self, tmp_path):
        context = _ctx(tmp_path)
        cold = run_study(context, registry=toy_registry())
        # Destroy the heavy intermediate payloads; metadata stays intact.
        for name in ("root", "double"):
            _data_path(context, cold.runs[name].key).unlink()
        warm = run_study(_ctx(tmp_path), outputs=["total"], registry=toy_registry())
        assert warm.cached == 4
        assert warm.outputs["total"]["total"] == 9

    def test_rotted_data_entry_rebuilds_inline(self, tmp_path):
        context = _ctx(tmp_path)
        cold = run_study(context, registry=toy_registry())
        _data_path(context, cold.runs["total"].key).unlink()
        warm_context = _ctx(tmp_path)
        warm = run_study(warm_context, outputs=["total"], registry=toy_registry())
        assert warm.runs["total"].status == "cached"
        assert warm.outputs["total"]["total"] == 9
        assert warm_context.telemetry.counter("studygraph.payload_rebuilds") >= 1


class TestPayloadBytes:
    """Each run records its output's canonical-JSON size."""

    def test_executed_and_cached_runs_record_the_size(self, tmp_path):
        every = ["root", "double", "total", "indep"]
        cold = run_study(_ctx(tmp_path), outputs=every, registry=toy_registry())
        warm = run_study(_ctx(tmp_path), outputs=every, registry=toy_registry())
        for name in cold.runs:
            size = len(canonical_json(cold.outputs[name]))
            assert warm.outputs[name] == cold.outputs[name]
            assert cold.runs[name].status == "executed"
            assert warm.runs[name].status == "cached"
            assert cold.runs[name].payload_bytes == size
            assert warm.runs[name].payload_bytes == size

    @staticmethod
    def _strip_meta_field(context, key, field):
        path = Path(context.cache.root) / key[:2] / f"{key}.sgmeta.json"
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["data"][field]
        path.write_text(json.dumps(entry), encoding="utf-8")

    def test_entry_without_the_field_is_a_miss(self, tmp_path):
        context = _ctx(tmp_path)
        cold = run_study(context, registry=toy_registry())
        self._strip_meta_field(context, cold.runs["total"].key, "payload_bytes")
        warm = run_study(_ctx(tmp_path), registry=toy_registry())
        assert warm.runs["total"].status == "executed"
        assert warm.runs["root"].status == "cached"
        assert warm.runs["total"].payload_bytes == cold.runs["total"].payload_bytes
        again = run_study(_ctx(tmp_path), registry=toy_registry())
        assert again.runs["total"].status == "cached"

    def test_entry_without_a_text_span_is_a_miss(self, tmp_path):
        context = _ctx(tmp_path)
        cold = run_study(context, registry=toy_registry())
        self._strip_meta_field(context, cold.runs["total"].key, "text_span")
        warm = run_study(_ctx(tmp_path), registry=toy_registry())
        assert warm.runs["total"].status == "executed"
        assert warm.runs["total"].text_span == cold.runs["total"].text_span


def _entry_payload_bytes(context, run):
    """The bytes an ``sgdata`` entry holds inside the cache's wrapper."""
    raw = _data_path(context, run.key).read_bytes()
    prefix = (
        '{"cache_format":1,"digest":"%s","tag":"sgdata","data":' % run.key
    ).encode("ascii")
    assert raw.startswith(prefix) and raw.endswith(b"}")
    return raw[len(prefix) : -1]


class TestStoredPayload:
    """The ``sgdata`` entry is the canonical JSON the digest hashes."""

    def _assert_entries_verify(self, context, result):
        import hashlib

        from repro.serve.protocol import encode_json

        for name, run in result.runs.items():
            data = _entry_payload_bytes(context, run)
            assert hashlib.sha256(data).hexdigest() == run.digest, name
            assert len(data) == run.payload_bytes, name
            assert data == canonical_json(result.outputs[name]).encode("ascii"), name
            if run.text_span is None:
                assert "text" not in result.outputs[name], name
            else:
                start, end = run.text_span
                assert data[start:end] == encode_json(result.outputs[name]["text"])

    def test_every_toy_entry_hashes_to_its_digest(self, tmp_path):
        context = _ctx(tmp_path)
        every = ["root", "double", "total", "indep"]
        result = run_study(context, outputs=every, registry=toy_registry())
        self._assert_entries_verify(context, result)

    def test_every_entry_of_t1s_closure_hashes_to_its_digest(self, tmp_path):
        from repro.studygraph.registry import default_registry

        registry = default_registry()
        context = _ctx(tmp_path)
        cold = run_study(context, nodes=["T1"], registry=registry)
        result = run_study(
            _ctx(tmp_path), nodes=["T1"], outputs=list(cold.runs), registry=registry
        )
        assert result.executed == 0 and len(result.runs) > 1
        self._assert_entries_verify(context, result)

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_a_damaged_entry_is_rebuilt_not_decoded(self, tmp_path, damage):
        context = _ctx(tmp_path)
        cold = run_study(context, registry=toy_registry())
        path = _data_path(context, cold.runs["total"].key)
        raw = bytearray(path.read_bytes())
        if damage == "flip":
            # A digit inside the payload: the entry still decodes as JSON.
            at = raw.index(b'"total":') + len(b'"total":')
            raw[at] = ord("8")
        else:
            del raw[-5:]
        path.write_bytes(bytes(raw))
        warm_context = _ctx(tmp_path)
        warm = run_study(warm_context, outputs=["total"], registry=toy_registry())
        assert warm.outputs["total"] == cold.outputs["total"]
        assert warm_context.telemetry.counter("studygraph.payload_rebuilds") == 1


class TestLazyOutputs:
    def test_cached_output_loads_on_first_read(self, tmp_path, monkeypatch):
        cold = run_study(_ctx(tmp_path), registry=toy_registry())
        context = _ctx(tmp_path)
        loads = []

        def spy(method):
            original = getattr(context.cache, method)

            def spied(key, tag):
                loads.append(tag)
                return original(key, tag)

            monkeypatch.setattr(context.cache, method, spied)

        # Metadata is decoded through ``load``; payload entries are read
        # undecoded through ``load_encoded`` and verified before use.
        spy("load")
        spy("load_encoded")
        warm = run_study(context, outputs=["total"], registry=toy_registry())
        assert warm.cached == 4
        assert DATA_TAG not in loads
        assert warm.outputs["total"] == cold.outputs["total"]
        assert loads.count(DATA_TAG) == 1
        assert warm.outputs["total"] == cold.outputs["total"]
        assert loads.count(DATA_TAG) == 1

    def test_store_is_freed_with_the_result(self, tmp_path):
        # No cycle may keep the store (and every payload it holds)
        # alive until the cyclic collector runs.
        gc.disable()
        try:
            result = run_study(_ctx(tmp_path), registry=toy_registry())
            assert result.outputs["total"]["total"] == 9
            store = weakref.ref(result.outputs.store)
            del result
            assert store() is None
        finally:
            gc.enable()


class TestMemoReaders:
    """status and diff read one memo walk."""

    def test_readers_agree_after_one_meta_entry_is_lost(self, tmp_path):
        registry = toy_registry()
        result = run_study(_ctx(tmp_path), registry=registry)
        cache_dir = tmp_path / "memo"
        key = result.runs["double"].key
        (cache_dir / key[:2] / f"{key}.sgmeta.json").unlink()

        states = {
            row[0]: row[2]
            for row in study_status(_ctx(tmp_path), registry=registry)
        }
        cached = {name for name, state in states.items() if state == "cached"}
        report = diff_caches(cache_dir, cache_dir, registry=registry)
        diff_states = {node.name: node.state for node in report.nodes}
        matched = {name for name, state in diff_states.items() if state == "match"}

        assert cached == matched == {"root", "indep"}
        assert states["double"] == "missing"
        assert states["total"] == "unknown"
        assert diff_states["total"] == "absent"


class TestRunSingleNode:
    def test_returns_the_payload(self):
        payload = run_single_node("total", registry=toy_registry())
        assert payload["total"] == 9

    def test_overrides_flow_into_the_run(self):
        payload = run_single_node(
            "total",
            overrides={"root": {"value": 7}},
            registry=toy_registry(),
        )
        assert payload["total"] == 21


class TestStudyStatus:
    def test_states_progress_from_missing_to_cached(self, tmp_path):
        registry = toy_registry()
        before = dict(
            (row[0], row[2])
            for row in study_status(_ctx(tmp_path), registry=registry)
        )
        assert before["root"] == "missing"
        assert before["double"] == "unknown"  # upstream miss hides its key
        run_study(_ctx(tmp_path), registry=registry)
        after = dict(
            (row[0], row[2])
            for row in study_status(_ctx(tmp_path), registry=registry)
        )
        assert set(after.values()) == {"cached"}

    def test_trace_records_add_a_traced_column(self, tmp_path):
        registry = toy_registry()
        run_study(_ctx(tmp_path), registry=registry)
        trace = [
            {"name": "node:root", "span_id": "a", "parent_id": "w",
             "start": 0.0, "end": 0.25, "pid": 1},
            {"name": "node:root", "span_id": "b", "parent_id": "w",
             "start": 1.0, "end": 1.25, "pid": 1},
        ]
        rows = study_status(
            _ctx(tmp_path), registry=registry, trace_records=trace
        )
        by_name = {row[0]: row for row in rows}
        assert len(by_name["root"]) == 6
        assert by_name["root"][5] == "500.0"  # both spans summed
        assert by_name["double"][5] == "-"  # not in the trace


class TestWallHelpers:
    def test_traced_node_walls_sums_node_spans(self):
        trace = [
            {"name": "node:T1", "start": 0.0, "end": 1.0},
            {"name": "node:T1", "start": 2.0, "end": 2.5},
            {"name": "node:F1", "start": 0.0, "end": 0.25},
            {"name": "wave", "start": 0.0, "end": 9.0},
            {"name": "node:broken", "start": 5.0},  # no end: skipped
        ]
        walls = traced_node_walls(trace)
        assert walls == {
            "T1": pytest.approx(1.5),
            "F1": pytest.approx(0.25),
        }


def _grid_point(ctx, inputs, params):
    # The deliberately-slow point: work time scales with the axis value,
    # but the payload depends only on the parameters.
    time.sleep(params["delay"])
    return {"delay": params["delay"], "text": f"delay: {params['delay']}"}


def grid_registry():
    """A toy graph with one grid family whose last point is the slowest."""
    registry = Registry(
        [NodeSpec.build("root", _root, params={"value": 3}, kind=KIND_ARTIFACT)]
    )
    grid = GridSpec.build(
        "sweep.delay",
        _grid_point,
        axes={"delay": (0.0, 0.005, 0.01, 0.05)},
        deps=("root",),
        kind=KIND_ARTIFACT,
    )
    registry.register_grid(
        grid,
        aggregate=NodeSpec.build(
            "sweep.delay", _total_delay, deps=tuple(grid.point_names())
        ),
    )
    return registry


def _total_delay(ctx, inputs, params):
    total = sum(payload["delay"] for payload in inputs.values())
    return {"total": total, "text": f"total delay: {total}"}


class TestOrderLongestFirst:
    def test_known_nodes_sort_longest_first_with_name_tiebreak(self):
        order = order_longest_first(
            ["a", "b", "c", "d"], {"a": 1.0, "b": 5.0, "c": 5.0, "d": 0.5}
        )
        assert order == ["b", "c", "a", "d"]

    def test_unseen_nodes_keep_fifo_position_after_estimated(self):
        order = order_longest_first(["x", "a", "y"], {"a": 1.0})
        assert order == ["a", "x", "y"]

    def test_empty_history_is_pure_fifo(self):
        assert order_longest_first(["b", "a"], {}) == ["b", "a"]


class TestSchedulingInvariance:
    """Dispatch order is scheduling-only: payloads never move."""

    def _digests(self, result):
        return {name: run.digest for name, run in result.runs.items()}

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_longest_first_matches_fifo_and_serial(self, workers):
        serial = run_study(_ctx(), registry=grid_registry())
        fifo = run_study(_ctx(workers=workers), registry=grid_registry())
        # Priorities mark the slow point as slow (and one point unseen,
        # exercising the family-median path mid-run).
        priorities = {
            "sweep.delay[delay=0.05]": 0.05,
            "sweep.delay[delay=0.0]": 0.001,
            "sweep.delay[delay=0.005]": 0.005,
            "root": 0.001,
        }
        longest = run_study(
            _ctx(workers=workers),
            registry=grid_registry(),
            priorities=priorities,
        )
        assert self._digests(fifo) == self._digests(serial)
        assert self._digests(longest) == self._digests(serial)
        assert longest.outputs == serial.outputs

    def test_priorities_never_change_memo_keys(self, tmp_path):
        cold = run_study(
            _ctx(tmp_path),
            registry=grid_registry(),
            priorities={"sweep.delay[delay=0.05]": 9.0},
        )
        warm = run_study(_ctx(tmp_path), registry=grid_registry())
        assert warm.executed == 0
        assert warm.cached == len(cold.runs)


class TestRunMonitorIntegration:
    def test_monitor_sees_cached_and_executed_nodes(self, tmp_path):
        from repro.obs import RunMonitor, read_snapshot

        registry = toy_registry()
        snapshot_path = tmp_path / "live.json"
        monitor = RunMonitor(snapshot_path, interval=0.0)
        cold = run_study(_ctx(tmp_path), registry=registry, monitor=monitor)
        snapshot = read_snapshot(snapshot_path)
        assert snapshot["state"] == "finished"
        assert snapshot["total"] == len(cold.runs)
        assert snapshot["executed"] == cold.executed
        assert snapshot["cached"] == 0
        assert snapshot["pending"] == []

        warm_monitor = RunMonitor(snapshot_path, interval=0.0)
        warm = run_study(
            _ctx(tmp_path), registry=registry, monitor=warm_monitor
        )
        snapshot = read_snapshot(snapshot_path)
        assert snapshot["cached"] == warm.cached == len(cold.runs)
        assert snapshot["executed"] == 0

    def test_monitoring_never_changes_payloads(self, tmp_path):
        from repro.obs import RunMonitor

        plain = run_study(_ctx(), registry=toy_registry())
        monitored = run_study(
            _ctx(),
            registry=toy_registry(),
            monitor=RunMonitor(tmp_path / "live.json", interval=0.0),
        )
        assert monitored.outputs == plain.outputs
        assert {name: run.digest for name, run in monitored.runs.items()} == {
            name: run.digest for name, run in plain.runs.items()
        }
