"""Cross-process span propagation through the harness pool.

Worker-side spans are capture-buffered, shipped back in
``UnitExecution.spans``, and ingested by the dispatching process -- so a
trace has one writer but still links worker spans under the dispatching
wave.  The toy producers are module-level so forked workers resolve them
by reference.
"""

import multiprocessing
import time

import pytest

from repro import obs
from repro.harness.pool import WorkerPool
from repro.harness.workunit import WorkUnit
from repro.obs.sinks import MemorySink
from repro.studygraph.context import StudyContext
from repro.studygraph.node import KIND_ARTIFACT, NodeSpec
from repro.studygraph.registry import Registry
from repro.studygraph.scheduler import run_study

fork_available = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    obs.uninstall()
    yield
    obs.uninstall()


def _echo_runner(unit, context):
    return {"value": unit.params_dict()["n"]}


def _root(ctx, inputs, params):
    # A small stall so wave time dominates the trace, as in real runs
    # (coverage assertions are meaningless on a microsecond-long root).
    time.sleep(0.005)
    return {"value": 3}


def _double(ctx, inputs, params):
    time.sleep(0.005)
    return {"value": inputs["root"]["value"] * 2}


def _toy_registry():
    return Registry(
        [
            NodeSpec.build("root", _root, kind=KIND_ARTIFACT),
            NodeSpec.build("double", _double, deps=("root",)),
        ]
    )


def test_pool_units_parent_under_dispatching_span():
    sink = MemorySink()
    units = [
        WorkUnit.build("echo", f"fault-{n}", params={"n": n}) for n in range(4)
    ]
    with obs.tracing(sink):
        with obs.span("dispatch") as dispatch:
            WorkerPool(1).execute(
                units, _echo_runner, None, on_unit=lambda execution: None
            )
    unit_records = [r for r in sink.records if r["name"] == "unit:echo"]
    assert len(unit_records) == 4
    assert all(r["parent_id"] == dispatch.span_id for r in unit_records)
    assert all(r["attrs"]["queue_ms"] >= 0 for r in unit_records)


@pytest.mark.skipif(not fork_available, reason="needs fork-based workers")
def test_forked_worker_spans_link_to_dispatcher():
    sink = MemorySink()
    units = [
        WorkUnit.build("echo", f"fault-{n}", params={"n": n}) for n in range(6)
    ]
    with obs.tracing(sink):
        with obs.span("dispatch") as dispatch:
            WorkerPool(3).execute(
                units, _echo_runner, None, on_unit=lambda execution: None
            )
    unit_records = [r for r in sink.records if r["name"] == "unit:echo"]
    assert len(unit_records) == 6
    assert all(r["parent_id"] == dispatch.span_id for r in unit_records)
    # Worker spans recorded in other processes still landed in one sink.
    dispatcher_pid = next(
        r["pid"] for r in sink.records if r["name"] == "dispatch"
    )
    assert {r["pid"] for r in unit_records} - {dispatcher_pid}


@pytest.mark.skipif(not fork_available, reason="needs fork-based workers")
def test_study_run_trace_links_across_processes(tmp_path):
    trace_path = tmp_path / "study.trace"
    with obs.tracing(trace_path):
        run_study(
            StudyContext.default(workers=2),
            nodes=["double"],
            registry=_toy_registry(),
        )
    records, skipped = obs.read_trace(trace_path)
    assert skipped == 0
    by_id = {r["span_id"]: r for r in records}
    node_records = [r for r in records if r["name"].startswith("node:")]
    assert {r["name"] for r in node_records} == {"node:root", "node:double"}
    for record in records:
        if record["parent_id"] is not None:
            assert record["parent_id"] in by_id  # no dangling parents
    # node -> unit -> campaign -> wave -> study.run, across the fork.
    for node_record in node_records:
        chain = []
        cursor = node_record
        while cursor["parent_id"] is not None:
            cursor = by_id[cursor["parent_id"]]
            chain.append(cursor["name"])
        assert chain == ["unit:studygraph", "campaign", "wave", "study.run"]
    assert len({r["pid"] for r in records}) >= 2
    assert len({r["trace_id"] for r in records}) == 1


def test_serial_study_run_trace_is_complete(tmp_path):
    trace_path = tmp_path / "study.trace"
    with obs.tracing(trace_path):
        result = run_study(
            StudyContext.default(workers=1),
            nodes=["double"],
            registry=_toy_registry(),
        )
    assert result.executed == 2
    records, skipped = obs.read_trace(trace_path)
    assert skipped == 0
    names = {r["name"] for r in records}
    assert {"study.run", "wave", "campaign", "unit:studygraph"} <= names
    summary = obs.summarize_trace(records)
    assert summary.root["name"] == "study.run"
    assert summary.coverage >= 0.95


def test_payloads_identical_with_and_without_tracing(tmp_path):
    traced_ctx = StudyContext.default(workers=1)
    with obs.tracing(tmp_path / "t.trace"):
        traced = run_study(
            traced_ctx, nodes=["double"], registry=_toy_registry()
        )
    untraced = run_study(
        StudyContext.default(workers=1),
        nodes=["double"],
        registry=_toy_registry(),
    )
    assert traced.outputs == untraced.outputs
    assert {
        name: run.digest for name, run in traced.runs.items()
    } == {name: run.digest for name, run in untraced.runs.items()}
