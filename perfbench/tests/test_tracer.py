"""Wrapper installation, coverage and self-time accounting."""

import importlib
import sys
import textwrap

import pytest

from perfbench import layers
from perfbench.tracer import LayerStat, Target, Tracer, TracerError

FAKE = {
    "__init__.py": "",
    "core.py": """
        import dataclasses

        def inner(x):
            return x + 1

        def outer(x):
            return inner(x) * 2

        class Store:
            def put(self, value):
                return inner(value)

        @dataclasses.dataclass(frozen=True)
        class Format:
            parse: object

        FORMATS = {"a": Format(parse=inner)}
        TABLE = {"inner": inner}
    """,
    "user.py": """
        from fakepkg.core import FORMATS, inner, outer

        def via_name(x):
            return inner(x)

        def via_format(x):
            return FORMATS["a"].parse(x)
    """,
}


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    root = tmp_path / "fakepkg"
    root.mkdir()
    for name, text in FAKE.items():
        (root / name).write_text(textwrap.dedent(text))
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.invalidate_caches()
    yield importlib.import_module("fakepkg")
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_every_binding_of_a_function_is_wrapped(fakepkg):
    tracer = Tracer()
    bound = tracer.install([Target("fakepkg.core:inner", "inner")], package="fakepkg")
    core = sys.modules["fakepkg.core"]
    user = sys.modules["fakepkg.user"]
    # Defining module, the importer's name, the dict table, the frozen
    # dataclass field.
    assert bound == {"fakepkg.core:inner": 4}
    core.outer(1)
    user.via_name(1)
    user.via_format(1)
    core.TABLE["inner"](1)
    assert tracer.stat("inner").calls == 4
    tracer.uninstall()
    core.outer(1)
    user.via_format(1)
    assert tracer.stat("inner").calls == 4
    assert core.FORMATS["a"].parse is core.TABLE["inner"] is core.inner


def test_methods_are_wrapped_on_the_class(fakepkg):
    tracer = Tracer()
    tracer.install([Target("fakepkg.core:Store.put", "put")], package="fakepkg")
    core = sys.modules["fakepkg.core"]
    assert core.Store().put(2) == 3
    assert tracer.stat("put").calls == 1
    tracer.uninstall()
    assert "__wrapped_by_tracer__" not in vars(core.Store.put)


def test_unbound_and_missing_targets_are_errors(fakepkg):
    with pytest.raises(TracerError):
        Tracer().install([Target("fakepkg.core:nothing", "x")], package="fakepkg")
    with pytest.raises(TracerError):
        Tracer().install([Target("fakepkg.core:Store.missing", "x")], package="fakepkg")


def test_an_expected_wrapper_with_no_calls_is_an_error():
    tracer = Tracer()
    tracer.timed("fired", lambda: None)()
    tracer.require(["fired"])
    with pytest.raises(TracerError, match="silent"):
        tracer.require(["fired", "silent"])


def test_self_time_subtracts_nested_wrapped_calls():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.timed("inner", lambda: None)

    def body():
        inner()  # 1 -> 4
        inner()  # 5 -> 6

    tracer.timed("outer", body)()  # 0 -> 10
    assert tracer.stat("outer") == LayerStat(calls=1, total_s=10.0, self_s=6.0)
    assert tracer.stat("inner") == LayerStat(calls=2, total_s=4.0, self_s=4.0)


def test_self_time_survives_exceptions():
    ticks = iter([0.0, 2.0, 3.0, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def fail():
        raise KeyError("x")

    failing = tracer.timed("inner", fail)

    def body():
        with pytest.raises(KeyError):
            failing()

    tracer.timed("outer", body)()
    assert tracer.stat("outer").self_s == 6.0
    assert tracer.stat("inner").calls == 1


def test_reports_merge_across_processes():
    parent, child = Tracer(), Tracer()
    parent.stats["a"] = LayerStat(1, 2.0, 1.0)
    child.stats["a"] = LayerStat(2, 3.0, 3.0)
    child.count("hits", 5)
    parent.merge_report(child.report())
    assert parent.stat("a") == LayerStat(3, 5.0, 4.0)
    assert parent.counts == {"hits": 5}


def test_harness_overhead_is_campaign_wall_minus_runner_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def run_campaign(units, runner):
        return [runner(unit) for unit in units]

    wrapped = layers._campaign(tracer, run_campaign)
    assert wrapped([1, 2], lambda unit: unit) == [1, 2]
    values = layers.layer_values(tracer)
    assert values["harness.overhead_s"] == 10.0 - (2.0 + 2.0)


def test_layer_values_cover_the_metric_table():
    values = layers.layer_values(Tracer())
    names = {name for name, _, _ in layers.PER_LAYER}
    # The rest are filled by the workloads themselves.
    assert names - set(values) == {
        "studygraph.registry_s", "cli.import_s", "trace.overhead",
        "serve.service_p50_ms", "serve.service_p99_ms", "serve.queue_p99_ms",
        "serve.transport_ms", "serve.memo_hit_ratio", "serve.node_runs",
        "serve.daemon_cpu_ms_per_req", "serve.ok_drift", "serve.reconnects",
    }
    assert set(values) <= names
