"""Campaign-level resource sampling: the sampler observes serial and
forked campaigns without ever changing or failing them."""

import time

import pytest

from repro import obs
from repro.harness import WorkUnit, run_campaign
from repro.harness.pool import fork_available
from repro.obs import MetricsRegistry, resources
from repro.obs.resources import proc_available

needs_proc = pytest.mark.skipif(
    not proc_available(), reason="no /proc on this platform"
)
needs_fork = pytest.mark.skipif(
    not fork_available(), reason="no fork start method"
)


@pytest.fixture(autouse=True)
def _sampling_off_between_tests(monkeypatch):
    monkeypatch.delenv(resources.SAMPLE_ENV, raising=False)
    resources.configure(None)
    yield
    resources.configure(None)


def busy_runner(unit, context):
    """~15ms of work so a 5ms sampler lands a few samples per unit."""
    deadline = time.monotonic() + 0.015
    acc = 0
    while time.monotonic() < deadline:
        acc += unit.seed
    return {"value": unit.seed * 2, "acc_sign": acc >= 0}


def fast_runner(unit, context):
    return {"value": unit.seed * 2}


def ticking_runner(unit, context):
    """Ticks the active sampler inside the unit span, so attribution
    never depends on the sampler thread landing inside a short unit."""
    resources.active_sampler().sample_now()
    return {"value": unit.seed * 2}


def _units(count):
    return [WorkUnit.build("toy", f"F-{i}", seed=i) for i in range(count)]


@needs_proc
class TestSerialSampling:
    def test_serial_campaign_emits_attributed_samples(self):
        resources.configure(60.0)  # the thread never fires; units tick
        sink = obs.MemorySink()
        telemetry = MetricsRegistry()
        with obs.tracing(sink):
            campaign = run_campaign(_units(4), ticking_runner, telemetry=telemetry)
        assert [r["value"] for r in campaign.results] == [0, 2, 4, 6]
        samples = resources.resource_records(sink.records)
        assert samples, "dispatcher sampler should emit records on the serial path"
        usage = resources.usage_by_span_name(sink.records)
        assert any(name.startswith("unit:") for name in usage)
        assert telemetry.gauge_value("resources.peak_rss_bytes") > 0

    def test_results_identical_sampler_on_and_off(self):
        baseline = run_campaign(_units(6), busy_runner)
        resources.configure(0.005)
        with obs.tracing(obs.MemorySink()):
            sampled = run_campaign(_units(6), busy_runner)
        assert sampled.results == baseline.results

    def test_sub_interval_units_yield_no_per_unit_samples(self):
        """Units finishing inside one interval: zero mid-run samples,
        but stop() still takes a final reading so the peak gauge fills."""
        resources.configure(60.0)
        telemetry = MetricsRegistry()
        campaign = run_campaign(_units(3), fast_runner, telemetry=telemetry)
        assert campaign.executed == 3
        assert telemetry.gauge_value("resources.peak_rss_bytes") > 0

    def test_disabled_means_no_records_and_no_gauge(self):
        sink = obs.MemorySink()
        telemetry = MetricsRegistry()
        with obs.tracing(sink):
            run_campaign(_units(3), fast_runner, telemetry=telemetry)
        assert resources.resource_records(sink.records) == []
        assert telemetry.gauge_value("resources.peak_rss_bytes") == 0.0


class TestSamplerNeverFailsCampaign:
    def test_proc_reader_exploding_does_not_fail_campaign(self, monkeypatch):
        resources.configure(0.005)

        def exploding_reader(*args, **kwargs):
            raise RuntimeError("/proc vanished mid-read")

        monkeypatch.setattr(resources, "read_resource_sample", exploding_reader)
        campaign = run_campaign(_units(4), busy_runner)
        assert [r["value"] for r in campaign.results] == [0, 2, 4, 6]

    def test_sampler_constructor_exploding_does_not_fail_campaign(self, monkeypatch):
        resources.configure(0.005)

        class Broken:
            def __init__(self, *args, **kwargs):
                raise OSError("no threads left")

        monkeypatch.setattr(resources, "ResourceSampler", Broken)
        campaign = run_campaign(_units(3), fast_runner)
        assert campaign.executed == 3

    def test_vanishing_target_pid_counts_errors_only(self):
        sampler = resources.ResourceSampler(0.005)
        sampler._pid = 2 ** 22 + 4242  # guaranteed-absent pid
        sampler.start()
        time.sleep(0.03)
        sampler.stop()
        assert sampler.take() == []
        assert sampler.errors > 0


@needs_proc
@needs_fork
class TestForkedSampling:
    def test_workers_inherit_config_and_ship_samples(self):
        resources.configure(0.003)
        sink = obs.MemorySink()
        with obs.tracing(sink):
            campaign = run_campaign(_units(8), busy_runner, workers=2)
        assert campaign.executed == 8
        samples = resources.resource_records(sink.records)
        assert samples
        worker_pids = {r["pid"] for r in samples}
        assert len(worker_pids) >= 2, "dispatcher plus at least one worker"
        usage = resources.usage_by_span_name(sink.records)
        assert any(name.startswith("unit:") for name in usage)

    def test_parallel_results_match_serial_with_sampling(self):
        resources.configure(0.005)
        serial = run_campaign(_units(9), busy_runner)
        parallel = run_campaign(_units(9), busy_runner, workers=3)
        assert serial.results == parallel.results

    def test_worker_death_surfaces_runner_error_not_sampler_error(self):
        resources.configure(0.005)

        with pytest.raises(Exception) as excinfo:
            run_campaign(_units(4), _exit_runner, workers=2)
        # The pool's broken-process error propagates; nothing from the
        # sampler masks or replaces it.
        assert "sampler" not in str(excinfo.value).lower()
        # And the engine cleaned up: no sampler left running.
        assert resources.active_sampler() is None


def _exit_runner(unit, context):
    """Module-level so forked workers resolve it; kills the worker."""
    import os

    os._exit(13)
