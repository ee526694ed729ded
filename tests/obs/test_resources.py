"""The /proc resource sampler: records, attribution rollups, and the
never-fail contract under every /proc race we can simulate."""

import os
import time

import pytest

from repro import obs
from repro.obs import resources
from repro.obs.resources import (
    ResourceSample,
    ResourceSampler,
    ResourceUsage,
    child_pids,
    is_resource_record,
    proc_available,
    read_resource_sample,
    resource_records,
    usage_by_phase,
    usage_by_span_name,
)

needs_proc = pytest.mark.skipif(
    not proc_available(), reason="no /proc on this platform"
)


class TestRecordShape:
    def test_round_trip(self):
        sample = ResourceSample(
            pid=7, t=1.5, rss_bytes=4096, cpu_seconds=0.25,
            read_bytes=10, write_bytes=20, span_id="s1", span_name="node:T1",
        )
        record = sample.to_record()
        assert record["kind"] == "resource"
        assert ResourceSample.from_record(record) == sample

    def test_optional_fields_omitted(self):
        record = ResourceSample(pid=1, t=0.0, rss_bytes=1, cpu_seconds=0.0).to_record()
        assert "read_bytes" not in record
        assert "span_id" not in record

    def test_is_resource_record_distinguishes_spans(self):
        assert is_resource_record({"kind": "resource"})
        assert not is_resource_record({"name": "x", "start": 0.0, "end": 1.0})

    def test_span_consumers_ignore_sample_records(self):
        """Mixed traces keep working in every span-only consumer."""
        span = {
            "name": "phase:a", "span_id": "s1", "parent_id": None,
            "trace_id": "t", "start": 0.0, "end": 1.0, "attrs": {},
        }
        sample = ResourceSample(pid=1, t=0.5, rss_bytes=1, cpu_seconds=0.0).to_record()
        summary = obs.summarize_trace([span, sample])
        assert summary.spans == 1
        document = obs.chrome_trace([span, sample])
        events = document["traceEvents"]
        assert len([e for e in events if e.get("ph") == "X"]) == 1


@needs_proc
class TestProcReaders:
    def test_read_own_sample(self):
        sample = read_resource_sample()
        assert sample is not None
        assert sample.pid == os.getpid()
        assert sample.rss_bytes > 0
        assert sample.cpu_seconds >= 0.0

    def test_vanished_pid_returns_none(self):
        assert read_resource_sample(2 ** 22 + 12345) is None

    def test_child_pids_tolerates_missing(self):
        assert child_pids(2 ** 22 + 12345) == []

    def test_attribution_tags_open_span(self):
        sink = obs.MemorySink()
        tracer = obs.Tracer(sink)
        obs.install(tracer)
        try:
            with obs.span("campaign"):
                with obs.span("unit:replay"):
                    sample = read_resource_sample(attribute=True)
        finally:
            obs.uninstall()
        assert sample is not None
        assert sample.span_name == "unit:replay"


class TestConfiguration:
    @pytest.fixture(autouse=True)
    def _reset(self, monkeypatch):
        monkeypatch.delenv(resources.SAMPLE_ENV, raising=False)
        resources.configure(None)
        yield
        resources.configure(None)

    def test_off_by_default(self):
        assert resources.configured_interval() is None
        assert not resources.sampling_enabled()

    def test_explicit_configure_wins(self, monkeypatch):
        monkeypatch.setenv(resources.SAMPLE_ENV, "0")
        resources.configure(0.5)
        assert resources.configured_interval() == 0.5

    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "no", "bogus", "-1"])
    def test_env_disabled_values(self, monkeypatch, raw):
        monkeypatch.setenv(resources.SAMPLE_ENV, raw)
        assert resources.configured_interval() is None

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on"])
    def test_env_enabled_default(self, monkeypatch, raw):
        monkeypatch.setenv(resources.SAMPLE_ENV, raw)
        assert resources.configured_interval() == resources.DEFAULT_INTERVAL

    def test_env_float_interval(self, monkeypatch):
        monkeypatch.setenv(resources.SAMPLE_ENV, "0.25")
        assert resources.configured_interval() == 0.25

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resources.configure(0.0)


@needs_proc
class TestSampler:
    def test_samples_accumulate_and_drain(self):
        with ResourceSampler(0.005) as sampler:
            time.sleep(0.05)
        records = sampler.take()
        assert records, "expected at least one sample in 50ms at 5ms interval"
        assert all(r["kind"] == "resource" for r in records)
        assert sampler.take() == []  # drained
        assert sampler.peak_rss_bytes() > 0
        assert sampler.rss_log()  # survives draining

    def test_stop_takes_final_sample(self):
        sampler = ResourceSampler(60.0).start()  # interval >> test duration
        sampler.stop()
        assert len(sampler.take()) == 1

    def test_active_sampler_registration(self):
        assert resources.active_sampler() is None
        sampler = ResourceSampler(0.01).start()
        try:
            assert resources.active_sampler() is sampler
        finally:
            sampler.stop()
        assert resources.active_sampler() is None

    def test_peak_rss_since_window(self):
        sampler = ResourceSampler(0.005).start()
        time.sleep(0.03)
        mark = time.monotonic()
        time.sleep(0.03)
        sampler.stop()
        assert sampler.peak_rss_since(mark) > 0
        assert sampler.peak_rss_since(time.monotonic() + 60.0) is None

    def test_reader_failure_counts_never_raises(self, monkeypatch):
        monkeypatch.setattr(
            resources, "read_resource_sample",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("proc exploded")),
        )
        sampler = ResourceSampler(0.005).start()
        time.sleep(0.03)
        sampler.stop()
        assert sampler.take() == []
        assert sampler.errors > 0

    def test_include_children_samples_self_without_children(self):
        with ResourceSampler(0.005, include_children=True) as sampler:
            time.sleep(0.02)
        pids = {r["pid"] for r in sampler.take()}
        assert os.getpid() in pids


def _mixed_trace():
    """Two spans, two pids, samples with cumulative cpu/io counters."""
    spans = [
        {"name": "node:T1", "span_id": "a", "trace_id": "t",
         "parent_id": None, "start": 0.0, "end": 2.0, "attrs": {}},
        {"name": "node:T2", "span_id": "b", "trace_id": "t",
         "parent_id": None, "start": 2.0, "end": 4.0, "attrs": {}},
    ]
    def sample(t, pid, rss, cpu, span_id, read=None):
        record = ResourceSample(
            pid=pid, t=t, rss_bytes=rss, cpu_seconds=cpu,
            read_bytes=read, span_id=span_id,
        ).to_record()
        return record
    samples = [
        sample(0.5, 10, 100, 1.0, "a", read=0),
        sample(1.5, 10, 300, 1.5, "a", read=4096),
        sample(2.5, 10, 200, 1.7, "b", read=4096),
        sample(3.5, 10, 250, 2.0, "b", read=8192),
        # second pid entirely inside T1; no io counters
        sample(0.7, 11, 900, 0.2, "a"),
        sample(1.7, 11, 950, 0.5, "a"),
    ]
    return spans + samples


class TestRollups:
    def test_usage_by_span_name(self):
        usage = usage_by_span_name(_mixed_trace())
        t1, t2 = usage["node:T1"], usage["node:T2"]
        assert t1.samples == 4 and t2.samples == 2
        assert t1.peak_rss_bytes == 950  # max across both pids
        assert t2.peak_rss_bytes == 250
        # cpu deltas credited to the later sample's span
        assert t1.cpu_seconds == pytest.approx(0.5 + 0.3)  # pid10 + pid11
        assert t2.cpu_seconds == pytest.approx(0.2 + 0.3)
        assert t1.read_bytes == 4096
        assert t2.read_bytes == 4096

    def test_usage_by_phase_merges_on_prefix(self):
        usage = usage_by_phase(_mixed_trace())
        assert set(usage) == {"node"}
        assert usage["node"].samples == 6
        assert usage["node"].peak_rss_bytes == 950

    def test_unattributed_samples_grouped(self):
        record = ResourceSample(pid=1, t=0.0, rss_bytes=5, cpu_seconds=0.0).to_record()
        usage = usage_by_span_name([record])
        assert usage["(unattributed)"].samples == 1

    def test_span_name_fallback_when_id_unknown(self):
        record = ResourceSample(
            pid=1, t=0.0, rss_bytes=5, cpu_seconds=0.0,
            span_id="gone", span_name="unit:replay",
        ).to_record()
        assert set(usage_by_span_name([record])) == {"unit:replay"}

    def test_cpu_delta_never_negative(self):
        records = [
            ResourceSample(pid=1, t=0.0, rss_bytes=1, cpu_seconds=5.0).to_record(),
            ResourceSample(pid=1, t=1.0, rss_bytes=1, cpu_seconds=4.0).to_record(),
        ]
        usage = usage_by_span_name(records)
        assert usage["(unattributed)"].cpu_seconds == 0.0

    def test_resource_records_filter(self):
        trace = _mixed_trace()
        assert len(resource_records(trace)) == 6
