"""Tests for the thread scheduler, environment, and perturbation."""

import pytest

from repro.classify.recovery_model import (
    ELASTIC_ENVIRONMENT,
    PAPER_DEFAULT,
    RESTART_FRESH,
    RecoveryModel,
)
from repro.envmodel.environment import Environment, EnvironmentSpec
from repro.envmodel.perturb import ResourceFootprint, apply_recovery_perturbation
from repro.envmodel.scheduler import ThreadScheduler
from repro.rng import make_rng


class TestThreadScheduler:
    def test_same_seed_same_interleaving(self):
        threads = {"a": ["a1", "a2"], "b": ["b1"]}
        first = ThreadScheduler(seed=5).interleave(threads)
        second = ThreadScheduler(seed=5).interleave(threads)
        assert first == second

    def test_different_seed_usually_differs(self):
        threads = {"a": [f"a{i}" for i in range(8)], "b": [f"b{i}" for i in range(8)]}
        orders = {tuple(ThreadScheduler(seed=s).interleave(threads)) for s in range(8)}
        assert len(orders) > 1

    def test_interleaving_covers_all_operations(self):
        threads = {"a": ["a1", "a2"], "b": ["b1", "b2", "b3"]}
        order = ThreadScheduler(seed=1).interleave(threads)
        assert sorted(op for _, op in order) == ["a1", "a2", "b1", "b2", "b3"]
        # Per-thread order must be preserved.
        a_ops = [op for name, op in order if name == "a"]
        assert a_ops == ["a1", "a2"]

    def test_race_fires_deterministic_per_seed(self):
        assert ThreadScheduler(seed=3).race_fires(0.5) == ThreadScheduler(seed=3).race_fires(0.5)

    def test_race_window_bounds(self):
        scheduler = ThreadScheduler()
        assert not scheduler.race_fires(0.0)
        assert scheduler.race_fires(1.0)
        with pytest.raises(ValueError):
            scheduler.race_fires(1.5)

    def test_pick_requires_runnable(self):
        with pytest.raises(ValueError):
            ThreadScheduler().pick([])

    def test_reseed_restarts_stream(self):
        scheduler = ThreadScheduler(seed=1)
        first = [scheduler.race_fires(0.5) for _ in range(5)]
        scheduler.reseed(1)
        second = [scheduler.race_fires(0.5) for _ in range(5)]
        assert first == second
        assert scheduler.context_switches == 5

    def test_shared_stream_derived_on_first_draw(self):
        eager = make_rng(7, "scheduler")
        expected = [eager.random() < 0.5 for _ in range(5)]
        scheduler = ThreadScheduler(seed=3)
        scheduler.reseed(7)
        assert [scheduler.race_fires(0.5) for _ in range(5)] == expected


def _scheduler_streams(monkeypatch):
    """Spy on scheduler stream construction; returns the labels made."""
    from repro.envmodel import scheduler as scheduler_module

    made = []
    original = scheduler_module.make_rng

    def spy(seed, label=""):
        made.append(label)
        return original(seed, label)

    monkeypatch.setattr(scheduler_module, "make_rng", spy)
    return made


class TestLazySchedulerStream:
    """A replay pays for a scheduler stream only if its defect draws."""

    @staticmethod
    def replay(study, timing):
        from repro.apps.faults import _TIMING_TRIGGERS
        from repro.recovery import CheckpointRollback, replay_fault

        fault = next(
            f for f in study.all_faults() if (f.trigger in _TIMING_TRIGGERS) == timing
        )
        return replay_fault(fault, CheckpointRollback())

    def test_replay_that_never_draws_makes_no_stream(self, study, monkeypatch):
        made = _scheduler_streams(monkeypatch)
        outcome = self.replay(study, timing=False)
        assert outcome.triggered and outcome.attempts_used > 0
        assert made == []

    def test_timing_replay_still_draws(self, study, monkeypatch):
        made = _scheduler_streams(monkeypatch)
        outcome = self.replay(study, timing=True)
        assert outcome.triggered
        assert made and set(made) == {"scheduler"}


class TestEnvironment:
    def test_spec_sizes_resources(self):
        env = Environment(spec=EnvironmentSpec(file_descriptors=8, process_slots=2))
        assert env.file_descriptors.capacity == 8
        assert env.process_table.capacity == 2

    def test_resource_lookup(self):
        env = Environment()
        assert env.resource("file_descriptors") is env.file_descriptors
        assert env.resource("network_buffers") is env.network.buffers
        with pytest.raises(KeyError):
            env.resource("quantum_flux")

    def test_reseed_scheduler_changes_seed(self):
        env = Environment()
        before = env.scheduler.seed
        env.reseed_scheduler()
        assert env.scheduler.seed != before

    def test_change_hostname(self):
        env = Environment()
        env.change_hostname("other.example.com")
        assert env.hostname == "other.example.com"


class TestPerturbation:
    def test_time_passes_and_entropy_accumulates(self):
        env = Environment()
        env.entropy.drain()
        apply_recovery_perturbation(env, PAPER_DEFAULT, downtime_seconds=100.0)
        assert env.clock.now == 100.0
        assert env.entropy.bits > 0

    def test_paper_default_kills_processes_and_ports(self):
        env = Environment(spec=EnvironmentSpec(process_slots=4, network_ports=4))
        footprint = ResourceFootprint()
        env.process_table.acquire(3)
        footprint.process_slots = 3
        env.ports.acquire(2)
        footprint.ports = 2
        apply_recovery_perturbation(env, PAPER_DEFAULT, footprint)
        assert env.process_table.in_use == 0
        assert env.ports.in_use == 0
        assert footprint.process_slots == 0

    def test_paper_default_preserves_descriptors(self):
        env = Environment(spec=EnvironmentSpec(file_descriptors=4))
        footprint = ResourceFootprint()
        env.file_descriptors.acquire(4)
        footprint.descriptors = 4
        footprint.leaked_descriptors = 4
        apply_recovery_perturbation(env, PAPER_DEFAULT, footprint)
        assert env.file_descriptors.exhausted  # truly generic: state kept

    def test_elastic_model_reclaims_and_grows(self):
        env = Environment(spec=EnvironmentSpec(file_descriptors=4))
        footprint = ResourceFootprint()
        env.file_descriptors.acquire(4)
        footprint.descriptors = 4
        footprint.leaked_descriptors = 4
        env.disk.fill()
        apply_recovery_perturbation(env, ELASTIC_ENVIRONMENT, footprint)
        assert not env.file_descriptors.exhausted
        assert not env.disk.full
        assert env.disk.max_file_bytes is None

    def test_restart_fresh_releases_everything(self):
        env = Environment()
        footprint = ResourceFootprint()
        env.file_descriptors.acquire(5)
        footprint.descriptors = 5
        env.process_table.acquire(2)
        footprint.process_slots = 2
        env.network.buffers.acquire(3)
        footprint.network_buffers = 3
        apply_recovery_perturbation(env, RESTART_FRESH, footprint)
        assert env.file_descriptors.in_use == 0
        assert env.process_table.in_use == 0
        assert env.network.buffers.in_use == 0

    def test_external_repair_restores_dns_and_network(self):
        from repro.envmodel.dns import DnsState
        from repro.envmodel.network import NetworkState

        env = Environment()
        env.dns.degrade(DnsState.ERROR)
        env.network.degrade(NetworkState.SLOW)
        apply_recovery_perturbation(env, PAPER_DEFAULT)
        assert env.dns.state is DnsState.HEALTHY
        assert env.network.state is NetworkState.NORMAL

    def test_no_external_repair_leaves_dns_broken(self):
        from repro.envmodel.dns import DnsState

        env = Environment()
        env.dns.degrade(DnsState.ERROR)
        model = RecoveryModel(expects_external_repair=False)
        apply_recovery_perturbation(env, model)
        assert env.dns.state is DnsState.ERROR

    def test_scheduler_reseeded(self):
        env = Environment()
        before = env.scheduler.seed
        apply_recovery_perturbation(env, PAPER_DEFAULT)
        assert env.scheduler.seed != before
