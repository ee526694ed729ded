"""Tests for the self-describing work-unit model."""

import pytest

from repro.harness import WorkUnit, check_unique, load_journal
from repro.harness.campaigns import (
    run_replay_campaign,
    run_sweep_race_window,
    run_sweep_retry_budget,
)
from repro.recovery import CheckpointRollback


class TestBuild:
    def test_params_are_sorted_canonically(self):
        a = WorkUnit.build("replay", "F-1", params={"b": 2, "a": 1}, seed=7)
        b = WorkUnit.build("replay", "F-1", params={"a": 1, "b": 2}, seed=7)
        assert a == b
        assert a.params == (("a", 1), ("b", 2))

    def test_params_dict_roundtrip(self):
        unit = WorkUnit.build("replay", "F-1", params={"window": 0.25}, seed=3)
        assert unit.params_dict() == {"window": 0.25}

    def test_non_scalar_param_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            WorkUnit.build("replay", "F-1", params={"bad": [1, 2]})


class TestKey:
    def test_key_is_content_hash(self):
        a = WorkUnit.build("replay", "F-1", technique="t", seed=7)
        b = WorkUnit.build("replay", "F-1", technique="t", seed=7)
        assert a.key() == b.key()

    def test_key_changes_with_any_field(self):
        base = WorkUnit.build("replay", "F-1", technique="t", seed=7)
        variants = [
            WorkUnit.build("sweep", "F-1", technique="t", seed=7),
            WorkUnit.build("replay", "F-2", technique="t", seed=7),
            WorkUnit.build("replay", "F-1", technique="u", seed=7),
            WorkUnit.build("replay", "F-1", technique="t", seed=8),
            WorkUnit.build("replay", "F-1", technique="t", params={"x": 1}, seed=7),
        ]
        keys = {unit.key() for unit in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_key_stable_across_dict_roundtrip(self):
        unit = WorkUnit.build(
            "retry-budget", "F-9", technique="t",
            params={"budget": 4, "replication": 2, "race_window": 0.25}, seed=99,
        )
        assert WorkUnit.from_dict(unit.to_dict()) == unit
        assert WorkUnit.from_dict(unit.to_dict()).key() == unit.key()

    def test_key_is_computed_once_outside_the_fields(self, monkeypatch):
        import dataclasses
        import pickle

        import repro.harness.workunit as workunit

        unit = WorkUnit.build("replay", "F-1", technique="t", params={"x": 1}, seed=7)
        fresh = WorkUnit.build("replay", "F-1", technique="t", params={"x": 1}, seed=7)
        before = unit.to_dict()
        first = unit.key()
        calls = []
        real_sha256 = workunit.hashlib.sha256
        monkeypatch.setattr(
            workunit.hashlib, "sha256", lambda data: calls.append(data) or real_sha256(data)
        )
        assert [unit.key() for _ in range(5)] == [first] * 5
        assert calls == []
        assert fresh.key() == first and len(calls) == 1
        monkeypatch.undo()
        assert unit.to_dict() == before
        assert [f.name for f in dataclasses.fields(unit)] == [
            "kind", "fault_id", "technique", "params", "seed",
        ]
        assert unit == fresh and hash(unit) == hash(fresh)
        assert "key" not in repr(unit)
        restored = pickle.loads(pickle.dumps(unit))
        assert restored == unit and restored.key() == first


class TestCheckUnique:
    def test_accepts_distinct_units(self):
        check_unique(
            [WorkUnit.build("replay", f"F-{i}", seed=i) for i in range(5)]
        )

    def test_rejects_duplicates(self):
        unit = WorkUnit.build("replay", "F-1", seed=1)
        with pytest.raises(ValueError, match="duplicate work units"):
            check_unique([unit, unit])


#: ``kind -> (fault_id, key, seed)`` of one journaled unit per campaign
#: kind at base seed 7.  Journal resume matches units by key, so a change
#: here would orphan every journal written by an earlier build.
PINNED_UNITS = {
    "replay": ("APACHE-EI-01", "0b26835b4955fc1e6a905eb00e13f6d4", 7367425535496097459),
    "retry-budget": ("APACHE-EDT-03", "0f2a2b0efab1eb3064caf3c0e4359e21", 2816375908703921785),
    "race-window": ("APACHE-EDT-03", "ed994517b3704f7de3fe05fae2586a24", 3192709946972676395),
}


class TestPinnedCampaignKeys:
    @pytest.fixture(scope="class")
    def journaled(self, study, tmp_path_factory):
        """``kind -> {fault_id: (key, seed)}`` from one small journaled run each."""
        root = tmp_path_factory.mktemp("pinned")
        run_replay_campaign(
            study.all_faults()[:1], CheckpointRollback, seed=7,
            journal_path=str(root / "replay.jsonl"),
        )
        run_sweep_retry_budget(
            study, lambda budget: CheckpointRollback(max_attempts=budget),
            budgets=(1,), race_window=0.25, replications=1, seed=7,
            journal_path=str(root / "retry-budget.jsonl"),
        )
        run_sweep_race_window(
            study, CheckpointRollback, windows=(0.05,), replications=1, seed=7,
            journal_path=str(root / "race-window.jsonl"),
        )
        units = {}
        for kind in PINNED_UNITS:
            records = load_journal(root / f"{kind}.jsonl").records.values()
            units[kind] = {
                record["unit"]["fault_id"]: (record["key"], record["unit"]["seed"])
                for record in records
            }
        return units

    @pytest.mark.parametrize("kind", sorted(PINNED_UNITS))
    def test_key_and_seed_unchanged(self, journaled, kind):
        fault_id, key, seed = PINNED_UNITS[kind]
        assert journaled[kind][fault_id] == (key, seed)
