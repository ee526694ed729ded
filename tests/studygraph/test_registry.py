"""Tests for node specs and the registry (wiring-level invariants)."""

import pytest

from repro.studygraph.node import KIND_ARTIFACT, KIND_EXPERIMENT, NodeSpec
from repro.studygraph.registry import GraphError, Registry, default_registry


def _noop(ctx, inputs, params):
    return {"text": "noop"}


def _spec(name, deps=(), params=None, kind=KIND_EXPERIMENT):
    return NodeSpec.build(name, _noop, deps=tuple(deps), params=params, kind=kind)


class TestNodeSpec:
    def test_params_are_sorted_and_scalar(self):
        node = _spec("n", params={"b": 2, "a": 1})
        assert node.params == (("a", 1), ("b", 2))

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            _spec("n", params={"bad": [1, 2]})

    def test_with_params_overrides(self):
        node = _spec("n", params={"a": 1, "b": 2})
        assert node.with_params(a=9).params_dict() == {"a": 9, "b": 2}

    def test_with_params_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="no parameter"):
            _spec("n", params={"a": 1}).with_params(z=1)

    def test_cache_digest_depends_on_inputs_params_version(self):
        node = _spec("n", deps=("d",), params={"a": 1})
        base = node.cache_digest({"d": "x"})
        assert node.cache_digest({"d": "y"}) != base
        assert node.with_params(a=2).cache_digest({"d": "x"}) != base
        import dataclasses

        bumped = dataclasses.replace(node, version="2")
        assert bumped.cache_digest({"d": "x"}) != base

    def test_cache_digest_requires_every_dep(self):
        with pytest.raises(KeyError, match="missing input digests"):
            _spec("n", deps=("d",)).cache_digest({})


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = Registry([_spec("a")])
        with pytest.raises(GraphError, match="duplicate"):
            registry.register(_spec("a"))

    def test_unknown_node_lists_known_names(self):
        registry = Registry([_spec("a")])
        with pytest.raises(GraphError, match="known: a"):
            registry.node("zzz")

    def test_experiments_filters_by_kind(self):
        registry = Registry([_spec("a", kind=KIND_ARTIFACT), _spec("b")])
        assert [node.name for node in registry.experiments()] == ["b"]

    def test_closure_includes_transitive_deps(self):
        registry = Registry([_spec("a"), _spec("b", deps=("a",)), _spec("c", deps=("b",))])
        assert registry.closure(["c"]) == ["a", "b", "c"]

    def test_topo_order_respects_deps_and_registration_order(self):
        registry = Registry(
            [_spec("late", deps=("root",)), _spec("root"), _spec("early", deps=("root",))]
        )
        assert registry.topo_order() == ["root", "late", "early"]

    def test_cycle_is_a_graph_error(self):
        registry = Registry([_spec("a", deps=("b",)), _spec("b", deps=("a",))])
        with pytest.raises(GraphError, match="cycle"):
            registry.topo_order()
        with pytest.raises(GraphError, match="cycle"):
            registry.waves()

    def test_waves_partition_by_dependency_depth(self):
        registry = Registry(
            [
                _spec("root"),
                _spec("late", deps=("mid",)),
                _spec("mid", deps=("root",)),
                _spec("other"),
                _spec("early", deps=("root",)),
            ]
        )
        assert registry.waves() == [["root", "other"], ["mid", "early"], ["late"]]
        assert registry.waves(["late"]) == [["root"], ["mid"], ["late"]]
        # Callers get copies; the memoized partition is not shared.
        registry.waves(["late"])[0].append("x")
        assert registry.waves(["late"])[0] == ["root"]

    def test_with_overrides_replaces_params_copy_only(self):
        registry = Registry([_spec("a", params={"x": 1})])
        patched = registry.with_overrides({"a": {"x": 5}})
        assert patched.node("a").params_dict() == {"x": 5}
        assert registry.node("a").params_dict() == {"x": 1}

    def test_with_overrides_rejects_unknown_node(self):
        with pytest.raises(GraphError, match="unknown"):
            Registry([_spec("a")]).with_overrides({"zzz": {"x": 1}})


class TestDefaultRegistry:
    def test_is_a_process_wide_singleton(self):
        assert default_registry() is default_registry()

    def test_covers_every_design_experiment(self):
        names = set(default_registry().names())
        for required in (
            "T1", "T2", "T3", "F1", "F2", "F3",
            "A1", "A2", "C1", "E1", "M1",
            "mine.apache", "mine.gnome", "mine.mysql",
            "funnel.apache", "funnel.gnome", "funnel.mysql",
            "report", "catalog",
            "ablate.recovery-model", "ablate.dedup",
            "sweep.retry-budget", "sweep.race-window", "sweep.rejuvenation",
        ):
            assert required in names, f"missing node {required}"

    def test_registers_the_section5a_grid_families(self):
        families = default_registry().families()
        assert {
            name: family.size for name, family in families.items()
        } == {
            "sweep.retry-budget": 6,
            "sweep.race-window": 6,
            "sweep.rejuvenation": 49,
            "sweep.recovery-model": 4,
            "scenario.pairs": 40,
        }
        assert families["sweep.recovery-model"].aggregate == "ablate.recovery-model"
        assert families["scenario.pairs"].aggregate == "scenario.pairs"

    def test_acyclic_and_fully_orderable(self):
        registry = default_registry()
        order = registry.topo_order()
        assert len(order) == len(registry)
        seen = set()
        for name in order:
            assert all(dep in seen for dep in registry.node(name).deps)
            seen.add(name)

    def test_default_study_waves_are_pinned(self):
        # Measured on the default study: 144 nodes in five waves.  The
        # depth of each node (one past its deepest dependency) is an
        # independent oracle for the partition.
        registry = default_registry()
        targets = registry.targets()
        waves = registry.waves(targets)
        assert [len(wave) for wave in waves] == [53, 33, 50, 7, 1]
        assert registry.topo_order(targets) == [n for wave in waves for n in wave]
        depth: dict[str, int] = {}
        for name in registry.topo_order(targets):
            deps = registry.node(name).deps
            depth[name] = 1 + max((depth[dep] for dep in deps), default=-1)
        assert len(depth) == 144
        assert [
            sorted(n for n in depth if depth[n] == index) for index in range(5)
        ] == [sorted(wave) for wave in waves]

    def test_targets_default_to_every_experiment(self):
        registry = default_registry()
        assert registry.targets() == [n.name for n in registry.experiments()]
        assert registry.targets(("T1", "F1")) == ["T1", "F1"]
