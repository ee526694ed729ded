"""The scenario.* study nodes: grid wiring and bit-identical matrices."""

import pytest

from repro.cli import main
from repro.scenarios.engine import INTERACTION_CLASSES
from repro.scenarios.nodes import (
    BASELINE_NODE,
    PAIRS_FAMILY,
    SCENARIO_BUDGET,
    TEMPORAL_NODE,
    scenario_pair_labels,
)
from repro.studygraph import (
    StudyContext,
    default_registry,
    run_single_node,
    run_study,
)

_TARGETS = [PAIRS_FAMILY, TEMPORAL_NODE]


@pytest.fixture(scope="module")
def serial_result():
    return run_study(StudyContext.default(), nodes=list(_TARGETS), outputs=list(_TARGETS))


class TestGridWiring:
    def test_pair_labels_are_a_pure_function_of_the_catalog(self, study):
        default = scenario_pair_labels()
        explicit = scenario_pair_labels(study)
        assert default == explicit
        assert len(default) == SCENARIO_BUDGET
        assert len(set(default)) == SCENARIO_BUDGET

    def test_labels_survive_grid_name_validation(self):
        """Fault ids contain none of the grid-reserved characters, so the
        registered family (which validates axis values) holds every label."""
        registry = default_registry()
        family = registry.family(PAIRS_FAMILY)
        assert family.size == SCENARIO_BUDGET
        assert family.axes == (("pair", tuple(scenario_pair_labels())),)
        assert family.aggregate == PAIRS_FAMILY

    def test_scenario_nodes_are_registered(self):
        registry = default_registry()
        assert BASELINE_NODE in registry
        assert TEMPORAL_NODE in registry
        assert PAIRS_FAMILY in registry

    def test_every_pair_point_depends_on_the_shared_baseline(self):
        registry = default_registry()
        for name in registry.family(PAIRS_FAMILY).points:
            assert registry.node(name).deps == (BASELINE_NODE,)


class TestMatrixInvariance:
    def test_parallel_run_matches_serial(self, serial_result):
        parallel = run_study(
            StudyContext.default(workers=4),
            nodes=list(_TARGETS),
            outputs=list(_TARGETS),
        )
        assert parallel.outputs == serial_result.outputs
        assert {n: r.digest for n, r in parallel.runs.items()} == {
            n: r.digest for n, r in serial_result.runs.items()
        }

    def test_dispatch_order_never_changes_the_matrix(self, serial_result):
        """Priority dispatch reorders execution only; verdicts and
        digests are identical to FIFO."""
        registry = default_registry()
        closure = registry.topo_order(list(_TARGETS))
        priorities = {name: float(i) for i, name in enumerate(closure)}
        prioritized = run_study(
            StudyContext.default(workers=2),
            nodes=list(_TARGETS),
            outputs=list(_TARGETS),
            priorities=priorities,
        )
        assert prioritized.outputs == serial_result.outputs

    def test_single_node_path_matches_batch(self, serial_result):
        """`run_single_node` is the serve daemon's execution path: a
        served matrix is byte-identical to the batch one."""
        payload = run_single_node(PAIRS_FAMILY)
        assert payload == serial_result.outputs[PAIRS_FAMILY]

    def test_warm_rerun_executes_nothing_and_matches(self, tmp_path):
        cold = run_study(
            StudyContext.default(cache_dir=tmp_path / "memo"),
            nodes=[PAIRS_FAMILY],
            outputs=[PAIRS_FAMILY],
        )
        warm = run_study(
            StudyContext.default(cache_dir=tmp_path / "memo"),
            nodes=[PAIRS_FAMILY],
            outputs=[PAIRS_FAMILY],
        )
        assert warm.executed == 0
        assert warm.outputs == cold.outputs


class TestMatrixContent:
    def test_counts_cover_the_budget(self, serial_result):
        payload = serial_result.outputs[PAIRS_FAMILY]
        assert sum(payload["counts"].values()) == SCENARIO_BUDGET
        assert set(payload["counts"]) == set(INTERACTION_CLASSES)

    def test_sample_contains_a_recovery_defeated_pair(self, serial_result):
        """The acceptance headline: at least one catalog pair where each
        fault is survivable alone but the composition defeats recovery."""
        payload = serial_result.outputs[PAIRS_FAMILY]
        assert payload["counts"]["recovery-defeated"] >= 1
        assert payload["defeated"]
        assert all("+" in pair for pair in payload["defeated"])

    def test_matrix_text_lists_defeated_pairs(self, serial_result):
        payload = serial_result.outputs[PAIRS_FAMILY]
        assert "Pair-interaction matrix" in payload["text"]
        for pair in payload["defeated"]:
            assert pair in payload["text"]

    def test_baseline_text_reports_survival_rate(self, serial_result):
        baseline = run_single_node(BASELINE_NODE)
        survived = sum(
            entry["survived"] for entry in baseline["baselines"].values()
        )
        assert baseline["text"].endswith(f"{survived}/139 survived")

    def test_temporal_table_has_one_row_per_archive(self, serial_result):
        payload = serial_result.outputs[TEMPORAL_NODE]
        assert [p["application"] for p in payload["profiles"]] == [
            "apache",
            "gnome",
            "mysql",
            "all",
        ]
        assert "Temporal clustering" in payload["text"]


class TestCli:
    def test_scenario_matrix_prints_the_aggregate_text(self, capsys, serial_result):
        assert main(["scenario", "matrix", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out == serial_result.outputs[PAIRS_FAMILY]["text"] + "\n"

    def test_scenario_status_defaults_to_the_scenario_closure(self, capsys):
        assert main(["scenario", "status", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert PAIRS_FAMILY in out
        assert TEMPORAL_NODE in out

    def test_scenario_run_targets_the_scenario_nodes(self, capsys, serial_result):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "--no-cache",
                    "--quiet",
                    "--workers",
                    "2",
                    "--show",
                    PAIRS_FAMILY,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Study run:" in out
        assert serial_result.outputs[PAIRS_FAMILY]["text"] in out
