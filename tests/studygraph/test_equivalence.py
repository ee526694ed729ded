"""The equivalence contract: graph outputs == classic CLI outputs.

Every classic command is a single-node invocation of the study graph,
so each node's rendered text plus a trailing newline must be exactly
the command's stdout -- and worker count or cache state must never
change a payload.  The cheap GNOME mining chain stands in for the
heavyweight archives (the full-scale chains are exercised by the
studygraph benchmark and the CI smoke job).
"""

import pytest

from repro.cli import main
from repro.studygraph import (
    StudyContext,
    default_registry,
    run_single_node,
    run_study,
)

#: Fast nodes spanning every subsystem adapter (no full-scale archives).
CHEAP_NODES = (
    "T1", "T2", "T3", "F1", "F2", "F3",
    "A1", "A2", "C1", "E1",
    "mine.gnome", "funnel.gnome",
    "report", "catalog", "ablate.recovery-model",
)


def _cli_stdout(capsys, argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestNodeTextMatchesCli:
    @pytest.mark.parametrize(
        ("node", "argv"),
        [
            ("T1", ["table", "apache"]),
            ("T2", ["table", "gnome"]),
            ("T3", ["table", "mysql"]),
            ("F1", ["figure", "apache"]),
            ("F2", ["figure", "gnome"]),
            ("F3", ["figure", "mysql"]),
            ("A1", ["aggregate"]),
            ("mine.gnome", ["mine", "gnome"]),
            ("funnel.gnome", ["funnel", "gnome"]),
            ("report", ["report"]),
            ("catalog", ["catalog"]),
        ],
    )
    def test_default_params(self, capsys, node, argv):
        expected = _cli_stdout(capsys, argv)
        assert run_single_node(node)["text"] + "\n" == expected

    def test_figure_override_matches_flag(self, capsys):
        expected = _cli_stdout(capsys, ["figure", "gnome", "--granularity", "quarter"])
        payload = run_single_node(
            "F2", overrides={"F2": {"granularity": "quarter"}}
        )
        assert payload["text"] + "\n" == expected

    def test_replay_override_matches_flag(self, capsys):
        expected = _cli_stdout(
            capsys, ["replay", "--technique", "checkpoint-rollback"]
        )
        payload = run_single_node(
            "E1", overrides={"E1": {"techniques": "checkpoint-rollback"}}
        )
        assert payload["text"] + "\n" == expected

    def test_markdown_report_override_matches_flag(self, capsys):
        expected = _cli_stdout(capsys, ["report", "--format", "markdown"])
        payload = run_single_node(
            "report", overrides={"report": {"format": "markdown"}}
        )
        assert payload["text"] + "\n" == expected


class TestWorkerAndCacheInvariance:
    def test_parallel_run_matches_serial(self):
        serial = run_study(StudyContext.default(), nodes=list(CHEAP_NODES))
        parallel = run_study(
            StudyContext.default(workers=2), nodes=list(CHEAP_NODES)
        )
        assert parallel.outputs == serial.outputs
        assert {name: run.digest for name, run in parallel.runs.items()} == {
            name: run.digest for name, run in serial.runs.items()
        }

    def test_warm_rerun_matches_cold(self, tmp_path):
        cold = run_study(
            StudyContext.default(cache_dir=tmp_path / "memo"),
            nodes=list(CHEAP_NODES),
        )
        assert cold.cached == 0
        warm = run_study(
            StudyContext.default(cache_dir=tmp_path / "memo"),
            nodes=list(CHEAP_NODES),
        )
        assert warm.executed == 0
        assert warm.outputs == cold.outputs
        waves = default_registry().waves(CHEAP_NODES)
        assert cold.waves == warm.waves == len(waves)
