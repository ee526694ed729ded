"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.journal import JournalWriter
from repro.recovery.nodes import TECHNIQUES

SRC = Path(__file__).resolve().parents[1] / "src"


class TestTableCommand:
    def test_apache_table(self, capsys):
        assert main(["table", "apache"]) == 0
        out = capsys.readouterr().out
        assert "Classification of faults for Apache" in out
        assert "36" in out

    def test_unknown_application(self):
        with pytest.raises(SystemExit, match="unknown application"):
            main(["table", "solaris"])


class TestFigureCommand:
    @pytest.mark.parametrize("application", ["apache", "gnome", "mysql"])
    def test_each_figure_renders(self, capsys, application):
        assert main(["figure", application]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "env-indep=" in out

    def test_width_option(self, capsys):
        main(["figure", "apache", "--width", "10"])
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_gnome_quarter_granularity(self, capsys):
        main(["figure", "gnome", "--granularity", "quarter"])
        assert "1998Q4" in capsys.readouterr().out


class TestAggregateCommand:
    def test_prints_section_5_4(self, capsys):
        assert main(["aggregate"]) == 0
        out = capsys.readouterr().out
        assert "139" in out
        assert "72%-87%" in out


class TestMineCommand:
    def test_gnome_mine_prints_trace_and_table(self, capsys):
        assert main(["mine", "gnome"]) == 0
        out = capsys.readouterr().out
        assert "Mining narrowing for GNOME" in out
        assert "unique bugs" in out
        assert "45" in out

    def test_apache_mine_scaled(self, capsys):
        assert main(["mine", "apache", "--scale", "300"]) == 0
        out = capsys.readouterr().out
        assert "300" in out
        assert "50" in out


class TestReplayCommand:
    def test_single_technique(self, capsys):
        assert main(["replay", "--technique", "process-pairs"]) == 0
        out = capsys.readouterr().out
        assert "process-pairs" in out
        assert "Recovery replay" in out


class TestReportCommand:
    def test_report_without_replay(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out
        assert "Lee & Iyer" in out


class TestExportCommand:
    def test_export_apache_archive(self, capsys, tmp_path):
        path = tmp_path / "apache.gnats"
        assert main(["export-archive", "apache", str(path), "--scale", "120"]) == 0
        from repro.bugdb import gnats

        reports = gnats.parse_archive(path.read_text())
        assert len(reports) == 120

    def test_export_mysql_archive(self, capsys, tmp_path):
        path = tmp_path / "mysql.mbox"
        assert main(["export-archive", "mysql", str(path), "--scale", "600"]) == 0
        from repro.bugdb import mbox

        assert len(mbox.parse_archive(path.read_text())) >= 600


class TestCsvCommand:
    def test_table_csv(self, capsys):
        assert main(["csv", "table", "apache"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("application,class,faults")
        assert "apache,environment-independent,36" in out

    def test_figure_csv(self, capsys):
        assert main(["csv", "figure", "mysql"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bucket,")
        assert "3.23.2" in out


class TestFunnelCommand:
    def test_gnome_funnel(self, capsys):
        assert main(["funnel", "gnome"]) == 0
        out = capsys.readouterr().out
        assert "Narrowing funnel for GNOME" in out
        assert "overall selectivity: 9.00%" in out

    def test_apache_funnel_scaled(self, capsys):
        assert main(["funnel", "apache", "--scale", "250"]) == 0
        out = capsys.readouterr().out
        assert "most selective stage" in out


class TestMarkdownReport:
    def test_markdown_format(self, capsys):
        assert main(["report", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Whither Generic Recovery")
        assert "| environment-independent | 36 |" in out
        assert "**Conclusion:**" in out


class TestCatalogCommand:
    def test_catalog_lists_all_faults(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Fault catalog")
        assert out.count("- **APACHE-") == 50
        assert out.count("- **GNOME-") == 45
        assert out.count("- **MYSQL-") == 44


class TestCampaignCommand:
    def test_run_with_workers_and_journal(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "campaign", "run", "--application", "apache", "--limit", "12",
                    "--workers", "2", "--journal", str(journal),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Campaign replay over 12 study faults" in out
        assert "12 executed" in out
        assert journal.exists()

    def test_default_action_is_run(self, capsys):
        assert main(["campaign", "--application", "gnome", "--limit", "5"]) == 0
        assert "Campaign replay over 5 study faults" in capsys.readouterr().out

    def test_status_reports_progress(self, capsys, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        main(["campaign", "run", "--application", "mysql", "--limit", "8", "--journal", journal])
        capsys.readouterr()
        assert main(["campaign", "status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "Campaign journal" in out
        assert "8/8" in out
        assert "checkpoint-rollback" in out

    def test_resume_skips_completed_units(self, capsys, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        main(["campaign", "run", "--application", "apache", "--limit", "10", "--journal", journal])
        capsys.readouterr()
        assert main(["campaign", "resume", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        assert "10 resumed from journal" in out

    def test_status_requires_journal(self):
        with pytest.raises(SystemExit, match="requires --journal"):
            main(["campaign", "status"])

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(SystemExit, match="no journal"):
            main(["campaign", "resume", "--journal", str(tmp_path / "absent.jsonl")])

    def test_run_rejects_unknown_technique(self, capsys):
        # argparse's choices reject the name before the handler runs.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "--technique", "magic"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'magic'" in capsys.readouterr().err

    def test_resume_of_unknown_technique_names_the_choices(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        JournalWriter(journal, meta={"kind": "replay", "technique": "magic", "seed": 1})
        expected = "unknown technique 'magic'; choose from " + ", ".join(TECHNIQUES)
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "resume", "--journal", str(journal)])
        assert excinfo.value.code == expected


class TestImportCost:
    def test_cli_import_does_not_load_the_harness(self):
        # Grid points and the campaign command import the harness lazily,
        # so every CLI invocation that does not replay skips it.
        probe = "import sys, repro.cli; print('repro.harness' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestReportWithReplay:
    def test_with_replay_includes_replay_section(self, capsys, monkeypatch):
        import repro.reports.nodes as report_nodes
        from repro.recovery.driver import FaultReplayOutcome, ReplayReport
        from repro.bugdb.enums import FaultClass

        def stub_replay(study, factory):
            outcome = FaultReplayOutcome(
                fault_id="STUB-1",
                fault_class=FaultClass.ENV_DEP_TRANSIENT,
                technique=factory.name,
                triggered=True,
                survived=True,
                attempts_used=1,
            )
            return ReplayReport(technique=factory.name, outcomes=(outcome,))

        monkeypatch.setattr(report_nodes, "replay_study", stub_replay)
        assert main(["report", "--with-replay"]) == 0
        out = capsys.readouterr().out
        assert "Generic-recovery replay" in out
        assert "process-pairs" in out


class TestEverySubcommandSmoke:
    """Satellite coverage: each subcommand exits 0 with non-empty stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "gnome"],
            ["figure", "mysql", "--width", "20"],
            ["aggregate"],
            ["mine", "gnome"],
            ["mine", "run", "--application", "gnome"],
            ["replay", "--technique", "restart-fresh"],
            ["campaign", "run", "--application", "gnome", "--limit", "3"],
            ["report"],
            ["catalog"],
            ["funnel", "gnome"],
            ["csv", "table", "mysql"],
            ["csv", "figure", "gnome"],
            ["study", "graph"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_exits_zero_with_output(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip()

    def test_export_archive(self, capsys, tmp_path):
        path = tmp_path / "gnome.debbugs"
        assert main(["export-archive", "gnome", str(path)]) == 0
        assert capsys.readouterr().out.strip()
        assert path.stat().st_size > 0

    def test_study_run_and_status(self, capsys, tmp_path):
        cache = str(tmp_path / "memo")
        args = ["--nodes", "T1,A1", "--cache-dir", cache]
        assert main(["study", "run", *args]) == 0
        cold = capsys.readouterr().out
        assert "Study run: 5 executed, 0 cached" in cold
        assert main(["study", "run", *args, "--show", "T1"]) == 0
        warm = capsys.readouterr().out
        assert "Study run: 0 executed, 5 cached" in warm
        assert "Classification of faults for Apache" in warm
        assert main(["study", "status", *args]) == 0
        assert capsys.readouterr().out.count("cached") == 5

    def test_study_run_unknown_node_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown study-graph node"):
            main(["study", "run", "--nodes", "bogus",
                  "--cache-dir", str(tmp_path / "memo")])

    def test_study_run_collapses_grid_families(self, capsys, tmp_path):
        args = ["--nodes", "ablate.recovery-model",
                "--cache-dir", str(tmp_path / "memo")]
        assert main(["study", "run", *args]) == 0
        collapsed = capsys.readouterr().out
        assert "sweep.recovery-model[x4]" in collapsed
        assert "model=paper-default" not in collapsed
        assert "Study run: 8 executed, 0 cached" in collapsed

        assert main(["study", "run", *args, "--expand-grids"]) == 0
        expanded = capsys.readouterr().out
        assert "sweep.recovery-model[model=paper-default]" in expanded
        assert "sweep.recovery-model[x4]" not in expanded

        assert main(["study", "status", *args]) == 0
        status = capsys.readouterr().out
        assert "sweep.recovery-model[x4]" in status
        assert "model=paper-default" not in status
        assert main(["study", "status", *args, "--expand-grids"]) == 0
        assert "model=paper-default" in capsys.readouterr().out

    def test_nodes_flag_keeps_grid_point_names_whole(self, capsys, tmp_path):
        point = "sweep.rejuvenation[downtime_minutes=10.0,interval_hours=none]"
        assert main([
            "study", "run", "--nodes", f"A2,{point}",
            "--show", point, "--cache-dir", str(tmp_path / "memo"),
        ]) == 0
        out = capsys.readouterr().out
        assert "never (baseline) (restart 10 min)" in out

    def test_study_graph_collapses_and_expands_grids(self, capsys):
        assert main(["study", "graph"]) == 0
        collapsed = capsys.readouterr().out
        assert "5 grid families (105 points)" in collapsed
        assert "sweep.rejuvenation[x49]" in collapsed
        assert "scenario.pairs[x40]" in collapsed
        assert "interval_hours=" not in collapsed
        assert main(["study", "graph", "--expand-grids"]) == 0
        expanded = capsys.readouterr().out
        assert "sweep.rejuvenation[downtime_minutes=10.0,interval_hours=none]" in expanded

    def test_study_run_longest_first_outputs_are_identical(self, capsys, tmp_path):
        db = str(tmp_path / "perf.jsonl")
        cache_a = str(tmp_path / "memo-a")
        cache_b = str(tmp_path / "memo-b")
        nodes = ["--nodes", "ablate.recovery-model", "--quiet"]
        # Cold FIFO run records the history the second run schedules by.
        assert main(["study", "run", *nodes, "--cache-dir", cache_a,
                     "--perfdb", db, "--order", "fifo"]) == 0
        capsys.readouterr()
        assert main(["study", "run", *nodes, "--cache-dir", cache_b,
                     "--perfdb", db, "--order", "longest-first"]) == 0
        capsys.readouterr()
        assert main(["study", "diff", cache_a, cache_b,
                     "--nodes", "ablate.recovery-model"]) == 0
        assert "drift" in capsys.readouterr().out

    def test_mine_run_rejects_positional_soup(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "run", "apache"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: apache" in capsys.readouterr().err

    def test_mine_run_still_requires_application_flag(self):
        with pytest.raises(SystemExit, match="requires --application"):
            main(["mine", "run"])


class TestStreamingMineAndIndexCommands:
    @pytest.fixture()
    def archive(self, tmp_path):
        from repro.bugdb.enums import Application
        from repro.corpus import mysql_corpus, write_archive

        path = tmp_path / "mysql.mbox"
        write_archive(path, Application.MYSQL, mysql_corpus(), scale=1200)
        return path

    def test_mine_run_archive_streams_and_indexes(self, capsys, tmp_path, archive):
        index_dir = tmp_path / "idx"
        assert main([
            "mine", "run", "--application", "mysql",
            "--archive", str(archive),
            "--max-shard-bytes", str(128 << 10),
            "--index-dir", str(index_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "Mining narrowing for MySQL" in out
        assert "stream:" in out
        assert "MB/s" in out
        assert (index_dir / "manifest.json").exists()

    def test_mine_run_streaming_flags_require_archive(self):
        with pytest.raises(SystemExit, match="--archive"):
            main(["mine", "run", "--application", "mysql",
                  "--max-shard-bytes", "1024"])
        with pytest.raises(SystemExit, match="--archive"):
            main(["mine", "run", "--application", "mysql",
                  "--index-dir", "/tmp/nowhere"])

    def test_mine_run_index_dir_needs_a_format_with_index_text(self, tmp_path):
        from repro.bugdb.enums import Application
        from repro.corpus import gnome_corpus, write_archive

        path = tmp_path / "gnome.archive"
        write_archive(path, Application.GNOME, gnome_corpus(), scale=100)
        index_dir = tmp_path / "idx"
        with pytest.raises(SystemExit, match="gnome defines no index_text"):
            main(["mine", "run", "--application", "gnome",
                  "--archive", str(path), "--index-dir", str(index_dir)])
        assert not index_dir.exists()

    def test_mine_run_rejects_nonpositive_shard_budget(self, archive):
        with pytest.raises(SystemExit, match="positive"):
            main(["mine", "run", "--application", "mysql",
                  "--archive", str(archive), "--max-shard-bytes", "0"])

    def test_index_status_and_compact(self, capsys, tmp_path, archive):
        index_dir = tmp_path / "idx"
        assert main([
            "mine", "run", "--application", "mysql",
            "--archive", str(archive),
            "--max-shard-bytes", str(64 << 10),
            "--index-dir", str(index_dir),
        ]) == 0
        capsys.readouterr()

        assert main(["index", "status", str(index_dir), "--segments"]) == 0
        out = capsys.readouterr().out
        assert "Segment index" in out
        assert "wal-" in out

        assert main(["index", "compact", str(index_dir), "--full"]) == 0
        out = capsys.readouterr().out
        assert "merged" in out
        assert "1 segment(s)" in out

        assert main(["index", "status", str(index_dir)]) == 0
        assert "documents" in capsys.readouterr().out

    def test_index_status_without_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["index", "status", str(tmp_path / "missing")])

    def test_compact_on_compacted_index_reports_no_op(
        self, capsys, tmp_path, archive
    ):
        index_dir = tmp_path / "idx"
        main(["mine", "run", "--application", "mysql",
              "--archive", str(archive), "--index-dir", str(index_dir)])
        capsys.readouterr()
        assert main(["index", "compact", str(index_dir), "--full"]) == 0
        capsys.readouterr()
        assert main(["index", "compact", str(index_dir)]) == 0
        assert "nothing to compact" in capsys.readouterr().out


class TestGoldenOutputs:
    """Exact-stdout checks for the two most-quoted commands."""

    def test_table_apache_golden(self, capsys):
        assert main(["table", "apache"]) == 0
        assert capsys.readouterr().out == (
            "Classification of faults for Apache\n"
            "Class                              | # Faults\n"
            "-----------------------------------+---------\n"
            "environment-independent            | 36      \n"
            "environment-dependent-nontransient | 7       \n"
            "environment-dependent-transient    | 7       \n"
            "total                              | 50      \n"
        )

    def test_aggregate_golden(self, capsys):
        assert main(["aggregate"]) == 0
        assert capsys.readouterr().out == (
            "Section 5.4 aggregate\n"
            "quantity                           | value  \n"
            "-----------------------------------+--------\n"
            "total unique faults                | 139    \n"
            "environment-independent            | 113    \n"
            "environment-dependent-nontransient | 14     \n"
            "environment-dependent-transient    | 12     \n"
            "EI range across apps               | 72%-87%\n"
            "transient range across apps        | 5%-14% \n"
        )


class TestTraceAndDiffCommands:
    """The observability surface: study run --trace, trace, study diff."""

    def _traced_run(self, tmp_path, capsys, name="a"):
        cache = str(tmp_path / f"cache-{name}")
        trace = str(tmp_path / f"{name}.trace")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", cache,
            "--trace", trace, "--quiet",
        ]) == 0
        capsys.readouterr()
        return cache, trace

    def test_traced_run_writes_a_loadable_trace(self, capsys, tmp_path):
        _, trace = self._traced_run(tmp_path, capsys)
        records = json_lines(trace)
        names = {record["name"] for record in records}
        assert "study.run" in names
        assert any(name.startswith("node:") for name in names)

    def test_trace_summary(self, capsys, tmp_path):
        _, trace = self._traced_run(tmp_path, capsys)
        assert main(["trace", "summary", trace, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "root span" in out and "study.run" in out
        assert "root coverage" in out
        assert "Wall time by phase" in out
        assert "Slowest 3 spans" in out

    def test_plain_trace_fills_node_cpu_column(self, capsys, tmp_path):
        # No --sample-resources: the node span's own CPU time fills it.
        _, trace = self._traced_run(tmp_path, capsys)
        (span,) = [r for r in json_lines(trace) if r["name"] == "node:T1"]
        assert span["attrs"]["cpu_seconds"] >= 0
        assert main(["trace", "summary", trace, "--top", "100"]) == 0
        # The self-time table: span | calls | self | total | RSS | cpu.
        (cells,) = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("node:T1 ") and line.count("|") == 5
        ]
        assert cells[-2] == "-"  # peak RSS: still sampler-only
        assert cells[-1] == f"{span['attrs']['cpu_seconds'] * 1000:.1f}"

    def test_trace_export_is_valid_chrome_json(self, capsys, tmp_path):
        import json

        _, trace = self._traced_run(tmp_path, capsys)
        out_path = str(tmp_path / "trace.json")
        assert main(["trace", "export", trace, "--out", out_path]) == 0
        assert "events" in capsys.readouterr().out
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]
        assert all("ph" in event for event in payload["traceEvents"])

    def test_trace_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace file"):
            main(["trace", "summary", str(tmp_path / "nope.trace")])

    def test_study_diff_clean_between_identical_runs(self, capsys, tmp_path):
        cache_a, _ = self._traced_run(tmp_path, capsys, "a")
        cache_b, _ = self._traced_run(tmp_path, capsys, "b")
        assert main(["study", "diff", cache_a, cache_b, "--nodes", "T1"]) == 0
        out = capsys.readouterr().out
        assert "no drift" in out
        assert "match" in out

    def test_study_diff_empty_vs_populated_exits_nonzero(self, capsys, tmp_path):
        cache_a, _ = self._traced_run(tmp_path, capsys, "a")
        empty = str(tmp_path / "cache-empty")
        assert main(["study", "diff", cache_a, empty, "--nodes", "T1"]) == 1
        out = capsys.readouterr().out
        assert "only-a" in out
        assert "drifted" in out

    def test_quiet_suppresses_progress(self, capsys, tmp_path):
        cache = str(tmp_path / "cache-q")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", cache, "--quiet",
        ]) == 0
        assert "study:" not in capsys.readouterr().err

    def test_campaign_quiet_flag(self, capsys):
        assert main(["campaign", "run", "--limit", "1", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "Campaign replay over 1 study faults" in captured.out
        assert "campaign" not in captured.err


class TestPerfIntelligenceCommands:
    """Flame output, the perf history verbs, and live monitoring."""

    def _traced_run(self, tmp_path, capsys, name="a", extra=()):
        cache = str(tmp_path / f"cache-{name}")
        trace = str(tmp_path / f"{name}.trace")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", cache,
            "--trace", trace, "--quiet", *extra,
        ]) == 0
        capsys.readouterr()
        return cache, trace

    def test_trace_summary_flame_renders_icicle(self, capsys, tmp_path):
        _, trace = self._traced_run(tmp_path, capsys)
        assert main([
            "trace", "summary", trace, "--flame", "--flame-width", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "icicle: 60 cols" in out
        assert "root study.run" in out
        assert "|study.run" in out

    def test_trace_export_folded_round_trips(self, capsys, tmp_path):
        from repro.obs.flame import parse_folded

        _, trace = self._traced_run(tmp_path, capsys)
        out_path = tmp_path / "run.folded"
        assert main([
            "trace", "export", trace, "--format", "folded",
            "--out", str(out_path),
        ]) == 0
        assert "folded stacks" in capsys.readouterr().out
        pairs = parse_folded(out_path.read_text(encoding="utf-8"))
        assert pairs
        assert all(stack[0] == "study.run" for stack, _ in pairs)

    def test_trace_export_speedscope_schema(self, capsys, tmp_path):
        import json

        _, trace = self._traced_run(tmp_path, capsys)
        out_path = tmp_path / "run.speedscope.json"
        assert main([
            "trace", "export", trace, "--format", "speedscope",
            "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        with open(out_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert doc["profiles"][0]["events"]

    def test_perf_record_report_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "feedface00")
        db = str(tmp_path / "perf.jsonl")
        # One traced run recorded twice: the baseline equals the latest
        # run by construction, so the check cannot trip on wall noise.
        _, trace = self._traced_run(tmp_path, capsys)
        for _ in range(2):
            assert main(["perf", "record", "--db", db, "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out

        assert main(["perf", "report", "--db", db]) == 0
        report = capsys.readouterr().out
        assert "Perf history: 2 run(s)" in report
        # Every executed node appears in the longitudinal table.
        assert "T1" in report and "corpus.apache" in report
        assert "feedface00"[:10] in report

        assert main(["perf", "check", "--db", db]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_perf_record_carries_span_cpu(self, capsys, tmp_path):
        import json

        # A plain traced run (no sampler): the record takes each node's
        # CPU from its span, as ``trace summary`` does.
        db = tmp_path / "perf.jsonl"
        _, trace = self._traced_run(tmp_path, capsys)
        (span,) = [r for r in json_lines(trace) if r["name"] == "node:T1"]
        assert main(["perf", "record", "--db", str(db), "--trace", trace]) == 0
        (record,) = [json.loads(line) for line in db.read_text().splitlines()]
        assert record["nodes"]["T1"]["cpu_seconds"] == pytest.approx(
            span["attrs"]["cpu_seconds"]
        )

    def test_perf_check_flags_injected_slowdown(self, capsys, tmp_path):
        import json

        db_path = tmp_path / "perf.jsonl"
        db = str(db_path)
        # One traced run recorded three times: the baseline is exactly
        # half of the injected record.
        _, trace = self._traced_run(tmp_path, capsys)
        for _ in range(3):
            assert main(["perf", "record", "--db", db, "--trace", trace]) == 0
        capsys.readouterr()

        # Inject a >=25% slowdown into a copy of the latest record.
        lines = db_path.read_text(encoding="utf-8").splitlines()
        slow = json.loads(lines[-1])
        slow["run_id"] = "injected00ff"
        for node in slow["nodes"].values():
            node["wall_seconds"] = node["wall_seconds"] * 2.0
        with open(db_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(slow) + "\n")

        assert main(["perf", "check", "--db", db, "--window", "3"]) == 1
        out = capsys.readouterr().out
        assert "PERF REGRESSION" in out
        assert "injected00ff" in out

        assert main(["perf", "check", "--db", db, "--warn-only"]) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_corrupt_lines_reported_only_when_present(
        self, capsys, tmp_path, monkeypatch
    ):
        """A torn line adds one notice per log read; nothing else moves."""
        monkeypatch.setenv("REPRO_GIT_SHA", "feedface00")
        db = tmp_path / "perf.jsonl"
        for name in ("a", "b"):
            _, trace = self._traced_run(tmp_path, capsys, name)
            assert main(["perf", "record", "--db", str(db), "--trace", trace]) == 0
        capsys.readouterr()
        commands = [
            (["trace", "summary", trace], 1),
            (["perf", "report", "--db", str(db)], 1),
            (["perf", "check", "--db", str(db)], 1),
            (["slo", "check", "--trace", trace, "--db", str(db), "--warn-only"], 2),
        ]
        clean = []
        for argv, _ in commands:
            clean.append((main(argv), capsys.readouterr().out))
        assert not any("corrupt lines skipped" in out for _, out in clean)

        for path in (tmp_path / "b.trace", db):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines.insert(1, '{"torn mid-file\n')
            path.write_text("".join(lines), encoding="utf-8")
        for (argv, notices), (code, out) in zip(commands, clean):
            assert main(argv) == code
            assert capsys.readouterr().out == (
                "corrupt lines skipped: 1\n" * notices + out
            )

    def test_perf_check_empty_db(self, capsys, tmp_path):
        assert main([
            "perf", "check", "--db", str(tmp_path / "empty.jsonl"),
        ]) == 0
        assert "empty" in capsys.readouterr().out

    def test_perf_record_missing_trace_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace file"):
            main([
                "perf", "record", "--db", str(tmp_path / "perf.jsonl"),
                "--trace", str(tmp_path / "nope.trace"),
            ])

    def test_study_run_perfdb_records_run(self, capsys, tmp_path):
        from repro.obs.perfdb import PerfDB

        db = tmp_path / "perf.jsonl"
        cache = str(tmp_path / "cache-perfdb")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", cache,
            "--perfdb", str(db), "--quiet",
        ]) == 0
        assert "perfdb: recorded" in capsys.readouterr().out
        records = PerfDB(db).read()
        assert len(records) == 1
        assert records[0].source == "study-run"
        assert set(records[0].nodes) == {"T1", "corpus.apache"}
        assert records[0].counters["nodes.executed"] == 2

    def test_study_run_live_writes_finished_snapshot(self, capsys, tmp_path):
        from repro.obs.livestatus import read_snapshot

        live = tmp_path / "live.json"
        cache = str(tmp_path / "cache-live")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", cache,
            "--live", str(live), "--quiet",
        ]) == 0
        assert "live snapshot:" in capsys.readouterr().out
        snapshot = read_snapshot(live)
        assert snapshot["state"] == "finished"
        assert snapshot["done"] == snapshot["total"] == 2

    def test_study_watch_once(self, capsys, tmp_path):
        live = tmp_path / "live.json"
        cache = str(tmp_path / "cache-watch")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", cache,
            "--live", str(live), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["study", "watch", str(live), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[study]" in out
        assert "finished" in out

    def test_study_watch_missing_snapshot_once(self, capsys, tmp_path):
        assert main([
            "study", "watch", str(tmp_path / "absent.json"), "--once",
        ]) == 0
        assert "waiting for snapshot" in capsys.readouterr().out

    def test_study_status_trace_attribution(self, capsys, tmp_path):
        cache, trace = self._traced_run(tmp_path, capsys)
        assert main([
            "study", "status", "--nodes", "T1", "--cache-dir", cache,
            "--trace", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "traced ms" in out
        # Both executed nodes carry a traced wall-time cell.
        for line in out.splitlines():
            if line.startswith(("T1 ", "corpus.apache ")):
                assert line.rstrip().split("|")[-1].strip() != "-"

    def test_determinism_monitoring_never_changes_digests(self, capsys, tmp_path):
        plain_cache = str(tmp_path / "cache-plain")
        monitored_cache = str(tmp_path / "cache-mon")
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", plain_cache,
            "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main([
            "study", "run", "--nodes", "T1", "--cache-dir", monitored_cache,
            "--quiet", "--live", str(tmp_path / "live.json"),
            "--perfdb", str(tmp_path / "perf.jsonl"),
            "--trace", str(tmp_path / "mon.trace"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "study", "diff", plain_cache, monitored_cache, "--nodes", "T1",
        ]) == 0
        assert "no drift" in capsys.readouterr().out


def json_lines(path):
    import json

    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
