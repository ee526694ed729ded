"""The committed-BENCH diff report, on small synthetic BENCH files."""

import json

from tools.bench_diff import bench_files, diff_report, end_to_end_rows, main

BENCHMARK = {
    "workloads": [{"name": "batch"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "bugdb.parse_s", "unit": "s", "better": "lower"},
        {"name": "mining.yield", "unit": "ratio", "better": "higher"},
    ],
}


def bench(seed, wall, rss, failed, parse_s):
    def result(metrics, failed):
        return {
            "result": {
                "correct": True,
                "attempted": 1000,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": "-"}
                    for name, value in metrics.items()
                },
            }
        }

    return {
        "seed": seed,
        "runs": {
            "batch": {
                "untraced": result({"wall_s": wall, "peak_rss_mb": rss}, failed),
                "traced": result({"bugdb.parse_s": parse_s}, failed),
            }
        },
    }


OLD = bench(11, wall=10.0, rss=100.0, failed=2, parse_s=1.0)
NEW = bench(12, wall=11.0, rss=120.0, failed=3, parse_s=0.5)


def test_rows_judge_each_metric_against_its_bound():
    rows = {row[0]: row for row in end_to_end_rows(
        OLD["runs"]["batch"]["untraced"], NEW["runs"]["batch"]["untraced"],
        BENCHMARK,
    )}
    # +10% wall is inside its 25% bound; +20% RSS is past its 10% bound.
    assert rows["wall_s"][1:] == ["10", "11", "+10.0%", "25%", "ok"]
    assert rows["peak_rss_mb"][1:] == ["100", "120", "+20.0%", "10%", "worse"]
    assert rows["failed share"][1:3] == ["0.2000%", "0.3000%"]
    assert rows["failed share"][-1] == "worse"
    assert rows["correct"][-1] == "ok"


def test_report_lists_per_layer_metrics_either_run_reported():
    report = diff_report(OLD, NEW, BENCHMARK, old_name="BENCH_11", new_name="BENCH_12")
    assert report.splitlines()[0].startswith("BENCH_12 (seed 12) vs BENCH_11")
    assert "batch: per layer (traced)" in report
    assert "bugdb.parse_s" in report and "-50.0%" in report
    assert "mining.yield" not in report


def test_main_diffs_the_two_newest_files(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (tmp_path / "BENCH_9.json").write_text(json.dumps(OLD))
    assert main(tmp_path) == 0
    assert "no baseline yet" in capsys.readouterr().out

    (tmp_path / "BENCH_10.json").write_text(json.dumps(NEW))
    assert [p.name for p in bench_files(tmp_path)] == ["BENCH_9.json", "BENCH_10.json"]
    assert main(tmp_path) == 0
    out = capsys.readouterr().out
    assert out.startswith("BENCH_10 (seed 12) vs BENCH_9 (seed 11)")
    assert "worse" in out
