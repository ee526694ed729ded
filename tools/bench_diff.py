"""Diff the newest committed BENCH file against the previous one.

    python3 tools/bench_diff.py

Each ``BENCH_<n>.json`` at the repository root holds, for every
workload in ``BENCHMARK.json``, perfbench's final JSON line from one
untraced and one traced run (``perfbench/run.py --trace 0|1``), the
machine record each run printed, and the seed.  This script compares
the newest file with the one before it and prints, per workload, the
end-to-end metrics of the untraced runs against their ``BENCHMARK.json``
bounds, the failed-operation share, and the per-layer metrics of the
traced runs.

It is a report, not a gate: it exits 0 whatever the numbers say.  Each
file holds single runs, so a row marked ``worse`` asks for ten
alternating pairs of runs before anyone calls it a regression.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def bench_files(root: Path) -> list[Path]:
    """``BENCH_<n>.json`` files under ``root``, oldest (lowest n) first."""
    found = [
        (int(match.group(1)), path)
        for path in root.iterdir()
        if (match := _BENCH_NAME.match(path.name))
    ]
    return [path for _, path in sorted(found)]


def _number(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def _relative(old: float | None, new: float | None) -> float | None:
    if old is None or new is None or old == 0:
        return None
    return new / old - 1.0


def _worsened(relative: float | None, better: str) -> float | None:
    """How far a change moved in the bad direction (negative: improved)."""
    if relative is None:
        return None
    return relative if better == "lower" else -relative


def _value(run: dict[str, Any] | None, name: str) -> float | None:
    if run is None:
        return None
    metric = run["result"]["metrics"].get(name)
    return None if metric is None else float(metric["value"])


def _failed_share(run: dict[str, Any] | None) -> float | None:
    if run is None or not run["result"].get("attempted"):
        return None
    return run["result"]["failed"] / run["result"]["attempted"]


def end_to_end_rows(
    old: dict[str, Any] | None,
    new: dict[str, Any] | None,
    benchmark: dict[str, Any],
) -> list[list[str]]:
    """Rows ``[metric, old, new, change, bound, verdict]`` for one
    workload's untraced runs, plus its failed share and correctness."""
    rows = []
    for metric in benchmark["end_to_end"]:
        before, after = _value(old, metric["name"]), _value(new, metric["name"])
        relative = _relative(before, after)
        worse = _worsened(relative, metric["better"])
        verdict = "-" if worse is None else (
            "worse" if worse > metric["bound"] else "ok"
        )
        rows.append([
            metric["name"],
            _number(before),
            _number(after),
            "-" if relative is None else f"{relative:+.1%}",
            f"{metric['bound']:.0%}",
            verdict,
        ])
    before, after = _failed_share(old), _failed_share(new)
    share_verdict = "-"
    if before is not None and after is not None:
        share_verdict = "worse" if after > before else "ok"
    rows.append([
        "failed share",
        "-" if before is None else f"{before:.4%}",
        "-" if after is None else f"{after:.4%}",
        "-",
        "no rise",
        share_verdict,
    ])
    correct = [
        "-" if run is None else str(run["result"]["correct"]).lower()
        for run in (old, new)
    ]
    rows.append(
        ["correct", *correct, "-", "true", "ok" if correct[1] == "true" else "worse"]
    )
    return rows


def per_layer_rows(
    old: dict[str, Any] | None,
    new: dict[str, Any] | None,
    benchmark: dict[str, Any],
) -> list[list[str]]:
    """Rows ``[metric, old, new, change, better]`` for one workload's
    traced runs; only metrics either run reported are listed."""
    rows = []
    for metric in benchmark["per_layer"]:
        before, after = _value(old, metric["name"]), _value(new, metric["name"])
        if before is None and after is None:
            continue
        relative = _relative(before, after)
        rows.append([
            metric["name"],
            _number(before),
            _number(after),
            "-" if relative is None else f"{relative:+.1%}",
            metric["better"],
        ])
    return rows


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A plain ``|``-separated table with a rule under the header."""
    widths = [
        max(len(str(row[column])) for row in [headers, *rows])
        for column in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(
            str(cell).ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    rule = "-+-".join("-" * width for width in widths)
    return "\n".join([line(headers), rule, *(line(row) for row in rows)])


def diff_report(
    old: dict[str, Any],
    new: dict[str, Any],
    benchmark: dict[str, Any],
    *,
    old_name: str,
    new_name: str,
) -> str:
    """The whole report for two loaded BENCH files."""
    parts = [
        f"{new_name} (seed {new.get('seed')}) vs {old_name} "
        f"(seed {old.get('seed')}): single runs, BENCHMARK.json bounds"
    ]
    for workload in (w["name"] for w in benchmark["workloads"]):
        old_runs = old["runs"].get(workload, {})
        new_runs = new["runs"].get(workload, {})
        parts.append("")
        parts.append(f"{workload}: end to end (untraced)")
        parts.append(format_table(
            ["metric", old_name, new_name, "change", "bound", "verdict"],
            end_to_end_rows(
                old_runs.get("untraced"), new_runs.get("untraced"), benchmark
            ),
        ))
        layer_rows = per_layer_rows(
            old_runs.get("traced"), new_runs.get("traced"), benchmark
        )
        if layer_rows:
            parts.append("")
            parts.append(f"{workload}: per layer (traced)")
            parts.append(format_table(
                ["metric", old_name, new_name, "change", "better"], layer_rows
            ))
    return "\n".join(parts)


def main(root: Path = ROOT) -> int:
    files = bench_files(root)
    if not files:
        print(f"no BENCH_*.json under {root}")
        return 0
    if len(files) == 1:
        print(f"{files[0].name} is the only BENCH file: no baseline yet")
        return 0
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    old_path, new_path = files[-2], files[-1]
    print(diff_report(
        json.loads(old_path.read_text(encoding="utf-8")),
        json.loads(new_path.read_text(encoding="utf-8")),
        benchmark,
        old_name=old_path.stem,
        new_name=new_path.stem,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
