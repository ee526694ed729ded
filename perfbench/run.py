"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the parent of this directory and
the program is imported from its ``src/``.  Workloads: ``batch`` (the
study, a streamed archive and the replay campaigns) and ``serve`` (see
``perfbench/README.md``).

Each run sets up several times, then repeats the workload's fixed work
("passes") until ``--seconds`` have gone by, checks every pass's
outputs, and prints human-readable lines followed, as the last line,
by one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over
set-ups and passes).  With ``--trace 1`` the same untraced passes run,
then one more pass with every layer wrapper installed, and the metrics
are the per-layer ones.  The exit code is 0 only when every output
check passed; without the program's sources it is 2 and nothing is
printed on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("batch", "serve")

#: ``(name, unit)`` of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _module(workload: str):
    from perfbench import w_batch, w_serve

    return {"batch": w_batch, "serve": w_serve}[workload]


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(outcome: common.Outcome) -> dict[str, dict]:
    from perfbench.stats import median

    values = {
        "setup_s": median(outcome.setup_s),
        "wall_s": median(outcome.wall_s),
        "cpu_s": median(outcome.cpu_s),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so child processes are stopped
    # and scratch files removed by the finally blocks on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not common.program_present():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    os.chdir(common.ROOT)
    record = common.machine_record(args.seed, args.workload, bool(args.trace))

    common.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=common.WORK_ROOT))
    tempfile.tempdir = str(work)
    try:
        outcome = _module(args.workload).run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from perfbench import layers

    print("machine: " + json.dumps(record, sort_keys=True))
    for name, metric in end_to_end(outcome).items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for line in outcome.lines:
        print(line)
    ops = outcome.ops
    print(f"error_rate = {ops.error_rate:.6g} ratio (n={ops.attempted}, {ops.failed} failed)")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    metrics = layers.metrics_block(outcome.layers) if args.trace else end_to_end(outcome)
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']} {metric['unit']}")
    correct = not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.ops.attempted,
        "failed": outcome.ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
