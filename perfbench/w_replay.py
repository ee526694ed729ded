"""``replay`` (a part of ``batch``): replay campaigns, sweeps and fault pairs.

A pass replays all 139 faults under all five techniques at the paper's
seed and at :data:`DRAWN_SEEDS` seeds drawn from the run's seed, each
campaign with its own journal; runs the retry-budget and race-window
sweeps at both; and replays the paper's 40-pair scenario sample plus a
stratified sample of :data:`SAMPLE_PAIRS` pairs drawn with the run's
seed, classifying each pair against single-fault baselines.

Checks: the paper-seed results equal the pinned ones (survival per
technique, both sweep tables, every pair's interaction class); every
pass agrees; every journal holds one line per unit; and once per run
the drawn-seed verdicts equal the serial reference
:func:`repro.recovery.driver.replay_fault`.

Set-up is a fresh interpreter importing the harness, recovery and
scenario layers and building the scenario sample.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path

from perfbench import layers
from perfbench.common import (
    PAPER_SEED,
    SETUP_REPEATS,
    Outcome,
    passes_until,
    run_child,
    peak_rss_mb,
    reset_peak_rss,
)
from perfbench.pins import PINS
from perfbench.stats import median
from perfbench.tracer import Tracer

DRAWN_SEEDS = 8
SAMPLE_PAIRS = 200
PAPER_PAIRS = 40
SWEEP_REPLICATIONS = 5
DRAWN_REPLICATIONS = 20
BUDGETS = (1, 2, 3, 4, 6, 8)
WINDOWS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
RACE_WINDOW = 0.25
TECHNIQUE = "checkpoint-rollback"

SETUP_CODE = (
    "import repro.harness.campaigns, repro.recovery.nodes, repro.scenarios.engine\n"
    "from repro.corpus.loader import full_study\n"
    "from repro.scenarios.enumerate import stratified_pair_sample\n"
    f"stratified_pair_sample(full_study(), {SAMPLE_PAIRS}, seed={{seed}})\n"
)


def drawn_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(DRAWN_SEEDS)]


def _pass(seed: int, journal_dir: Path) -> dict:
    """One pass of the fixed work; returns every verdict it produced."""
    from repro.corpus.loader import full_study
    from repro.harness.campaigns import (
        run_replay_campaign,
        run_sweep_race_window,
        run_sweep_retry_budget,
    )
    from repro.recovery.nodes import TECHNIQUES
    from repro.scenarios.engine import baseline_outcomes, classify_interaction, run_scenario
    from repro.scenarios.enumerate import fault_index, stratified_pair_sample

    study = full_study()
    faults = study.all_faults()
    journal_dir.mkdir()
    verdicts: dict = {"replay": {}, "sweeps": {}, "pairs": {}, "scenario_runs": 0}
    for replay_seed in [PAPER_SEED, *drawn_seeds(seed)]:
        for name, factory in TECHNIQUES.items():
            report = run_replay_campaign(
                faults,
                factory,
                seed=replay_seed,
                journal_path=str(journal_dir / f"{replay_seed}-{name}.jsonl"),
            )
            verdicts["replay"][(replay_seed, name)] = tuple(
                (o.fault_id, o.triggered, o.survived, o.attempts_used) for o in report.outcomes
            )
    rollback = TECHNIQUES[TECHNIQUE]
    for sweep_seed, replications in ((PAPER_SEED, SWEEP_REPLICATIONS), (seed, DRAWN_REPLICATIONS)):
        budget = run_sweep_retry_budget(
            study,
            lambda b: rollback(max_attempts=b),
            budgets=BUDGETS,
            race_window=RACE_WINDOW,
            replications=replications,
            seed=sweep_seed,
        )
        window = run_sweep_race_window(
            study, rollback, windows=WINDOWS, replications=replications, seed=sweep_seed
        )
        verdicts["sweeps"][sweep_seed] = (
            [[p.parameter, p.survived, p.total] for p in budget],
            [[p.parameter, p.survived, p.total] for p in window],
        )
    baselines = baseline_outcomes(study, TECHNIQUE)
    index = fault_index(study)
    for sample_seed, size in ((PAPER_SEED, PAPER_PAIRS), (seed, SAMPLE_PAIRS)):
        for scenario in stratified_pair_sample(study, size, seed=sample_seed):
            outcome = run_scenario(scenario, index, TECHNIQUE)
            verdicts["scenario_runs"] += 1
            verdicts["pairs"]["+".join(scenario.fault_ids)] = classify_interaction(
                outcome, baselines
            )
    return verdicts


def _ops(verdicts: dict) -> tuple[int, int]:
    """(attempted, failed): a replay whose defect never fired failed."""
    units = [u for outcomes in verdicts["replay"].values() for u in outcomes]
    failed = sum(1 for _, triggered, _, _ in units if not triggered)
    return len(units) + verdicts["scenario_runs"], failed


def _check_pinned(out: Outcome, verdicts: dict) -> None:
    pins = PINS["replay"]
    for name, expected in pins["paper_survived"].items():
        got = sum(1 for u in verdicts["replay"][(PAPER_SEED, name)] if u[2])
        out.check(got == expected, f"replay: {name} survived {got}, pinned {expected}")
    budget, window = verdicts["sweeps"][PAPER_SEED]
    out.check(budget == pins["retry_budget"], f"replay: retry-budget sweep {budget}")
    out.check(window == pins["race_window"], f"replay: race-window sweep {window}")
    wrong = [
        pair for pair, cls in pins["pair_classes"].items() if verdicts["pairs"].get(pair) != cls
    ]
    out.check(not wrong, f"replay: interaction classes differ at {wrong[:3]}")


def _check_journals(out: Outcome, journal_dir: Path, faults: int) -> int:
    from repro.harness.journal import load_journal

    size = 0
    for path in sorted(journal_dir.glob("*.jsonl")):
        contents = load_journal(path)
        done = contents.completed
        out.check(done == faults, f"replay: {path.name} holds {done} units")
        size += path.stat().st_size
    return size


def _check_reference(out: Outcome, seed: int, verdicts: dict) -> None:
    """Drawn-seed campaign verdicts against the serial reference replay."""
    from repro.corpus.loader import full_study
    from repro.recovery.driver import replay_fault
    from repro.recovery.nodes import TECHNIQUES

    faults = full_study().all_faults()
    for replay_seed in drawn_seeds(seed):
        for name, factory in TECHNIQUES.items():
            expected = tuple(
                (o.fault_id, o.triggered, o.survived, o.attempts_used)
                for o in (replay_fault(f, factory(), seed=replay_seed) for f in faults)
            )
            out.check(
                verdicts["replay"][(replay_seed, name)] == expected,
                f"replay: campaign differs from replay_fault at seed {replay_seed}, {name}",
            )


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        child = run_child(["-c", SETUP_CODE.format(seed=seed)], work / "setup.out")
        out.check(child.returncode == 0, "replay: set-up interpreter failed")
        out.setup_s.append(child.wall_s)

    faults = PINS["study"]["faults"]
    first = None
    rates = []
    started = time.perf_counter()
    while passes_until(seconds, started, len(out.wall_s)):
        journal_dir = work / f"journals-{len(out.wall_s)}"
        if first is None:
            reset_peak_rss()
        began, cpu = time.perf_counter(), time.process_time()
        verdicts = _pass(seed, journal_dir)
        wall = time.perf_counter() - began
        out.wall_s.append(wall)
        out.cpu_s.append(time.process_time() - cpu)
        if first is None:
            out.peak_rss_mb = peak_rss_mb()
        attempted, failed = _ops(verdicts)
        out.ops.add(attempted, failed)
        rates.append(attempted / wall)
        _check_journals(out, journal_dir, faults)
        shutil.rmtree(journal_dir)
        if first is None:
            first = verdicts
            _check_pinned(out, first)
        out.check(verdicts == first, "replay: passes disagree")
    _check_reference(out, seed, first)
    out.line(
        "units_per_s", median(rates), "1/s", len(rates),
        f"{_ops(first)[0]} replayed units and scenarios per pass",
    )

    if trace:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        journal_dir = work / "journals-traced"
        try:
            began = time.perf_counter()
            verdicts = _pass(seed, journal_dir)
            traced_s = time.perf_counter() - began
        finally:
            tracer.uninstall()
        tracer.count("journal.bytes", _check_journals(out, journal_dir, faults))
        out.check(verdicts == first, "replay: traced pass differs")
        tracer.require(layers.EXPECTED["replay"])
        out.trace_report = tracer.report()
        out.traced_s = traced_s
    return out
