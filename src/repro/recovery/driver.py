"""Replay driver: the paper's proposed end-to-end check, executed.

For every curated study fault: build the matching mini application in a
fresh simulated environment, inject the fault as a defect, arm the
triggering condition the bug report describes, let the recovery
technique prepare, drive the workload to failure, then let the technique
recover and retry until it survives or exhausts its budget.

The paper's hypothesis test becomes measurable: environment-independent
faults should never survive generic recovery, environment-dependent-
nontransient faults should rarely survive, and environment-dependent-
transient faults should usually survive.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro import obs
from repro.apps.faults import InjectedDefect
from repro.apps.registry import make_application
from repro.apps.workload import workload_for_fault
from repro.bugdb.enums import FaultClass
from repro.corpus.loader import StudyData
from repro.corpus.studyspec import StudyFault
from repro.envmodel.environment import Environment
from repro.errors import ApplicationCrash
from repro.recovery.base import RecoveryTechnique
from repro.rng import DEFAULT_SEED, derive_seed

TechniqueFactory = Callable[[], RecoveryTechnique]

#: Column headings of the E1 replay table; :meth:`ReplayReport.row` fills one.
REPLAY_COLUMNS = ("technique", "EI", "EDN", "EDT", "overall")


@dataclasses.dataclass(frozen=True)
class FaultReplayOutcome:
    """The result of replaying one fault under one technique.

    Attributes:
        fault_id: the study fault replayed.
        fault_class: its ground-truth class.
        technique: the recovery technique's name.
        triggered: whether the injected defect fired on the first run
            (it always should; False flags a harness problem).
        survived: whether a retry completed the workload.
        attempts_used: recovery attempts consumed (0 if never triggered).
    """

    fault_id: str
    fault_class: FaultClass
    technique: str
    triggered: bool
    survived: bool
    attempts_used: int


@dataclasses.dataclass(frozen=True)
class ReplayReport:
    """Aggregated replay results for one technique over a study."""

    technique: str
    outcomes: tuple[FaultReplayOutcome, ...]

    def survival_rate(self, fault_class: FaultClass | None = None) -> float:
        """Fraction of (triggered) faults survived, optionally per class."""
        relevant = [
            outcome
            for outcome in self.outcomes
            if outcome.triggered
            and (fault_class is None or outcome.fault_class is fault_class)
        ]
        if not relevant:
            return 0.0
        return sum(outcome.survived for outcome in relevant) / len(relevant)

    def survived_count(self, fault_class: FaultClass | None = None) -> int:
        """Number of faults survived, optionally per class."""
        return sum(
            outcome.survived
            for outcome in self.outcomes
            if fault_class is None or outcome.fault_class is fault_class
        )

    def total(self, fault_class: FaultClass | None = None) -> int:
        """Number of faults replayed, optionally per class."""
        return sum(
            1
            for outcome in self.outcomes
            if fault_class is None or outcome.fault_class is fault_class
        )

    def row(self) -> list[str]:
        """This report's E1 table row, under :data:`REPLAY_COLUMNS`."""
        return [
            self.technique,
            f"{self.survival_rate(FaultClass.ENV_INDEPENDENT):.0%}",
            f"{self.survival_rate(FaultClass.ENV_DEP_NONTRANSIENT):.0%}",
            f"{self.survival_rate(FaultClass.ENV_DEP_TRANSIENT):.0%}",
            f"{self.survival_rate():.1%}",
        ]


def run_replay_attempts(
    fault: StudyFault,
    technique: RecoveryTechnique,
    *,
    env: Environment,
    race_window: float | None = None,
) -> tuple[bool, bool, int]:
    """The shared inject -> fail -> recover -> retry core.

    Builds the fault's application in ``env``, injects and arms the
    defect (with ``race_window`` overriding the racy-window width when
    given), drives the workload to failure, then retries under the
    technique until it survives or exhausts its budget.  Callers own the
    environment (seeding, DNS records) so campaign variants can differ
    only in setup.

    Returns:
        ``(triggered, survived, attempts_used)``; ``triggered`` is False
        only if the defect failed to fire on the first run.
    """
    with obs.span(
        f"replay:{fault.fault_id}", technique=technique.name
    ) as replay_span:
        app = make_application(fault.application, env)
        if race_window is None:
            defect = InjectedDefect(fault)
        else:
            defect = InjectedDefect(fault, race_window=race_window)
        app.injector.inject(defect)
        defect.arm(env, app)

        workload = workload_for_fault(fault)
        technique.prepare(app)

        try:
            workload.run(app)
        except ApplicationCrash:
            pass
        else:
            replay_span.set(triggered=False, survived=True, attempts=0)
            return (False, True, 0)

        survived = False
        attempts_used = 0
        for attempt in range(1, technique.max_attempts + 1):
            attempts_used = attempt
            technique.recover(app, attempt)
            try:
                workload.run(app)
            except ApplicationCrash:
                continue
            survived = True
            break
        replay_span.set(triggered=True, survived=survived, attempts=attempts_used)
        return (True, survived, attempts_used)


def replay_fault(
    fault: StudyFault,
    technique: RecoveryTechnique,
    *,
    seed: int = DEFAULT_SEED,
) -> FaultReplayOutcome:
    """Replay one study fault under one recovery technique.

    Returns:
        The outcome; ``triggered`` is False only if the injected defect
        failed to fire on the first run, which indicates a harness bug.
    """
    env = Environment(seed=derive_seed(seed, f"replay:{fault.fault_id}"))
    # Reverse record for the default client so healthy DNS paths work.
    env.dns.add_record("client.example.net", "10.0.0.99")
    env.dns.add_record("client5.example.net", "10.0.0.5")
    triggered, survived, attempts_used = run_replay_attempts(
        fault, technique, env=env
    )
    return FaultReplayOutcome(
        fault_id=fault.fault_id,
        fault_class=fault.fault_class,
        technique=technique.name,
        triggered=triggered,
        survived=survived,
        attempts_used=attempts_used,
    )


def replay_study(
    study: StudyData,
    technique_factory: TechniqueFactory,
    *,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    journal: str | None = None,
) -> ReplayReport:
    """Replay every study fault under fresh instances of one technique.

    Runs on the :mod:`repro.harness` campaign engine; verdicts are
    bit-identical for any worker count (seeds are derived per fault,
    never from scheduling), so ``workers`` only changes wall time.

    Args:
        study: the full curated study.
        technique_factory: builds a fresh technique per fault (techniques
            hold per-run state such as checkpoints).
        seed: base seed; per-fault seeds are derived from it.
        workers: worker processes (default: in-process serial execution).
        journal: optional JSONL run-log path; an interrupted campaign
            rerun with the same journal resumes without recomputation.
    """
    from repro.harness.campaigns import run_replay_campaign

    return run_replay_campaign(
        study.all_faults(),
        technique_factory,
        seed=seed,
        workers=1 if workers is None else workers,
        journal_path=journal,
    )
