"""Generic (and comparison) recovery techniques, plus the replay driver.

Section 2 of the paper defines *application-generic* recovery: no
application-specific redundant code, all application state preserved,
survival possible only when something **external** changes on retry.
This package implements the classical techniques the paper discusses and
drives them against the injected study faults:

* :class:`~repro.recovery.process_pairs.ProcessPairs` -- primary/backup
  failover onto the same code [Gray86];
* :class:`~repro.recovery.rollback.CheckpointRollback` -- checkpoint and
  rollback-retry [Elnozahy99, Huang93];
* :class:`~repro.recovery.progressive.ProgressiveRetry` -- escalating
  environment perturbation on successive retries [Wang93];
* :class:`~repro.recovery.rejuvenation.SoftwareRejuvenation` --
  proactive restart using application reinitialisation code [Huang95]
  (application-specific; included as the paper's comparison point);
* :class:`~repro.recovery.restart.RestartFresh` -- restart losing all
  state (not truly generic; the other comparison point).
"""

from repro.recovery.base import RecoveryTechnique
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.process_pairs import ProcessPairs
from repro.recovery.rollback import CheckpointRollback
from repro.recovery.progressive import ProgressiveRetry
from repro.recovery.rejuvenation import SoftwareRejuvenation
from repro.recovery.restart import RestartFresh
from repro.recovery.driver import FaultReplayOutcome, ReplayReport, replay_fault, replay_study
from repro.recovery.availability import (
    AvailabilityParameters,
    AvailabilityResult,
    simulate_availability,
)
from repro.recovery.campaign import SweepPoint, timing_faults
from repro.recovery.error_latency import (
    LatencyExperiment,
    LatencyOutcome,
    recovery_rate_with_random_latency,
    replay_with_checkpoint_age,
    sweep_checkpoint_age,
)
from repro.recovery.rejuvenation_schedule import (
    LeakModel,
    RejuvenationOutcome,
    RejuvenationPolicy,
    simulate_rejuvenation_schedule,
    sweep_rejuvenation_interval,
)

__all__ = [
    "AvailabilityParameters",
    "AvailabilityResult",
    "LatencyExperiment",
    "LatencyOutcome",
    "LeakModel",
    "RejuvenationOutcome",
    "recovery_rate_with_random_latency",
    "replay_with_checkpoint_age",
    "sweep_checkpoint_age",
    "RejuvenationPolicy",
    "simulate_rejuvenation_schedule",
    "sweep_rejuvenation_interval",
    "SweepPoint",
    "simulate_availability",
    "timing_faults",
    "CheckpointRollback",
    "CheckpointStore",
    "FaultReplayOutcome",
    "ProcessPairs",
    "ProgressiveRetry",
    "RecoveryTechnique",
    "ReplayReport",
    "RestartFresh",
    "SoftwareRejuvenation",
    "replay_fault",
    "replay_study",
]
