"""Parameter-sweep campaigns over the replay experiment.

Two sweeps the replay makes natural:

* **retry budget** -- how transient-fault survival grows with the number
  of recovery attempts (races re-fire with probability ``race_window``
  per retry, so survival approaches 1 geometrically);
* **race window** -- how survival degrades as the racy interleaving
  window widens.

Both isolate the timing-triggered faults, the only place where retry
count matters; deterministic environmental repairs either work on the
first perturbed retry or never.

The sweeps run on the campaign engine, in
:func:`repro.harness.campaigns.run_sweep_retry_budget` and
:func:`repro.harness.campaigns.run_sweep_race_window`.  This module
holds what they share with their callers: the timing-fault selection
and the :class:`SweepPoint` result.
"""

from __future__ import annotations

import dataclasses

from repro.bugdb.enums import TriggerKind
from repro.corpus.loader import StudyData
from repro.corpus.studyspec import StudyFault

TIMING_TRIGGERS = frozenset(
    {
        TriggerKind.RACE_CONDITION,
        TriggerKind.SIGNAL_TIMING,
        TriggerKind.WORKLOAD_TIMING,
        TriggerKind.UNKNOWN_TRANSIENT,
    }
)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One point of a campaign sweep.

    Attributes:
        parameter: the swept value (attempts or window).
        survived: timing faults survived at this point.
        total: timing-fault replays at this point.
    """

    parameter: float
    survived: int
    total: int

    @property
    def survival_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.survived / self.total


def timing_faults(study: StudyData) -> list[StudyFault]:
    """The study faults whose defects are timing-triggered."""
    return [fault for fault in study.all_faults() if fault.trigger in TIMING_TRIGGERS]

