"""The explicit study context threaded through graph execution.

:class:`StudyContext` replaces the hidden module-global
``full_study()`` memo as the way experiment code receives the curated
study: the scheduler builds one context and hands it to every node
producer, so what used to be ambient process state is now an explicit,
swappable argument.  Producers read ``ctx.study``; campaign-scale knobs
(worker count, memo cache, telemetry) ride along on the same object.

``full_study()`` remains as the compatibility path for direct callers
(examples, benchmarks, library users); :meth:`StudyContext.default`
wraps the same shared instance, so both paths see identical data.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.corpus.loader import StudyData, full_study
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ParseMineCache

_T = TypeVar("_T")


@dataclasses.dataclass
class StudyContext:
    """Everything a study-graph execution threads through its nodes.

    Attributes:
        study: the curated three-application study data.
        workers: worker processes for parallel node execution (1 runs
            inline, the reference path).
        cache: content-addressed node memo store (None disables
            memoization entirely).
        telemetry: counters/timers accumulated across the run.

    The scheduler hands producers a fresh context per wave, so anything
    memoized through :meth:`derived` lives exactly as long as that wave.
    """

    study: StudyData
    workers: int = 1
    cache: ParseMineCache | None = None
    telemetry: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)
    _derived: dict[str, tuple[Any, Any]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def derived(self, name: str, source: Any, build: Callable[[Any], _T]) -> _T:
        """``build(source)``, computed once per context and ``source`` object.

        Lets several producers in one wave share an expensive derivation
        of the same input payload (e.g. the decoded, indexed MySQL
        archive).  The memo is keyed on ``source``'s identity and holds
        ``source`` itself, so the identity can never be reused while the
        entry exists; a different object under ``name`` replaces it.
        """
        entry = self._derived.get(name)
        if entry is None or entry[0] is not source:
            entry = (source, build(source))
            self._derived[name] = entry
        return entry[1]

    @classmethod
    def default(
        cls,
        *,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> "StudyContext":
        """A context over the shared curated study.

        Args:
            workers: worker processes for node execution.
            cache_dir: node memo directory (None disables memoization).
            telemetry: accumulate into an existing instance.
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return cls(
            study=full_study(),
            workers=workers,
            cache=ParseMineCache(cache_dir) if cache_dir is not None else None,
            telemetry=telemetry if telemetry is not None else MetricsRegistry(),
        )
