"""Worker pool: fork-based process parallelism with a serial fallback.

The pool runs a campaign's work units through a runner callable, either
inline (``workers=1``) or across a ``concurrent.futures``
``ProcessPoolExecutor`` using the **fork** start method.  Fork matters
for two reasons:

* **per-worker caching** -- the parent builds the campaign context once
  (study fault map, technique factories, the loaded
  :func:`~repro.corpus.loader.full_study` cache) and every worker
  inherits it at fork time for free, instead of re-deserialising it per
  task;
* **arbitrary factories** -- technique factories are often lambdas or
  closures, which cannot cross a pickle boundary; under fork they never
  have to.

On platforms without fork (or when ``workers <= 1``) the pool degrades
to the inline serial path, which is also the reference path for the
determinism contract: because every unit carries its own derived seed,
the verdicts are identical either way.

Failures propagate: if a runner raises, the campaign aborts with that
exception.  Completed units are already journaled, so rerunning resumes
past them.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Sequence

from repro import obs
from repro.obs import resources as obs_resources
from repro.harness.shard import shard_count_for, shard_units
from repro.harness.workunit import WorkUnit

#: Runner signature: (unit, campaign context) -> JSON-serialisable result.
UnitRunner = Callable[[WorkUnit, Any], dict[str, Any]]

# Campaign runtime inherited by forked workers.  Only the *parallel*
# path uses it (workers read their forked copy inside _execute_shard);
# the serial path hands the runner to _run_unit and is fully re-entrant,
# so concurrent serial campaigns (the serve daemon's request threads)
# never touch this global.  _RUNTIME_LOCK serialises concurrent parallel
# campaigns around the fork window.
_RUNTIME: tuple[UnitRunner, Any] | None = None
_RUNTIME_LOCK = threading.Lock()


@dataclasses.dataclass(frozen=True)
class UnitExecution:
    """One executed unit, as reported back from a worker.

    Attributes:
        key: the unit's content hash.
        result: the runner's JSON-serialisable result.
        wall_seconds: time spent inside the runner.
        queue_seconds: submission-to-start latency (includes time spent
            behind earlier units in the same shard).
        worker_pid: the executing process id.
        spans: trace-span records captured while the unit ran (empty
            when tracing is disabled); the dispatching side feeds them
            to its sink so a trace has exactly one writer process.
        resources: span-attributed resource-sample records taken in the
            worker while the unit ran (empty when sampling is off or
            the unit finished inside one sampling interval); shipped
            and ingested exactly like ``spans``.
    """

    key: str
    result: dict[str, Any]
    wall_seconds: float
    queue_seconds: float
    worker_pid: int
    spans: tuple[dict[str, Any], ...] = ()
    resources: tuple[dict[str, Any], ...] = ()


def _run_unit(
    unit: WorkUnit,
    runner: UnitRunner,
    context: Any,
    submitted_at: float,
    trace_parent: dict[str, Any] | None,
    worker_pid: int,
) -> UnitExecution:
    """Run one unit, under its ``unit:<kind>`` span when tracing is on.

    Untraced, the runner is called bare: no capture buffer, span or
    span attributes are built for spans nobody records.
    """
    started = time.monotonic()
    spans: tuple[dict[str, Any], ...] = ()
    if obs.active_tracer() is None:
        result = runner(unit, context)
    else:
        with obs.capture(trace_parent) as captured:
            attrs: dict[str, Any] = {"unit": unit.fault_id}
            if unit.technique:
                attrs["technique"] = unit.technique
            with obs.span(f"unit:{unit.kind}", **attrs) as unit_span:
                result = runner(unit, context)
                unit_span.set(queue_ms=round((started - submitted_at) * 1000, 3))
        spans = tuple(captured)
    finished = time.monotonic()
    return UnitExecution(
        key=unit.key(),
        result=result,
        wall_seconds=finished - started,
        queue_seconds=max(0.0, started - submitted_at),
        worker_pid=worker_pid,
        spans=spans,
    )


def _execute_shard(
    shard: Sequence[WorkUnit],
    submitted_at: float,
    trace_parent: dict[str, Any] | None = None,
) -> list[UnitExecution]:
    """Run one shard of units in a forked worker.

    ``trace_parent`` is the dispatcher's span context: every unit span
    recorded here is parented under it, so worker-side spans link to the
    dispatching wave across the process boundary.  The runner and its
    context come from the module global inherited at fork time.

    When resource sampling is configured (the worker inherited the
    dispatcher's :func:`repro.obs.resources.configure` at fork time), a
    shard-scoped sampler runs alongside and its records ship back on
    each unit, attributed to the span open at sample time.  (The serial
    path starts none: the dispatcher's own campaign sampler already
    covers that process.)  Sampler trouble never fails the shard.
    """
    runner, context = _RUNTIME  # type: ignore[misc]
    sampler = None
    interval = obs_resources.configured_interval()
    if interval is not None:
        try:
            sampler = obs_resources.ResourceSampler(interval).start()
        except Exception:
            sampler = None
    executions = []
    pid = os.getpid()
    try:
        for unit in shard:
            execution = _run_unit(unit, runner, context, submitted_at, trace_parent, pid)
            if sampler is not None:
                execution = dataclasses.replace(
                    execution, resources=tuple(sampler.take())
                )
            executions.append(execution)
    finally:
        if sampler is not None:
            try:
                sampler.stop()
            except Exception:
                pass
    return executions


def fork_available() -> bool:
    """Whether the fork start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """Executes work units, in-process or across forked workers.

    Args:
        workers: requested worker count; ``1`` (or an unavailable fork
            start method) selects the inline serial path.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.parallel = workers > 1 and fork_available()

    def execute(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        context: Any,
        *,
        on_unit: Callable[[UnitExecution], None],
        on_dispatch: Callable[[Sequence[WorkUnit]], None] | None = None,
    ) -> None:
        """Run every unit, invoking ``on_unit`` as each completes.

        Serial execution preserves unit order; parallel execution
        completes in scheduling order.  Callers must therefore key any
        state they accumulate by ``UnitExecution.key`` (the engine does).

        ``on_dispatch`` (if given) fires in the dispatching process as
        units are handed to workers -- per unit on the serial path, per
        shard at submission on the parallel path -- so live monitors can
        track which units are in flight between dispatch and completion.
        """
        if not units:
            return

        # Unit spans captured in workers (or buffered on the serial path)
        # are sunk here, in the dispatching process, before the caller
        # sees the completion -- one writer per trace, whatever the
        # worker count.
        def deliver(execution: UnitExecution) -> None:
            if execution.spans:
                obs.ingest(execution.spans)
            if execution.resources:
                obs.ingest(execution.resources)
            on_unit(execution)

        trace_parent = obs.current_context()
        if not self.parallel:
            self._execute_serial(
                units, runner, context, deliver, trace_parent, on_dispatch
            )
        else:
            self._execute_parallel(
                units, runner, context, deliver, trace_parent, on_dispatch
            )

    def _execute_serial(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        context: Any,
        on_unit: Callable[[UnitExecution], None],
        trace_parent: dict[str, Any] | None,
        on_dispatch: Callable[[Sequence[WorkUnit]], None] | None,
    ) -> None:
        submitted = time.monotonic()
        pid = os.getpid()
        # One unit at a time so completions reach the caller (and the
        # journal) before a later unit can fail the campaign.
        for unit in units:
            if on_dispatch is not None:
                on_dispatch([unit])
            on_unit(_run_unit(unit, runner, context, submitted, trace_parent, pid))

    def _execute_parallel(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        context: Any,
        on_unit: Callable[[UnitExecution], None],
        trace_parent: dict[str, Any] | None,
        on_dispatch: Callable[[Sequence[WorkUnit]], None] | None,
    ) -> None:
        global _RUNTIME
        # Workers inherit the runtime at fork time; nothing is pickled.
        # The lock serialises concurrent parallel campaigns (forked
        # workers spawn lazily, so the global must hold *this* campaign's
        # runtime for the executor's whole lifetime).
        with _RUNTIME_LOCK:
            _RUNTIME = (runner, context)
            shards = shard_units(units, shard_count_for(len(units), self.workers))
            try:
                with concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                ) as executor:
                    futures = []
                    for shard in shards:
                        if on_dispatch is not None:
                            on_dispatch(shard)
                        futures.append(
                            executor.submit(
                                _execute_shard, shard, time.monotonic(), trace_parent
                            )
                        )
                    for future in concurrent.futures.as_completed(futures):
                        for execution in future.result():
                            on_unit(execution)
            finally:
                _RUNTIME = None
