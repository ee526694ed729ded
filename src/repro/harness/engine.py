"""The campaign engine: journal-aware, parallel unit execution.

:func:`run_campaign` is the harness's core loop.  Given a stream of
:class:`~repro.harness.workunit.WorkUnit`\\ s and a runner callable, it

1. loads the journal (if any) and *resumes*: units whose content key is
   already journaled are satisfied from the journal, never re-run;
2. executes the remaining units on a
   :class:`~repro.harness.pool.WorkerPool` (inline for ``workers=1``,
   forked processes otherwise);
3. journals every completion as it happens, so a killed campaign loses
   only in-flight units;
4. records telemetry (per-unit wall time, queue latency, worker
   utilization, survival counters) and drives an optional progress
   reporter;
5. reassembles results into submission order, regardless of worker
   count or completion order.

Determinism contract: the engine never derives seeds and never feeds
scheduling information to the runner -- every unit arrives fully
self-described, so results depend only on unit content.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Mapping, Sequence

from repro import obs
from repro.obs import resources as obs_resources
from repro.obs.metrics import MetricsRegistry
from repro.harness.journal import JournalWriter, load_journal
from repro.harness.pool import UnitExecution, UnitRunner, WorkerPool
from repro.harness.shard import assemble_results
from repro.harness.telemetry import ProgressReporter
from repro.harness.workunit import WorkUnit, check_unique


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """A completed campaign.

    Attributes:
        units: the campaign's work units, in submission order.
        results: one runner result per unit, aligned with ``units``.
        telemetry: counters/timers/gauges recorded during the run.
        executed: units actually run this invocation.
        resumed: units satisfied from the journal.
    """

    units: tuple[WorkUnit, ...]
    results: tuple[dict[str, Any], ...]
    telemetry: MetricsRegistry
    executed: int
    resumed: int

    def pairs(self) -> list[tuple[WorkUnit, dict[str, Any]]]:
        """``(unit, result)`` pairs in submission order."""
        return list(zip(self.units, self.results))


def _record_outcome_counters(telemetry: MetricsRegistry, result: Mapping[str, Any]) -> None:
    """Survival counters for replay-shaped results (no-ops otherwise)."""
    if "survived" not in result:
        return
    telemetry.count("units.finished")
    if result["survived"]:
        telemetry.count("units.survived")
    if result.get("triggered"):
        telemetry.count("units.triggered")


def run_campaign(
    units: Sequence[WorkUnit],
    runner: UnitRunner,
    *,
    context: Any = None,
    workers: int = 1,
    journal_path: str | None = None,
    journal_meta: Mapping[str, Any] | None = None,
    resume: bool = True,
    telemetry: MetricsRegistry | None = None,
    progress: ProgressReporter | None = None,
    heartbeat: Any = None,
) -> CampaignResult:
    """Execute a campaign; see the module docstring for the full story.

    Args:
        units: self-describing work units (content keys must be unique).
        runner: ``(unit, context) -> result dict``; must be deterministic
            in the unit alone.
        context: shared campaign state handed to every runner call
            (inherited by forked workers, never pickled).
        workers: worker processes; ``1`` runs inline.
        journal_path: JSONL run log; created if missing.  Completions are
            appended as they happen.
        journal_meta: metadata for a newly created journal's header.
        resume: when True (default), journaled units are not re-run.
        telemetry: accumulate into an existing instance (a fresh one is
            created otherwise).
        progress: optional progress reporter to drive.
        heartbeat: optional live monitor (e.g. :class:`repro.obs.
            RunMonitor`) driven as the dispatcher submits and drains
            units: ``campaign_started``/``dispatched``/``completed``/
            ``campaign_finished``.  Monitoring never touches unit
            content, results, or the journal.

    Returns:
        The result stream in submission order plus telemetry.
    """
    units = list(units)
    check_unique(units)
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    telemetry.count("units.total", len(units))

    by_key = {unit.key(): unit for unit in units}
    results_by_key: dict[str, dict[str, Any]] = {}

    resumed = 0
    if journal_path is not None and resume:
        try:
            contents = load_journal(journal_path)
        except FileNotFoundError:
            contents = None
        if contents is not None:
            if contents.skipped_lines:
                telemetry.count("journal.skipped_lines", contents.skipped_lines)
            for key, record in contents.records.items():
                if key in by_key:
                    results_by_key[key] = record["result"]
                    _record_outcome_counters(telemetry, record["result"])
    resumed = len(results_by_key)
    telemetry.count("units.resumed", resumed)

    pending = [unit for unit in units if unit.key() not in results_by_key]
    writer = (
        JournalWriter(journal_path, meta=journal_meta)
        if journal_path is not None
        else None
    )

    pool = WorkerPool(workers)
    telemetry.gauge("workers.count", float(pool.workers if pool.parallel else 1))
    started = time.monotonic()
    done = [resumed]  # list for closure mutation

    # Campaign-level resource observation (when configured): a sampler
    # covering the dispatching process -- which on the serial path IS
    # the executing process -- plus a rollup of worker-shipped samples.
    # Peak RSS and CPU land in telemetry gauges; sampler trouble never
    # fails the campaign.
    sampler = None
    sample_interval = obs_resources.configured_interval()
    if sample_interval is not None:
        try:
            sampler = obs_resources.ResourceSampler(sample_interval).start()
        except Exception:
            sampler = None
    peak_rss = [0]
    cpu_bounds: dict[int, list[float]] = {}

    def _fold_resources(records: Any) -> None:
        for record in records:
            rss = int(record.get("rss_bytes", 0))
            if rss > peak_rss[0]:
                peak_rss[0] = rss
            pid = int(record.get("pid", 0))
            cpu = float(record.get("cpu_seconds", 0.0))
            bounds = cpu_bounds.get(pid)
            if bounds is None:
                cpu_bounds[pid] = [cpu, cpu]
            else:
                bounds[0] = min(bounds[0], cpu)
                bounds[1] = max(bounds[1], cpu)

    def on_unit(execution: UnitExecution) -> None:
        results_by_key[execution.key] = execution.result
        telemetry.count("units.executed")
        telemetry.observe("unit.wall", execution.wall_seconds)
        telemetry.observe("unit.queue", execution.queue_seconds)
        if execution.resources:
            _fold_resources(execution.resources)
            if heartbeat is not None:
                notify = getattr(heartbeat, "resource_peak", None)
                if notify is not None:
                    notify(peak_rss[0])
        _record_outcome_counters(telemetry, execution.result)
        if writer is not None:
            writer.append(
                execution.key,
                by_key[execution.key].to_dict(),
                execution.result,
                wall_seconds=execution.wall_seconds,
            )
        done[0] += 1
        if progress is not None:
            progress.update(done[0], resumed=resumed)
        if heartbeat is not None:
            heartbeat.completed(
                by_key[execution.key].fault_id,
                wall_seconds=execution.wall_seconds,
            )

    if heartbeat is not None:
        heartbeat.campaign_started(total=len(pending), resumed=resumed)
    try:
        with obs.span(
            "campaign",
            units=len(pending),
            resumed=resumed,
            workers=pool.workers if pool.parallel else 1,
        ):
            pool.execute(
                pending,
                runner,
                context,
                on_unit=on_unit,
                on_dispatch=heartbeat.dispatched if heartbeat is not None else None,
            )
    finally:
        if sampler is not None:
            try:
                sampler.stop()
                dispatcher_records = sampler.take()
                obs.ingest(dispatcher_records)
                _fold_resources(dispatcher_records)
            except Exception:
                pass
        if writer is not None:
            writer.close()
        if heartbeat is not None:
            heartbeat.campaign_finished()

    if peak_rss[0]:
        telemetry.gauge("resources.peak_rss_bytes", float(peak_rss[0]))
    campaign_cpu = sum(high - low for low, high in cpu_bounds.values())
    if campaign_cpu > 0:
        telemetry.gauge("resources.cpu_seconds", campaign_cpu)
    span = time.monotonic() - started
    if pending and span > 0:
        busy = telemetry.timer("unit.wall").total
        worker_count = pool.workers if pool.parallel else 1
        telemetry.gauge(
            "workers.utilization", min(1.0, busy / (worker_count * span))
        )
    if progress is not None:
        progress.finish(resumed=resumed)

    ordered = assemble_results(units, results_by_key)
    return CampaignResult(
        units=tuple(units),
        results=tuple(ordered),
        telemetry=telemetry,
        executed=len(pending),
        resumed=resumed,
    )
