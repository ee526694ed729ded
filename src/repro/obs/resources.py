"""Span-attributed resource sampling from ``/proc``.

The trace stack records *wall time* per span; this module adds the
resource axis the fault study needs (leaks, exhaustion, runaway
retries): a background :class:`ResourceSampler` thread reads
``/proc/<pid>/{statm,stat,io}`` at a configurable interval and emits
:class:`ResourceSample` records -- RSS bytes, cumulative CPU seconds,
cumulative read/write bytes -- each tagged with the deepest span open
in the sampled process at that instant (via
:func:`repro.obs.span.deepest_open_span`).

Sample records share the span-record transport end to end: a worker's
sampler buffers records that ship back through the same
``UnitExecution`` channel spans use, the dispatcher ``ingest``\\ s them
into the one trace sink, and ``summarize_trace`` folds them into
per-span and per-phase peak-RSS and CPU attributions with the helpers
at the bottom of this module.  Records without ``start``/``end`` keys are invisible to every
span-only consumer, so old tooling keeps working on new traces.

**The sampler never fails a run.**  Every ``/proc`` read tolerates the
target vanishing mid-read (ENOENT/ESRCH), ``io`` being unreadable
(EACCES), or ``/proc`` not existing at all (non-Linux); errors count in
:attr:`ResourceSampler.errors` and sampling simply continues or stops
quietly.  Observation must not change the observed campaign: the
sampler touches no unit state, no seeds, and no results.

Layering: imports only :mod:`repro.obs.span` (the ``repro.obs``
contract -- nothing from the rest of ``repro``).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Callable, Iterable, Mapping

# Import the hook directly from the span *module*: the package re-exports
# a function also called ``span``, which shadows the submodule on
# ``import repro.obs.span as ...`` style attribute lookups.
from repro.obs.span import deepest_open_span as _deepest_open_span

__all__ = [
    "DEFAULT_INTERVAL",
    "RESOURCE_KIND",
    "ResourceSample",
    "ResourceSampler",
    "ResourceUsage",
    "active_sampler",
    "child_pids",
    "configure",
    "configured_interval",
    "is_resource_record",
    "proc_available",
    "read_resource_sample",
    "resource_records",
    "sampling_enabled",
    "usage_by_phase",
    "usage_by_span_name",
]

#: Marker distinguishing sample records from span records in a trace.
RESOURCE_KIND = "resource"

#: Default sampling interval in seconds (50 Hz is far below the <5%
#: overhead budget and still catches sub-second phases).
DEFAULT_INTERVAL = 0.02

#: Environment override: a float interval in seconds, or ``1``/``true``
#: for :data:`DEFAULT_INTERVAL`.  Lets CI and the serve daemon enable
#: sampling without threading a flag through every entry point.
SAMPLE_ENV = "REPRO_SAMPLE_RESOURCES"


def _sysconf(name: str, fallback: int) -> int:
    try:
        value = os.sysconf(name)
    except (OSError, ValueError, AttributeError):
        return fallback
    return int(value) if value > 0 else fallback


_PAGE_SIZE = _sysconf("SC_PAGE_SIZE", 4096)
_CLK_TCK = _sysconf("SC_CLK_TCK", 100)


@dataclasses.dataclass(frozen=True)
class ResourceSample:
    """One instant's resource reading for one process.

    ``cpu_seconds`` and the io byte counts are *cumulative* process
    totals (deltas between consecutive samples attribute usage to
    spans); ``rss_bytes`` is instantaneous.  ``span_id``/``span_name``
    name the deepest span open in the sampled process when the sample
    was taken (None when tracing is off or nothing was open).
    """

    pid: int
    t: float
    rss_bytes: int
    cpu_seconds: float
    read_bytes: int | None = None
    write_bytes: int | None = None
    span_id: str | None = None
    span_name: str | None = None

    def to_record(self) -> dict[str, Any]:
        """The JSON-serialisable record fed to trace sinks."""
        record: dict[str, Any] = {
            "kind": RESOURCE_KIND,
            "pid": self.pid,
            "t": self.t,
            "rss_bytes": self.rss_bytes,
            "cpu_seconds": round(self.cpu_seconds, 6),
        }
        if self.read_bytes is not None:
            record["read_bytes"] = self.read_bytes
        if self.write_bytes is not None:
            record["write_bytes"] = self.write_bytes
        if self.span_id is not None:
            record["span_id"] = self.span_id
        if self.span_name is not None:
            record["span_name"] = self.span_name
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ResourceSample":
        return cls(
            pid=int(record.get("pid", 0)),
            t=float(record.get("t", 0.0)),
            rss_bytes=int(record.get("rss_bytes", 0)),
            cpu_seconds=float(record.get("cpu_seconds", 0.0)),
            read_bytes=record.get("read_bytes"),
            write_bytes=record.get("write_bytes"),
            span_id=record.get("span_id"),
            span_name=record.get("span_name"),
        )


def is_resource_record(record: Mapping[str, Any]) -> bool:
    """Whether a trace record is a resource sample (vs a span)."""
    return record.get("kind") == RESOURCE_KIND


# -- /proc readers ------------------------------------------------------- #


def proc_available(pid: int | None = None) -> bool:
    """Whether ``/proc/<pid>`` exists (False on non-Linux)."""
    return os.path.isdir(f"/proc/{pid if pid is not None else os.getpid()}")


def _read_rss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/statm", "rb") as stream:
        fields = stream.read().split()
    return int(fields[1]) * _PAGE_SIZE


def _read_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as stream:
        content = stream.read()
    # The comm field is parenthesised and may contain spaces; fields
    # after the last ')' are fixed-position: state is field 3, so utime
    # (field 14) and stime (field 15) are offsets 11 and 12.
    tail = content.rsplit(b")", 1)[-1].split()
    return (int(tail[11]) + int(tail[12])) / _CLK_TCK


def _read_io_bytes(pid: int) -> tuple[int | None, int | None]:
    try:
        with open(f"/proc/{pid}/io", "rb") as stream:
            content = stream.read()
    except OSError:  # io is often root-only; RSS/CPU still sample fine
        return None, None
    read_bytes = write_bytes = None
    for line in content.splitlines():
        if line.startswith(b"read_bytes:"):
            read_bytes = int(line.split(b":", 1)[1])
        elif line.startswith(b"write_bytes:"):
            write_bytes = int(line.split(b":", 1)[1])
    return read_bytes, write_bytes


def read_resource_sample(
    pid: int | None = None,
    *,
    clock: Callable[[], float] = time.monotonic,
    attribute: bool = False,
) -> ResourceSample | None:
    """One sample for ``pid`` (default: this process), or None.

    None means the process vanished between list and read, or there is
    no ``/proc`` -- never an exception.  ``attribute`` tags the sample
    with this process's deepest open span (only meaningful when
    sampling the calling process).
    """
    target = pid if pid is not None else os.getpid()
    try:
        rss = _read_rss_bytes(target)
        cpu = _read_cpu_seconds(target)
    except (OSError, ValueError, IndexError):
        return None
    read_bytes, write_bytes = _read_io_bytes(target)
    span_id = span_name = None
    if attribute:
        open_span = _deepest_open_span()
        if open_span is not None:
            span_id, span_name = open_span
            span_name = span_name or None
    return ResourceSample(
        pid=target,
        t=clock(),
        rss_bytes=rss,
        cpu_seconds=cpu,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        span_id=span_id,
        span_name=span_name,
    )


def child_pids(pid: int | None = None) -> list[int]:
    """Direct child pids of ``pid`` via ``/proc/<pid>/task/*/children``.

    Tolerates every race (tasks and children files come and go);
    returns a sorted, deduplicated list, empty on any failure.
    """
    target = pid if pid is not None else os.getpid()
    children: set[int] = set()
    task_dir = f"/proc/{target}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return []
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children", "rb") as stream:
                children.update(int(child) for child in stream.read().split())
        except (OSError, ValueError):
            continue
    return sorted(children)


# -- process-wide sampling configuration -------------------------------- #

# Set in the dispatcher before the pool forks; workers inherit the
# value at fork time, which is how "sample every fork-pool worker"
# needs no cross-process plumbing at all.
_CONFIGURED_INTERVAL: float | None = None


def configure(interval: float | None) -> None:
    """Enable (interval in seconds) or disable (None) resource sampling.

    Must run before the worker pool forks for workers to inherit it.
    """
    global _CONFIGURED_INTERVAL
    if interval is not None and interval <= 0:
        raise ValueError("sampling interval must be positive")
    _CONFIGURED_INTERVAL = interval


def configured_interval() -> float | None:
    """The active sampling interval, or None when sampling is off.

    An explicit :func:`configure` wins; otherwise :data:`SAMPLE_ENV` is
    consulted (``0``/``false``/empty disable, ``1``/``true`` select the
    default interval, anything else parses as a float interval).
    """
    if _CONFIGURED_INTERVAL is not None:
        return _CONFIGURED_INTERVAL
    raw = os.environ.get(SAMPLE_ENV, "").strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return None
    if raw in ("1", "true", "yes", "on"):
        return DEFAULT_INTERVAL
    try:
        interval = float(raw)
    except ValueError:
        return None
    return interval if interval > 0 else None


def sampling_enabled() -> bool:
    """Whether resource sampling is currently configured on."""
    return configured_interval() is not None


# -- the background sampler --------------------------------------------- #

_ACTIVE_SAMPLER: "ResourceSampler | None" = None


def active_sampler() -> "ResourceSampler | None":
    """The process's running sampler, or None."""
    return _ACTIVE_SAMPLER


class ResourceSampler:
    """Background thread sampling this process (and optionally children).

    Records accumulate in an internal buffer; :meth:`take` drains it
    (the per-unit shipping hook), while the running RSS log and peak
    survive draining so monitors (:meth:`peak_rss_bytes`,
    :meth:`peak_rss_since`, :meth:`rss_log`) see the whole run.

    The sampling loop is wrapped so that *no* failure -- a vanished
    pid, a corrupt ``/proc`` read, a missing ``/proc`` -- can propagate
    into the sampled campaign; failures increment :attr:`errors` and
    the loop moves on.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        *,
        include_children: bool = False,
        attribute: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.include_children = include_children
        self.attribute = attribute
        self.errors = 0
        self._clock = clock
        self._pid = os.getpid()
        self._records: list[dict[str, Any]] = []
        self._rss_log: list[tuple[float, int, int]] = []  # (t, pid, rss)
        self._peak_rss = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------- #

    def start(self) -> "ResourceSampler":
        """Start the daemon sampling thread (idempotent); returns self."""
        global _ACTIVE_SAMPLER
        if self._thread is not None:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        _ACTIVE_SAMPLER = self
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent)."""
        global _ACTIVE_SAMPLER
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=max(1.0, self.interval * 10))
        self._thread = None
        if _ACTIVE_SAMPLER is self:
            _ACTIVE_SAMPLER = None
        self.sample_now()  # a final reading so even short runs get one

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.stop()
        return False

    # -- sampling loop -------------------------------------------------- #

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample_now()

    def sample_now(self) -> None:
        """Take one sample immediately (the loop's tick, callable directly).

        Lets a caller pin a reading inside a window shorter than the
        interval -- deterministic tests tick the sampler instead of
        waiting for the thread to land inside the window.
        """
        try:
            self._sample_pid(self._pid, attribute=self.attribute)
            if self.include_children:
                for pid in child_pids(self._pid):
                    self._sample_pid(pid, attribute=False)
        except Exception:  # observation must never break the observed run
            self.errors += 1

    def _sample_pid(self, pid: int, *, attribute: bool) -> None:
        sample = read_resource_sample(pid, clock=self._clock, attribute=attribute)
        if sample is None:
            self.errors += 1
            return
        record = sample.to_record()
        with self._lock:
            self._records.append(record)
            self._rss_log.append((sample.t, sample.pid, sample.rss_bytes))
            if sample.rss_bytes > self._peak_rss:
                self._peak_rss = sample.rss_bytes

    # -- reading -------------------------------------------------------- #

    def take(self) -> list[dict[str, Any]]:
        """Drain and return buffered sample records (may be empty)."""
        with self._lock:
            records = self._records
            self._records = []
        return records

    def peak_rss_bytes(self) -> int:
        """The highest RSS seen so far, across every sampled pid."""
        return self._peak_rss

    def peak_rss_since(self, t: float, *, pid: int | None = None) -> int | None:
        """Peak RSS among samples taken at or after monotonic ``t``.

        None when no qualifying sample exists (e.g. a sub-interval
        window).  The RSS log is not drained by :meth:`take`, so this
        works across unit boundaries.
        """
        target = pid if pid is not None else self._pid
        with self._lock:
            values = [
                rss for when, sample_pid, rss in self._rss_log
                if when >= t and sample_pid == target
            ]
        return max(values) if values else None

    def rss_log(self) -> list[tuple[float, int, int]]:
        """A copy of the full ``(t, pid, rss_bytes)`` series."""
        with self._lock:
            return list(self._rss_log)


# -- trace-side attribution helpers ------------------------------------- #


@dataclasses.dataclass
class ResourceUsage:
    """Aggregated resource attribution for one span name (or phase).

    ``cpu_seconds``/``read_bytes``/``write_bytes`` are deltas between
    consecutive samples of the same pid, credited to the span open when
    the later sample was taken; ``peak_rss_bytes`` is the maximum
    instantaneous RSS among the group's samples.
    """

    samples: int = 0
    peak_rss_bytes: int = 0
    cpu_seconds: float = 0.0
    read_bytes: int = 0
    write_bytes: int = 0


def resource_records(records: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Just the resource-sample records from a mixed trace."""
    return [dict(r) for r in records if is_resource_record(r)]


def _span_names(records: Iterable[Mapping[str, Any]]) -> dict[str, str]:
    return {
        r["span_id"]: r.get("name", "?")
        for r in records
        if "start" in r and "end" in r and r.get("span_id")
    }


def _attributed_name(
    sample: Mapping[str, Any], names: Mapping[str, str]
) -> str:
    span_id = sample.get("span_id")
    if span_id and span_id in names:
        return names[span_id]
    return sample.get("span_name") or "(unattributed)"


def _usage_rollup(
    records: Iterable[Mapping[str, Any]],
    key_of: Callable[[str], str],
) -> dict[str, ResourceUsage]:
    records = list(records)
    names = _span_names(records)
    samples = [r for r in records if is_resource_record(r)]
    by_pid: dict[int, list[Mapping[str, Any]]] = {}
    for sample in samples:
        by_pid.setdefault(int(sample.get("pid", 0)), []).append(sample)

    usage: dict[str, ResourceUsage] = {}
    for pid_samples in by_pid.values():
        pid_samples.sort(key=lambda s: float(s.get("t", 0.0)))
        previous: Mapping[str, Any] | None = None
        for sample in pid_samples:
            key = key_of(_attributed_name(sample, names))
            entry = usage.setdefault(key, ResourceUsage())
            entry.samples += 1
            entry.peak_rss_bytes = max(
                entry.peak_rss_bytes, int(sample.get("rss_bytes", 0))
            )
            if previous is not None:
                entry.cpu_seconds += max(
                    0.0,
                    float(sample.get("cpu_seconds", 0.0))
                    - float(previous.get("cpu_seconds", 0.0)),
                )
                for field in ("read_bytes", "write_bytes"):
                    now = sample.get(field)
                    before = previous.get(field)
                    if now is not None and before is not None:
                        delta = max(0, int(now) - int(before))
                        setattr(entry, field, getattr(entry, field) + delta)
            previous = sample
    return usage


def usage_by_span_name(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, ResourceUsage]:
    """Resource attribution per full span name (``node:T1``, ...).

    Sample span ids are resolved against the trace's span records, so
    attribution survives the worker round-trip even when the span name
    was unknown at sample time.
    """
    return _usage_rollup(records, lambda name: name)


def usage_by_phase(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, ResourceUsage]:
    """Resource attribution per phase (span name before the first ``:``)."""
    return _usage_rollup(
        records, lambda name: name.split(":", 1)[0] if name else name
    )
