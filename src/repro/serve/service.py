"""The study service core: warm state plus a request router.

Every batch CLI invocation pays the same tax: build the 139-fault
study, wire the study graph, open the memo cache -- then do milliseconds
of real work.  :class:`StudyService` pays the tax once and keeps the
result hot:

* the curated :class:`~repro.corpus.loader.StudyData` (shared,
  immutable, lock-guarded first build);
* the full study-graph registry;
* one :class:`~repro.pipeline.cache.ParseMineCache` shared by every
  request (node memos, parse/mine entries, and the ``TextIndex`` built
  as a parse by-product all live there);
* an in-memory **response memo**: node payloads are content-addressed,
  and the study is immutable while serving, so an identical request is
  a dictionary hit -- this is what turns a warm daemon into thousands
  of requests per second.  Each entry keeps the reply payload's
  canonical JSON, built once for the first request; the transport
  splices those bytes into every reply line, so a hit is never
  re-encoded.

A node reply is built without decoding the node's payload: the memo
cache stores each payload as the canonical JSON its digest hashes, so
once those bytes verify against the run's digest they are spliced into
the reply as they are, with the ``"text"`` member sliced out of them.
An entry that does not verify, or a service without a cache, takes the
load-then-encode path, whose reply is byte-identical.

A reply must fit the wire's line limit.  A node whose memo entry
records a payload larger than the limit is refused before its payload
is loaded, and the response memo keeps refusals, never payloads that
cannot be sent.  A payload that cannot be encoded at all is answered
with an ``error`` reply, like any other handler failure.

Requests route through :class:`~repro.serve.admission.
AdmissionController` first (backpressure and quotas are the service's
semantics, not the transport's), then dispatch to a handler.  The
``study`` / ``mine`` / ``replay`` handlers are single-node invocations
of the same study graph the batch CLIs run -- each request gets its own
:class:`~repro.studygraph.context.StudyContext` over the shared study
and cache, and cold node execution dispatches onto the existing harness
pool (``workers`` > 1) exactly as ``repro study run`` does -- so served
payloads and digests are bit-identical to batch output by construction.

The core is transport-free: the unix-socket server, the CLI's in-process
fallback, and the tests all drive :meth:`StudyService.handle` directly.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import obs
from repro.obs.hist import Histogram, histogram_lines, metric_line
from repro.serve.admission import (
    REASON_DRAINING,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.protocol import (
    KIND_METRICS,
    KIND_MINE,
    KIND_PING,
    KIND_REPLAY,
    KIND_STATUS,
    KIND_STUDY,
    KIND_TRACE_SUMMARY,
    MAX_LINE_BYTES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED_BUSY,
    STATUS_SHUTTING_DOWN,
    ProtocolError,
    Request,
    Response,
    encode_json,
    encode_object,
    ok_line_bytes,
)

#: Request kinds whose responses are memoized (pure functions of the
#: immutable warm state; ``trace-summary`` reads a file, ``status``,
#: ``ping``, and ``metrics`` are live).
MEMOIZED_KINDS = frozenset({KIND_STUDY, KIND_MINE, KIND_REPLAY})

#: What a handler returns: the reply payload, or its canonical JSON
#: when the handler built that itself.
Reply = Mapping[str, Any] | bytes


class ReplyTooLarge(ProtocolError):
    """A reply whose payload alone exceeds the line limit.

    Node handlers raise it from the recorded payload size, before the
    payload is loaded; the router raises it for any other reply whose
    encoding is too long.  The response memo keeps the refusal instead
    of the payload, so a repeat is refused without another memo walk.
    """


def request_key(kind: str, params: Mapping[str, Any]) -> str:
    """Canonical memo key for one request: kind + sorted params JSON."""
    return kind + ":" + json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


class RequestStats:
    """Per-request-kind observability counters and histograms.

    Every request -- admitted or refused -- records exactly one latency
    observation and one ``requests_total`` increment, so the exposition
    reconciles with the client side: requests a loadgen sent equal the
    histogram count for that kind, and its rejection count equals the
    ``status="rejected-busy"`` counter.  Histograms use the shared
    default :class:`~repro.obs.hist.Histogram` scheme, so serve-side
    percentiles agree bucket-for-bucket with loadgen's.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: dict[tuple[str, str], int] = {}
        self._latency: dict[str, Histogram] = {}
        self._queue_wait: dict[str, Histogram] = {}
        self._payload_bytes: dict[str, int] = {}

    def observe(
        self,
        kind: str,
        status: str,
        *,
        latency_seconds: float,
        queue_seconds: float = 0.0,
        payload_bytes: int = 0,
    ) -> None:
        """Record one finished (or refused) request."""
        with self._lock:
            self._requests[(kind, status)] = self._requests.get((kind, status), 0) + 1
            self._latency.setdefault(kind, Histogram()).record(latency_seconds)
            self._queue_wait.setdefault(kind, Histogram()).record(queue_seconds)
            if payload_bytes:
                self._payload_bytes[kind] = (
                    self._payload_bytes.get(kind, 0) + payload_bytes
                )

    def requests_total(self, kind: str | None = None, status: str | None = None) -> int:
        """Total requests observed, optionally filtered."""
        with self._lock:
            return sum(
                count
                for (k, s), count in self._requests.items()
                if (kind is None or k == kind) and (status is None or s == status)
            )

    def latency_histogram(self, kind: str) -> Histogram | None:
        """A copy of the latency histogram for ``kind`` (None if unseen)."""
        with self._lock:
            hist = self._latency.get(kind)
            return Histogram.from_dict(hist.to_dict()) if hist is not None else None

    def exposition(
        self,
        *,
        uptime_seconds: float | None = None,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
    ) -> str:
        """The Prometheus-style text exposition of everything recorded.

        Deterministically ordered (sorted kinds, sorted label sets) so
        two scrapes of identical state are byte-identical.
        """
        with self._lock:
            requests = dict(self._requests)
            latency = {k: Histogram.from_dict(h.to_dict()) for k, h in self._latency.items()}
            queue_wait = {
                k: Histogram.from_dict(h.to_dict()) for k, h in self._queue_wait.items()
            }
            payload_bytes = dict(self._payload_bytes)

        lines: list[str] = []
        if uptime_seconds is not None:
            lines.append("# TYPE repro_uptime_seconds gauge")
            lines.append(metric_line("repro_uptime_seconds", round(uptime_seconds, 3)))
        for name, value in sorted((gauges or {}).items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(metric_line(name, value))
        lines.append("# TYPE repro_requests_total counter")
        for (kind, status) in sorted(requests):
            lines.append(
                metric_line(
                    "repro_requests_total",
                    requests[(kind, status)],
                    {"kind": kind, "status": status},
                )
            )
        for name, value in sorted((counters or {}).items()):
            lines.append(f"# TYPE {name} counter")
            lines.append(metric_line(name, value))
        if payload_bytes:
            lines.append("# TYPE repro_response_bytes_total counter")
            for kind in sorted(payload_bytes):
                lines.append(
                    metric_line(
                        "repro_response_bytes_total",
                        payload_bytes[kind],
                        {"kind": kind},
                    )
                )
        lines.append("# TYPE repro_request_latency_seconds histogram")
        for kind in sorted(latency):
            lines.extend(
                histogram_lines(
                    "repro_request_latency_seconds", latency[kind], {"kind": kind}
                )
            )
        lines.append("# TYPE repro_request_queue_seconds histogram")
        for kind in sorted(queue_wait):
            lines.extend(
                histogram_lines(
                    "repro_request_queue_seconds", queue_wait[kind], {"kind": kind}
                )
            )
        return "\n".join(lines) + "\n"


class StudyService:
    """Warm study state behind a request router; see the module docstring.

    Args:
        cache_dir: shared node-memo / parse-mine cache directory (None
            keeps everything in the in-memory response memo only).
        workers: harness-pool worker processes for cold node execution
            inside one request (1 runs inline; warm requests never fork).
        admission: the front door (a permissive default is built when
            omitted).
        monitor: optional :class:`repro.obs.RunMonitor`; every request
            heartbeats it, so its snapshot doubles as the service health
            endpoint.
        registry: study-graph registry override (tests).
    """

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        workers: int = 1,
        admission: AdmissionController | None = None,
        monitor: Any = None,
        registry: Any = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = workers
        self.admission = admission if admission is not None else AdmissionController()
        self.monitor = monitor
        self._registry = registry
        self._study: Any = None
        self._cache: Any = None
        self._warm_lock = threading.Lock()
        #: request key -> the reply payload's canonical JSON, or the
        #: message of a :class:`ReplyTooLarge` refusal.
        self._memo: dict[str, bytes | str] = {}
        self._memo_lock = threading.Lock()
        self._monitor_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "ok": 0,
            "errors": 0,
            "rejected": 0,
            "memo_hits": 0,
        }
        self._counter_lock = threading.Lock()
        self._sequence = 0
        self._started = time.monotonic()
        self.stats = RequestStats()
        self._handlers: dict[str, Callable[[Request], Reply]] = {
            KIND_STUDY: self._handle_study,
            KIND_MINE: self._handle_mine,
            KIND_REPLAY: self._handle_replay,
            KIND_TRACE_SUMMARY: self._handle_trace_summary,
            KIND_STATUS: self._handle_status,
            KIND_PING: self._handle_ping,
            KIND_METRICS: self._handle_metrics,
        }

    # -- warm state ----------------------------------------------------- #

    def warm(self) -> dict[str, Any]:
        """Build (once) and pin the heavy shared state; returns a summary.

        Called at daemon startup so the first client request never pays
        corpus construction or graph wiring; safe (and cheap) to call
        again at any time.
        """
        with self._warm_lock:
            if self._study is None:
                from repro.corpus.loader import full_study
                from repro.pipeline.cache import ParseMineCache
                from repro.studygraph.registry import default_registry

                with obs.span("serve:warm"):
                    self._study = full_study()
                    if self._registry is None:
                        self._registry = default_registry()
                    if self.cache_dir is not None:
                        self._cache = ParseMineCache(self.cache_dir)
            families = getattr(self._registry, "families", dict)()
            return {
                "faults": self._study.total_faults,
                "nodes": len(self._registry),
                "grids": len(families),
                "grid_points": sum(family.size for family in families.values()),
                "cache_dir": str(self.cache_dir) if self.cache_dir else None,
                "workers": self.workers,
            }

    def register_handler(
        self, kind: str, handler: Callable[[Request], Reply]
    ) -> None:
        """Install (or replace) the handler for one request kind.

        The extension point the lifecycle tests use to plant slow or
        failing handlers behind the real admission path.
        """
        self._handlers[kind] = handler

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # -- the router ------------------------------------------------------ #

    def handle(self, request: Request) -> Response:
        """Admit, dispatch, and answer one request.

        Never raises for request-shaped problems: handler errors come
        back as ``status="error"`` responses, admission refusals as
        ``rejected-busy`` / ``shutting-down``.  The reply payload is
        encoded once, here or by the node handler that splices it; one
        that cannot be encoded, or is too large for the wire's line
        limit, is answered as an ``error``, so the transport can always
        send the reply (node handlers refuse a recorded oversize payload
        earlier, before loading it).

        Every path -- success, error, refusal -- records exactly one
        observation in :attr:`stats` (latency, admission wait, response
        payload bytes), which is what makes the ``metrics`` exposition
        reconcile with what clients actually sent.
        """
        received = time.monotonic()
        decision = self.admission.admit(request.client)
        admitted_at = time.monotonic()
        if not decision.admitted:
            self._count("rejected")
            response = self._refusal(request, decision)
            self.stats.observe(
                request.kind,
                response.status,
                latency_seconds=time.monotonic() - received,
                queue_seconds=admitted_at - received,
            )
            self._publish_admission()
            return response

        name = self._request_name(request)
        started = time.monotonic()
        self._heartbeat("dispatched", name)
        status = STATUS_ERROR
        payload_bytes = 0
        try:
            with obs.span(
                f"serve:{request.kind}", client=request.client, id=request.id
            ) as span:
                payload_json, memoized = self._dispatch(request)
                span.set(memoized=memoized)
            line_bytes = ok_line_bytes(request.id, len(payload_json))
            if line_bytes > MAX_LINE_BYTES:
                raise ProtocolError(
                    f"reply of {line_bytes} bytes is too large for the "
                    f"{MAX_LINE_BYTES}-byte line limit"
                )
            self._count("ok")
            status = STATUS_OK
            payload_bytes = len(payload_json)
            return Response(id=request.id, status=STATUS_OK, payload_json=payload_json)
        except Exception as exc:  # noqa: BLE001 -- a request must never kill the daemon
            self._count("errors")
            status = STATUS_ERROR
            return Response(
                id=request.id,
                status=STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self.admission.release()
            self._heartbeat("completed", name, time.monotonic() - started)
            self.stats.observe(
                request.kind,
                status,
                latency_seconds=time.monotonic() - received,
                queue_seconds=admitted_at - received,
                payload_bytes=payload_bytes,
            )
            self._publish_admission()

    def begin_drain(self) -> None:
        """Stop admitting; in-flight requests run to completion."""
        self.admission.begin_drain()

    def _dispatch(self, request: Request) -> tuple[bytes, bool]:
        """``(payload's canonical JSON, memo hit)`` for one admitted request."""
        handler = self._handlers.get(request.kind)
        if handler is None:
            raise ValueError(f"no handler for request kind {request.kind!r}")
        key = None
        if request.kind in MEMOIZED_KINDS:
            key = request_key(request.kind, request.params)
            with self._memo_lock:
                hit = self._memo.get(key)
            if hit is not None:
                self._count("memo_hits")
                if isinstance(hit, str):
                    raise ReplyTooLarge(hit)
                return hit, True
        try:
            reply = handler(request)
            payload_json = reply if isinstance(reply, bytes) else encode_json(reply)
            if len(payload_json) > MAX_LINE_BYTES:
                raise ReplyTooLarge(
                    f"reply of {len(payload_json)} bytes is too large for the "
                    f"{MAX_LINE_BYTES}-byte line limit"
                )
        except ReplyTooLarge as refusal:
            if key is not None:
                with self._memo_lock:
                    # The message only: the exception's traceback would
                    # keep the run's payloads alive.
                    self._memo[key] = str(refusal)
            raise
        if key is not None:
            with self._memo_lock:
                # Concurrent first requests may both compute; payloads
                # are deterministic, so last-write-wins is safe.
                self._memo[key] = payload_json
        return payload_json, False

    # -- handlers -------------------------------------------------------- #

    def _run_node(
        self,
        name: str,
        overrides: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> bytes:
        """One study-graph node over the warm state; the batch-CLI path.

        Per-request context over the *shared* study and cache: payload
        and digest are identical to ``repro study run --nodes`` / the
        classic single-node commands by the graph's equivalence
        contract.  Returns the reply's canonical JSON, with the node's
        verified memo-entry bytes spliced in as its payload (see the
        module docstring).

        Raises:
            ReplyTooLarge: the node's recorded payload size already
                exceeds the line limit; no reply carrying it can be
                sent, so its payload is never loaded.
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.studygraph.context import StudyContext
        from repro.studygraph.scheduler import run_study, stored_payload_json

        self.warm()
        registry = self._registry
        if overrides:
            registry = registry.with_overrides(
                {node: dict(params) for node, params in overrides.items()}
            )
        context = StudyContext(
            study=self._study,
            workers=self.workers,
            cache=self._cache,
            telemetry=MetricsRegistry(),
        )
        result = run_study(context, nodes=[name], outputs=[name], registry=registry)
        run = result.runs[name]
        if run.payload_bytes > MAX_LINE_BYTES:
            raise ReplyTooLarge(
                f"reply of over {run.payload_bytes} bytes is too large for the "
                f"{MAX_LINE_BYTES}-byte line limit"
            )
        payload_json = stored_payload_json(self._cache, run)
        if payload_json is None:
            payload = result.outputs[name]
            payload_json = encode_json(payload)
            text_json = encode_json(payload.get("text"))
        elif run.text_span is None:
            text_json = b"null"
        else:
            text_json = payload_json[run.text_span[0] : run.text_span[1]]
        return encode_object(
            {
                "digest": encode_json(run.digest),
                "node": encode_json(name),
                "payload": payload_json,
                "status": encode_json(run.status),
                "text": text_json,
            }
        )

    def _handle_study(self, request: Request) -> bytes:
        """``study``: params ``node`` (required), ``overrides`` (optional)."""
        node = request.params.get("node")
        if not node or not isinstance(node, str):
            raise ValueError("study request requires a 'node' parameter")
        overrides = request.params.get("overrides") or None
        if overrides is not None and not isinstance(overrides, dict):
            raise ValueError("study 'overrides' must be an object of objects")
        return self._run_node(node, overrides)

    def _handle_mine(self, request: Request) -> bytes:
        """``mine``: params ``application`` (required), ``scale`` (optional)."""
        from repro.commands import COMMANDS, application

        app = application(request.params.get("application"))
        scale = request.params.get("scale")
        values = {"scale": None if scale is None else int(scale)}
        return self._run_node(*COMMANDS["mine"].resolve(app, values))

    def _handle_replay(self, request: Request) -> bytes:
        """``replay``: params ``techniques`` (optional comma list)."""
        from repro.commands import COMMANDS
        from repro.recovery.nodes import resolve_technique

        techniques = request.params.get("techniques")
        names = None
        if techniques is not None:
            if not isinstance(techniques, str):
                raise ValueError("replay 'techniques' must be a comma-joined string")
            names = [part for part in techniques.split(",") if part]
            for name in names:
                resolve_technique(name)
        return self._run_node(*COMMANDS["replay"].resolve(None, {"techniques": names}))

    def _handle_trace_summary(self, request: Request) -> dict[str, Any]:
        """``trace-summary``: params ``path`` (required), ``top`` (optional)."""
        path = request.params.get("path")
        if not path or not isinstance(path, str):
            raise ValueError("trace-summary request requires a 'path' parameter")
        records, _ = obs.read_trace(path)
        if not records:
            raise ValueError(f"no trace records in {path!r}")
        summary = obs.summarize_trace(records, top=int(request.params.get("top", 10)))
        return {
            "path": path,
            "spans": summary.spans,
            "processes": summary.processes,
            "root": summary.root.get("name") if summary.root else None,
            "root_seconds": summary.root_seconds,
            "coverage": summary.coverage,
            "orphaned": summary.orphaned,
            "phases": summary.phase_rows(),
        }

    def _handle_status(self, request: Request) -> dict[str, Any]:
        """``status``: the healthz view plus service counters."""
        snapshot = None
        if self.monitor is not None:
            with self._monitor_lock:
                snapshot = self.monitor.snapshot()
        with self._counter_lock:
            counters = dict(self._counters)
        with self._memo_lock:
            memo_entries = len(self._memo)
        warm = self.warm()
        return {
            "healthz": obs.healthz_view(snapshot),
            "uptime_seconds": round(self.uptime_seconds, 3),
            "requests": counters,
            "admission": self.admission.snapshot(),
            "memo_entries": memo_entries,
            "warm": warm,
        }

    def _handle_ping(self, request: Request) -> dict[str, Any]:
        return {"pong": True, "uptime_seconds": round(self.uptime_seconds, 3)}

    def _handle_metrics(self, request: Request) -> dict[str, Any]:
        """``metrics``: the Prometheus-style text exposition.

        The in-flight metrics request itself is not yet recorded (its
        observation happens after the handler returns), so a scrape
        reflects exactly the requests that completed before it.
        """
        with self._counter_lock:
            memo_hits = self._counters["memo_hits"]
        admission = self.admission.snapshot()
        text = self.stats.exposition(
            uptime_seconds=self.uptime_seconds,
            counters={
                "repro_memo_hits_total": float(memo_hits),
                "repro_rejected_busy_total": float(
                    self.stats.requests_total(status=STATUS_REJECTED_BUSY)
                ),
            },
            gauges={
                "repro_admission_pending": float(admission.get("pending", 0)),
                "repro_admission_max_pending": float(
                    admission.get("max_pending", 0)
                ),
            },
        )
        return {"content_type": "text/plain; version=0.0.4", "text": text}

    # -- bookkeeping ----------------------------------------------------- #

    def _refusal(self, request: Request, decision: AdmissionDecision) -> Response:
        status = (
            STATUS_SHUTTING_DOWN
            if decision.reason == REASON_DRAINING
            else STATUS_REJECTED_BUSY
        )
        return Response(id=request.id, status=status, error=decision.reason)

    def _request_name(self, request: Request) -> str:
        with self._counter_lock:
            self._sequence += 1
            sequence = self._sequence
        return f"{request.kind}#{sequence}"

    def _count(self, key: str) -> None:
        with self._counter_lock:
            self._counters["requests"] += 1 if key in ("ok", "errors", "rejected") else 0
            self._counters[key] += 1

    def _heartbeat(self, event: str, name: str, wall_seconds: float = 0.0) -> None:
        if self.monitor is None:
            return
        with self._monitor_lock:
            if event == "dispatched":
                self.monitor.dispatched([name])
            else:
                self.monitor.completed(name, wall_seconds=wall_seconds)

    def _publish_admission(self) -> None:
        if self.monitor is None:
            return
        stats = self.admission.snapshot()
        with self._counter_lock:
            rejected = self._counters["rejected"]
        with self._monitor_lock:
            self.monitor.set_info(
                queue_depth=stats["pending"],
                max_pending=stats["max_pending"],
                draining=stats["draining"],
                clients=stats["clients"],
                rejected=rejected,
            )
