"""``serve``: a closed-loop request burst against a serve daemon.

Each pass starts a fresh daemon (its own process, one worker) over a
fresh copy of a full study cache, then this process drives the request
plan through :func:`repro.envmodel.loadgen.run_closed_loop` from
:data:`CLIENTS` clients, one unix-socket connection each.  Callers of
the CLI wait for each reply, hence a closed loop.  The plan, the same
for every pass of a run and of one size for every seed (1,173
requests):

* every registered node once, first and in name order (first-time
  loads from the cache);
* memo-hit ``study`` repeats: each of the 29 experiment nodes
  :data:`EXPERIMENT_REPEATS` times, every other node
  :data:`OTHER_REPEATS` time (protocol, admission and transport);
* :data:`WHATIFS` first-time what-if queries that miss the memo and run
  nodes (figure widths, E1 technique pairs, retry-budget race window);
* :data:`SCRAPES` ``metrics``/``status`` scrapes, evenly spaced.

The seed picks the what-if parameters and the order after the
first-time requests.  The weights are an assumption, not recorded
traffic (none has been recorded); each run prints every request
class's share of the clients' time (:data:`CLASSES`) so it shows what
``wall_s`` and the percentiles measure.

``parsed.*`` nodes stay in the key space.  A ``parsed.mysql`` reply is
larger than the protocol's line limit; the daemon's connection thread
dies without a reply, while the daemon has already counted the request
``ok``.  Such requests count as failed, the client reconnects, and the
gap shows as ``serve.ok_drift``.

Set-up (timed, once per pass): copy the cache, start the daemon, wait
until it answers.  The cache itself is built once per checkout from
this source tree by ``repro study run`` (the ``batch`` workload's
study part times that work) and reused by later runs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from perfbench import layers
from perfbench.common import (
    ROOT,
    WORK_ROOT,
    Outcome,
    child_env,
    passes_until,
    peak_rss_mb,
    run_child,
    source_digest,
)
from perfbench.pins import PINS
from perfbench.stats import (
    median,
    ok_drift,
    percentile_label,
    ratio,
    reported_percentile,
)
from perfbench.tracer import Tracer

CLIENTS = 2
#: Memo-hit repeats per experiment node and per other node, on top of
#: one first-time request for every node.  Fixed counts (the seed only
#: orders them) keep a pass's work the same for every seed.
EXPERIMENT_REPEATS = 30
OTHER_REPEATS = 1
WHATIFS = 24
SCRAPES = 20
#: Request classes whose share of the clients' time every run reports.
CLASSES = ("first_load", "memo_hit", "whatif", "scrape")
TECHNIQUES = (
    "process-pairs",
    "checkpoint-rollback",
    "progressive-retry",
    "restart-fresh",
    "software-rejuvenation",
)


def _whatifs(rng: random.Random) -> list[tuple[str, dict]]:
    """Distinct what-if queries: each misses the memo and runs a node.

    E1 subsets all have two techniques, so their replay cost does not
    depend on which ones the seed picks.
    """
    queries: list[tuple[str, dict]] = []
    for figure in ("F1", "F2", "F3"):
        for width in rng.sample([w for w in range(20, 121) if w != 40], 4):
            queries.append((figure, {figure: {"width": width}}))
    pairs = [f"{a},{b}" for i, a in enumerate(TECHNIQUES) for b in TECHNIQUES[i + 1:]]
    for subset in rng.sample(pairs, 6):
        queries.append(("E1", {"E1": {"techniques": subset}}))
    windows = [round(0.05 * step, 2) for step in range(1, 20) if step != 5]
    for window in rng.sample(windows, 6):
        queries.append(("sweep.retry-budget", {"sweep.retry-budget": {"race_window": window}}))
    assert len(queries) == WHATIFS
    return queries


def request_plan(seed: int) -> list[tuple[str, dict]]:
    """The seeded ``(kind, params)`` sequence every pass of a run sends."""
    rng = random.Random(seed)
    nodes = sorted(PINS["study"]["digests"])
    experiments = set(PINS["study"]["experiments"])
    # First-time requests for every node open the burst in name order,
    # as a warm-up; the memo-hit repeats and what-ifs follow in
    # seeded order.
    first = [("study", {"node": node}) for node in nodes]
    rest = []
    for node in nodes:
        repeats = EXPERIMENT_REPEATS if node in experiments else OTHER_REPEATS
        rest += [("study", {"node": node})] * repeats
    rest += [
        ("study", {"node": node, "overrides": overrides})
        for node, overrides in _whatifs(rng)
    ]
    rng.shuffle(rest)
    body = first + rest
    plan = []
    every = len(body) // SCRAPES
    for index, request in enumerate(body, 1):
        plan.append(request)
        if index % every == 0 and index // every <= SCRAPES:
            plan.append(("metrics" if index // every % 2 else "status", {}))
    return plan


def request_classes(plan: list[tuple[str, dict]]) -> list[str]:
    """Each request's class, from :data:`CLASSES`.

    A node's first plain ``study`` request is a first-time load from the
    cache, a repeat is a memo hit, a request with overrides is a
    what-if, and anything else is a scrape.
    """
    seen: set[str] = set()
    classes = []
    for kind, params in plan:
        if kind != "study":
            classes.append("scrape")
        elif "overrides" in params:
            classes.append("whatif")
        elif params["node"] in seen:
            classes.append("memo_hit")
        else:
            seen.add(params["node"])
            classes.append("first_load")
    return classes


def request_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


# -- the daemon --------------------------------------------------------- #


def ensure_cache_template(work: Path) -> Path:
    """A full study cache for this source tree, built once per checkout.

    Only the current source tree's template is kept: building a new one
    first removes every other (and any half-built one), so changes to
    the sources do not pile up caches.  The finished build is renamed
    into place, so a template that exists is complete.
    """
    template = WORK_ROOT / f"serve-cache-{source_digest()[:16]}"
    if template.is_dir():
        return template
    for stale in WORK_ROOT.glob("serve-cache-*"):
        shutil.rmtree(stale)
    building = WORK_ROOT / "serve-cache-building"
    child = run_child(
        ["-m", "repro", "study", "run", "--workers", "1", "--cache-dir", str(building)],
        work / "template.out",
    )
    if child.returncode != 0:
        raise RuntimeError(f"building the serve cache failed ({child.returncode})")
    os.replace(building, template)
    return template


class Daemon:
    """One serve daemon child process over its own cache copy."""

    def __init__(self, work: Path, index: int, template: Path, trace_out: Path | None):
        cache = work / f"serve-cache-{index}"
        shutil.copytree(template, cache)
        # A relative socket path keeps clear of the ~100-byte limit on
        # unix socket paths, whatever the checkout's location.
        self.socket = os.path.relpath(work / f"d{index}.sock", ROOT)
        argv = [sys.executable, "-m", "perfbench.child", "serve",
                "--socket", self.socket, "--cache-dir", str(cache)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self.cache = cache
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the daemon answers a ping (one ping is answered)."""
        from repro.serve import ServeClient, ServeConnectionError

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            try:
                with ServeClient(self.socket, client="probe", timeout=timeout) as probe:
                    if probe.request("ping").ok:
                        return
            except ServeConnectionError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not come up")
            time.sleep(0.005)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.cache, ignore_errors=True)


# -- one burst ---------------------------------------------------------- #


class Burst:
    """Client side of one pass: sends the plan, keeps what came back."""

    def __init__(self, socket: str, plan: list[tuple[str, dict]]):
        self.socket = socket
        self.plan = plan
        self.classes = request_classes(plan)
        #: Client-observed seconds per request class, failed requests too.
        self.seconds = dict.fromkeys(CLASSES, 0.0)
        self.digests: dict[int, str] = {}
        self.ok = 0
        self.reconnects = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._clients: list[Any] = []

    def _client(self):
        from repro.serve import ServeClient

        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = ServeClient(self.socket, client="bench")
            with self._lock:
                self._clients.append(client)
        return client

    def send(self, index: int) -> None:
        from repro.serve import ServeConnectionError

        kind, params = self.plan[index]
        client = self._client()
        started = time.perf_counter()
        try:
            response = client.request(kind, params)
        except ServeConnectionError:
            # The daemon dropped the connection: reconnect for the next
            # request; this one counts as failed.
            client.close()
            self._local.client = None
            with self._lock:
                self.reconnects += 1
            raise
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.seconds[self.classes[index]] += elapsed
        if not response.ok:
            raise RuntimeError(f"{kind}: {response.status} {response.error}")
        with self._lock:
            self.ok += 1
            if kind == "study":
                self.digests[index] = response.payload["digest"]

    def close(self) -> None:
        for client in self._clients:
            client.close()


def _scrape(socket: str) -> dict[str, float]:
    """The daemon's own view of the burst, from its metrics exposition.

    Everything but the readiness ping is burst traffic; the scrape does
    not count itself.
    """
    from repro.obs.hist import (
        bucket_percentile,
        exposition_buckets,
        exposition_value,
        parse_exposition,
    )
    from repro.serve import ServeClient

    with ServeClient(socket, client="scrape") as client:
        samples = parse_exposition(client.request("metrics").payload["text"])

    def total(name: str, **labels: str) -> float:
        value = exposition_value(samples, name, labels) or 0.0
        return value - (exposition_value(samples, name, {"kind": "ping", **labels}) or 0.0)

    study = {"kind": "study"}
    latency = exposition_buckets(samples, "repro_request_latency_seconds", study)
    queue = exposition_buckets(samples, "repro_request_queue_seconds", study)
    served = total("repro_request_latency_seconds_count")
    return {
        "service_p50_ms": bucket_percentile(latency, 0.50) * 1000,
        "service_p99_ms": bucket_percentile(latency, 0.99) * 1000,
        "queue_p99_ms": bucket_percentile(queue, 0.99) * 1000,
        "mean_ms": ratio(total("repro_request_latency_seconds_sum"), served) * 1000,
        "served": served,
        "ok": total("repro_requests_total", status="ok"),
        "memo_hit_ratio": ratio(
            exposition_value(samples, "repro_memo_hits_total") or 0.0,
            exposition_value(samples, "repro_requests_total", study) or 0.0,
        ),
    }


def _pass(work: Path, index: int, template: Path, plan, out: Outcome, trace_out=None):
    """Set up a daemon, send the plan, scrape and stop it; one pass's view."""
    from repro.envmodel.loadgen import run_closed_loop

    began = time.perf_counter()
    daemon = Daemon(work, index, template, trace_out)
    setup_s = time.perf_counter() - began
    try:
        burst = Burst(daemon.socket, plan)
        cpu = daemon.cpu_s()
        try:
            load = run_closed_loop(burst.send, requests=len(plan), concurrency=CLIENTS)
        finally:
            burst.close()
        cpu = daemon.cpu_s() - cpu
        view = _scrape(daemon.socket)
        rss = peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    out.check(
        view["served"] == len(plan),
        f"serve: daemon saw {view['served']} of {len(plan)} requests",
    )
    view.update(
        setup_s=setup_s,
        wall_s=load.wall_seconds,
        cpu_s=cpu,
        rss_mb=rss,
        latencies=load.latencies,
        failures=load.failures,
        burst=burst,
        client_mean_ms=sum(load.latencies) / len(load.latencies) * 1000,
    )
    return view


def _expected_digests(work: Path, template: Path, plan) -> dict[str, str]:
    """Batch digest for every distinct request, keyed like the plan."""
    from repro.studygraph import StudyContext, default_registry, run_study

    expected = {}
    cache = work / "batch-cache"
    shutil.copytree(template, cache)
    context = StudyContext.default(workers=1, cache_dir=cache)
    for kind, params in plan:
        key = request_key(params)
        if kind != "study" or key in expected:
            continue
        if "overrides" not in params:
            expected[key] = PINS["study"]["digests"][params["node"]]
            continue
        registry = default_registry().with_overrides(params["overrides"])
        node = params["node"]
        result = run_study(context, nodes=[node], outputs=[node], registry=registry)
        expected[key] = result.runs[node].digest
    shutil.rmtree(cache)
    return expected


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    template = ensure_cache_template(work)
    plan = request_plan(seed)
    views = []
    started = time.perf_counter()
    while passes_until(seconds, started, len(views)):
        view = _pass(work, len(views), template, plan, out)
        views.append(view)
        out.setup_s.append(view["setup_s"])
        out.wall_s.append(view["wall_s"])
        out.cpu_s.append(view["cpu_s"])
        out.ops.add(len(plan), view["failures"])

    expected = _expected_digests(work, template, plan)
    for view in views:
        burst = view["burst"]
        wrong = sorted(
            {plan[i][1]["node"] for i, digest in burst.digests.items()
             if digest != expected[request_key(plan[i][1])]}
        )
        out.check(not wrong, f"serve: served digests differ from batch at {wrong[:5]}")
        out.check(
            burst.digests == views[0]["burst"].digests, "serve: passes served different digests"
        )
    out.peak_rss_mb = median([v["rss_mb"] for v in views])

    out.samples("setup_s", out.setup_s, "s")
    out.samples("wall_s", out.wall_s, "s")
    out.samples("cpu_s", out.cpu_s, "s")
    # Client percentiles go through the program's own Histogram, so they
    # share buckets with the daemon's exposition and `repro slo check`.
    from repro.obs.hist import Histogram

    latencies = Histogram.from_values(x for v in views for x in v["latencies"])
    tail = reported_percentile(latencies.count)
    n = latencies.count
    out.line("req_per_s", median([len(plan) / v["wall_s"] for v in views]), "1/s", len(views),
             f"{CLIENTS} closed-loop clients, {len(plan)} requests per pass")
    out.line("p50_ms", latencies.p50 * 1000, "ms", n)
    out.line(f"{percentile_label(tail)}_ms", latencies.percentile(tail) * 1000, "ms", n)
    classes = request_classes(plan)
    for c in CLASSES:
        shares = [v["burst"].seconds[c] / sum(v["burst"].seconds.values()) for v in views]
        out.line(f"serve.share.{c}", median(shares), "ratio", len(views),
                 f"of client-observed time; {classes.count(c)} requests per pass")
    drift = [ok_drift(v["ok"], v["burst"].ok) for v in views]
    reconnects = [v["burst"].reconnects for v in views]
    out.line("serve.ok_drift", median(drift), "count", len(views), "per pass")
    out.line("serve.reconnects", median(reconnects), "count", len(views), "per pass")

    if trace:
        report = work / "daemon-trace.json"
        traced = _pass(work, len(views), template, plan, out, trace_out=report)
        tracer = Tracer()
        tracer.merge_report(json.loads(report.read_text(encoding="utf-8")))
        tracer.require(layers.EXPECTED["serve"])
        values = layers.layer_values(tracer)
        values.update({
            "serve.service_p50_ms": median([v["service_p50_ms"] for v in views]),
            "serve.service_p99_ms": median([v["service_p99_ms"] for v in views]),
            "serve.queue_p99_ms": median([v["queue_p99_ms"] for v in views]),
            "serve.transport_ms": median([v["client_mean_ms"] - v["mean_ms"] for v in views]),
            "serve.memo_hit_ratio": median([v["memo_hit_ratio"] for v in views]),
            "serve.node_runs": values["studygraph.executed"],
            "serve.daemon_cpu_ms_per_req": median([v["cpu_s"] * 1000 / len(plan) for v in views]),
            "serve.ok_drift": median(drift),
            "serve.reconnects": median(reconnects),
            "trace.overhead": traced["wall_s"] / median(out.wall_s),
        })
        out.layers.update(values)
    return out
