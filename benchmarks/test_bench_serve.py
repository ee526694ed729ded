"""The serve daemon: warm served requests vs cold per-invocation runs.

The service exists to amortise the batch CLI's per-invocation tax --
study construction, graph wiring, node recompute -- across many
requests.  This benchmark proves the trade on a live unix-socket
daemon:

* **equality first**: every served payload (text and digest) must be
  bit-identical to a cold batch run of the same node, for each request
  kind (``study``, ``mine``, ``replay``) -- the daemon is only allowed
  to be faster, never different;
* a **warm served request** must beat the cold per-invocation
  equivalent (a fresh cacheless context recomputing the node, i.e. what
  every ``repro table apache`` pays after process start) by > 5x;
* **closed-loop load**: 8 concurrent clients driving real study
  requests through the socket must sustain > 1000 requests/second,
  with zero failures and zero admission rejections at this
  concurrency.
"""

import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro.envmodel.loadgen import run_closed_loop
from repro.serve import (
    AdmissionController,
    ServeClient,
    StudyServer,
    StudyService,
)

#: Per-invocation cold runs to average (each rebuilds its context).
COLD_INVOCATIONS = 3

#: Warm served requests to average against the cold baseline.
WARM_REQUESTS = 50

#: Closed-loop load: total requests and concurrent clients.
LOAD_REQUESTS = 3000
LOAD_CONCURRENCY = 8

#: The served workload under test and its batch equivalents.
SERVED = [
    ("study", {"node": "T1"}, "T1", None),
    ("mine", {"application": "apache"}, "mine.apache", None),
    (
        "replay",
        {"techniques": "restart-fresh,checkpoint-rollback"},
        "E1",
        {"E1": {"techniques": "restart-fresh,checkpoint-rollback"}},
    ),
]


def _batch_node(name, overrides=None):
    """One cold per-invocation run: fresh cacheless context, same graph."""
    from repro.studygraph import StudyContext, default_registry, run_study

    registry = default_registry()
    if overrides:
        registry = registry.with_overrides(overrides)
    context = StudyContext.default(cache_dir=None)
    result = run_study(context, nodes=[name], outputs=[name], registry=registry)
    return result.runs[name].digest, result.outputs[name]


def test_bench_serve(benchmark):
    sock_dir = Path(tempfile.mkdtemp(dir="/tmp", prefix="repro-bench-serve-"))
    service = StudyService(
        admission=AdmissionController(max_pending=64), workers=1
    )
    server = StudyServer(service, sock_dir / "serve.sock")
    server.start()
    try:
        client = ServeClient(server.socket_path, client="bench")

        # Equality first: served output must be bit-identical to the
        # batch path for every request kind before any timing counts.
        for kind, params, node, overrides in SERVED:
            response = client.request(kind, params)
            assert response.ok, f"{kind} failed: {response.error}"
            digest, payload = _batch_node(node, overrides)
            assert response.payload["digest"] == digest, f"digest drift at {kind}"
            assert response.payload["text"] == payload["text"], (
                f"text drift at {kind}"
            )

        # Cold baseline: what each CLI invocation pays to recompute T1
        # (fresh context, no memo), minus interpreter startup -- a
        # conservative floor for the per-invocation cost.
        started = time.perf_counter()
        for _ in range(COLD_INVOCATIONS):
            _batch_node("T1")
        cold_per_request = (time.perf_counter() - started) / COLD_INVOCATIONS

        # Warm served: the same request answered from the daemon's
        # response memo over the real socket.
        started = time.perf_counter()
        for _ in range(WARM_REQUESTS):
            assert client.request("study", {"node": "T1"}).ok
        warm_per_request = (time.perf_counter() - started) / WARM_REQUESTS

        speedup = cold_per_request / warm_per_request
        assert speedup > 5, (
            f"warm served requests must beat cold per-invocation runs by >5x, "
            f"got {speedup:.1f}x ({cold_per_request * 1000:.1f} ms -> "
            f"{warm_per_request * 1000:.3f} ms)"
        )

        # Closed-loop load: concurrent clients, one connection each,
        # cycling through the served workload.
        local = threading.local()

        def send(index):
            slot = getattr(local, "client", None)
            if slot is None:
                slot = local.client = ServeClient(
                    server.socket_path, client=f"load-{threading.get_ident()}"
                )
            kind, params, _, _ = SERVED[index % len(SERVED)]
            response = slot.request(kind, params)
            if not response.ok:
                raise RuntimeError(f"{response.status}: {response.error}")

        load = run_closed_loop(
            send, requests=LOAD_REQUESTS, concurrency=LOAD_CONCURRENCY
        )
        assert load.failures == 0, f"{load.failures} failed requests under load"
        assert load.throughput > 1000, (
            f"{LOAD_CONCURRENCY} closed-loop clients must sustain >1000 req/s "
            f"against the warm daemon, got {load.throughput:.0f} req/s"
        )
        status = client.request("status")
        assert status.ok
        assert status.payload["requests"]["rejected"] == 0

        def warm_request():
            assert client.request("study", {"node": "T1"}).ok

        benchmark.pedantic(warm_request, rounds=200, iterations=1)
        benchmark.extra_info["per_request"] = {
            "cold_ms": round(cold_per_request * 1000, 2),
            "warm_served_ms": round(warm_per_request * 1000, 4),
            "speedup": f"{speedup:.0f}x",
        }
        benchmark.extra_info["load"] = {
            "requests": load.requests_issued,
            "concurrency": LOAD_CONCURRENCY,
            "req_per_s": round(load.throughput),
            "p50_ms": round(load.p50 * 1000, 3),
            "p95_ms": round(load.p95 * 1000, 3),
            "p99_ms": round(load.p99 * 1000, 3),
        }
        benchmark.extra_info["equality"] = (
            "served study/mine/replay payloads bit-identical to cold batch "
            "runs (text and digest) before any timing was taken"
        )
        client.close()
    finally:
        server.shutdown()
        shutil.rmtree(sock_dir, ignore_errors=True)
