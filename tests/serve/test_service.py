"""The transport-free service core: digest equality with the batch
path, memoization, admission semantics, and concurrent mixed traffic."""

import gc
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED_BUSY,
    STATUS_SHUTTING_DOWN,
    Request,
    encode_line,
)
from repro.serve import service as service_module
from repro.serve.service import StudyService, request_key


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def service():
    """One warm cacheless service shared by the read-only tests."""
    service = StudyService(workers=1)
    service.warm()
    return service


def batch_node(name, overrides=None):
    """The batch path the CLIs use: fresh context, same study graph."""
    from repro.studygraph.context import StudyContext
    from repro.studygraph.registry import default_registry
    from repro.studygraph.scheduler import run_study

    registry = default_registry()
    if overrides:
        registry = registry.with_overrides(overrides)
    context = StudyContext.default(cache_dir=None)
    result = run_study(context, nodes=[name], outputs=[name], registry=registry)
    return result.runs[name].digest, result.outputs[name]


class TestDigestEquality:
    def test_study_matches_batch(self, service):
        response = service.handle(Request(kind="study", params={"node": "T1"}))
        assert response.ok
        digest, payload = batch_node("T1")
        assert response.payload["digest"] == digest
        assert response.payload["text"] == payload["text"]

    def test_mine_matches_batch(self, service):
        response = service.handle(
            Request(kind="mine", params={"application": "apache"})
        )
        assert response.ok
        digest, _ = batch_node("mine.apache")
        assert response.payload["digest"] == digest

    def test_replay_matches_batch(self, service):
        techniques = "restart-fresh,checkpoint-rollback"
        response = service.handle(
            Request(kind="replay", params={"techniques": techniques})
        )
        assert response.ok
        digest, _ = batch_node("E1", {"E1": {"techniques": techniques}})
        assert response.payload["digest"] == digest

    def test_study_with_overrides(self, service):
        overrides = {"E1": {"techniques": "restart-fresh"}}
        response = service.handle(
            Request(kind="study", params={"node": "E1", "overrides": overrides})
        )
        assert response.ok
        digest, _ = batch_node("E1", overrides)
        assert response.payload["digest"] == digest


def _blob(ctx, inputs, params):
    return {"blob": "x" * params["size"], "text": "blob"}


def blob_registry():
    from repro.studygraph.node import NodeSpec
    from repro.studygraph.registry import Registry

    return Registry(
        [
            NodeSpec.build("big", _blob, params={"size": 5000}),
            NodeSpec.build("small", _blob, params={"size": 10}),
        ]
    )


@pytest.fixture
def small_limit(monkeypatch):
    """A line limit the toy ``big`` node exceeds and ``small`` fits."""
    monkeypatch.setattr(service_module, "MAX_LINE_BYTES", 2000)


def _data_loads(monkeypatch):
    """Spy on memo-cache reads; returns the list of ``sgdata`` reads.

    Payload entries are read undecoded (``load_encoded``); a decoding
    ``load`` of one is recorded too, so the list counts every read.
    """
    from repro.pipeline.cache import ParseMineCache
    from repro.studygraph.artifact import DATA_TAG

    loads = []
    for method in ("load", "load_encoded"):
        original = getattr(ParseMineCache, method)

        def spy(self, key, tag, original=original, method=method):
            if tag == DATA_TAG:
                loads.append((method, key))
            return original(self, key, tag)

        monkeypatch.setattr(ParseMineCache, method, spy)
    return loads


class TestOversizeReplies:
    """A reply too large for the line limit is refused from the size the
    memo entry records, before the payload is loaded."""

    def test_recorded_oversize_is_refused_without_loading(
        self, tmp_path, small_limit, monkeypatch
    ):
        cold = StudyService(cache_dir=tmp_path, registry=blob_registry())
        first = cold.handle(Request(kind="study", params={"node": "big"}))
        assert first.status == STATUS_ERROR and "too large" in first.error
        assert cold.handle(Request(kind="study", params={"node": "small"})).ok

        loads = _data_loads(monkeypatch)
        warm = StudyService(cache_dir=tmp_path, registry=blob_registry())
        for _ in range(2):
            response = warm.handle(Request(kind="study", params={"node": "big"}))
            assert response.status == STATUS_ERROR
            assert "too large" in response.error
            assert "line limit" in response.error
        assert loads == []
        # The memo keeps the refusal, never a payload: the repeat is a hit.
        assert warm._counters["memo_hits"] == 1
        assert all(isinstance(entry, str) for entry in warm._memo.values())
        assert warm.handle(Request(kind="study", params={"node": "small"})).ok
        # The one read is of the raw entry, never a decoding load.
        assert [method for method, _ in loads] == ["load_encoded"]

    def test_entry_without_recorded_size_runs_again_and_is_refused(
        self, tmp_path, small_limit, monkeypatch
    ):
        import json

        cold = StudyService(cache_dir=tmp_path, registry=blob_registry())
        cold.handle(Request(kind="study", params={"node": "big"}))
        # Strip the field: an entry without it is not a valid memo entry.
        for path in tmp_path.rglob("*.sgmeta.json"):
            entry = json.loads(path.read_text(encoding="utf-8"))
            del entry["data"]["payload_bytes"]
            path.write_text(json.dumps(entry), encoding="utf-8")

        loads = _data_loads(monkeypatch)
        warm = StudyService(cache_dir=tmp_path, registry=blob_registry())
        for _ in range(2):
            response = warm.handle(Request(kind="study", params={"node": "big"}))
            assert response.status == STATUS_ERROR
            assert "too large" in response.error
            assert "line limit" in response.error
        # The miss ran the node again, which recorded its size afresh;
        # the refusal came from that size, so no payload was read.
        (path,) = tmp_path.rglob("*.sgmeta.json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["data"]["payload_bytes"] > 2000
        assert loads == []
        assert warm._counters["memo_hits"] == 1
        assert all(isinstance(entry, str) for entry in warm._memo.values())

    def test_memo_hit_is_not_sized_again(self, tmp_path, monkeypatch):
        from repro.serve.protocol import encode_json

        built = []
        original = service_module.encode_object

        def spy(members, **kwargs):
            built.append(sorted(members))
            return original(members, **kwargs)

        monkeypatch.setattr(service_module, "encode_object", spy)
        StudyService(cache_dir=tmp_path, registry=blob_registry()).handle(
            Request(kind="study", params={"node": "small"})
        )
        loads = _data_loads(monkeypatch)
        service = StudyService(cache_dir=tmp_path, registry=blob_registry())
        built.clear()
        replies = [
            service.handle(Request(kind="study", params={"node": "small"}))
            for _ in range(3)
        ]
        assert all(reply.ok for reply in replies)
        assert service._counters["memo_hits"] == 2
        # One raw read and one reply build, by the first request only.
        assert [method for method, _ in loads] == ["load_encoded"]
        assert len(built) == 1
        size = len(encode_json(replies[0].payload))
        text = service.handle(Request(kind="metrics")).payload["text"]
        assert f'repro_response_bytes_total{{kind="study"}} {3 * size}' in text

    def test_memo_keeps_encoded_replies_or_refusals(
        self, tmp_path, small_limit
    ):
        service = StudyService(cache_dir=tmp_path, registry=blob_registry())
        for node in ("big", "small", "small"):
            service.handle(Request(kind="study", params={"node": node}))
        assert sorted(type(entry).__name__ for entry in service._memo.values()) == [
            "bytes",
            "str",
        ]


def _records(ctx, inputs, params):
    records = [{"id": index, "ok": index % 3 == 0} for index in range(params["count"])]
    return {"records": records, "text": f"{len(records)} records"}


def records_registry():
    from repro.studygraph.node import NodeSpec
    from repro.studygraph.registry import Registry

    return Registry(
        [
            NodeSpec.build("records", _records, params={"count": 50_000}),
            NodeSpec.build("few", _records, params={"count": 3}),
        ]
    )


class TestSplicedReplies:
    """A cached node's reply carries its verified memo-entry bytes."""

    @staticmethod
    def _line(cache_dir, node):
        service = StudyService(cache_dir=cache_dir, registry=records_registry())
        return encode_line(
            service.handle(Request(kind="study", params={"node": node}, id="r"))
        )

    def test_spliced_reply_equals_the_encoded_reply(self, tmp_path):
        import hashlib
        import json

        from repro.serve.protocol import encode_json

        self._line(tmp_path, "few")  # fills the cache
        line = self._line(tmp_path, "few")
        reply = json.loads(line)["payload"]
        assert line == encode_json(json.loads(line)) + b"\n"
        assert reply["status"] == "cached"
        assert reply["text"] == reply["payload"]["text"] == "3 records"
        assert reply["digest"] == hashlib.sha256(encode_json(reply["payload"])).hexdigest()
        assert line == self._line(None, "few").replace(b'"executed"', b'"cached"')

    @pytest.mark.parametrize(
        "damage",
        ["prefix-byte", "payload-digit", "payload-text", "closing-brace", "truncated"],
    )
    def test_a_damaged_entry_gives_the_identical_reply(self, tmp_path, damage):
        import json

        self._line(tmp_path, "few")
        expected = self._line(tmp_path, "few")
        (path,) = [
            path for path in tmp_path.rglob("*.sgdata.json")
            if b'"3 records"' in path.read_bytes()
        ]
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            del raw[len(raw) // 2 :]
        else:
            at = {
                "prefix-byte": raw.index(b'"data"') + 2,
                "payload-digit": raw.index(b'"id":1') + len(b'"id":'),
                "payload-text": raw.index(b"3 records") + 2,
                "closing-brace": len(raw) - 1,
            }[damage]
            raw[at] = ord("9") if damage == "payload-digit" else ord("q")
        path.write_bytes(bytes(raw))
        line = self._line(tmp_path, "few")
        assert json.loads(line)["status"] == "ok"
        assert line == expected

    #: Peak traced allocation while serving a cached node, as a multiple
    #: of its payload size: the raw entry read and the reply built from
    #: it, plus the line it is spliced into.  Decoding the payload (and
    #: encoding it again) costs an order of magnitude more.
    PEAK_MULTIPLE = 4

    def test_serving_a_cached_node_never_decodes_its_payload(self, tmp_path):
        import json

        self._line(tmp_path, "records")
        service = StudyService(cache_dir=tmp_path, registry=records_registry())
        service.warm()
        request = Request(kind="study", params={"node": "records"}, id="r")
        gc.collect()
        tracemalloc.start()
        try:
            line = encode_line(service.handle(request))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (meta,) = [
            path for path in tmp_path.rglob("*.sgmeta.json")
            if b'"node":"records"' in path.read_bytes()
        ]
        payload_bytes = json.loads(meta.read_text())["data"]["payload_bytes"]
        assert 900_000 < payload_bytes < 1_300_000
        assert len(line) > payload_bytes
        assert peak < self.PEAK_MULTIPLE * payload_bytes


class TestGridFamilies:
    def test_warm_summary_counts_grid_families(self, service):
        summary = service.warm()
        assert summary["grids"] == 5
        assert summary["grid_points"] == 105

    def test_grid_point_request_matches_batch_and_memoizes(self, service):
        params = {"node": "sweep.recovery-model[model=restart-fresh]"}
        first = service.handle(Request(kind="study", params=params))
        assert first.ok
        digest, payload = batch_node(params["node"])
        assert first.payload["digest"] == digest
        assert first.payload["text"] == payload["text"]
        before = service._counters["memo_hits"]
        second = service.handle(Request(kind="study", params=params))
        assert second.payload == first.payload
        assert service._counters["memo_hits"] == before + 1


class TestMemoization:
    def test_repeat_request_is_a_memo_hit(self, service):
        params = {"node": "catalog"}
        first = service.handle(Request(kind="study", params=params))
        before = service._counters["memo_hits"]
        second = service.handle(Request(kind="study", params=params))
        assert second.payload == first.payload
        assert service._counters["memo_hits"] == before + 1

    def test_key_is_order_insensitive(self):
        assert request_key("study", {"a": 1, "b": 2}) == request_key(
            "study", {"b": 2, "a": 1}
        )

    def test_status_is_never_memoized(self, service):
        first = service.handle(Request(kind="status"))
        second = service.handle(Request(kind="status"))
        assert first.ok and second.ok
        counted = second.payload["requests"]["requests"]
        assert counted > first.payload["requests"]["requests"]


class TestMemoryGrowth:
    """Memo hits must not accumulate memory: the leak symptom generic
    recovery depends on seeing, checked with traced allocations rather
    than RSS or wall clock so it is deterministic."""

    REQUESTS = 1000
    #: Growth allowed from request N to request 2N.  A service that keeps
    #: each reply grows by about 80 bytes per request (80 KB here); a
    #: healthy one by well under 1 KB.
    BOUND_BYTES = 16 * 1024

    def test_memo_hits_do_not_grow_traced_memory(self, tmp_path):
        service = StudyService(cache_dir=tmp_path, registry=blob_registry())
        request = Request(kind="study", params={"node": "small"}, id="leak")

        def send(count):
            for _ in range(count):
                line = encode_line(service.handle(request))
            assert b'"status":"ok"' in line

        send(2)  # the miss that computes and memoizes the reply
        tracemalloc.start()
        try:
            send(self.REQUESTS)
            gc.collect()
            at_n = tracemalloc.get_traced_memory()[0]
            send(self.REQUESTS)
            gc.collect()
            at_2n = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert service._counters["memo_hits"] == 2 * self.REQUESTS + 1
        assert at_2n - at_n < self.BOUND_BYTES


class TestErrors:
    def test_handler_error_is_a_response(self, service):
        response = service.handle(Request(kind="study", params={}))
        assert response.status == STATUS_ERROR
        assert "node" in response.error
        # The daemon survives and keeps serving.
        assert service.handle(Request(kind="ping")).ok

    def test_unknown_node(self, service):
        response = service.handle(
            Request(kind="study", params={"node": "no-such-node"})
        )
        assert response.status == STATUS_ERROR
        assert "no-such-node" in response.error

    def test_bad_application(self, service):
        response = service.handle(
            Request(kind="mine", params={"application": "httpd"})
        )
        assert response.status == STATUS_ERROR

    def test_bad_technique(self, service):
        response = service.handle(
            Request(kind="replay", params={"techniques": "magic"})
        )
        assert response.status == STATUS_ERROR

    def test_missing_trace_file(self, service, tmp_path):
        response = service.handle(
            Request(kind="trace-summary", params={"path": str(tmp_path / "no.jsonl")})
        )
        assert response.status == STATUS_ERROR


class TestTraceSummary:
    def test_summarizes_a_recorded_trace(self, tmp_path):
        path = tmp_path / "run.trace"
        with obs.tracing(path):
            with obs.span("root"):
                with obs.span("node:inner"):
                    pass
        service = StudyService()
        response = service.handle(
            Request(kind="trace-summary", params={"path": str(path)})
        )
        assert response.ok
        assert response.payload["spans"] == 2
        assert response.payload["root"] == "root"


class TestAdmissionIntegration:
    def test_quota_exhaustion_rejects_busy(self):
        clock = FakeClock()
        service = StudyService(
            admission=AdmissionController(
                max_pending=100, quota_capacity=2, clock=clock
            )
        )
        assert service.handle(Request(kind="ping", client="g")).ok
        assert service.handle(Request(kind="ping", client="g")).ok
        rejected = service.handle(Request(kind="ping", client="g"))
        assert rejected.status == STATUS_REJECTED_BUSY
        assert rejected.error == "quota-exhausted"
        # Another client is untouched.
        assert service.handle(Request(kind="ping", client="other")).ok

    def test_backpressure_when_full(self):
        service = StudyService(admission=AdmissionController(max_pending=2))
        gate = threading.Event()
        entered = threading.Barrier(3)

        def slow(request):
            entered.wait(timeout=5)
            gate.wait(timeout=5)
            return {"slow": True}

        service.register_handler("ping", slow)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(service.handle, Request(kind="ping"))
                for _ in range(2)
            ]
            entered.wait(timeout=5)  # both requests hold a slot
            rejected = service.handle(Request(kind="status"))
            assert rejected.status == STATUS_REJECTED_BUSY
            assert rejected.error == "queue-full"
            gate.set()
            assert all(f.result(timeout=5).ok for f in futures)
        # Slots were released: the service admits again.
        service.register_handler("ping", lambda request: {"pong": True})
        assert service.handle(Request(kind="ping")).ok

    def test_drain_answers_shutting_down(self):
        service = StudyService()
        assert service.handle(Request(kind="ping")).ok
        service.begin_drain()
        response = service.handle(Request(kind="ping"))
        assert response.status == STATUS_SHUTTING_DOWN
        assert response.error == "draining"

    def test_error_releases_slot(self):
        service = StudyService(admission=AdmissionController(max_pending=1))
        service.register_handler("ping", lambda request: 1 / 0)
        assert service.handle(Request(kind="ping")).status == STATUS_ERROR
        assert service.admission.pending == 0


class TestConcurrentTraffic:
    def test_mixed_requests_match_serial_baseline(self, service):
        requests = [
            Request(kind="study", params={"node": "T1"}),
            Request(kind="study", params={"node": "catalog"}),
            Request(kind="mine", params={"application": "apache"}),
            Request(kind="replay", params={"techniques": "restart-fresh"}),
        ] * 4
        baseline = {}
        for request in requests:
            key = request_key(request.kind, request.params)
            if key not in baseline:
                response = service.handle(request)
                assert response.ok
                baseline[key] = response.payload["digest"]
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(service.handle, requests))
        assert all(response.ok for response in responses)
        for request, response in zip(requests, responses):
            key = request_key(request.kind, request.params)
            assert response.payload["digest"] == baseline[key]

    def test_concurrent_cold_start_builds_once(self):
        service = StudyService()
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(
                pool.map(
                    service.handle,
                    [Request(kind="study", params={"node": "catalog"})] * 8,
                )
            )
        assert all(response.ok for response in responses)
        digests = {response.payload["digest"] for response in responses}
        assert len(digests) == 1


class TestStatusAndMonitor:
    def test_status_reports_health_and_counters(self, tmp_path):
        monitor = obs.RunMonitor(tmp_path / "live.json", label="serve")
        monitor.run_started(total=0, workers=1, pending=[])
        service = StudyService(monitor=monitor)
        service.handle(Request(kind="ping"))
        response = service.handle(Request(kind="status"))
        assert response.ok
        payload = response.payload
        assert payload["healthz"]["healthy"] is True
        assert payload["requests"]["ok"] >= 1
        assert payload["admission"]["max_pending"] >= 1
        assert payload["warm"]["faults"] > 0

    def test_monitor_heartbeats_per_request(self, tmp_path):
        monitor = obs.RunMonitor(
            tmp_path / "live.json", label="serve", interval=0.0
        )
        monitor.run_started(total=0, workers=1, pending=[])
        service = StudyService(monitor=monitor)
        service.handle(Request(kind="ping"))
        snapshot = obs.read_snapshot(tmp_path / "live.json")
        assert snapshot["done"] == 1
        assert snapshot["info"]["queue_depth"] == 0
