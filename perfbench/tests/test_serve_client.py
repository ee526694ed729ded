"""Client-side accounting of a serve burst, against a scripted daemon."""

from repro.envmodel.loadgen import run_closed_loop
from repro.serve import Response, ServeConnectionError

from perfbench.stats import ok_drift
from perfbench.w_serve import CLASSES, Burst, request_classes


class ScriptedClient:
    """Answers each request with the next scripted outcome."""

    def __init__(self, script):
        self.script = script
        self.closed = False

    def request(self, kind, params):
        outcome = self.script.pop(0)
        if outcome == "dropped":
            raise ServeConnectionError("serve daemon closed the connection")
        if outcome == "ok":
            return Response(id="x", status="ok", payload={"digest": "d" + params.get("node", "")})
        return Response(id="x", status=outcome, error="refused")

    def close(self):
        self.closed = True


class ScriptedBurst(Burst):
    def __init__(self, plan, script):
        super().__init__("unused.sock", plan)
        self.script = script
        self.connections = 0

    def _client(self):
        client = getattr(self._local, "client", None)
        if client is None:
            self.connections += 1
            client = self._local.client = ScriptedClient(self.script)
        return client


def test_refused_and_dropped_requests_count_as_failed():
    plan = [("study", {"node": str(i)}) for i in range(6)]
    burst = ScriptedBurst(plan, ["ok", "rejected-busy", "dropped", "ok", "error", "ok"])
    load = run_closed_loop(burst.send, requests=len(plan), concurrency=1)
    assert load.requests_issued == 6
    assert load.failures == 3
    assert burst.ok == 3
    assert burst.digests == {0: "d0", 3: "d3", 5: "d5"}
    # The dropped connection is replaced before the next request.
    assert burst.reconnects == 1
    assert burst.connections == 2
    # The daemon counted the dropped request ok; the client never saw it.
    assert ok_drift(server_ok=4, client_ok=burst.ok) == 1


def test_time_is_split_by_request_class():
    plan = [
        ("study", {"node": "a"}),
        ("study", {"node": "a"}),
        ("study", {"node": "a", "overrides": {"a": {"width": 1}}}),
        ("metrics", {}),
        ("study", {"node": "b"}),
    ]
    assert request_classes(plan) == ["first_load", "memo_hit", "whatif", "scrape", "first_load"]
    burst = ScriptedBurst(plan, ["ok", "ok", "dropped", "ok", "ok"])
    run_closed_loop(burst.send, requests=len(plan), concurrency=1)
    assert set(burst.seconds) == set(CLASSES)
    # A dropped request's time still counts, against its own class.
    assert all(burst.seconds[c] > 0 for c in CLASSES)
