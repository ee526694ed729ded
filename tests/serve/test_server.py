"""The unix-socket daemon: wire round trips, concurrent clients,
backpressure under load, graceful drain, and stale-socket recovery.

Socket paths live under a short ``/tmp`` directory, not ``tmp_path``:
the OS caps ``AF_UNIX`` paths near 100 bytes and pytest's tmp paths can
exceed that.
"""

import shutil
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import obs
from repro.serve import (
    AdmissionController,
    ServeClient,
    ServeConnectionError,
    StudyServer,
    StudyService,
    pid_path_for,
    status_path_for,
    wait_for_server,
)
from repro.obs.hist import exposition_value, parse_exposition
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    STATUS_ERROR,
    STATUS_REJECTED_BUSY,
    STATUS_SHUTTING_DOWN,
)


@pytest.fixture
def sock_dir():
    path = Path(tempfile.mkdtemp(dir="/tmp", prefix="repro-serve-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def server(sock_dir):
    service = StudyService(admission=AdmissionController(max_pending=8))
    server = StudyServer(service, sock_dir / "s.sock")
    server.start()
    yield server
    server.shutdown()


class TestLifecycle:
    def test_start_serves_ping(self, server):
        assert wait_for_server(server.socket_path, timeout=5)
        with ServeClient(server.socket_path) as client:
            response = client.request("ping")
        assert response.ok and response.payload["pong"] is True

    def test_pidfile_and_status_file_exist(self, server):
        assert pid_path_for(server.socket_path).exists()
        snapshot = obs.read_snapshot(status_path_for(server.socket_path))
        assert obs.healthz_view(snapshot)["healthy"] is True

    def test_shutdown_removes_socket_and_pidfile(self, sock_dir):
        server = StudyServer(StudyService(), sock_dir / "s.sock")
        server.start()
        server.shutdown()
        assert not server.socket_path.exists()
        assert not pid_path_for(server.socket_path).exists()
        # Terminal snapshot survives for post-mortem status.
        snapshot = obs.read_snapshot(status_path_for(server.socket_path))
        assert snapshot["state"] == "finished"

    def test_shutdown_is_idempotent(self, sock_dir):
        server = StudyServer(StudyService(), sock_dir / "s.sock")
        server.start()
        server.shutdown()
        server.shutdown()

    def test_stale_socket_is_replaced(self, sock_dir):
        path = sock_dir / "s.sock"
        path.write_text("", encoding="utf-8")  # nobody listening
        server = StudyServer(StudyService(), path)
        server.start()
        try:
            assert wait_for_server(path, timeout=5)
        finally:
            server.shutdown()

    def test_second_daemon_refuses_to_bind(self, server):
        with pytest.raises(FileExistsError):
            StudyServer(StudyService(), server.socket_path).start()

    def test_wait_for_server_times_out(self, sock_dir):
        assert not wait_for_server(sock_dir / "absent.sock", timeout=0.3)


class TestWireRequests:
    def test_malformed_line_answers_error(self, server):
        import socket as socket_mod

        raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        raw.settimeout(5)
        raw.connect(str(server.socket_path))
        raw.sendall(b"this is not json\n")
        line = raw.makefile("rb").readline()
        raw.close()
        from repro.serve.protocol import decode_response

        response = decode_response(line)
        assert response.status == "error"
        assert "JSON" in response.error

    def test_connection_reuse(self, server):
        with ServeClient(server.socket_path) as client:
            ids = [client.request("ping").id for _ in range(5)]
        assert len(set(ids)) == 5  # one connection, distinct correlation ids

    def test_concurrent_clients_get_consistent_digests(self, server):
        def one_client(index):
            with ServeClient(
                server.socket_path, client=f"c{index}"
            ) as client:
                response = client.request("study", {"node": "catalog"})
                assert response.ok
                return response.payload["digest"]

        with ThreadPoolExecutor(max_workers=6) as pool:
            digests = set(pool.map(one_client, range(6)))
        assert len(digests) == 1

    def test_oversize_reply_answers_error_and_counts_it(self, server):
        server.service.register_handler(
            "study", lambda request: {"blob": "x" * MAX_LINE_BYTES}
        )
        with ServeClient(server.socket_path) as client:
            response = client.request("study", {"node": "huge"}, id="big-1")
            assert response.status == STATUS_ERROR
            assert response.id == "big-1"
            assert "too large" in response.error
            assert client.request("ping").ok  # same connection still serves
            text = client.request("metrics").payload["text"]
        samples = parse_exposition(text)
        counts = {
            status: exposition_value(
                samples, "repro_requests_total", {"kind": "study", "status": status}
            )
            for status in ("ok", "error")
        }
        assert counts == {"ok": None, "error": 1}

    def test_unencodable_reply_answers_error_and_counts_it(self, server):
        server.service.register_handler("status", lambda request: {"bad": {1, 2}})
        with ServeClient(server.socket_path) as client:
            response = client.request("status", id="set-1")
            assert response.status == STATUS_ERROR
            assert response.id == "set-1"
            assert "TypeError" in response.error
            assert client.request("ping").ok  # same connection still serves
            text = client.request("metrics").payload["text"]
        samples = parse_exposition(text)
        counts = {
            status: exposition_value(
                samples, "repro_requests_total", {"kind": "status", "status": status}
            )
            for status in ("ok", "error")
        }
        assert counts == {"ok": None, "error": 1}
        assert server.service._counters["errors"] == 1

    def test_quota_rejection_over_the_wire(self, sock_dir):
        service = StudyService(
            admission=AdmissionController(
                max_pending=8, quota_capacity=2, quota_refill_per_second=0.0
            )
        )
        server = StudyServer(service, sock_dir / "s.sock")
        server.start()
        try:
            with ServeClient(server.socket_path, client="greedy") as client:
                assert client.request("ping").ok
                assert client.request("ping").ok
                rejected = client.request("ping")
                assert rejected.status == STATUS_REJECTED_BUSY
                assert rejected.error == "quota-exhausted"
            with ServeClient(server.socket_path, client="polite") as client:
                assert client.request("ping").ok
        finally:
            server.shutdown()


class TestBackpressureOnTheWire:
    def test_full_queue_rejects_busy(self, sock_dir):
        service = StudyService(admission=AdmissionController(max_pending=2))
        gate = threading.Event()
        entered = threading.Barrier(3, timeout=10)

        def slow(request):
            entered.wait()
            gate.wait(timeout=10)
            return {"slow": True}

        service.register_handler("ping", slow)
        server = StudyServer(service, sock_dir / "s.sock")
        server.start()
        try:
            def blocked_ping():
                with ServeClient(server.socket_path, timeout=15) as client:
                    return client.request("ping")

            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(blocked_ping) for _ in range(2)]
                entered.wait()  # both slots held server-side
                with ServeClient(server.socket_path) as client:
                    rejected = client.request("status")
                assert rejected.status == STATUS_REJECTED_BUSY
                assert rejected.error == "queue-full"
                gate.set()
                assert all(f.result(timeout=10).ok for f in futures)
        finally:
            gate.set()
            server.shutdown()


class TestGracefulDrain:
    def test_inflight_completes_and_new_work_is_refused(self, sock_dir):
        service = StudyService()
        entered = threading.Event()
        gate = threading.Event()

        def slow(request):
            entered.set()
            gate.wait(timeout=10)
            return {"slow": True}

        service.register_handler("ping", slow)
        server = StudyServer(service, sock_dir / "s.sock", drain_timeout=10)
        server.start()
        try:
            with ServeClient(server.socket_path, timeout=15) as client, \
                    ServeClient(server.socket_path, timeout=5) as probe:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    inflight = pool.submit(client.request, "ping")
                    assert entered.wait(timeout=5)

                    shutdown = threading.Thread(target=server.shutdown)
                    shutdown.start()
                    deadline = 5.0
                    while not service.admission.draining and deadline > 0:
                        import time

                        time.sleep(0.01)
                        deadline -= 0.01
                    # Drain flag is up before the slow request finishes:
                    # new work (on a pre-drain connection; the listener
                    # itself is already closed) is refused.
                    assert probe.request("status").status == STATUS_SHUTTING_DOWN

                    gate.set()
                    response = inflight.result(timeout=10)
                    assert response.ok  # the in-flight answer was flushed
                    shutdown.join(timeout=10)
            assert not server.socket_path.exists()
        finally:
            gate.set()
            server.shutdown()

    def test_connect_after_shutdown_fails(self, sock_dir):
        server = StudyServer(StudyService(), sock_dir / "s.sock")
        server.start()
        server.shutdown()
        with pytest.raises(ServeConnectionError):
            ServeClient(server.socket_path)
