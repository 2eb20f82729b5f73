"""Tests for the compilation service: daemon, batching, client, submit CLI."""

import contextlib
import glob
import json
import socket
import threading
import time

import pytest

from repro.cli import _parse_procs, main
from repro.runtime import SimulationCache, reset_shared_cache, set_shared_cache
from repro.service.client import ServiceClient
from repro.service.jobs import (
    build_simulation_cell,
    execute_batch,
    execute_job,
    run_compile,
)
from repro.service.protocol import ServiceConfig, ServiceError
from repro.service.queueing import AdmissionQueue
from repro.service.router import RouterConfig, RouterThread
from repro.service.server import ServerThread

EXAMPLES = sorted(glob.glob("examples/programs/*.an"))

GEMM_SOURCE = """
program gemm
param N = 8
real C(N, N) distribute (*, wrapped)
real A(N, N) distribute (*, wrapped)
real B(N, N) distribute (*, wrapped)

for i = 0, N-1
    for j = 0, N-1
        for k = 0, N-1
            C[i, j] = C[i, j] + A[i, k] * B[k, j]
"""


@pytest.fixture
def isolated_cache():
    """Give each server test a private shared cache; restore after."""
    cache = set_shared_cache(SimulationCache())
    yield cache
    reset_shared_cache()


@pytest.fixture
def server(isolated_cache):
    with running("serve") as (handle, _):
        yield handle


#: The two daemons that share one lifecycle: a compilation daemon
#: answering on its own, and the fleet router in front of one.
DAEMONS = ("serve", "router")


@contextlib.contextmanager
def running(kind, **settings):
    """Yield ``(front, replica)``: the daemon clients talk to, and the
    compilation daemon behind it (the same one for ``"serve"``)."""
    options = dict(
        port=0, jobs=1, log_requests=False, batch_window_s=0.005,
        queue_limit=32, timeout_s=30.0,
    )
    options.update(settings)
    replica = front = ServerThread(ServiceConfig(**options)).start()
    try:
        if kind == "router":
            front = RouterThread(
                RouterConfig(
                    port=0,
                    replicas=[f"127.0.0.1:{replica.port}"],
                    log_requests=False,
                )
            ).start()
        yield front, replica
    finally:
        front.stop()
        replica.stop()


@pytest.fixture(params=DAEMONS)
def front(request, isolated_cache):
    with running(request.param) as (handle, _):
        yield handle


def raw_exchange(port, request_bytes):
    """Send raw request bytes; return ``(status, error code)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request_bytes)
        return read_raw_response(sock)


def read_raw_response(sock):
    response = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)["error"]["code"]


@pytest.fixture
def client(server):
    return ServiceClient("127.0.0.1", server.port, timeout=30.0)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == 2
        assert health["uptime_s"] >= 0.0

    def test_metricsz_shape(self, client):
        client.compile({"source": GEMM_SOURCE, "emit": "report"})
        snapshot = client.metrics()
        assert snapshot["service"]["queue"]["capacity"] == 32
        assert snapshot["service"]["queue"]["depth"] == 0
        assert snapshot["metrics"]["counters"]["service.requests"] >= 1
        # Process-lifetime gauges of the symbolic atom table.
        assert snapshot["metrics"]["counters"]["sympoly.atoms_interned"] >= 0
        assert "sympoly.intern_hits" in snapshot["metrics"]["counters"]
        assert "timers" in snapshot["metrics"]
        assert "memory_entries" in snapshot["cache"]

    def test_compile_roundtrip(self, client):
        response = client.compile({"source": GEMM_SOURCE})
        assert response["ok"] is True
        assert response["exit_code"] == 0
        stdout = response["result"]["stdout"]
        assert "access normalization report" in stdout
        assert "generated Python" in stdout

    def test_analyze_roundtrip(self, client):
        response = client.analyze(
            {"inputs": [{"name": "gemm.an", "text": GEMM_SOURCE}]}
        )
        assert response["ok"] is True
        assert response["exit_code"] == 0
        assert "gemm" in response["result"]["stdout"]

    def test_simulate_roundtrip(self, client):
        response = client.simulate({"source": GEMM_SOURCE, "processors": 4})
        simulation = response["result"]["simulation"]
        assert simulation["processors"] == 4
        assert simulation["total_time_us"] > 0
        assert len(simulation["per_proc"]) == 4

    def test_sweep_roundtrip(self, client):
        response = client.sweep({"source": GEMM_SOURCE, "processors": [1, 4]})
        stdout = response["result"]["stdout"]
        assert stdout.startswith("machine: ")
        assert "normalized+bt" in stdout

    def test_compile_error_maps_to_422(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.compile({"source": "this is not a program"})
        assert excinfo.value.status == 422
        assert excinfo.value.code == "compile_error"

    def test_missing_source_is_compile_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate({"processors": 2})
        assert excinfo.value.status == 422

    def test_unknown_op_is_404(self, front):
        client = ServiceClient("127.0.0.1", front.port, timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client._roundtrip("POST", "/v1/transmogrify", {})
        assert excinfo.value.status == 404

    def test_malformed_request_line_is_400(self, front):
        assert raw_exchange(front.port, b"GARBAGE\r\n\r\n") == (
            400, "bad_request"
        )

    def test_unknown_path_is_404(self, front):
        request = b"GET /nowhere HTTP/1.1\r\n\r\n"
        assert raw_exchange(front.port, request) == (404, "not_found")

    def test_get_on_an_op_is_405(self, front):
        request = b"GET /v1/simulate HTTP/1.1\r\n\r\n"
        assert raw_exchange(front.port, request) == (
            405, "method_not_allowed"
        )

    @pytest.mark.parametrize("path", ["/healthz", "/metricsz"])
    def test_introspection_answers_get_only(self, front, path):
        request = f"POST {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        assert raw_exchange(front.port, request.encode()) == (
            405, "method_not_allowed"
        )

    def test_timing_travels_in_a_header_not_the_body(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        connection.request(
            "POST", "/v1/simulate",
            body=json.dumps({"source": GEMM_SOURCE, "processors": 2}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 200
        assert float(response.getheader("X-Repro-Elapsed-Ms")) >= 0
        assert sorted(document) == ["exit_code", "ok", "op", "result"]

    def test_bad_json_body_is_400(self, front):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", front.port, timeout=10
        )
        connection.request(
            "POST", "/v1/compile", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()


class TestDeduplication:
    def test_concurrent_identical_simulations_run_once(self, server):
        payload = {"source": GEMM_SOURCE, "processors": 8}
        results = []

        def worker():
            local = ServiceClient("127.0.0.1", server.port, timeout=30.0)
            results.append(local.simulate(payload))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        payloads = {
            json.dumps(r["result"]["simulation"], sort_keys=True)
            for r in results
        }
        assert len(payloads) == 1
        counters = ServiceClient("127.0.0.1", server.port).metrics()[
            "metrics"
        ]["counters"]
        # One real execution; the other seven joined an in-flight future,
        # a within-batch grid slot, or the warm cache.
        assert counters["simulate_calls"] == 1
        joined = (
            counters.get("service.dedup_inflight", 0)
            + counters.get("dedup_hits", 0)
            + counters.get("cache_hits", 0)
        )
        assert joined == 7

    def test_repeat_request_hits_cache(self, client):
        payload = {"source": GEMM_SOURCE, "processors": 4}
        client.simulate(payload)
        client.simulate(payload)
        counters = client.metrics()["metrics"]["counters"]
        assert counters["simulate_calls"] == 1
        assert counters.get("cache_hits", 0) >= 1


class TestBackpressure:
    def test_queue_full_answers_429(self, isolated_cache):
        config = ServiceConfig(
            port=0, jobs=1, log_requests=False, queue_limit=1,
            batch_window_s=0.0, timeout_s=30.0,
        )
        with ServerThread(config) as handle:
            client = ServiceClient("127.0.0.1", handle.port, timeout=30.0)
            outcome = {}

            def slow():
                outcome["response"] = client.compile(
                    {"source": GEMM_SOURCE, "delay_ms": 1500}
                )

            thread = threading.Thread(target=slow)
            thread.start()
            assert wait_until(
                lambda: client.health()["queue_depth"] == 1
            ), "slow request never admitted"
            with pytest.raises(ServiceError) as excinfo:
                client.compile({"source": GEMM_SOURCE})
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.retry_after is not None
            thread.join(timeout=30)
            assert outcome["response"]["ok"] is True
            counters = client.metrics()["metrics"]["counters"]
            assert counters["service.rejected"] >= 1

    def test_timeout_answers_504(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.compile(
                {"source": GEMM_SOURCE, "delay_ms": 3000, "timeout_s": 0.2}
            )
        assert excinfo.value.status == 504
        assert excinfo.value.code == "timeout"
        counters = client.metrics()["metrics"]["counters"]
        assert counters["service.timeouts"] >= 1

    def test_nan_timeout_falls_back_to_the_server_limit(self, client):
        # json.loads accepts NaN; a non-finite timeout_s counts as absent.
        response = client.compile(
            {"source": GEMM_SOURCE, "delay_ms": 200, "timeout_s": float("nan")}
        )
        assert response["ok"] is True

    def test_timeout_does_not_cancel_other_waiters(self, server):
        """A timed-out waiter must not tear down the shared computation."""
        payload = {"source": GEMM_SOURCE, "processors": 2, "delay_ms": 600}
        outcome = {}

        def patient():
            local = ServiceClient("127.0.0.1", server.port, timeout=30.0)
            outcome["response"] = local.simulate(payload)

        thread = threading.Thread(target=patient)
        thread.start()
        time.sleep(0.1)
        impatient = ServiceClient("127.0.0.1", server.port, timeout=30.0)
        with pytest.raises(ServiceError):
            impatient.simulate({**payload, "timeout_s": 0.1})
        thread.join(timeout=30)
        assert outcome["response"]["ok"] is True


class TestGracefulDrain:
    @pytest.mark.parametrize("kind", DAEMONS)
    def test_drain_completes_in_flight_requests(
        self, kind, isolated_cache, capsys
    ):
        body = json.dumps({"source": GEMM_SOURCE}).encode()
        with running(kind, batch_window_s=0.0) as (front, replica), \
                socket.create_connection(("127.0.0.1", front.port)) as late:
            # A request whose body has not arrived when the drain begins:
            # it must be answered 503, not dropped.
            late.settimeout(30)
            late.sendall(
                b"POST /v1/compile HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body)
            )
            assert wait_until(lambda: front.daemon._open_connections == 1)
            client = ServiceClient("127.0.0.1", front.port, timeout=30.0)
            outcome = {}

            def slow():
                outcome["response"] = client.compile(
                    {"source": GEMM_SOURCE, "delay_ms": 800}
                )

            thread = threading.Thread(target=slow)
            thread.start()
            backend = ServiceClient("127.0.0.1", replica.port, timeout=30.0)
            assert wait_until(lambda: backend.health()["queue_depth"] == 1)
            # stop() drains and joins the loop thread, which waits for
            # the late connection: run it aside.
            stopper = threading.Thread(target=front.stop, args=(30,))
            stopper.start()
            assert wait_until(lambda: front.daemon._draining)
            late.sendall(body)
            assert read_raw_response(late) == (503, "draining")
            stopper.join(timeout=30)
            thread.join(timeout=30)
            assert not stopper.is_alive() and not thread.is_alive()
            assert outcome["response"]["ok"] is True
            assert "access normalization report" in (
                outcome["response"]["result"]["stdout"]
            )
            with pytest.raises(ServiceError):
                client.health()  # listener is gone after drain
            drains = [
                json.loads(line)
                for line in capsys.readouterr().err.splitlines()
                if '"drain_complete"' in line
            ]
            assert [record["dropped"] for record in drains] == [0]


class TestByteIdenticalWithDirectCLI:
    @pytest.mark.parametrize("path", EXAMPLES)
    def test_compile_json_matches(self, path, server, capsys):
        assert main(["compile", path, "--json"]) == 0
        direct = capsys.readouterr().out
        assert main([
            "submit", "compile", "--host", "127.0.0.1",
            "--port", str(server.port), path, "--json",
        ]) == 0
        served = capsys.readouterr().out
        assert served == direct

    @pytest.mark.parametrize("path", EXAMPLES)
    def test_compile_text_matches(self, path, server, capsys):
        assert main(["compile", path]) == 0
        direct = capsys.readouterr().out
        assert main([
            "submit", "compile", "--host", "127.0.0.1",
            "--port", str(server.port), path,
        ]) == 0
        served = capsys.readouterr().out
        assert served == direct

    def test_analyze_matches(self, server, capsys):
        path = EXAMPLES[0]
        assert main(["analyze", path, "--json"]) == 0
        direct = capsys.readouterr().out
        assert main([
            "submit", "analyze", "--host", "127.0.0.1",
            "--port", str(server.port), path, "--json",
        ]) == 0
        served = capsys.readouterr().out
        assert served == direct

    def test_simulate_matches(self, server, capsys):
        path = EXAMPLES[0]
        assert main(["simulate", path, "-P", "1,4"]) == 0
        direct = capsys.readouterr().out
        assert main([
            "submit", "simulate", "--host", "127.0.0.1",
            "--port", str(server.port), path, "-P", "1,4",
        ]) == 0
        served = capsys.readouterr().out
        assert served == direct


class TestJobLayer:
    def test_execute_job_reports_errors_as_values(self):
        response = execute_job(("compile", {"source": "garbage input"}))
        assert response["ok"] is False
        assert response["error"]["code"] == "compile_error"
        assert response["exit_code"] == 1
        assert "metrics" in response

    def test_execute_job_unknown_op(self):
        response = execute_job(("minify", {"source": GEMM_SOURCE}))
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_execute_batch_mixed_ops(self):
        cache = SimulationCache()
        items = [
            ("compile", {"source": GEMM_SOURCE, "emit": "report"}),
            ("simulate", {"source": GEMM_SOURCE, "processors": 2}),
            ("simulate", {"source": GEMM_SOURCE, "processors": 2}),
            ("simulate", {"source": "broken", "processors": 2}),
        ]
        results, snapshot = execute_batch(items, jobs=1, cache=cache)
        assert results[0]["ok"] and "stdout" in results[0]["result"]
        assert results[1]["ok"] and results[2]["ok"]
        assert results[1]["result"] == results[2]["result"]
        assert results[3]["ok"] is False
        # The two identical cells collapsed inside one run_grid call.
        assert snapshot["counters"]["simulate_calls"] == 1
        assert snapshot["counters"]["dedup_hits"] == 1

    def test_naive_simulate_honours_the_schedule(self, monkeypatch):
        import repro.service.jobs as jobs

        def no_normalize(*args, **kwargs):
            raise AssertionError("a naive cell must not normalize")

        monkeypatch.setattr(jobs, "access_normalize", no_normalize)
        cell = build_simulation_cell(
            {"source": GEMM_SOURCE, "variant": "naive", "schedule": "blocked"}
        )
        assert cell.node.schedule == "blocked"

    def test_naive_simulate_rejects_an_unknown_schedule(self):
        items = [
            ("simulate", {"source": GEMM_SOURCE, "variant": variant,
                          "schedule": "diagonal"})
            for variant in ("naive", "normalized")
        ]
        results, _ = execute_batch(items, jobs=1, cache=SimulationCache())
        assert [r["error"]["code"] for r in results] == ["compile_error"] * 2
        assert results[0]["error"]["message"] == results[1]["error"]["message"]

    def test_run_compile_json_is_deterministic(self):
        payload = {"source": GEMM_SOURCE, "json": True}
        assert run_compile(payload) == run_compile(payload)
        document = json.loads(run_compile(payload))
        assert document["tool"] == "repro-compile"
        assert set(document["artifacts"]) == {"report", "ir", "node", "python"}


class TestAdmissionQueue:
    def test_capacity_enforced(self):
        queue = AdmissionQueue(2)
        assert queue.try_acquire() and queue.try_acquire()
        assert not queue.try_acquire()
        assert queue.rejected_total == 1
        queue.release()
        assert queue.try_acquire()
        assert queue.admitted_total == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestParseProcs:
    def test_deduplicates_and_sorts(self):
        assert _parse_procs("4,4,1") == [1, 4]
        assert _parse_procs("8,2,2,8,1") == [1, 2, 8]

    def test_rejects_junk(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_procs("4,x")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_procs("")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_procs("0,4")
