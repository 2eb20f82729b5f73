"""Tests for the fleet router: hash ring, fingerprints, routing, failover."""

import http.client
import json
import subprocess
import sys
import threading

import pytest

from repro.runtime import SimulationCache, reset_shared_cache, set_shared_cache
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceConfig, ServiceError
from repro.service.router import (
    HashRing,
    RouterConfig,
    RouterThread,
    request_fingerprint,
)
from repro.service.server import ServerThread

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

NODES = ["10.0.0.1:8753", "10.0.0.2:8753", "10.0.0.3:8753"]
KEYS = [f"key-{i}" for i in range(500)]


class TestHashRing:
    def test_deterministic_across_instances_and_orderings(self):
        ring_a = HashRing(NODES)
        ring_b = HashRing(list(reversed(NODES)))
        for key in KEYS:
            assert ring_a.lookup(key) == ring_b.lookup(key)
            assert ring_a.preference(key) == ring_b.preference(key)

    def test_deterministic_across_processes(self):
        """The ring must not depend on per-process hash salting."""
        script = (
            "import sys, json; sys.path.insert(0, 'src');"
            "from repro.service.router import HashRing;"
            f"ring = HashRing({NODES!r});"
            f"print(json.dumps([ring.lookup(k) for k in {KEYS[:50]!r}]))"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout
        ring = HashRing(NODES)
        assert json.loads(output) == [ring.lookup(k) for k in KEYS[:50]]

    def test_preference_starts_with_owner_and_covers_all(self):
        ring = HashRing(NODES)
        for key in KEYS[:50]:
            order = ring.preference(key)
            assert order[0] == ring.lookup(key)
            assert sorted(order) == sorted(NODES)

    def test_removing_a_node_only_remaps_its_own_keys(self):
        """The consistent-hashing contract: keys owned by surviving
        nodes never move when a node leaves."""
        full = HashRing(NODES)
        removed = NODES[1]
        reduced = HashRing([n for n in NODES if n != removed])
        moved = 0
        for key in KEYS:
            owner = full.lookup(key)
            if owner == removed:
                moved += 1
                assert reduced.lookup(key) in reduced.nodes
            else:
                assert reduced.lookup(key) == owner
        # The removed node owned roughly a third of the keyspace; all of
        # it (and only it) remapped.
        assert 0 < moved < len(KEYS)

    def test_adding_a_node_only_steals_keys(self):
        base = HashRing(NODES)
        grown = HashRing(NODES + ["10.0.0.4:8753"])
        for key in KEYS:
            if grown.lookup(key) != "10.0.0.4:8753":
                assert grown.lookup(key) == base.lookup(key)

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(NODES, vnodes=128)
        counts = {node: 0 for node in NODES}
        for key in KEYS:
            counts[ring.lookup(key)] += 1
        for node, count in counts.items():
            assert count > len(KEYS) // 10, (node, counts)

    def test_rejects_empty_and_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(NODES, vnodes=0)


class TestRequestFingerprint:
    def test_key_order_does_not_matter(self):
        a = request_fingerprint(
            "simulate", b'{"source": "x", "processors": 4}'
        )
        b = request_fingerprint(
            "simulate", b'{"processors": 4, "source": "x"}'
        )
        assert a == b and a is not None

    def test_timeout_s_is_not_part_of_the_question(self):
        a = request_fingerprint("simulate", b'{"source": "x"}')
        b = request_fingerprint(
            "simulate", b'{"source": "x", "timeout_s": 5}'
        )
        assert a == b

    def test_op_is_part_of_the_question(self):
        body = b'{"source": "x"}'
        assert request_fingerprint("simulate", body) != request_fingerprint(
            "compile", body
        )

    def test_unfingerprintable_bodies(self):
        assert request_fingerprint("simulate", b"not json") is None
        assert request_fingerprint("simulate", b'["a", "list"]') is None
        assert request_fingerprint("simulate", b"") is not None  # empty = {}


@pytest.fixture
def isolated_cache():
    cache = set_shared_cache(SimulationCache())
    yield cache
    reset_shared_cache()


@pytest.fixture
def fleet(isolated_cache):
    """Three in-process replicas behind an in-process router."""
    replicas = [
        ServerThread(
            ServiceConfig(
                port=0, jobs=1, log_requests=False, batch_window_s=0.005,
                queue_limit=32, timeout_s=30.0,
            )
        ).start()
        for _ in range(3)
    ]
    router = RouterThread(
        RouterConfig(
            port=0,
            replicas=[f"127.0.0.1:{replica.port}" for replica in replicas],
            health_interval_s=0.2,
            log_requests=False,
        )
    ).start()
    try:
        yield router, replicas
    finally:
        router.stop()
        for replica in replicas:
            replica.stop()


def _raw_post(port, path, body_bytes):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.request(
        "POST", path, body_bytes, {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    payload = response.read()
    replica = response.getheader("X-Repro-Replica")
    status = response.status
    connection.close()
    return status, replica, payload


class TestFleetRouting:
    def test_identical_requests_hit_the_same_replica(self, fleet):
        router, _ = fleet
        body = json.dumps({"source": GEMM_SOURCE, "processors": 4}).encode()
        served_by = {
            _raw_post(router.port, "/v1/simulate", body)[1] for _ in range(4)
        }
        assert len(served_by) == 1

    def test_results_match_and_spread_only_by_content(self, fleet):
        router, _ = fleet
        client = ServiceClient("127.0.0.1", router.port, timeout=60.0)
        first = client.simulate({"source": GEMM_SOURCE, "processors": 4})
        second = client.simulate({"source": GEMM_SOURCE, "processors": 4})
        assert first["result"] == second["result"]
        assert first["result"]["simulation"]["processors"] == 4

    def test_concurrent_identical_requests_dedup_across_fleet(self, fleet):
        router, _ = fleet
        body = json.dumps({"source": GEMM_SOURCE, "processors": 6}).encode()
        results = []

        def fire():
            results.append(_raw_post(router.port, "/v1/simulate", body))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 6
        assert len({payload for _, _, payload in results}) == 1
        assert all(status == 200 for status, _, _ in results)
        client = ServiceClient("127.0.0.1", router.port, timeout=60.0)
        snapshot = client.metrics()
        router_counters = snapshot["router"]["metrics"]["counters"]
        fleet_counters = snapshot["metrics"]["counters"]
        # One execution fleet-wide.  Every other request either joined
        # it in flight or, arriving after it finished, was served from
        # the cache; bodies carry no timing, so all six are identical.
        assert fleet_counters["simulate_calls"] == 1
        assert (
            router_counters.get("router.dedup_inflight", 0)
            + fleet_counters.get("cache_hits", 0)
        ) == 5

    def test_router_forwards_the_timing_header(self, fleet):
        router, _ = fleet
        connection = http.client.HTTPConnection(
            "127.0.0.1", router.port, timeout=60
        )
        connection.request(
            "POST", "/v1/simulate",
            json.dumps({"source": GEMM_SOURCE, "processors": 2}).encode(),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 200
        assert float(response.getheader("X-Repro-Elapsed-Ms")) >= 0
        assert "elapsed_ms" not in document

    def test_unfingerprintable_falls_back_to_round_robin(self, fleet):
        router, _ = fleet
        status, replica, payload = _raw_post(
            router.port, "/v1/compile", b"this is not json"
        )
        assert status == 400  # the replica rejected it, via the router
        assert replica is not None
        document = json.loads(payload)
        assert document["error"]["code"] == "bad_request"
        counters = ServiceClient(
            "127.0.0.1", router.port, timeout=30.0
        ).metrics()["router"]["metrics"]["counters"]
        assert counters["router.fallback_roundrobin"] >= 1

    def test_replica_death_fails_over_with_correct_answer(self, fleet):
        router, replicas = fleet
        payload = {"source": GEMM_SOURCE, "processors": 4}
        body = json.dumps(payload).encode()
        client = ServiceClient("127.0.0.1", router.port, timeout=60.0)
        before = client.simulate(payload)
        _, owner, _ = _raw_post(router.port, "/v1/simulate", body)
        victim = next(
            replica
            for replica in replicas
            if f"127.0.0.1:{replica.port}" == owner
        )
        victim.stop()
        status, served_by, _ = _raw_post(router.port, "/v1/simulate", body)
        assert status == 200
        assert served_by != owner
        after = client.simulate(payload)
        assert after["result"] == before["result"]
        health = client.health()
        assert health["status"] == "degraded"
        assert health["role"] == "router"

    def test_metricsz_aggregates_across_replicas(self, fleet):
        router, replicas = fleet
        client = ServiceClient("127.0.0.1", router.port, timeout=60.0)
        # Distinct payloads so different replicas do real work.
        for processors in (2, 3, 4, 5, 6, 7):
            client.simulate(
                {"source": GEMM_SOURCE, "processors": processors}
            )
        snapshot = client.metrics()
        assert snapshot["metrics"]["counters"]["simulate_calls"] == 6
        assert set(snapshot["replicas"]) == {
            f"127.0.0.1:{replica.port}" for replica in replicas
        }
        assert all(
            entry.get("ok") for entry in snapshot["replicas"].values()
        )

    def test_byte_identity_through_router_via_submit(self, fleet, capsys):
        from repro.cli import main

        path = "examples/programs/figure1.an"
        assert main(["compile", path, "--json"]) == 0
        direct = capsys.readouterr().out
        router, _ = fleet
        assert main([
            "submit", "compile", "--host", "127.0.0.1",
            "--port", str(router.port), path, "--json",
        ]) == 0
        served = capsys.readouterr().out
        assert served == direct


class TestClientRetry:
    def test_retries_saturated_admission_queue(self, isolated_cache):
        """The regression the satellite asks for: a 429 from a full
        admission queue is retried with backoff honoring Retry-After and
        eventually succeeds, instead of surfacing to the caller."""
        config = ServiceConfig(
            port=0, jobs=1, log_requests=False, queue_limit=1,
            batch_window_s=0.0, timeout_s=30.0,
        )
        with ServerThread(config) as handle:
            blocker = ServiceClient("127.0.0.1", handle.port, timeout=30.0)
            done = {}

            def slow():
                done["response"] = blocker.compile(
                    {"source": GEMM_SOURCE, "delay_ms": 1200}
                )

            thread = threading.Thread(target=slow)
            thread.start()
            deadline_client = ServiceClient(
                "127.0.0.1", handle.port, timeout=30.0
            )
            assert _wait_until(
                lambda: deadline_client.health()["queue_depth"] == 1
            )
            # Without retries the saturated queue surfaces as 429 ...
            with pytest.raises(ServiceError) as excinfo:
                deadline_client.compile({"source": GEMM_SOURCE})
            assert excinfo.value.status == 429
            # ... with retries the client backs off and gets through.
            retrying = ServiceClient(
                "127.0.0.1", handle.port, timeout=30.0,
                retries=5, backoff_base_s=0.05,
            )
            response = retrying.compile({"source": GEMM_SOURCE})
            assert response["ok"] is True
            thread.join(timeout=30)
            assert done["response"]["ok"] is True

    def test_non_retryable_errors_fail_fast(self, isolated_cache):
        config = ServiceConfig(
            port=0, jobs=1, log_requests=False, batch_window_s=0.0,
        )
        with ServerThread(config) as handle:
            client = ServiceClient(
                "127.0.0.1", handle.port, timeout=30.0, retries=3,
            )
            with pytest.raises(ServiceError) as excinfo:
                client.compile({"source": "garbage"})
            assert excinfo.value.status == 422  # one attempt, no sleeps

    def test_retries_validation(self):
        with pytest.raises(ValueError):
            ServiceClient(retries=-1)

    def test_backoff_honors_retry_after_floor(self):
        client = ServiceClient(retries=2, backoff_base_s=0.01)
        assert client._backoff_s(0, retry_after=0.5) >= 0.5
        assert client._backoff_s(0, retry_after=None) <= 0.01
        # Capped by backoff_max_s even against a huge server hint.
        capped = ServiceClient(retries=1, backoff_max_s=0.2)
        assert capped._backoff_s(0, retry_after=60.0) == 0.2


def _wait_until(predicate, timeout=10.0, interval=0.01):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False
