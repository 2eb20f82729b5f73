"""The fleet router: consistent-hash request routing over serve replicas.

A single ``repro serve`` daemon amortizes toolchain startup across
requests; the router amortizes *warmth* across a fleet.  Every
``/v1/*`` request is keyed by a content fingerprint — the canonical JSON
of its payload, the serving-side analogue of the
:func:`~repro.runtime.cache.cell_key` fingerprints the simulation cache
uses — and consistent-hashed onto one of N replica daemons, so identical
compiles and simulates always land on the replica whose in-memory
caches (simulation LRU, compiled kernels, symbolic forms) are already
warm for that program.  This is the paper's a-priori canonicalization
argument applied to serving: normalize the request first, and identical
work converges on the same place.

Layers on top of routing:

* **cross-replica in-flight dedup** — identical concurrent requests
  (any op: every job function is pure) share one forwarded execution
  via a fingerprint-keyed future map, so a thundering herd asking one
  question costs one backend request;
* **health checking** — a background probe marks replicas dead/alive;
  routing skips dead replicas by walking the ring's preference order;
* **retry-on-next-replica** — a backend that dies mid-request (refused
  connection, reset, truncated response) is marked dead and the request
  is retried on the next replica in ring order; job functions are pure,
  so the retry is always safe;
* **fleet-wide aggregation** — ``GET /metricsz`` fans out to every live
  replica and serves the summed counters/timers next to per-replica
  snapshots and the router's own stats; ``GET /healthz`` reports fleet
  degradation.

Requests whose body is not a JSON object (and therefore cannot be
fingerprinted) fall back to round-robin over the live replicas.  The
router never interprets or rewrites response bodies — byte-identity
with the direct CLI is preserved because the bytes pass through
untouched (an ``X-Repro-Replica`` response header names the replica
that answered, for observability and routing tests).
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime import Metrics
from repro.service.daemon import (
    Daemon,
    DaemonThread,
    Response,
    json_response,
    read_headers,
    write_message,
)
from repro.service.protocol import PROTOCOL_VERSION, error_payload, request_key


# ----------------------------------------------------------------------
# request fingerprints
# ----------------------------------------------------------------------
def request_fingerprint(op: str, body: bytes) -> Optional[str]:
    """A stable content fingerprint for one ``POST /v1/<op>`` request.

    The SHA-256 of :func:`~repro.service.protocol.request_key`, the same
    identity the micro-batcher's in-flight dedup keys on.  Returns
    ``None`` when the body is not a JSON object, in which case the
    request is unfingerprintable and the router falls back to
    round-robin.
    """
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return hashlib.sha256(request_key(op, payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the consistent-hash ring
# ----------------------------------------------------------------------
def _ring_hash(text: str) -> int:
    """A 64-bit point on the ring.

    SHA-256 based, never Python's builtin ``hash`` — the builtin is
    salted per process, and the whole point of the ring is that every
    router process (and every test) maps the same fingerprint to the
    same replica.
    """
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Each node contributes ``vnodes`` points; a key is owned by the first
    point clockwise from its own hash.  Adding or removing one node
    therefore only remaps the keys that node owned (~1/N of the space),
    never reshuffles the rest — the property the routing tests pin.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = 64) -> None:
        if not nodes:
            raise ValueError("hash ring needs at least one node")
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.nodes = sorted(set(nodes))
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((_ring_hash(f"{node}#{index}"), node))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def preference(self, key: str) -> List[str]:
        """Every node, ordered by ring distance from ``key``.

        ``preference(key)[0]`` is the owner; the tail is the failover
        order a router walks when replicas are down.
        """
        start = bisect.bisect_right(self._hashes, _ring_hash(key))
        ordered: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            _, node = self._points[(start + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                ordered.append(node)
                if len(ordered) == len(self.nodes):
                    break
        return ordered

    def lookup(self, key: str) -> str:
        """The node that owns ``key``."""
        return self.preference(key)[0]


# ----------------------------------------------------------------------
# router configuration
# ----------------------------------------------------------------------
@dataclass
class RouterConfig:
    """Everything ``repro fleet``'s router needs.

    ``replicas`` are ``host:port`` backend addresses.  ``vnodes`` sets
    ring granularity, ``health_interval_s`` the probe cadence,
    ``forward_timeout_s`` the per-attempt backend budget (the probe uses
    ``probe_timeout_s``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    replicas: Sequence[str] = field(default_factory=tuple)
    vnodes: int = 64
    health_interval_s: float = 1.0
    forward_timeout_s: float = 120.0
    probe_timeout_s: float = 5.0
    drain_grace_s: float = 30.0
    log_requests: bool = True


# ----------------------------------------------------------------------
# raw HTTP forwarding
# ----------------------------------------------------------------------
async def _http_roundtrip(
    addr: str,
    method: str,
    path: str,
    body: bytes = b"",
    timeout: float = 120.0,
) -> Response:
    """One ``Connection: close`` HTTP exchange with a backend replica."""
    host, _, port_text = addr.rpartition(":")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, int(port_text)), timeout=timeout
    )
    try:
        headers = {"Host": addr, "Accept": "application/json"}
        if body:
            headers["Content-Type"] = "application/json"
        await write_message(writer, f"{method} {path} HTTP/1.1", headers, body)

        async def _read_response() -> Response:
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {addr}: {status_line!r}"
                )
            status = int(parts[1])
            headers = await read_headers(reader)
            length_text = headers.get("content-length")
            if length_text is not None:
                payload = await reader.readexactly(int(length_text))
            else:
                payload = await reader.read()
            return status, headers, payload

        return await asyncio.wait_for(_read_response(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - connection already torn down
            pass


#: Transport failures that make an attempt retryable on the next replica.
_RETRYABLE = (
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    OSError,
)


class FleetRouter(Daemon):
    """The asyncio routing daemon in front of N ``repro serve`` replicas."""

    LISTENING_EVENT = "router_listening"
    REQUEST_EVENT = "route"

    def __init__(self, config: RouterConfig) -> None:
        if not config.replicas:
            raise ValueError("router needs at least one replica address")
        super().__init__(config)
        self.config: RouterConfig = config
        self.metrics = Metrics()
        self.ring = HashRing(list(config.replicas), vnodes=config.vnodes)
        self._alive: Dict[str, bool] = {
            addr: True for addr in self.ring.nodes
        }
        self._inflight: Dict[str, "asyncio.Future[Response]"] = {}
        self._rr_counter = 0
        self._health_task: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    def _listening_fields(self) -> Dict[str, object]:
        return {"replicas": list(self.ring.nodes)}

    def _release(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()

    # ------------------------------------------------------------------
    # replica health
    # ------------------------------------------------------------------
    def alive_replicas(self) -> List[str]:
        return [addr for addr in self.ring.nodes if self._alive[addr]]

    def _replica_states(self) -> List[Dict[str, object]]:
        return [
            {"addr": addr, "alive": self._alive[addr]}
            for addr in self.ring.nodes
        ]

    def _mark(self, addr: str, alive: bool, reason: str) -> None:
        if self._alive[addr] == alive:
            return
        self._alive[addr] = alive
        self.metrics.count(
            "router.replica_up" if alive else "router.replica_down"
        )
        self._log("replica_up" if alive else "replica_down",
                  replica=addr, reason=reason)

    async def _probe(self, addr: str) -> None:
        try:
            status, _, body = await _http_roundtrip(
                addr, "GET", "/healthz", timeout=self.config.probe_timeout_s
            )
            document = json.loads(body.decode("utf-8"))
            healthy = status == 200 and document.get("status") == "ok"
        except Exception:  # noqa: BLE001 - any probe failure means down
            healthy = False
        self._mark(addr, healthy, "probe")

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            self.metrics.count("router.health_sweeps")
            await asyncio.gather(
                *(self._probe(addr) for addr in self.ring.nodes),
                return_exceptions=True,
            )

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def dispatch(self, method: str, op: str, body: bytes) -> Response:
        if method != "POST":
            return json_response(
                405, error_payload("method_not_allowed", "use POST")
            )
        if self._draining:
            return json_response(
                503,
                error_payload("draining", "router is draining"),
                {"Retry-After": "1"},
            )
        self.metrics.count("router.requests")
        path = f"/v1/{op}"
        fingerprint = request_fingerprint(op, body)
        if fingerprint is None:
            self.metrics.count("router.fallback_roundrobin")
            return await self._forward(None, method, path, body)
        existing = self._inflight.get(fingerprint)
        if existing is not None and not existing.done():
            # Identical concurrent request: join the in-flight forward.
            self.metrics.count("router.dedup_inflight")
            return await asyncio.shield(existing)
        future: "asyncio.Future[Response]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[fingerprint] = future
        try:
            response = await self._forward(fingerprint, method, path, body)
            future.set_result(response)
            return response
        except BaseException as error:
            future.set_exception(error)
            # The exception is re-raised below; mark it retrieved so a
            # waiterless future does not warn at GC time.
            future.exception()
            raise
        finally:
            if self._inflight.get(fingerprint) is future:
                del self._inflight[fingerprint]

    def _candidate_order(self, fingerprint: Optional[str]) -> List[str]:
        """Replicas to try, best first: ring preference for fingerprinted
        requests, round-robin rotation otherwise; live replicas always
        come before dead-marked ones (a dead mark may be stale, so dead
        replicas remain a last resort rather than being unroutable)."""
        if fingerprint is not None:
            ordered = self.ring.preference(fingerprint)
        else:
            nodes = self.ring.nodes
            self._rr_counter = (self._rr_counter + 1) % len(nodes)
            ordered = list(
                nodes[self._rr_counter:] + nodes[: self._rr_counter]
            )
        return sorted(ordered, key=lambda addr: not self._alive[addr])

    async def _forward(
        self,
        fingerprint: Optional[str],
        method: str,
        path: str,
        body: bytes,
    ) -> Response:
        """Forward to the preferred replica, failing over along the ring."""
        attempts = 0
        last_503: Optional[Response] = None
        for addr in self._candidate_order(fingerprint):
            attempts += 1
            try:
                status, headers, payload = await _http_roundtrip(
                    addr, method, path, body,
                    timeout=self.config.forward_timeout_s,
                )
            except _RETRYABLE as error:
                self._mark(addr, False, f"{type(error).__name__}: {error}")
                self.metrics.count("router.retries")
                continue
            if status == 503:
                # Draining replica: alive but refusing work — spill to
                # the next replica in preference order.  Remembered so a
                # fully-draining fleet answers 503, not 502.
                last_503 = (status, {
                    "Content-Type": headers.get(
                        "content-type", "application/json"
                    ),
                    "Retry-After": headers.get("retry-after", "1"),
                }, payload)
                self.metrics.count("router.retries")
                continue
            self._mark(addr, True, "request")
            if attempts > 1:
                self.metrics.count("router.failovers")
            out_headers = {
                "Content-Type": headers.get(
                    "content-type", "application/json"
                ),
                "X-Repro-Replica": addr,
            }
            for name in ("Retry-After", "X-Repro-Elapsed-Ms"):
                value = headers.get(name.lower())
                if value:
                    out_headers[name] = value
            return status, out_headers, payload
        if last_503 is not None:
            return last_503
        self.metrics.count("router.unroutable")
        return json_response(
            502,
            error_payload(
                "bad_gateway",
                f"no replica answered after {attempts} attempt(s); "
                f"replicas: {list(self.ring.nodes)}",
            ),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, object]:
        alive = self.alive_replicas()
        if self._draining:
            status = "draining"
        elif len(alive) == len(self.ring.nodes):
            status = "ok"
        elif alive:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "router",
            "version": PROTOCOL_VERSION,
            "uptime_s": round(self._uptime_s(), 3),
            "replicas": self._replica_states(),
        }

    async def metrics_payload(self) -> Dict[str, object]:
        """Fleet-wide aggregation: summed counters/timers over every live
        replica, per-replica snapshots, and the router's own stats."""
        aggregate = Metrics()
        replicas: Dict[str, object] = {}

        async def _collect(addr: str) -> None:
            try:
                status, _, body = await _http_roundtrip(
                    addr, "GET", "/metricsz",
                    timeout=self.config.probe_timeout_s,
                )
                document = json.loads(body.decode("utf-8"))
                if status != 200 or not isinstance(document, dict):
                    raise ValueError(f"metricsz answered {status}")
            except Exception as error:  # noqa: BLE001 - reported per replica
                replicas[addr] = {"ok": False, "error": str(error)}
                return
            replicas[addr] = {"ok": True, "document": document}
            snapshot = document.get("metrics")
            if isinstance(snapshot, dict):
                aggregate.merge(snapshot)

        await asyncio.gather(
            *(_collect(addr) for addr in self.alive_replicas())
        )
        return {
            "router": {
                "version": PROTOCOL_VERSION,
                "uptime_s": round(self._uptime_s(), 3),
                "draining": self._draining,
                "replicas": self._replica_states(),
                "inflight_keys": len(self._inflight),
                "metrics": self.metrics.to_dict(),
            },
            # Same shape a single replica serves, so clients (and the
            # load harness) read fleet counters with one code path.
            "metrics": aggregate.to_dict(),
            "replicas": {
                addr: replicas.get(addr, {"ok": False, "error": "down"})
                for addr in self.ring.nodes
            },
        }


class RouterThread(DaemonThread[FleetRouter]):
    """A router running on a background thread (tests and embedding)."""

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(functools.partial(FleetRouter, config))
