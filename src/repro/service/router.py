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
import hashlib
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime import Metrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REASONS,
    error_payload,
)
from repro.service.server import _read_request

_HeaderMap = Dict[str, str]

#: One fully-read backend response: ``(status, headers, body_bytes)``.
_Response = Tuple[int, _HeaderMap, bytes]


# ----------------------------------------------------------------------
# request fingerprints
# ----------------------------------------------------------------------
def request_fingerprint(op: str, body: bytes) -> Optional[str]:
    """A stable content fingerprint for one ``POST /v1/<op>`` request.

    Canonical JSON (sorted keys) of the payload minus ``timeout_s`` —
    exactly the identity the micro-batcher's in-flight dedup uses —
    hashed together with the op.  Returns ``None`` when the body is not
    a JSON object, in which case the request is unfingerprintable and
    the router falls back to round-robin.
    """
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    key_fields = {k: v for k, v in payload.items() if k != "timeout_s"}
    canonical = json.dumps(key_fields, sort_keys=True, default=str)
    digest = hashlib.sha256(f"{op}\n{canonical}".encode("utf-8"))
    return digest.hexdigest()


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
) -> _Response:
    """One ``Connection: close`` HTTP exchange with a backend replica."""
    host, _, port_text = addr.rpartition(":")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, int(port_text)), timeout=timeout
    )
    try:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {addr}",
            "Accept: application/json",
            "Connection: close",
        ]
        if body:
            lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

        async def _read_response() -> _Response:
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {addr}: {status_line!r}"
                )
            status = int(parts[1])
            headers: _HeaderMap = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, sep, value = raw.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
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


class FleetRouter:
    """The asyncio routing daemon in front of N ``repro serve`` replicas."""

    def __init__(self, config: RouterConfig) -> None:
        if not config.replicas:
            raise ValueError("router needs at least one replica address")
        self.config = config
        self.metrics = Metrics()
        self.ring = HashRing(list(config.replicas), vnodes=config.vnodes)
        self._alive: Dict[str, bool] = {
            addr: True for addr in self.ring.nodes
        }
        self._inflight: Dict[str, "asyncio.Future[_Response]"] = {}
        self._rr_counter = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._health_task: Optional[asyncio.Task] = None
        self._open_connections = 0
        self._connections_idle: Optional[asyncio.Event] = None
        self._draining = False
        self._started_monotonic: Optional[float] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port
        self._started_monotonic = time.monotonic()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )
        self._log(
            "router_listening",
            host=self.config.host,
            port=self.port,
            replicas=list(self.ring.nodes),
        )

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self, install_signals: bool = True) -> None:
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        if self._draining:
            return
        self._draining = True
        self._log("drain_begin", in_flight=self._open_connections)
        if self._health_task is not None:
            self._health_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._connections_drained(), timeout=self.config.drain_grace_s
            )
            dropped = 0
        except asyncio.TimeoutError:  # pragma: no cover - pathological
            dropped = self._open_connections
            self._log("drain_grace_exceeded", still_in_flight=dropped)
        self._log("drain_complete", dropped=dropped)

    # ------------------------------------------------------------------
    # replica health
    # ------------------------------------------------------------------
    def alive_replicas(self) -> List[str]:
        return [addr for addr in self.ring.nodes if self._alive[addr]]

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
    # connection handling
    # ------------------------------------------------------------------
    def _connection_event(self) -> asyncio.Event:
        if self._connections_idle is None:
            self._connections_idle = asyncio.Event()
            if self._open_connections == 0:
                self._connections_idle.set()
        return self._connections_idle

    async def _connections_drained(self) -> None:
        if self._open_connections == 0:
            return
        await self._connection_event().wait()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        method = path = "-"
        status = 500
        self._open_connections += 1
        self._connection_event().clear()
        try:
            try:
                method, path, _, body = await asyncio.wait_for(
                    _read_request(reader), timeout=10.0
                )
            except (
                ValueError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                ConnectionError,
            ) as error:
                status = 400
                await self._respond_json(
                    writer, 400, error_payload("bad_request", str(error))
                )
                return
            status, headers, payload = await self._dispatch(method, path, body)
            await self._respond_raw(writer, status, headers, payload)
        except ConnectionError:
            pass  # client went away mid-response
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self._log(
                "route",
                method=method,
                path=path,
                status=status,
                elapsed_ms=round(elapsed_ms, 3),
            )
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already answered
                pass
            self._open_connections -= 1
            if self._open_connections == 0:
                self._connection_event().set()

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> _Response:
        if path == "/healthz":
            return self._json_response(200, self._health_payload())
        if path == "/metricsz":
            return self._json_response(200, await self._metrics_payload())
        if not path.startswith("/v1/"):
            return self._json_response(
                404, error_payload("not_found", f"no route {path!r}")
            )
        if method != "POST":
            return self._json_response(
                405, error_payload("method_not_allowed", "use POST")
            )
        if self._draining:
            return self._json_response(
                503,
                error_payload("draining", "router is draining"),
                {"Retry-After": "1"},
            )
        self.metrics.count("router.requests")
        op = path[len("/v1/"):]
        fingerprint = request_fingerprint(op, body)
        if fingerprint is None:
            self.metrics.count("router.fallback_roundrobin")
            return await self._route(None, method, path, body)
        existing = self._inflight.get(fingerprint)
        if existing is not None and not existing.done():
            # Identical concurrent request: join the in-flight forward.
            self.metrics.count("router.dedup_inflight")
            return await asyncio.shield(existing)
        future: "asyncio.Future[_Response]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[fingerprint] = future
        try:
            response = await self._route(fingerprint, method, path, body)
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

    async def _route(
        self,
        fingerprint: Optional[str],
        method: str,
        path: str,
        body: bytes,
    ) -> _Response:
        """Forward to the preferred replica, failing over along the ring."""
        attempts = 0
        last_503: Optional[_Response] = None
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
                last_503 = (status, dict(headers), payload)
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
            status, headers, payload = last_503
            return status, {
                "Content-Type": headers.get(
                    "content-type", "application/json"
                ),
                "Retry-After": headers.get("retry-after", "1"),
            }, payload
        self.metrics.count("router.unroutable")
        return self._json_response(
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
    def _uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _health_payload(self) -> Dict[str, object]:
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
            "replicas": [
                {"addr": addr, "alive": self._alive[addr]}
                for addr in self.ring.nodes
            ],
        }

    async def _metrics_payload(self) -> Dict[str, object]:
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
                "replicas": [
                    {"addr": addr, "alive": self._alive[addr]}
                    for addr in self.ring.nodes
                ],
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

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _json_response(
        self,
        status: int,
        payload: Mapping[str, object],
        extra_headers: Optional[_HeaderMap] = None,
    ) -> _Response:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        headers = {"Content-Type": "application/json"}
        headers.update(extra_headers or {})
        return status, headers, body

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, object],
    ) -> None:
        code, headers, body = self._json_response(status, payload)
        await self._respond_raw(writer, code, headers, body)

    async def _respond_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: _HeaderMap,
        body: bytes,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    def _log(self, event: str, **fields: object) -> None:
        lifecycle = event in (
            "router_listening",
            "drain_begin",
            "drain_complete",
            "drain_grace_exceeded",
            "replica_up",
            "replica_down",
        )
        if not self.config.log_requests and not lifecycle:
            return
        record: Dict[str, object] = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def run_router(config: RouterConfig) -> int:
    """Blocking entry point (used by ``repro fleet``'s foreground loop)."""
    router = FleetRouter(config)

    async def _main() -> None:
        await router.start()
        await router.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C
        pass
    return 0


class RouterThread:
    """A router running on a background thread (tests and embedding)."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.router: Optional[FleetRouter] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.router is not None and self.router.port is not None
        return self.router.port

    def start(self) -> "RouterThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-router-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("router thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"router failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.router is not None:
            try:
                self._loop.call_soon_threadsafe(self.router.request_stop)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.router = FleetRouter(self.config)
        try:
            await self.router.start()
        except Exception as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self.router.serve_forever(install_signals=False)

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
