"""The asyncio JSON-over-HTTP compilation daemon.

Single event-loop thread; CPU-bound work runs on a small thread
executor, which in turn fans batches out over the runtime's
``multiprocessing`` pool (:func:`~repro.runtime.executor.run_tasks`)
when ``jobs > 1``.  Request lifecycle:

1. *admission* — a bounded gate; a full server answers 429 with
   ``Retry-After`` instead of queueing unboundedly;
2. *batching* — admitted requests join the micro-batcher's current
   window; identical in-flight ``simulate`` requests share one future;
3. *execution* — the batch runs on the executor; ``simulate`` cells go
   through one :func:`~repro.runtime.executor.run_grid` call (fingerprint
   dedup + shared cache), the rest through :func:`execute_job` workers;
4. *timeout* — each waiter is bounded by ``timeout_s``
   (``asyncio.shield`` keeps a shared computation alive for the other
   waiters; the timed-out client gets 504);
5. *drain* — on SIGTERM/SIGINT the listener closes, new work is refused
   with 503, and shutdown waits for every admitted request to be
   answered before the process exits.

Each handled request emits one structured JSON log line on stderr.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Tuple

from repro.runtime import Metrics, SimulationCache, set_shared_cache, shared_cache
from repro.runtime.metrics import with_process_counters
from repro.service.batching import MicroBatcher
from repro.service.jobs import execute_batch
from repro.service.protocol import (
    ERROR_STATUS,
    OPS,
    PROTOCOL_VERSION,
    REASONS,
    ServiceConfig,
    error_payload,
)
from repro.service.queueing import AdmissionQueue

_HeaderMap = Dict[str, str]


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, _HeaderMap, bytes]:
    """Parse one HTTP/1.1 request: ``(method, path, headers, body)``."""
    line = await reader.readline()
    if not line:
        raise ValueError("empty request")
    parts = line.decode("latin-1").strip().split()
    if len(parts) < 2:
        raise ValueError(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: _HeaderMap = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValueError("invalid Content-Length")
    if length < 0 or length > 64 * 1024 * 1024:
        raise ValueError(f"unreasonable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, target.split("?", 1)[0], headers, body


class CompilationServer:
    """One daemon instance: sockets, queue, batcher, caches, metrics."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = Metrics()
        if self.config.cache_dir:
            self.cache: SimulationCache = set_shared_cache(
                SimulationCache(
                    store_dir=self.config.cache_dir,
                    disk_max_entries=self.config.cache_max_entries,
                )
            )
        else:
            self.cache = shared_cache()
        self.admission = AdmissionQueue(self.config.queue_limit)
        self.batcher = MicroBatcher(
            self._run_batch,
            window_s=self.config.batch_window_s,
            metrics=self.metrics,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-service"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._open_connections = 0
        self._connections_idle: Optional[asyncio.Event] = None
        self._draining = False
        self._started_monotonic: Optional[float] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (``config.port`` 0 → ephemeral)."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port
        self._started_monotonic = time.monotonic()
        self._log(
            "listening",
            host=self.config.host,
            port=self.port,
            jobs=self.config.jobs,
            queue_limit=self.config.queue_limit,
        )

    def request_stop(self) -> None:
        """Ask the serve loop to begin graceful drain (signal-safe-ish:
        must run on the event loop; use ``call_soon_threadsafe`` from
        other threads)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_stop`), then drain."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or unsupported platform
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, release pools."""
        if self._draining:
            return
        self._draining = True
        self._log("drain_begin", in_flight=self.admission.depth)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            # First every admitted op, then every open connection (an op
            # releases its admission slot just before its response bytes
            # are written, so both gates matter for zero-drop drains).
            await asyncio.wait_for(
                self.admission.join(), timeout=self.config.drain_grace_s
            )
            await asyncio.wait_for(
                self._connections_drained(), timeout=self.config.drain_grace_s
            )
            dropped = 0
        except asyncio.TimeoutError:  # pragma: no cover - pathological jobs
            dropped = self.admission.depth + self._open_connections
            self._log("drain_grace_exceeded", still_in_flight=dropped)
        self._executor.shutdown(wait=True)
        self._log("drain_complete", dropped=dropped)

    # ------------------------------------------------------------------
    # request handling
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
                await self._respond(
                    writer, 400, error_payload("bad_request", str(error))
                )
                return
            status, payload, extra_headers = await self._dispatch(
                method, path, body
            )
            await self._respond(writer, status, payload, extra_headers)
        except ConnectionError:
            pass  # client went away mid-response
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self._log(
                "request",
                method=method,
                path=path,
                status=status,
                elapsed_ms=round(elapsed_ms, 3),
                queue_depth=self.admission.depth,
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
    ) -> Tuple[int, Dict[str, object], _HeaderMap]:
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("method_not_allowed", "use GET"), {}
            return 200, self._health_payload(), {}
        if path == "/metricsz":
            if method != "GET":
                return 405, error_payload("method_not_allowed", "use GET"), {}
            return 200, self._metrics_payload(), {}
        if not path.startswith("/v1/"):
            return 404, error_payload("not_found", f"no route {path!r}"), {}
        op = path[len("/v1/"):]
        if op not in OPS:
            return 404, error_payload(
                "not_found", f"unknown op {op!r}: expected one of {list(OPS)}"
            ), {}
        if method != "POST":
            return 405, error_payload("method_not_allowed", "use POST"), {}
        if self._draining:
            return 503, error_payload(
                "draining", "server is draining; retry against another instance"
            ), {"Retry-After": "1"}
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, error_payload(
                "bad_request", f"request body is not valid JSON: {error}"
            ), {}
        if not isinstance(payload, dict):
            return 400, error_payload(
                "bad_request", "request body must be a JSON object"
            ), {}
        return await self._handle_op(op, payload)

    async def _handle_op(
        self, op: str, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object], _HeaderMap]:
        if not self.admission.try_acquire():
            self.metrics.count("service.rejected")
            retry_after = self.admission.retry_after_s()
            return 429, error_payload(
                "queue_full",
                f"admission queue is full "
                f"(capacity {self.admission.capacity}); retry later",
            ), {"Retry-After": str(retry_after)}
        self.metrics.count("service.requests")
        self.metrics.count(f"service.requests.{op}")
        started = time.perf_counter()
        timeout_s = self._request_timeout(payload)
        try:
            future = self.batcher.submit(op, payload)
            outcome = await asyncio.wait_for(
                asyncio.shield(future), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            self.metrics.count("service.timeouts")
            return 504, error_payload(
                "timeout",
                f"request exceeded the {timeout_s:g}s execution timeout",
            ), {}
        except Exception as error:  # noqa: BLE001 - batch runner failure
            self.metrics.count("service.errors")
            return 500, error_payload("internal", str(error)), {}
        finally:
            self.admission.release()
        # Timing travels in a header, never in the body: identical
        # requests get byte-identical bodies however long each waited.
        timing = {
            "X-Repro-Elapsed-Ms":
                f"{(time.perf_counter() - started) * 1e3:.3f}",
        }
        if outcome.get("ok"):
            return 200, {
                "ok": True,
                "op": op,
                "result": outcome.get("result", {}),
                "exit_code": outcome.get("exit_code", 0),
            }, timing
        error_info = outcome.get("error") or {}
        code = str(error_info.get("code", "internal"))  # type: ignore[union-attr]
        self.metrics.count("service.errors")
        return ERROR_STATUS.get(code, 500), {
            "ok": False,
            "op": op,
            "error": error_info,
            "exit_code": outcome.get("exit_code", 1),
        }, timing

    def _request_timeout(self, payload: Mapping[str, object]) -> float:
        """Per-request timeout: ``timeout_s`` in the payload, capped by
        the server-wide limit."""
        requested = payload.get("timeout_s")
        if requested is None:
            return self.config.timeout_s
        try:
            value = float(requested)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return self.config.timeout_s
        if value <= 0:
            return self.config.timeout_s
        return min(value, self.config.timeout_s)

    async def _run_batch(
        self, items: List[Tuple[str, Mapping[str, object]]]
    ) -> List[Dict[str, object]]:
        """Execute one micro-batch on the thread executor."""
        self.metrics.count("service.batches")
        self.metrics.count("service.batched_requests", len(items))
        loop = asyncio.get_running_loop()
        runner = functools.partial(
            execute_batch, items, jobs=self.config.jobs, cache=self.cache
        )
        results, snapshot = await loop.run_in_executor(self._executor, runner)
        self.metrics.merge(snapshot)
        return results

    # ------------------------------------------------------------------
    # introspection endpoints
    # ------------------------------------------------------------------
    def _uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _health_payload(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "version": PROTOCOL_VERSION,
            "uptime_s": round(self._uptime_s(), 3),
            "queue_depth": self.admission.depth,
        }

    def _metrics_payload(self) -> Dict[str, object]:
        return {
            "service": {
                "version": PROTOCOL_VERSION,
                "uptime_s": round(self._uptime_s(), 3),
                "draining": self._draining,
                "jobs": self.config.jobs,
                "batch_window_s": self.config.batch_window_s,
                "inflight_keys": self.batcher.inflight_keys,
                "queue": {
                    "depth": self.admission.depth,
                    "capacity": self.admission.capacity,
                    "admitted_total": self.admission.admitted_total,
                    "rejected_total": self.admission.rejected_total,
                },
            },
            "metrics": with_process_counters(self.metrics).to_dict(),
            "cache": {
                "memory_entries": len(self.cache),
                "memory_max_entries": self.cache.max_entries,
                "disk_entries": self.cache.disk_entries(),
                "disk_max_entries": self.cache.disk_max_entries,
                "store_dir": self.cache.store_dir,
            },
        }

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, object],
        extra_headers: Optional[_HeaderMap] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    #: Events printed even under ``--quiet`` (the documented contract:
    #: quiet disables *request* logs, lifecycle events always print —
    #: the fleet launcher reads replica ports from ``listening``).
    _LIFECYCLE_EVENTS = frozenset(
        {"listening", "drain_begin", "drain_complete", "drain_grace_exceeded"}
    )

    def _log(self, event: str, **fields: object) -> None:
        if not self.config.log_requests and event not in self._LIFECYCLE_EVENTS:
            return
        record: Dict[str, object] = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def run_server(config: Optional[ServiceConfig] = None) -> int:
    """Blocking entry point for ``repro serve``."""
    server = CompilationServer(config)

    async def _main() -> None:
        await server.start()
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass
    return 0


class ServerThread:
    """A daemon running on a background thread (tests and embedding).

    Usage::

        with ServerThread(ServiceConfig(port=0)) as handle:
            client = ServiceClient(port=handle.port)
            ...

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig(port=0)
        self.server: Optional[CompilationServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = CompilationServer(self.config)
        try:
            await self.server.start()
        except Exception as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        # Signal handlers only work on the main thread; the embedder stops
        # us via request_stop() instead.
        await self.server.serve_forever(install_signals=False)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
