"""The asyncio HTTP daemon skeleton shared by ``repro serve`` and the router.

Both daemons speak JSON over HTTP/1.1, one request per connection, and
share one lifecycle; a :class:`Daemon` subclass supplies only its
``/v1/<op>`` handling and its introspection payloads.

* *listen* — :meth:`Daemon.start` binds the socket (``port`` 0 → an
  ephemeral port) and logs the listening event with the bound port;
* *serve* — each connection is read, routed, answered and logged.
  ``/healthz`` and ``/metricsz`` answer GET only (405 otherwise), other
  paths outside ``/v1/`` are 404;
* *drain* — on SIGTERM/SIGINT (or :meth:`Daemon.request_stop`) the
  listener closes; within the drain grace, shutdown waits for the
  subclass's own drain gate and then for every open connection, and
  logs ``drain_complete`` with the number of requests ``dropped``.

Events are JSON lines on stderr.  ``log_requests=False`` silences the
per-request lines only; lifecycle events always print (the fleet
launcher reads replica ports from the listening event).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import sys
import threading
import time
from typing import Callable, Dict, Generic, Mapping, Optional, Protocol
from typing import Tuple, TypeVar

from repro.service.protocol import REASONS, error_payload

HeaderMap = Dict[str, str]

#: One HTTP response: ``(status, headers, body)``.
Response = Tuple[int, HeaderMap, bytes]


# ----------------------------------------------------------------------
# HTTP framing
# ----------------------------------------------------------------------
async def read_headers(reader: asyncio.StreamReader) -> HeaderMap:
    """Read header lines up to the blank line; names are lower-cased."""
    headers: HeaderMap = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()


async def read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, HeaderMap, bytes]:
    """Parse one HTTP/1.1 request: ``(method, path, headers, body)``."""
    line = await reader.readline()
    if not line:
        raise ValueError("empty request")
    parts = line.decode("latin-1").strip().split()
    if len(parts) < 2:
        raise ValueError(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers = await read_headers(reader)
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValueError("invalid Content-Length")
    if length < 0 or length > 64 * 1024 * 1024:
        raise ValueError(f"unreasonable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, target.split("?", 1)[0], headers, body


async def write_message(
    writer: asyncio.StreamWriter,
    start_line: str,
    headers: Mapping[str, str],
    body: bytes,
) -> None:
    """Write one ``Connection: close`` HTTP message (request or response)."""
    lines = [start_line, f"Content-Length: {len(body)}", "Connection: close"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


def json_response(
    status: int,
    payload: Mapping[str, object],
    headers: Optional[HeaderMap] = None,
) -> Response:
    """A response whose body is ``payload`` as sorted-key JSON."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return status, {"Content-Type": "application/json", **(headers or {})}, body


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class DaemonConfig(Protocol):
    host: str
    port: int
    drain_grace_s: float
    log_requests: bool


class Daemon:
    """One listening daemon: listen → serve → drain.

    Subclasses implement :meth:`dispatch`, :meth:`health_payload` and
    :meth:`metrics_payload` and may refine the ``_``-prefixed hooks.
    """

    #: The lifecycle event that reports the bound port.
    LISTENING_EVENT = "listening"
    #: The per-request event.
    REQUEST_EVENT = "request"

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._open_connections = 0
        self._connections_idle: Optional[asyncio.Event] = None
        self._draining = False
        self._started_monotonic: Optional[float] = None

    async def dispatch(self, method: str, op: str, body: bytes) -> Response:
        """Answer ``<method> /v1/<op>``."""
        raise NotImplementedError

    def health_payload(self) -> Dict[str, object]:
        raise NotImplementedError

    async def metrics_payload(self) -> Dict[str, object]:
        raise NotImplementedError

    def _listening_fields(self) -> Dict[str, object]:
        return {}

    def _request_fields(self) -> Dict[str, object]:
        return {}

    def _pending_work(self) -> int:
        """Admitted work not yet answered, beyond the open connections."""
        return 0

    async def _drain_work(self) -> None:
        """The drain gate awaited before the connection gate."""

    def _release(self) -> None:
        """Release the daemon's resources once drained."""

    async def start(self) -> None:
        """Bind the listening socket (``config.port`` 0 → ephemeral)."""
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._server = server
        sockets = server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port
        self._started_monotonic = time.monotonic()
        self._log(
            self.LISTENING_EVENT, host=self.config.host, port=self.port,
            **self._listening_fields(),
        )

    def request_stop(self) -> None:
        """Begin the graceful drain (on the event loop's thread)."""
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
        """Graceful drain: stop accepting, finish in-flight, release."""
        if self._draining:
            return
        self._draining = True
        self._log("drain_begin", in_flight=self._in_flight())
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        grace = self.config.drain_grace_s
        try:
            # Both gates matter for zero-drop drains: an op can finish
            # just before its response bytes are written.
            await asyncio.wait_for(self._drain_work(), timeout=grace)
            await asyncio.wait_for(self._connections_drained(), timeout=grace)
            dropped = 0
        except asyncio.TimeoutError:  # pragma: no cover - pathological jobs
            dropped = self._in_flight()
            self._log("drain_grace_exceeded", still_in_flight=dropped)
        self._release()
        self._log("drain_complete", dropped=dropped)

    def _in_flight(self) -> int:
        return self._pending_work() + self._open_connections

    def _uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

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
                    read_request(reader), timeout=10.0
                )
            except (
                ValueError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                ConnectionError,
            ) as error:
                response = json_response(
                    400, error_payload("bad_request", str(error))
                )
            else:
                response = await self._route(method, path, body)
            status, headers, payload = response
            start_line = f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"
            await write_message(writer, start_line, headers, payload)
        except ConnectionError:
            pass  # client went away mid-response
        finally:
            if self.config.log_requests:
                self._log(
                    self.REQUEST_EVENT, method=method, path=path,
                    status=status,
                    elapsed_ms=round((time.perf_counter() - started) * 1e3, 3),
                    **self._request_fields(),
                )
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already answered
                pass
            self._open_connections -= 1
            if self._open_connections == 0:
                self._connection_event().set()

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if path in ("/healthz", "/metricsz"):
            if method != "GET":
                return json_response(
                    405, error_payload("method_not_allowed", "use GET")
                )
            if path == "/healthz":
                return json_response(200, self.health_payload())
            return json_response(200, await self.metrics_payload())
        if not path.startswith("/v1/"):
            return json_response(
                404, error_payload("not_found", f"no route {path!r}")
            )
        return await self.dispatch(method, path[len("/v1/"):], body)

    def _log(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
_D = TypeVar("_D", bound=Daemon)


def run_daemon(
    daemon: _D, on_listening: Optional[Callable[[_D], None]] = None
) -> int:
    """Serve in the foreground until SIGTERM/SIGINT has drained the daemon;
    ``on_listening`` runs once the socket is bound."""

    async def _main() -> None:
        await daemon.start()
        if on_listening is not None:
            on_listening(daemon)
        await daemon.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass
    return 0


class DaemonThread(Generic[_D]):
    """A daemon on a background thread (tests and embedding).

    ``factory`` builds the daemon on the thread's event loop.  Use it as
    a context manager and read the bound port from ``.port``.
    """

    def __init__(self, factory: Callable[[], _D]) -> None:
        self.daemon: Optional[_D] = None
        self._factory = factory
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started: "concurrent.futures.Future[None]" = (
            concurrent.futures.Future()
        )

    @property
    def port(self) -> int:
        assert self.daemon is not None and self.daemon.port is not None
        return self.daemon.port

    def start(self) -> "DaemonThread[_D]":
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),),
            name="repro-daemon-loop", daemon=True,
        )
        self._thread.start()
        try:
            self._started.result(timeout=30.0)
        except Exception as error:
            raise RuntimeError(f"daemon failed to start: {error!r}") from error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the daemon and join its thread."""
        if self._loop is not None and self.daemon is not None:
            try:
                self._loop.call_soon_threadsafe(self.daemon.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            daemon = self.daemon = self._factory()
            await daemon.start()
        except Exception as error:  # noqa: BLE001 - surfaced to start()
            self._started.set_exception(error)
            return
        self._started.set_result(None)
        # Signal handlers only work on the main thread; stop() drains
        # through request_stop() instead.
        await daemon.serve_forever(install_signals=False)

    def __enter__(self) -> "DaemonThread[_D]":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
