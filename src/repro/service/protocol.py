"""Wire protocol of the compilation service.

The service speaks JSON over HTTP/1.1 (stdlib only, ``Connection:
close`` per request).  Endpoints:

* ``GET  /healthz``      — liveness + drain state;
* ``GET  /metricsz``     — metrics snapshot (stage timers, cache and
  queue counters) as JSON;
* ``POST /v1/compile``   — run access normalization, return the CLI
  artifacts (``result.stdout`` is byte-identical to ``repro compile``);
* ``POST /v1/analyze``   — static analysis over inline sources
  (byte-identical to ``repro analyze``);
* ``POST /v1/simulate``  — one simulation cell; concurrent identical
  requests are coalesced into a single execution;
* ``POST /v1/sweep``     — a full speedup sweep (byte-identical to
  ``repro simulate``);
* ``POST /v1/solve``     — an analytic crossover question answered from
  the symbolic per-program forms (byte-identical to ``repro solve``).

Success responses are ``{"ok": true, "op": ..., "result": ...,
"exit_code": ...}``; failures are ``{"ok": false, "error": {"code": ...,
"message": ...}}`` with the HTTP status from :data:`ERROR_STATUS`.
Bodies carry no timing, so identical requests get byte-identical
bodies; an op's execution time is sent in the ``X-Repro-Elapsed-Ms``
header (and recorded in the request log).  A full request queue answers
429 with a ``Retry-After`` header; a draining server answers 503.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import ReproError

#: Protocol revision served in ``/healthz`` and checked by nothing yet —
#: bump on incompatible changes so clients can detect drift.
PROTOCOL_VERSION = 2

#: The ops accepted under ``POST /v1/<op>``.
OPS = ("compile", "analyze", "simulate", "sweep", "solve", "tune")

#: Default TCP port (an unassigned high port).
DEFAULT_PORT = 8753

#: error code -> HTTP status.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "compile_error": 422,
    "queue_full": 429,
    "internal": 500,
    "bad_gateway": 502,
    "draining": 503,
    "timeout": 504,
}

#: HTTP reason phrases for the statuses the server emits.
REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServiceError(ReproError):
    """A request the service (or the client) could not complete.

    ``code`` is one of the :data:`ERROR_STATUS` keys; ``retry_after``
    carries the server's backoff hint on 429.  ``str(error)`` is just the
    human message so the CLI's generic ``error: ...`` rendering matches
    the direct path.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "internal",
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status if status is not None else ERROR_STATUS.get(code, 500)
        self.retry_after = retry_after


def error_payload(code: str, message: str) -> Dict[str, object]:
    """The body of a failure response."""
    return {"ok": False, "error": {"code": code, "message": message}}


def request_key(op: str, payload: Mapping[str, object]) -> str:
    """The identity of one ``/v1/<op>`` request, which the batcher's
    in-flight dedup keys on and the router's fingerprint hashes: the op
    plus the canonical JSON of the payload.  ``timeout_s`` is client
    flow control, not part of the question, so it is left out."""
    fields = {k: v for k, v in payload.items() if k != "timeout_s"}
    return f"{op}\n{json.dumps(fields, sort_keys=True, default=str)}"


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to run a daemon.

    ``queue_limit`` bounds admitted-but-unfinished requests (beyond it the
    server answers 429), ``timeout_s`` is the per-request execution
    timeout, ``batch_window_s`` is how long the micro-batcher waits to
    coalesce concurrent requests, and ``jobs`` is the process-pool width
    handed to the runtime's :func:`~repro.runtime.executor.run_tasks`.
    ``cache_dir``/``cache_max_entries`` configure the shared simulation
    cache's disk store (defaulting to ``REPRO_CACHE_DIR`` /
    ``REPRO_CACHE_MAX_ENTRIES``).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    jobs: int = 1
    queue_limit: int = 64
    timeout_s: float = 60.0
    batch_window_s: float = 0.01
    drain_grace_s: float = 30.0
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    log_requests: bool = True
