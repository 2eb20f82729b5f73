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

Listening, connection handling, logging and the drain itself are the
shared :class:`~repro.service.daemon.Daemon` lifecycle; this module adds
admission, batching, the executor and the admission drain gate.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Tuple

from repro.runtime import Metrics, SimulationCache, set_shared_cache, shared_cache
from repro.runtime.metrics import with_process_counters
from repro.service.batching import MicroBatcher
from repro.service.daemon import Daemon, DaemonThread, Response, json_response
from repro.service.jobs import execute_batch
from repro.service.protocol import (
    ERROR_STATUS,
    OPS,
    PROTOCOL_VERSION,
    ServiceConfig,
    error_payload,
)
from repro.service.queueing import AdmissionQueue


class CompilationServer(Daemon):
    """One daemon instance: queue, batcher, caches, metrics."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        config = config if config is not None else ServiceConfig()
        super().__init__(config)
        self.config: ServiceConfig = config
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

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def _listening_fields(self) -> Dict[str, object]:
        return {"jobs": self.config.jobs, "queue_limit": self.config.queue_limit}

    def _request_fields(self) -> Dict[str, object]:
        return {"queue_depth": self.admission.depth}

    def _pending_work(self) -> int:
        return self.admission.depth

    async def _drain_work(self) -> None:
        # An op releases its admission slot just before its response
        # bytes are written; the connection gate covers the rest.
        await self.admission.join()

    def _release(self) -> None:
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def dispatch(self, method: str, op: str, body: bytes) -> Response:
        if op not in OPS:
            return json_response(404, error_payload(
                "not_found", f"unknown op {op!r}: expected one of {list(OPS)}"
            ))
        if method != "POST":
            return json_response(
                405, error_payload("method_not_allowed", "use POST")
            )
        if self._draining:
            return json_response(503, error_payload(
                "draining", "server is draining; retry against another instance"
            ), {"Retry-After": "1"})
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return json_response(400, error_payload(
                "bad_request", f"request body is not valid JSON: {error}"
            ))
        if not isinstance(payload, dict):
            return json_response(400, error_payload(
                "bad_request", "request body must be a JSON object"
            ))
        return await self._handle_op(op, payload)

    async def _handle_op(
        self, op: str, payload: Dict[str, object]
    ) -> Response:
        if not self.admission.try_acquire():
            self.metrics.count("service.rejected")
            retry_after = self.admission.retry_after_s()
            return json_response(429, error_payload(
                "queue_full",
                f"admission queue is full "
                f"(capacity {self.admission.capacity}); retry later",
            ), {"Retry-After": str(retry_after)})
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
            return json_response(504, error_payload(
                "timeout",
                f"request exceeded the {timeout_s:g}s execution timeout",
            ))
        except Exception as error:  # noqa: BLE001 - batch runner failure
            self.metrics.count("service.errors")
            return json_response(500, error_payload("internal", str(error)))
        finally:
            self.admission.release()
        # Timing travels in a header, never in the body: identical
        # requests get byte-identical bodies however long each waited.
        timing = {
            "X-Repro-Elapsed-Ms":
                f"{(time.perf_counter() - started) * 1e3:.3f}",
        }
        if outcome.get("ok"):
            return json_response(200, {
                "ok": True,
                "op": op,
                "result": outcome.get("result", {}),
                "exit_code": outcome.get("exit_code", 0),
            }, timing)
        error_info = outcome.get("error") or {}
        code = str(error_info.get("code", "internal"))  # type: ignore[union-attr]
        self.metrics.count("service.errors")
        return json_response(ERROR_STATUS.get(code, 500), {
            "ok": False,
            "op": op,
            "error": error_info,
            "exit_code": outcome.get("exit_code", 1),
        }, timing)

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
    def health_payload(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "version": PROTOCOL_VERSION,
            "uptime_s": round(self._uptime_s(), 3),
            "queue_depth": self.admission.depth,
        }

    async def metrics_payload(self) -> Dict[str, object]:
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


class ServerThread(DaemonThread[CompilationServer]):
    """A compilation daemon on a background thread (tests and embedding):
    ``with ServerThread(ServiceConfig(port=0)) as handle: ... handle.port``.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        super().__init__(functools.partial(
            CompilationServer,
            config if config is not None else ServiceConfig(port=0),
        ))
