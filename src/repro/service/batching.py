"""Micro-batching with in-flight deduplication.

Requests arriving within one ``window_s`` tick are coalesced into a
single batch and executed together: the batch runner pushes every
``simulate`` cell through one :func:`~repro.runtime.executor.run_grid`
call (whose fingerprint keys collapse identical cells) and fans the rest
out over the runtime's process pool.  This is the paper's amortization
argument applied to the toolchain — many small requests share one
startup, the way many elements share one block transfer.

On top of the window, identical concurrent ``simulate`` *requests* are
deduplicated before batching even begins: the request's
:func:`~repro.service.protocol.request_key` keys a map of in-flight
futures, so N clients asking the same question while the answer is
being computed all await one future and one execution.  (Across
non-overlapping requests the shared
:class:`~repro.runtime.cache.SimulationCache` provides the same
guarantee via ``cache_hits``.)
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Mapping, Optional, Tuple

from repro.runtime.metrics import Metrics
from repro.service.protocol import ServiceError, request_key

#: One batch item: ``(op, payload, future-to-resolve)``.
_Item = Tuple[str, Mapping[str, object], "asyncio.Future[Dict[str, object]]"]

#: The runner executes a batch of ``(op, payload)`` and returns one
#: response dict per item, in order.
BatchRunner = Callable[
    [List[Tuple[str, Mapping[str, object]]]],
    Awaitable[List[Dict[str, object]]],
]


class MicroBatcher:
    """Coalesce concurrent requests into shared batch executions."""

    def __init__(
        self,
        runner: BatchRunner,
        *,
        window_s: float = 0.01,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self._runner = runner
        self._window = max(0.0, window_s)
        self._metrics = metrics if metrics is not None else Metrics()
        self._pending: List[_Item] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: Dict[str, "asyncio.Future[Dict[str, object]]"] = {}
        self._running: int = 0

    @property
    def inflight_keys(self) -> int:
        """Distinct simulate requests currently being computed."""
        return len(self._inflight)

    @property
    def busy(self) -> bool:
        """True while any batch is pending or executing."""
        return bool(self._pending) or self._running > 0

    def submit(
        self, op: str, payload: Mapping[str, object]
    ) -> "asyncio.Future[Dict[str, object]]":
        """Enqueue one request; returns the (possibly shared) result future.

        Must be called from the event loop.  Callers that enforce
        timeouts must wrap the future in :func:`asyncio.shield` — the
        future may be shared with other waiters, and cancelling it
        directly would cancel them too.
        """
        loop = asyncio.get_running_loop()
        key: Optional[str] = None
        if op == "simulate":
            key = request_key(op, payload)
            existing = self._inflight.get(key)
            if existing is not None and not existing.done():
                self._metrics.count("service.dedup_inflight")
                return existing
        future: "asyncio.Future[Dict[str, object]]" = loop.create_future()
        if key is not None:
            self._inflight[key] = future
            future.add_done_callback(
                lambda done, k=key: self._forget(k, done)
            )
        self._pending.append((op, payload, future))
        if self._timer is None:
            self._timer = loop.call_later(self._window, self._flush, loop)
        return future

    def _forget(
        self, key: str, future: "asyncio.Future[Dict[str, object]]"
    ) -> None:
        if self._inflight.get(key) is future:
            del self._inflight[key]

    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        self._timer = None
        batch, self._pending = self._pending, []
        if batch:
            self._running += 1
            loop.create_task(self._run(batch))

    async def _run(self, batch: List[_Item]) -> None:
        try:
            results = await self._runner(
                [(op, payload) for op, payload, _ in batch]
            )
            if len(results) != len(batch):  # pragma: no cover - defensive
                raise ServiceError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(batch)} items"
                )
        except Exception as error:  # noqa: BLE001 - fail every waiter, not the loop
            for _, _, future in batch:
                if not future.done():
                    future.set_exception(
                        ServiceError(
                            f"batch execution failed: "
                            f"{type(error).__name__}: {error}"
                        )
                    )
            return
        finally:
            self._running -= 1
        for (_, _, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
