"""Lightweight pipeline instrumentation: stage timers and counters.

The sweep engine and the CLI record where wall-clock time goes (parse /
normalize / codegen / simulate) and how effective the simulation cache is
(hits / misses / deduplicated cells).  A :class:`Metrics` object is cheap
enough to thread through every sweep; ``--profile`` on the CLI and on
``python -m repro.bench.report`` prints the accumulated report.

The sweep engine also records which accounting tier served each freshly
simulated cell as ``sim.tier.symbolic`` / ``sim.tier.closed_form`` /
``sim.tier.compiled`` / ``sim.tier.walk`` counters, and each faster tier
``auto`` passed over as ``sim.skip.<tier>.<reason>`` (reasons
``unsupported``, ``cost_ceiling``, ``block_cache``; see
``docs/performance.md``).  Like every counter they flow through
:meth:`Metrics.to_dict`/:meth:`Metrics.merge` into ``repro simulate
--profile`` output and the service's ``/metricsz``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Union

#: Canonical stage names, in pipeline order (used to order the report).
PIPELINE_STAGES = ("parse", "normalize", "codegen", "simulate")


class Metrics:
    """Accumulated counters and per-stage wall-clock timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, stage: str, seconds: float) -> None:
        """Add ``seconds`` of wall-clock time to ``stage``."""
        self.timers[stage] = self.timers.get(stage, 0.0) + seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one pipeline stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def merge(self, other: Union["Metrics", Mapping[str, object]]) -> None:
        """Fold another metrics object (or a snapshot dict) into this one.

        Accepts either a live :class:`Metrics` or the plain-dict snapshot
        shape produced by :meth:`to_dict`.  The dict form is what worker
        processes ship back to the compilation service's event loop: a
        snapshot is picklable and detached, so merging it on the single
        event-loop thread never races a worker still mutating the source.
        """
        if isinstance(other, Metrics):
            counters: Mapping[str, object] = other.counters
            timers: Mapping[str, object] = other.timers
        else:
            counters = other.get("counters", {})  # type: ignore[assignment]
            timers = other.get("timers", {})  # type: ignore[assignment]
        for name, value in counters.items():
            self.count(name, int(value))  # type: ignore[call-overload]
        for name, value in timers.items():
            self.add_time(name, float(value))  # type: ignore[arg-type]

    def reset(self) -> None:
        """Clear all counters and timers."""
        self.counters.clear()
        self.timers.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """Stable JSON-ready snapshot: ``{"counters": ..., "timers": ...}``.

        Keys are sorted so serialized snapshots are deterministic; this is
        the shape ``/metricsz`` serves and the shape :meth:`merge` accepts
        back from worker processes.
        """
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "timers": {k: self.timers[k] for k in sorted(self.timers)},
        }

    def report(self) -> str:
        """Human-readable profile: stage timings first, then counters.

        Only the top-level :data:`PIPELINE_STAGES` carry a share: every
        other timer is spent inside one of them.
        """
        lines = ["pipeline profile"]
        ordered = [s for s in PIPELINE_STAGES if s in self.timers]
        total = sum(self.timers[stage] for stage in ordered)
        ordered += sorted(set(self.timers) - set(PIPELINE_STAGES))
        if ordered:
            width = max(len(s) for s in ordered)
            for stage in ordered:
                seconds = self.timers[stage]
                share = ""
                if stage in PIPELINE_STAGES:
                    share = f"  {100.0 * seconds / total if total else 0.0:5.1f}%"
                lines.append(f"  {stage.ljust(width)}  {seconds * 1e3:10.1f} ms{share}")
        if self.counters:
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name.ljust(width)}  {self.counters[name]:10d}")
        if len(lines) == 1:
            lines.append("  (no events recorded)")
        return "\n".join(lines)


_GLOBAL: Optional[Metrics] = None


def global_metrics() -> Metrics:
    """The process-wide default metrics sink."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = Metrics()
    return _GLOBAL


def with_process_counters(metrics: Metrics) -> Metrics:
    """A copy of ``metrics`` plus this process's lifetime counters.

    ``sympoly.atoms_interned`` (size of the never-evicted symbolic atom
    table) and ``sympoly.intern_hits`` (built atoms it deduplicated) are
    process state, not per-run deltas, so they are added where a profile
    or ``/metricsz`` snapshot is rendered rather than recorded into a
    sink that may be merged twice.  So are the shared simulation cache's
    artifact counters: ``sim.cache.form_derives``/``form_hits`` (tier-0
    engines derived / reused), ``sim.cache.kernel_compiles``/
    ``kernel_hits`` (accounting kernels compiled / reused), the timer
    ``sim.cache.form_build_s`` (wall time deriving forms), and for the
    ``closed`` and ``cert`` kinds ``sim.cache.<kind>.builds`` / ``.hits``
    and the timer ``sim.cache.<kind>.build_s``.
    """
    from repro.linalg.sympoly import intern_counters
    from repro.runtime.cache import shared_cache

    cache = shared_cache()
    counters = intern_counters()
    timers = {"sim.cache.form_build_s": cache.form_build_s}
    for name in ("form_derives", "form_hits", "kernel_compiles", "kernel_hits"):
        counters[f"sim.cache.{name}"] = getattr(cache, name)
    for kind in ("closed", "cert"):
        counters[f"sim.cache.{kind}.builds"] = cache.builds[kind]
        counters[f"sim.cache.{kind}.hits"] = cache.hits[kind]
        timers[f"sim.cache.{kind}.build_s"] = cache.build_s[kind]
    merged = Metrics()
    merged.merge(metrics)
    merged.merge({"counters": counters, "timers": timers})
    return merged


def reset_global_metrics() -> None:
    """Reset the process-wide default metrics sink."""
    global_metrics().reset()
