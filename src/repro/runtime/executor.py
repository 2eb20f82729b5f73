"""The parallel sweep engine.

A sweep is a grid of simulation cells (:class:`SweepCell`).  The executor

* deduplicates identical cells within one grid (the P=1 baseline of a
  speedup sweep appears once per curve but is simulated once),
* consults a :class:`~repro.runtime.cache.SimulationCache` so cells seen in
  earlier sweeps are not re-simulated,
* fans the remaining cells out over a ``multiprocessing`` pool when
  ``jobs > 1`` — with a deterministic serial fallback when the pool is
  unavailable — and
* merges results back **in grid order**, so parallel output is
  byte-identical to a serial run.

Workers execute :func:`repro.numa.simulator.simulate_task`, a top-level
function over picklable dataclasses, which is what makes the fan-out
possible at all.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.codegen.spmd import NodeProgram
from repro.errors import ReproError, SimulationError
from repro.numa.machine import MachineConfig, butterfly_gp1000
from repro.numa.simulator import SimulationResult, simulate_task
from repro.runtime.cache import SimulationCache, cell_key, shared_cache
from repro.runtime.metrics import Metrics


@dataclass(frozen=True)
class SweepCell:
    """One point of a sweep grid: simulate ``node`` at ``processors``."""

    name: str
    node: NodeProgram
    processors: int
    params: Optional[Mapping[str, int]] = None
    machine: Optional[MachineConfig] = None
    mode: str = "account"
    block_cache: bool = False
    #: Accounting engine (one of :data:`repro.numa.simulator.ENGINES`);
    #: every engine is bit-identical, so this only affects speed — and is
    #: what the perf benchmarks force to compare tiers.
    engine: str = "auto"


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if not jobs:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"jobs must be positive, got {jobs}")
    return jobs


def run_grid(
    cells: Sequence[SweepCell],
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
    on_error: str = "raise",
) -> List[SimulationResult]:
    """Simulate every cell and return results in grid order.

    ``cache=None`` uses the process-wide shared cache; pass an explicit
    :class:`SimulationCache` to isolate a sweep (tests do).  With
    ``on_error="keep"``, a cell whose simulation raises a
    :class:`~repro.errors.ReproError` yields the exception object in its
    slot instead of aborting the whole grid (the autodist search skips such
    candidates); the default re-raises.
    """
    if on_error not in ("raise", "keep"):
        raise ReproError(f"unknown on_error policy {on_error!r}")
    jobs = resolve_jobs(jobs)
    cache = cache if cache is not None else shared_cache()
    metrics = metrics if metrics is not None else Metrics()

    keys: List[str] = []
    results: List[Optional[object]] = [None] * len(cells)
    pending: Dict[str, List[int]] = {}
    tasks = []
    metrics.count("grid_cells", len(cells))
    for index, cell in enumerate(cells):
        machine = cell.machine or butterfly_gp1000()
        key = cell_key(
            cell.node, cell.processors, cell.params, machine,
            cell.mode, cell.block_cache, cell.engine,
        )
        keys.append(key)
        hit = cache.get(key)
        if hit is not None:
            results[index] = hit
            metrics.count("cache_hits")
            continue
        if key in pending:
            pending[key].append(index)
            metrics.count("dedup_hits")
            continue
        pending[key] = [index]
        metrics.count("cache_misses")
        tasks.append(
            (key, (cell.node, cell.processors, cell.params, machine,
                   cell.mode, cell.block_cache, cell.engine))
        )

    if tasks:
        metrics.count("simulate_calls", len(tasks))
        with metrics.stage("simulate"):
            outcomes = _execute(
                [task for _, task in tasks], jobs=jobs, metrics=metrics
            )
        for (key, _), outcome in zip(tasks, outcomes):
            if isinstance(outcome, SimulationResult):
                cache.put(key, outcome)
                tier = outcome.engine.replace("-", "_")
                metrics.count(f"sim.tier.{tier}")
            for index in pending[key]:
                results[index] = outcome

    for index, outcome in enumerate(results):
        if isinstance(outcome, ReproError):
            if on_error == "raise":
                raise outcome
        elif outcome is None:  # pragma: no cover - defensive
            raise SimulationError(
                f"sweep cell {cells[index].name!r} produced no result"
            )
    return results  # type: ignore[return-value]


def run_tasks(
    function,
    items: Sequence,
    *,
    jobs: int = 1,
    metrics: Optional[Metrics] = None,
):
    """Order-preserving parallel map with the executor's pool discipline.

    ``function`` must be a top-level importable callable over picklable
    items (``multiprocessing`` workers import their target).  Results come
    back in input order, so parallel output is identical to a serial run;
    when the pool cannot be created the map silently degrades to serial.
    This is the generic engine under :func:`run_grid`, and is also what the
    differential fuzzer fans its cases out with.
    """
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(items) > 1:
        processes = min(jobs, len(items))
        try:
            context = _pool_context()
            with context.Pool(
                processes=processes, initializer=_pool_worker_init
            ) as pool:
                outcomes = pool.map(function, items, chunksize=1)
            if metrics is not None:
                metrics.count("parallel_batches")
            return outcomes
        except (OSError, ValueError, pickle.PicklingError, ImportError):
            if metrics is not None:
                metrics.count("pool_fallbacks")
    return [function(item) for item in items]


def _execute(tasks, *, jobs: int, metrics: Metrics):
    """Run simulation tasks, parallel when possible, serial otherwise."""
    return run_tasks(_guarded_simulate_task, tasks, jobs=jobs, metrics=metrics)


def _pool_worker_init():
    """Detach a forked worker from the parent's signal plumbing.

    A fork inherits ``signal.set_wakeup_fd``'s file descriptor — under an
    asyncio parent (the compilation service) that fd is one end of the
    socketpair the event loop watches, so a signal delivered to a *worker*
    (e.g. the pool's own SIGTERM on teardown) would be reported to the
    parent's loop as if the daemon itself had been told to shut down.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_context():
    """Prefer fork (cheap, inherits the warm interpreter); fall back."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _guarded_simulate_task(task):
    """Worker wrapper: simulation errors travel back as values.

    Raising inside ``Pool.map`` aborts the whole batch; returning the
    (picklable) exception lets :func:`run_grid` apply its error policy
    per cell — and keeps parallel behavior identical to serial.
    """
    try:
        return simulate_task(task)
    except ReproError as error:
        return error
