"""Simulation memoization: stable cell fingerprints + an LRU result cache.

Every speedup figure, ablation and ``autodist`` search reduces to a grid of
``(node program, P, params, machine, mode)`` simulation cells, and the same
cell recurs across sections (every curve shares the P=1 baseline; ablations
re-simulate the figure variants under new machines).  The cache keys each
cell by a content fingerprint — the rendered node program plus every input
that can change the simulated outcome — so a warm regeneration of
RESULTS.md performs zero new ``simulate`` calls.

The fingerprint is built from *rendered* canonical text (loop nest
pseudo-code, distribution descriptions, sorted parameter bindings, machine
constants), never from ``id()`` or hash ordering, so it is stable across
processes and usable for the optional on-disk store.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import astuple
from typing import Dict, Mapping, Optional

from repro.codegen.spmd import NodeProgram
from repro.errors import ConfigurationError
from repro.ir.printer import render_nest
from repro.numa.machine import MachineConfig
from repro.numa.simulator import SimulationResult
from repro.runtime.metrics import global_metrics


def node_fingerprint(node: NodeProgram) -> str:
    """A stable content fingerprint of a node program.

    Covers everything the simulator reads: the nest (including block-read
    prologues), array declarations and element sizes, distributions,
    default parameters, the schedule, sync events, and the locality plan's
    per-reference classifications.
    """
    program = node.program
    plan_part = ";".join(
        f"{info.ref}|{'w' if info.is_write else 'r'}|{info.ref_class.value}"
        for info in node.plan.refs
    )
    parts = [
        program.name,
        node.schedule,
        f"sync={node.sync_per_outer_iteration}",
        f"guards={node.guards_per_iteration}",
        render_nest(program.nest),
        ";".join(
            f"{decl.name}({','.join(str(e) for e in decl.extents)}):{decl.element_bytes}"
            for decl in program.arrays
        ),
        ";".join(
            f"{name}={program.distributions[name].describe()}"
            for name in sorted(program.distributions)
        ),
        ";".join(f"{k}={v}" for k, v in sorted(program.params.items())),
        plan_part,
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


def cell_key(
    node: NodeProgram,
    processors: int,
    params: Optional[Mapping[str, int]],
    machine: MachineConfig,
    mode: str = "account",
    block_cache: bool = False,
    engine: str = "auto",
) -> str:
    """The cache key of one simulation cell.

    All accounting engines are bit-identical, yet ``engine`` is part of
    the key: a forced-walk benchmark cell must not be answered from an
    ``auto`` result, because the cached ``SimulationResult.engine``
    would misreport the tier.
    """
    bound = node.program.bound_params(params)
    param_part = ";".join(f"{k}={v}" for k, v in sorted(bound.items()))
    machine_part = repr(astuple(machine))
    parts = [
        node_fingerprint(node),
        f"P={processors}",
        param_part,
        machine_part,
        f"mode={mode}",
        f"block_cache={block_cache}",
        f"engine={engine}",
    ]
    raw = "\n".join(parts)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


class SimulationCache:
    """An in-memory LRU of :class:`SimulationResult` with optional disk store.

    ``max_entries`` bounds the in-memory layer (0 disables it).  When
    ``store_dir`` is given, results are also pickled to
    ``<store_dir>/<key>.pkl`` so a fresh process (a re-run of the CLI or of
    the report generator) starts warm.  ``disk_max_entries`` caps the disk
    store for long-lived processes (the compilation daemon): when a put
    pushes the store over the cap, the oldest entries by mtime are evicted.

    A corrupted or truncated disk entry (partial write, interrupted
    process, unpicklable payload) is treated as a miss: the entry is
    deleted, a ``cache.disk_corrupt`` counter is recorded on the global
    metrics sink, and the simulation simply re-runs.
    """

    #: Per-kind LRU caps of :meth:`artifact`.  Forms, closed-form
    #: engines and form certificates are per *program*, not per cell, so
    #: a handful covers a whole report.
    ARTIFACT_MAX_ENTRIES = {"form": 128, "closed": 128, "cert": 128, "kernel": 512}

    def __init__(
        self,
        max_entries: int = 4096,
        store_dir: Optional[str] = None,
        disk_max_entries: Optional[int] = None,
    ) -> None:
        self.max_entries = max_entries
        self.store_dir = store_dir
        self.disk_max_entries = disk_max_entries
        self._memory: "OrderedDict[str, SimulationResult]" = OrderedDict()
        kinds = self.ARTIFACT_MAX_ENTRIES
        self._artifacts: Dict[str, "OrderedDict[str, object]"] = {
            kind: OrderedDict() for kind in kinds
        }
        #: Per kind: factory runs, memo hits and wall seconds in factories.
        self.builds: Dict[str, int] = dict.fromkeys(kinds, 0)
        self.hits: Dict[str, int] = dict.fromkeys(kinds, 0)
        self.build_s: Dict[str, float] = dict.fromkeys(kinds, 0.0)
        if store_dir:
            os.makedirs(store_dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def disk_entries(self) -> int:
        """Number of entries currently in the disk store (0 when disabled)."""
        return len(self._disk_paths())

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None."""
        if key in self._memory:
            self._memory.move_to_end(key)
            return self._memory[key]
        if self.store_dir:
            path = os.path.join(self.store_dir, f"{key}.pkl")
            try:
                with open(path, "rb") as handle:
                    result = pickle.load(handle)
            except OSError:
                return None  # plain miss: entry was never written
            except Exception:
                result = None
            if not isinstance(result, SimulationResult):
                # Truncated pickle, garbage bytes, or an entry written by an
                # incompatible version: drop it and re-simulate.
                global_metrics().count("cache.disk_corrupt")
                try:
                    os.remove(path)
                except OSError:
                    pass
                return None
            # Refresh the entry's mtime: _evict_disk orders by mtime, so
            # without this a hot long-lived entry reads as the oldest and
            # is evicted first (FIFO, not LRU).
            try:
                os.utime(path, None)
            except OSError:
                pass
            self._remember(key, result)
            return result
        return None

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result under ``key`` (memory, plus disk when configured)."""
        self._remember(key, result)
        if self.store_dir:
            path = os.path.join(self.store_dir, f"{key}.pkl")
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "wb") as handle:
                    pickle.dump(result, handle)
                os.replace(tmp, path)
            except OSError:
                pass  # best-effort persistence; the memory layer still holds it
            else:
                self._evict_disk()

    def _disk_paths(self) -> list:
        """All ``.pkl`` entry paths in the store (empty when disabled)."""
        if not self.store_dir:
            return []
        try:
            names = os.listdir(self.store_dir)
        except OSError:
            return []
        return [
            os.path.join(self.store_dir, name)
            for name in names
            if name.endswith(".pkl")
        ]

    def _evict_disk(self) -> None:
        """Keep the disk store at or under ``disk_max_entries`` (oldest out)."""
        if not self.disk_max_entries or self.disk_max_entries <= 0:
            return
        paths = self._disk_paths()
        excess = len(paths) - self.disk_max_entries
        if excess <= 0:
            return
        def _mtime(path: str) -> float:
            try:
                return os.path.getmtime(path)
            except OSError:
                return 0.0
        for path in sorted(paths, key=_mtime)[:excess]:
            try:
                os.remove(path)
                global_metrics().count("cache.disk_evictions")
            except OSError:
                pass

    def artifact(self, kind: str, key: str, factory):
        """Memoize one artifact of a node program (memory-only LRU).

        ``kind`` is ``closed`` (closed-form engine), ``form`` (tier-0
        symbolic engine), ``kernel`` (compiled accounting kernel) or
        ``cert`` (form certificate); each kind has its own table and
        cap.  ``factory`` runs at most once per live ``key``; callers
        return failures as values, so an unsupported nest is probed
        once.  A factory that builds another kind (a form builds its
        ``closed`` engine) counts those seconds under both kinds.  Keys
        cover the program fingerprint, never the cell's ``(P, params)``;
        keys of derivation products carry
        :data:`repro.numa.symbolic.FORM_SCHEMA`, so a shared or
        persistent backing could never serve a stale pre-upgrade entry.
        """
        table = self._artifacts[kind]
        if key in table:
            table.move_to_end(key)
            self.hits[kind] += 1
            return table[key]
        start = time.perf_counter()
        value = factory()
        self.build_s[kind] += time.perf_counter() - start
        self.builds[kind] += 1
        table[key] = value
        while len(table) > self.ARTIFACT_MAX_ENTRIES[kind]:
            table.popitem(last=False)
        return value

    # The pre-``artifact`` counter names, read by profiles and benchmarks.
    form_derives = property(lambda self: self.builds["form"])
    form_hits = property(lambda self: self.hits["form"])
    form_build_s = property(lambda self: self.build_s["form"])
    kernel_compiles = property(lambda self: self.builds["kernel"])
    kernel_hits = property(lambda self: self.hits["kernel"])

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are kept)."""
        self._memory.clear()
        for table in self._artifacts.values():
            table.clear()

    def _remember(self, key: str, result: SimulationResult) -> None:
        if self.max_entries <= 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)


_SHARED: Optional[SimulationCache] = None


def shared_cache() -> SimulationCache:
    """The process-wide default cache used when callers pass ``cache=None``.

    Honors the ``REPRO_CACHE_DIR`` environment variable (set at first use)
    for an on-disk store shared across processes, and
    ``REPRO_CACHE_MAX_ENTRIES`` for the disk-store cap applied by
    long-lived processes such as the compilation daemon.  A malformed cap
    raises :class:`~repro.errors.ConfigurationError` naming the bad value.
    """
    global _SHARED
    if _SHARED is None:
        cap_text = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
        try:
            cap = int(cap_text) if cap_text else None
        except ValueError:
            # Swallowing the typo would silently disable the disk cap and
            # let a daemon's store grow without bound.
            raise ConfigurationError(
                f"REPRO_CACHE_MAX_ENTRIES={cap_text!r} is not an integer"
            )
        _SHARED = SimulationCache(
            store_dir=os.environ.get("REPRO_CACHE_DIR"),
            disk_max_entries=cap,
        )
    return _SHARED


def set_shared_cache(cache: Optional[SimulationCache]) -> SimulationCache:
    """Install ``cache`` as the process-wide default and return it.

    The compilation service uses this so every execution path in the
    daemon (batched simulate cells, sweeps running inside pool workers
    forked from the warm parent) converges on one cache object.
    ``None`` installs a fresh default-configured cache.
    """
    global _SHARED
    _SHARED = cache if cache is not None else SimulationCache()
    return _SHARED


def reset_shared_cache() -> None:
    """Drop the process-wide default cache (mainly for tests)."""
    global _SHARED
    _SHARED = None
