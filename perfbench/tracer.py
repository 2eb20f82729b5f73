"""Per-layer spans recorded from the benchmark side of the program's API.

:func:`install` wraps public entry points of the repro package in place
(module attributes and class methods, from outside ``src/``) so that
every call records a span: its total time and its *self* time, which is
the total minus the time of spans nested inside it.  Spans nest per
thread, so the service daemon's executor threads each keep their own
stack.  The benchmark roots the timed region in a ``bench.driver`` span,
which makes the self times of all layers sum to the traced wall.

Layer names follow the package's module paths (``numa.symbolic.derive``
is ``SymbolicEngine`` construction, ``numa.symbolic.evaluate`` its
``account``); ``perfbench/ledger.json`` maps each to the end-to-end
metric it should move.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List


class Tracer:
    """Thread-aware span accumulator over an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Attributed times that are *part of* some span's self time
        #: (kept apart so self times still sum to the traced wall).
        self.timers: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Derivation bookkeeping: id(engine) of successful derivations,
        # and the ids that served at least one account.
        self.derived: List[int] = []
        self.served: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, self_seconds)``."""
        stack = self._stack()
        frame = [self.clock(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            total = self.clock() - frame[0]
            own = total - frame[1]
            if stack:
                stack[-1][1] += total
            with self._lock:
                self.self_s[name] += own
                self.calls[name] += 1
        return result, own

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            self.timers[name] += seconds

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[0]

        return traced

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready ``{"self_s", "timers", "calls", "counts", "derive"}``."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "timers": dict(self.timers),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "derive": {
                    "ok": len(self.derived),
                    "unused": sum(1 for key in self.derived if key not in self.served),
                },
            }


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement`` (covers ``from x import f`` copies of the name)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the program's public layer entry points with ``tracer`` spans."""
    import repro.codegen.pycodegen as pycodegen
    import repro.codegen.spmd as spmd
    import repro.core.normalize as normalize
    import repro.linalg.sympoly as sympoly
    import repro.numa.counting as counting
    import repro.numa.simulator as simulator
    import repro.numa.symbolic as symbolic
    import repro.runtime.executor as executor
    import repro.tune.search  # noqa: F401 - load its copies of the names
    from repro.runtime.metrics import Metrics

    simulate = simulator.simulate

    def traced_simulate(*args, **kwargs):
        result, own = tracer.call("numa.simulate", simulate, *args, **kwargs)
        tier = getattr(result, "engine", "walk").replace("-", "_")
        tracer.count(f"numa.simulate.cells.{tier}")
        if tier == "walk":
            tracer.add_time("numa.simulate.walk", own)
        return result

    run_grid = executor.run_grid

    def traced_run_grid(cells, **kwargs):
        metrics = kwargs.get("metrics")
        if metrics is None:
            metrics = kwargs["metrics"] = Metrics()
        before = metrics.counter("cache_hits") + metrics.counter("dedup_hits")
        result = tracer.call("runtime.grid", run_grid, cells, **kwargs)[0]
        after = metrics.counter("cache_hits") + metrics.counter("dedup_hits")
        tracer.count("runtime.grid.cells", len(cells))
        tracer.count("runtime.grid.hits", after - before)
        return result

    functions = [
        (simulate, traced_simulate),
        (run_grid, traced_run_grid),
        (sympoly.compile_account,
         tracer.wrap("linalg.sympoly.compile_account", sympoly.compile_account)),
        (pycodegen.compile_accounting,
         tracer.wrap("codegen.pycodegen.compile_accounting",
                     pycodegen.compile_accounting)),
        (normalize.access_normalize,
         tracer.wrap("core.normalize", normalize.access_normalize)),
        (spmd.generate_spmd, tracer.wrap("codegen.spmd", spmd.generate_spmd)),
    ]
    for original, replacement in functions:
        _replace_everywhere(original, replacement)

    engine = symbolic.SymbolicEngine
    derive, account, gate = engine.__init__, engine.account, engine.estimate_cost

    def traced_derive(self, *args, **kwargs):
        try:
            tracer.call("numa.symbolic.derive", derive, self, *args, **kwargs)
        except Exception:
            tracer.count("numa.symbolic.derive.failed")
            raise
        with tracer._lock:
            tracer.derived.append(id(self))

    def traced_account(self, *args, **kwargs):
        with tracer._lock:
            tracer.served.add(id(self))
        return tracer.call("numa.symbolic.evaluate", account, self, *args, **kwargs)[0]

    def traced_gate(self, *args, **kwargs):
        return tracer.call("numa.symbolic.gate", gate, self, *args, **kwargs)[0]

    engine.__init__ = functools.wraps(derive)(traced_derive)
    engine.account = functools.wraps(account)(traced_account)
    engine.estimate_cost = functools.wraps(gate)(traced_gate)

    closed = counting.ClosedFormEngine
    closed.__init__ = tracer.wrap("numa.counting.build", closed.__init__)
    closed.account = tracer.wrap("numa.counting.evaluate", closed.account)


def layer_metrics(snapshot: Dict[str, Dict[str, float]], factor: float) -> Dict[str, float]:
    """Flatten a tracer snapshot into per-layer metric values.

    Times are scaled by the run's speed factor (normalised seconds).
    """
    self_s = snapshot["self_s"]
    calls = snapshot["calls"]
    counts = snapshot["counts"]
    derive = snapshot["derive"]
    out: Dict[str, float] = {}
    for layer in (
        "numa.symbolic.evaluate", "numa.symbolic.derive",
        "linalg.sympoly.compile_account", "numa.simulate",
        "numa.counting.build", "numa.counting.evaluate",
        "codegen.pycodegen.compile_accounting", "core.normalize",
        "codegen.spmd", "runtime.grid", "numa.symbolic.gate",
    ):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) * factor
    out["numa.simulate.walk_s"] = snapshot["timers"].get("numa.simulate.walk", 0.0) * factor
    for tier in ("symbolic", "closed_form", "compiled", "walk"):
        out[f"numa.simulate.cells.{tier}"] = counts.get(f"numa.simulate.cells.{tier}", 0)
    attempts = calls.get("numa.symbolic.derive", 0)
    out["numa.symbolic.derive.failed"] = counts.get("numa.symbolic.derive.failed", 0)
    out["numa.symbolic.derive.unused"] = derive["unused"]
    useful = derive["ok"] - derive["unused"]
    out["numa.symbolic.derive.useful_ratio"] = useful / attempts if attempts else 0.0
    evaluations = calls.get("numa.symbolic.evaluate", 0)
    out["numa.symbolic.evals_per_derive"] = (
        evaluations / derive["ok"] if derive["ok"] else 0.0
    )
    cells = counts.get("runtime.grid.cells", 0)
    out["runtime.grid.cells"] = cells
    out["runtime.grid.hit_ratio"] = (
        counts.get("runtime.grid.hits", 0) / cells if cells else 0.0
    )
    return out
