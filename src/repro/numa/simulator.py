"""The NUMA machine simulator.

Runs a generated node program on ``P`` simulated processors and accounts
every memory event against a :class:`~repro.numa.machine.MachineConfig`:
local accesses, remote accesses (exact owners computed from the data
distributions), block transfers (startup + per-byte), ownership guards and
statement execution.  The paper's speedup figures are ratios of exactly
these quantities.

Two modes:

* ``account`` (default) — cost accounting only, never touches array data.
  The innermost loop is summarized analytically where possible (locality
  counts over an arithmetic progression reduce to solving a linear
  congruence), making whole-figure sweeps at paper scale (400x400 GEMM)
  tractable.
* ``execute`` — additionally performs the assignments on real arrays so the
  parallel execution can be checked against the sequential program.
  Processors are simulated one after another; this is faithful for node
  programs whose distributed outer loop carries no dependence (which is
  what access normalization establishes for the paper's workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.codegen.locality import RefClass
from repro.codegen.spmd import NodeProgram
from repro.distributions.base import Distribution
from repro.errors import SimulationError
from repro.ir.interp import evaluate_scalar
from repro.ir.loop import Loop
from repro.ir.scalar import ArrayRef
from repro.ir.stmt import Assign, BlockRead, IfThen, Statement
from repro.linalg.progression import count_congruent, count_in_interval
from repro.numa.machine import MachineConfig, butterfly_gp1000


@dataclass
class AccessCounts:
    """Raw event counts for one simulated processor."""

    local: int = 0
    remote: int = 0
    block_transfers: int = 0
    block_bytes: int = 0
    guards: int = 0
    statements: int = 0
    iterations: int = 0
    syncs: int = 0

    def merged(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            local=self.local + other.local,
            remote=self.remote + other.remote,
            block_transfers=self.block_transfers + other.block_transfers,
            block_bytes=self.block_bytes + other.block_bytes,
            guards=self.guards + other.guards,
            statements=self.statements + other.statements,
            iterations=self.iterations + other.iterations,
            syncs=self.syncs + other.syncs,
        )


def _time_us(counts: AccessCounts, machine: MachineConfig, multiplier: float) -> float:
    return (
        counts.statements * machine.compute_per_statement_us
        + counts.local * machine.local_access_us
        + counts.remote * machine.remote_access_us * multiplier
        + counts.block_transfers * machine.block_startup_us
        + counts.block_bytes * machine.block_per_byte_us * multiplier
        + counts.guards * machine.guard_cost_us
        + counts.syncs * machine.sync_cost_us
    )


@dataclass(frozen=True)
class ProcessorResult:
    """Counts and modeled time for one processor."""

    proc: int
    counts: AccessCounts
    time_us: float


@dataclass(frozen=True)
class SimulationResult:
    """The outcome of one simulated parallel execution."""

    node_name: str
    processors: int
    machine: MachineConfig
    per_proc: Tuple[ProcessorResult, ...]
    remote_multiplier: float = 1.0
    #: Which accounting engine produced the counts: ``symbolic``
    #: (tier 0), ``closed-form`` (tier 1), ``compiled`` (tier 2) or
    #: ``walk`` (tier 3).  All four are bit-identical on every count; the
    #: tier only affects speed.
    engine: str = "walk"

    @property
    def total_time_us(self) -> float:
        """Makespan: the slowest processor's time."""
        return max(result.time_us for result in self.per_proc)

    @property
    def totals(self) -> AccessCounts:
        """Event counts summed over all processors."""
        total = AccessCounts()
        for result in self.per_proc:
            total = total.merged(result.counts)
        return total

    def speedup(self, sequential_time_us: float) -> float:
        """Speedup relative to a sequential (1-processor) time."""
        return sequential_time_us / self.total_time_us

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the compilation service's wire format)."""
        totals = self.totals
        return {
            "node": self.node_name,
            "processors": self.processors,
            "machine": self.machine.name,
            "total_time_us": self.total_time_us,
            "remote_multiplier": self.remote_multiplier,
            "engine": self.engine,
            "totals": {
                "local": totals.local,
                "remote": totals.remote,
                "block_transfers": totals.block_transfers,
                "block_bytes": totals.block_bytes,
                "guards": totals.guards,
                "statements": totals.statements,
                "iterations": totals.iterations,
                "syncs": totals.syncs,
            },
            "per_proc": [
                {
                    "proc": result.proc,
                    "time_us": result.time_us,
                    "iterations": result.counts.iterations,
                    "local": result.counts.local,
                    "remote": result.counts.remote,
                    "block_transfers": result.counts.block_transfers,
                    "block_bytes": result.counts.block_bytes,
                    "syncs": result.counts.syncs,
                }
                for result in self.per_proc
            ],
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        totals = self.totals
        return (
            f"{self.node_name}: P={self.processors} time={self.total_time_us:.1f}us "
            f"local={totals.local} remote={totals.remote} "
            f"blocks={totals.block_transfers} guards={totals.guards}"
        )

    def table(self) -> str:
        """Per-processor breakdown as an aligned text table.

        Makes load imbalance visible: the makespan row is the processor
        with the largest time.
        """
        headers = (
            "proc", "iters", "local", "remote", "blocks", "kB", "syncs",
            "time (ms)",
        )
        rows = []
        for result in self.per_proc:
            c = result.counts
            rows.append(
                (
                    result.proc,
                    c.iterations,
                    c.local,
                    c.remote,
                    c.block_transfers,
                    f"{c.block_bytes / 1024:.1f}",
                    c.syncs,
                    f"{result.time_us / 1e3:.2f}",
                )
            )
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows))
            for i, h in enumerate(headers)
        ]
        lines = [
            "  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)


def _compile_affine(expr) -> Tuple[Tuple[Tuple[str, int], ...], int, int]:
    """Compile an affine expression to integer form: ``(pairs, den, const)``.

    The value of the expression is ``(sum(c*env[v]) + const) / den`` — all
    integer arithmetic, which is an order of magnitude faster in the hot
    simulation loops than per-term ``Fraction`` math.
    """
    coeffs = expr.coeffs
    den = 1
    for value in list(coeffs.values()) + [expr.const]:
        den = den * value.denominator // gcd(den, value.denominator)
    pairs = tuple(
        (name, int(value * den)) for name, value in coeffs.items()
    )
    return pairs, den, int(expr.const * den)


def _eval_ceil(compiled, env) -> int:
    pairs, den, const = compiled
    total = const
    for name, coeff in pairs:
        total += coeff * env[name]
    if den == 1:
        return total
    return -((-total) // den)


def _eval_floor(compiled, env) -> int:
    pairs, den, const = compiled
    total = const
    for name, coeff in pairs:
        total += coeff * env[name]
    if den == 1:
        return total
    return total // den


def _eval_exact(compiled, env) -> Optional[int]:
    """Integer value, or None when the rational value is not integral."""
    pairs, den, const = compiled
    total = const
    for name, coeff in pairs:
        total += coeff * env[name]
    if den == 1:
        return total
    if total % den:
        return None
    return total // den


class _CompiledLoop:
    """Precompiled bound/alignment evaluators for one loop level."""

    __slots__ = ("loop", "lowers", "uppers", "align", "step")

    def __init__(self, loop: Loop):
        self.loop = loop
        self.lowers = tuple(_compile_affine(e) for e in loop.lower)
        self.uppers = tuple(_compile_affine(e) for e in loop.upper)
        self.align = _compile_affine(loop.align) if loop.align is not None else None
        self.step = loop.step

    def low(self, env) -> int:
        return max(_eval_ceil(c, env) for c in self.lowers)

    def high(self, env) -> int:
        return min(_eval_floor(c, env) for c in self.uppers)

    def first(self, env) -> int:
        low = self.low(env)
        if self.align is None:
            return low
        offset = _eval_exact(self.align, env)
        if offset is None:
            raise SimulationError("alignment expression is not integral")
        return low + ((offset - low) % self.step)

    def values(self, env) -> Iterator[int]:
        value = self.first(env)
        high = self.high(env)
        while value <= high:
            yield value
            value += self.step

    def trip_count(self, env) -> int:
        first = self.first(env)
        high = self.high(env)
        if first > high:
            return 0
        return (high - first) // self.step + 1


class _ProcWalker:
    """Simulates one processor's execution of a node program."""

    def __init__(
        self,
        node: NodeProgram,
        env: Dict[str, int],
        processors: int,
        proc: int,
        mode: str,
        arrays: Optional[Dict],
        block_cache: bool = False,
    ):
        self.node = node
        self.nest = node.nest
        self.env = env
        self.P = processors
        self.p = proc
        self.mode = mode
        self.arrays = arrays
        self.block_cache: Optional[set] = set() if block_cache else None
        self.counts = AccessCounts()
        program = node.program
        self.shapes = {
            decl.name: decl.shape(env) for decl in program.arrays
        }
        self.element_bytes = {
            decl.name: decl.element_bytes for decl in program.arrays
        }
        self.distributions: Mapping[str, Distribution] = program.distributions
        self.ref_classes: Dict[Tuple[ArrayRef, bool], RefClass] = {
            (info.ref, info.is_write): info.ref_class for info in node.plan.refs
        }
        self._body_plain = all(isinstance(s, Assign) for s in self.nest.body)
        self._innermost_prologue = (
            bool(self.nest.loops[-1].prologue) if self.nest.loops else False
        )
        self._compiled = [_CompiledLoop(loop) for loop in self.nest.loops]
        # Precompiled (ref, is_write) -> locality recipe for the innermost
        # loop summary: slope of the distribution-dimension subscript in the
        # innermost index plus the compiled remainder expression.
        self._inner_plan = self._compile_inner_plan()
        self._fast_body = [self._compile_statement(s) for s in self.nest.body]
        self._fast_prologue = [
            [self._compile_statement(s) for s in loop.prologue]
            for loop in self.nest.loops
        ]

    def _compile_inner_plan(self):
        if not self.nest.loops or not self._body_plain:
            return None
        index = self.nest.loops[-1].index
        plan = []
        for statement in self.nest.body:
            for ref, is_write in (
                [(statement.lhs, True)]
                + [(r, False) for r in statement.rhs.references()]
            ):
                rc = self.ref_classes.get((ref, is_write), RefClass.CHECK)
                if rc in (RefClass.LOCAL, RefClass.COVERED):
                    plan.append(("free", None, None, None))
                    continue
                distribution = self.distributions.get(ref.array)
                if distribution is None or not distribution.distribution_dims():
                    plan.append(("free", None, None, None))
                    continue
                dims = distribution.distribution_dims()
                kind = type(distribution).__name__
                if len(dims) != 1 or kind not in ("Wrapped", "Blocked"):
                    plan.append(("enum", None, None, None))
                    continue
                subscript = ref.subscripts[dims[0]]
                slope = subscript.coeff(index)
                if slope.denominator != 1:
                    plan.append(("enum", None, None, None))
                    continue
                rest = subscript - slope * _var(index)
                compiled = _compile_affine(rest)
                if kind == "Wrapped":
                    plan.append(("wrapped", int(slope), compiled, None))
                else:
                    extent = self.shapes[ref.array][dims[0]]
                    plan.append(("blocked", int(slope), compiled, extent))
        return plan

    # ------------------------------------------------------------------
    # compiled per-iteration execution
    # ------------------------------------------------------------------
    def _compile_charge(self, ref: ArrayRef, is_write: bool):
        """A closure charging one access of ``ref`` under the current env."""
        counts = self.counts
        rc = self.ref_classes.get((ref, is_write), RefClass.CHECK)
        if rc in (RefClass.LOCAL, RefClass.COVERED):
            def charge_local(env):
                counts.local += 1
            return charge_local
        distribution = self.distributions.get(ref.array)
        if distribution is None or not distribution.distribution_dims():
            def charge_repl(env):
                counts.local += 1
            return charge_repl
        dims = distribution.distribution_dims()
        kind = type(distribution).__name__
        if len(dims) == 1 and kind in ("Wrapped", "Blocked"):
            subscript = ref.subscripts[dims[0]]
            compiled = _compile_affine(subscript)
            where = f"subscript '{subscript}' of array {ref.array!r}"
            cap, proc = self.P, self.p
            if kind == "Wrapped":
                def charge_wrapped(env):
                    value = _eval_exact(compiled, env)
                    if value is None:
                        raise SimulationError(
                            f"non-integral {where} in wrapped ownership test"
                        )
                    if value % cap == proc:
                        counts.local += 1
                    else:
                        counts.remote += 1
                return charge_wrapped
            extent = self.shapes[ref.array][dims[0]]
            block = -(-extent // cap)
            low, high = proc * block, (proc + 1) * block - 1
            def charge_blocked(env):
                value = _eval_exact(compiled, env)
                if value is None:
                    raise SimulationError(
                        f"non-integral {where} in blocked ownership test"
                    )
                if low <= value <= high:
                    counts.local += 1
                else:
                    counts.remote += 1
            return charge_blocked

        def charge_generic(env):
            owner = self._owner(ref.array, ref.index_tuple(env))
            if owner is None or owner == self.p:
                counts.local += 1
            else:
                counts.remote += 1
        return charge_generic

    def _compile_statement(self, statement: Statement):
        """Compile a statement into a fast per-iteration closure."""
        counts = self.counts
        if isinstance(statement, Assign):
            charges = [self._compile_charge(statement.lhs, True)]
            charges.extend(
                self._compile_charge(ref, False)
                for ref in statement.rhs.references()
            )
            if self.mode == "execute":
                arrays = self.arrays
                rhs = statement.rhs
                lhs_subs = [_compile_affine(s) for s in statement.lhs.subscripts]
                target = arrays[statement.lhs.array]

                def run_assign_exec(env):
                    counts.statements += 1
                    for charge in charges:
                        charge(env)
                    index = tuple(_eval_exact(c, env) for c in lhs_subs)
                    target[index] = evaluate_scalar(rhs, env, arrays)
                return run_assign_exec

            def run_assign(env):
                counts.statements += 1
                for charge in charges:
                    charge(env)
            return run_assign
        if isinstance(statement, IfThen):
            conditions = [
                (
                    _compile_affine(cond.expr),
                    _compile_affine(cond.modulus),
                    _compile_affine(cond.target),
                    str(cond),
                )
                for cond in statement.conditions
            ]
            inner = self._compile_statement(statement.body)
            guard_count = len(conditions)
            disjunctive = statement.disjunctive

            def run_guarded(env):
                counts.guards += guard_count
                taken = disjunctive is not True
                for expr, modulus, target, text in conditions:
                    mod = _eval_exact(modulus, env)
                    lhs = _eval_exact(expr, env)
                    rhs = _eval_exact(target, env)
                    if mod is None or lhs is None or rhs is None:
                        raise SimulationError(
                            f"non-integral value in guard '{text}'"
                        )
                    hit = lhs % mod == rhs % mod
                    if disjunctive and hit:
                        taken = True
                        break
                    if not disjunctive and not hit:
                        taken = False
                        break
                if taken:
                    inner(env)
            return run_guarded
        if isinstance(statement, BlockRead):
            shape = self.shapes.get(statement.array)
            if shape is None:
                raise SimulationError(
                    f"array {statement.array!r} has no declared shape"
                )
            elements = 1
            for dim, entry in enumerate(statement.pattern):
                if entry is None:
                    elements *= shape[dim]
            num_bytes = elements * self.element_bytes.get(statement.array, 8)
            distribution = self.distributions.get(statement.array)
            if distribution is None or not distribution.distribution_dims():
                def run_read_local(env):
                    return
                return run_read_local
            dist_dims = set(distribution.distribution_dims())
            if all(statement.pattern[d] is None for d in dist_dims):
                # Whole-array gather: the distribution dimensions are
                # wildcards, so the slice spans every owner.  Locally owned
                # elements stay put; the rest arrive with one bulk message
                # per remote owner.
                return self._compile_gather(statement, distribution, shape)
            probe_template = [
                entry if entry is not None else None
                for entry in statement.pattern
            ]
            compiled_probe = [
                _compile_affine(entry) if entry is not None else None
                for entry in probe_template
            ]
            cap, proc = self.P, self.p
            cache = self.block_cache
            array_name = statement.array

            def run_read(env):
                probe = tuple(
                    _eval_exact(c, env) if c is not None else 0
                    for c in compiled_probe
                )
                owner = distribution.owner(probe, cap, shape)
                if owner is None or owner == proc:
                    return
                if cache is not None:
                    key = (array_name, probe)
                    if key in cache:
                        return  # already fetched by this processor
                    cache.add(key)
                counts.block_transfers += 1
                counts.block_bytes += num_bytes
            return run_read
        raise SimulationError(f"cannot simulate statement {statement!r}")

    def _compile_gather(self, statement: BlockRead, distribution, shape):
        """Closure for a whole-array gather (``read X[*]``-style)."""
        counts = self.counts
        total_elements = 1
        for extent in shape:
            total_elements *= extent
        owned = self._owned_elements(distribution, shape)
        remote_elements = total_elements - owned
        num_bytes = remote_elements * self.element_bytes.get(statement.array, 8)
        messages = min(self.P - 1, remote_elements)
        cache = self.block_cache
        key = (statement.array, "gather")

        def run_gather(env):
            if remote_elements <= 0:
                return
            if cache is not None:
                if key in cache:
                    return
                cache.add(key)
            counts.block_transfers += messages
            counts.block_bytes += num_bytes
        return run_gather

    def _owned_elements(self, distribution, shape) -> int:
        """How many elements of an array this processor owns."""
        kind = type(distribution).__name__
        dims = distribution.distribution_dims()
        if not dims:
            total = 1
            for extent in shape:
                total *= extent
            return total
        if len(dims) == 1 and kind in ("Wrapped", "Blocked"):
            dim = dims[0]
            extent = shape[dim]
            if kind == "Wrapped":
                mine = _count_congruent(1, 0, 0, 1, extent, self.P, self.p)
            else:
                block = -(-extent // self.P)
                mine = max(
                    0, min((self.p + 1) * block, extent) - self.p * block
                )
            rest = 1
            for d, other in enumerate(shape):
                if d != dim:
                    rest *= other
            return mine * rest
        # Generic fallback: enumerate owners (small arrays only).
        from itertools import product as _product

        count = 0
        for indices in _product(*(range(extent) for extent in shape)):
            if distribution.owner(indices, self.P, shape) == self.p:
                count += 1
        return count

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def _owner(self, array: str, indices: Tuple[int, ...]) -> Optional[int]:
        distribution = self.distributions.get(array)
        if distribution is None:
            return None
        shape = self.shapes.get(array)
        if shape is None:
            raise SimulationError(f"array {array!r} has no declared shape")
        return distribution.owner(indices, self.P, shape)

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------
    def run(self) -> AccessCounts:
        self._walk(0)
        return self.counts

    def _walk(self, level: int) -> None:
        nest = self.nest
        if level == nest.depth:
            self.counts.iterations += 1
            env = self.env
            for run in self._fast_body:
                run(env)
            return
        loop = nest.loops[level]
        compiled = self._compiled[level]
        analytic_inner = (
            level == nest.depth - 1
            and level > 0
            and self.mode == "account"
            and self._inner_plan is not None
            and not self._innermost_prologue
            and all(step[0] != "enum" for step in self._inner_plan)
        )
        if analytic_inner and self._summarize_innermost(compiled):
            return
        values = (
            _scheduled_values(compiled, self.env, self.node.schedule, self.P, self.p)
            if level == 0
            else compiled.values(self.env)
        )
        prologue = self._fast_prologue[level]
        sync_events = self.node.sync_per_outer_iteration if level == 0 else 0
        env = self.env
        for value in values:
            env[loop.index] = value
            if sync_events:
                self.counts.syncs += sync_events
            for run in prologue:
                run(env)
            self._walk(level + 1)
        env.pop(loop.index, None)

    # ------------------------------------------------------------------
    # analytic innermost-loop summary
    # ------------------------------------------------------------------
    def _summarize_innermost(self, compiled: "_CompiledLoop") -> bool:
        """Account the whole innermost loop in O(refs) time.

        Returns False — charging nothing — when a remainder expression is
        not integral at the current outer indices; the caller then falls
        back to enumerating the loop (whose per-access charges report the
        offending subscript precisely if it really is fractional at every
        iteration).
        """
        env = self.env
        trips = compiled.trip_count(env)
        if trips == 0:
            return True
        bases = []
        for kind, slope, rest, extent in self._inner_plan:
            if kind == "free":
                bases.append(None)
                continue
            base = _eval_exact(rest, env)
            if base is None:
                return False
            bases.append(base)
        first = compiled.first(env)
        step = compiled.step
        counts = self.counts
        counts.iterations += trips
        counts.statements += trips * len(self.nest.body)
        for (kind, slope, rest, extent), base in zip(self._inner_plan, bases):
            if kind == "free":
                counts.local += trips
                continue
            if kind == "wrapped":
                local = _count_congruent(
                    slope, base, first, step, trips, self.P, self.p
                )
            else:
                block = -(-extent // self.P)
                local = _count_in_interval(
                    slope, base, first, step, trips, self.p * block,
                    min((self.p + 1) * block - 1, extent - 1),
                )
            counts.local += local
            counts.remote += trips - local
        return True


def _var(name: str):
    from repro.ir.affine import AffineExpr

    return AffineExpr.var(name)


# The congruence/interval counting primitives now live in the linalg
# substrate (repro.linalg.progression), where the closed-form multi-level
# engine (repro.numa.counting) builds its per-level recurrences on top of
# them.  The old private names stay importable for the walker and tests.
_count_congruent = count_congruent
_count_in_interval = count_in_interval


def _scheduled_values(
    compiled: "_CompiledLoop", env: Mapping[str, int], schedule: str,
    processors: int, proc: int
) -> Iterator[int]:
    """Values of the distributed outermost loop executed by one processor."""
    if schedule == "all":
        yield from compiled.values(env)
        return
    high = compiled.high(env)
    first = compiled.first(env)
    if first > high:
        return
    step = compiled.step
    if schedule == "wrapped":
        if step == 1:
            # Value-based round robin (the paper's semantics): processor p
            # executes the iterations whose value is congruent to p, which
            # is what makes normal distribution-dimension subscripts local.
            value = first + ((proc - first) % processors)
            while value <= high:
                yield value
                value += processors
            return
        # Strided outer loop (tile loop or non-unimodular stride):
        # position-based round robin keeps every processor busy.
        value = first + step * proc
        stride = step * processors
        while value <= high:
            yield value
            value += stride
        return
    if schedule == "blocked":
        trips = (high - first) // step + 1
        block = -(-trips // processors)
        start = proc * block
        end = min(trips, (proc + 1) * block) - 1
        for q in range(start, end + 1):
            yield first + step * q
        return
    raise SimulationError(f"unknown schedule {schedule!r}")


#: Engine choices accepted by :func:`simulate` (and ``--engine``).
ENGINES = ("auto", "symbolic", "closed-form", "compiled", "walk")

#: Auto tier selection demotes a derivable symbolic form to the next
#: tier when its estimated per-processor evaluation cost (flat ops, see
#: :meth:`SymbolicEngine.estimate_cost`) exceeds this ceiling — a form
#: dominated by residual ``BoundedSum`` loops over large extents can be
#: slower than the closed-form engine it would replace.  The estimate
#: prices the plain fused loops the evaluator runs, each loop once at
#: its trip count.  On the naive banded SYR2K account at N=416, b=52,
#: P=1 (~9.6 M estimated ops, the costliest account the paper sweeps
#: keep), ``scripts/bench_sympoly.py`` measures 5–10 ns per estimated op
#: against 230–500 ms for the closed-form cell, a break-even of 30–75 M
#: ops across runs on a 2-core Xeon host (one run is recorded in
#: ``BENCH_simulator.json``).  The ceiling sits between the costliest
#: kept account and the lowest break-even.  Forcing
#: ``engine="symbolic"`` bypasses the ceiling.
SYMBOLIC_COST_CEILING = 16_000_000

def _cached_form(node: NodeProgram):
    """The tier-0 symbolic engine for ``node``, derived at most once.

    Returns ``("ok", engine)`` or ``("error", reason)``; both outcomes
    are memoized in the process-wide cache keyed by the node fingerprint
    alone — the derived form is symbolic in ``(params, P, proc)``, so one
    derivation answers every cell of a sweep.
    """
    from repro.numa.symbolic import (
        FORM_SCHEMA,
        SymbolicEngine,
        SymbolicUnsupported,
    )
    from repro.runtime.cache import node_fingerprint, shared_cache

    # FORM_SCHEMA in the key: an upgraded derivation/compilation schema
    # must never read a stale pre-upgrade engine from a shared store.
    key = node_fingerprint(node) + f"|symform:{FORM_SCHEMA}"

    def factory():
        try:
            return ("ok", SymbolicEngine(node))
        except SymbolicUnsupported as error:
            return ("error", str(error))

    return shared_cache().form(key, factory)


def _cached_kernel(node: NodeProgram, block_cache: bool):
    """The tier-2 accounting kernel for ``node``, compiled at most once.

    Returns ``("ok", kernel)`` or ``("error", CodegenError)``; both
    outcomes are memoized in the process-wide
    :class:`~repro.runtime.cache.SimulationCache` keyed by the node
    fingerprint, so a sweep compiles each distinct node program once.
    """
    from repro.codegen.pycodegen import compile_accounting
    from repro.errors import CodegenError
    from repro.runtime.cache import node_fingerprint, shared_cache

    key = node_fingerprint(node) + f"|kernel|bc={int(bool(block_cache))}"

    def factory():
        try:
            return ("ok", compile_accounting(node, block_cache=block_cache))
        except CodegenError as error:
            return ("error", error)

    return shared_cache().kernel(key, factory)


def _run_kernel(
    kernel, node: NodeProgram, env: Dict[str, int], processors: int,
    proc: int, block_cache: bool,
) -> AccessCounts:
    """Run the tier-2 kernel for one processor."""
    from repro.numa.counting import owned_elements

    program = node.program
    shapes = {decl.name: decl.shape(env) for decl in program.arrays}
    gathers = []
    for array in kernel.gather_arrays:
        shape = shapes[array]
        total = 1
        for extent in shape:
            total *= extent
        distribution = program.distributions[array]
        remote = total - owned_elements(distribution, shape, processors, proc)
        element_bytes = next(
            (d.element_bytes for d in program.arrays if d.name == array), 8
        )
        gathers.append(
            (min(processors - 1, remote), remote * element_bytes, remote)
        )
    cache = set() if block_cache else None
    return AccessCounts(*kernel(env, processors, proc, shapes, gathers, cache))


def simulate(
    node: NodeProgram,
    *,
    processors: int,
    params: Optional[Mapping[str, int]] = None,
    machine: Optional[MachineConfig] = None,
    mode: str = "account",
    arrays: Optional[Dict] = None,
    block_cache: bool = False,
    engine: str = "auto",
) -> SimulationResult:
    """Simulate a node program on ``processors`` processors.

    In ``execute`` mode, ``arrays`` must be provided; assignments are
    performed in place (processor by processor) so the caller can verify
    the parallel execution against the sequential program.

    ``block_cache=True`` models per-processor software caching of fetched
    block slices: a slice already transferred to this processor is not
    transferred again (communication hoisting across outer iterations) —
    an extension beyond the paper, exercised by the ABL7 ablation.

    ``engine`` picks the accounting tier: ``auto`` (default) uses the
    fastest tier that can handle the nest — the symbolic per-program form
    (:mod:`repro.numa.symbolic`, derived once per node program and then
    evaluated per cell), the closed-form multi-level engine
    (:mod:`repro.numa.counting`), the compiled accounting kernel
    (:func:`repro.codegen.pycodegen.compile_accounting`), or the
    interpreter walk.  Forcing ``symbolic``, ``closed-form`` or
    ``compiled`` raises a :class:`~repro.errors.SimulationError` when that
    tier cannot handle the nest; all tiers are bit-identical on every
    count (the tier equivalence tests and the fuzz oracle enforce this),
    so ``auto`` never changes results, only speed.  The chosen tier is
    reported as ``SimulationResult.engine``.
    """
    if engine not in ENGINES:
        choices = ", ".join(ENGINES)
        raise SimulationError(
            f"unknown engine {engine!r} (choose from: {choices})"
        )
    if mode not in ("account", "execute"):
        raise SimulationError(f"unknown mode {mode!r}")
    if mode == "execute" and arrays is None:
        raise SimulationError("execute mode requires arrays")
    if mode != "account" and engine in ("symbolic", "closed-form", "compiled"):
        raise SimulationError(
            f"engine {engine!r} only supports account mode; "
            "execute mode always uses the walk engine"
        )
    if processors <= 0:
        raise SimulationError("need at least one processor")
    machine = machine or butterfly_gp1000()

    symbolic = None
    closed = None
    kernel = None
    chosen = "walk"
    if mode == "account" and engine != "walk":
        if block_cache and engine in ("symbolic", "closed-form"):
            raise SimulationError(
                f"{engine} engine does not model the block cache; "
                "use the compiled or walk engine"
            )
        if not block_cache and engine in ("auto", "symbolic"):
            status, payload = _cached_form(node)
            if status == "ok":
                keep = engine == "symbolic" or (
                    payload.estimate_cost(
                        node.program.bound_params(params), processors
                    )
                    <= SYMBOLIC_COST_CEILING
                )
                if keep:
                    symbolic = payload
                    chosen = "symbolic"
            elif engine == "symbolic":
                raise SimulationError(
                    f"symbolic engine cannot handle this nest: {payload}"
                )
        if symbolic is None and not block_cache and engine in (
            "auto", "closed-form"
        ):
            from repro.numa.counting import (
                ClosedFormEngine,
                ClosedFormUnsupported,
            )

            try:
                closed = ClosedFormEngine(node)
                chosen = "closed-form"
            except ClosedFormUnsupported as error:
                if engine == "closed-form":
                    raise SimulationError(
                        f"closed-form engine cannot handle this nest: {error}"
                    )
        if symbolic is None and closed is None and engine in (
            "auto", "compiled"
        ):
            status, payload = _cached_kernel(node, block_cache)
            if status == "ok":
                kernel = payload
                chosen = "compiled"
            elif engine == "compiled":
                raise SimulationError(
                    f"compiled engine cannot handle this nest: {payload}"
                )

    per_proc: List[ProcessorResult] = []
    all_counts: List[AccessCounts] = []
    for proc in range(processors):
        env = node.program.bound_params(params)
        env[node.procs_param] = processors
        env[node.proc_param] = proc
        if symbolic is not None:
            all_counts.append(symbolic.account(env, processors, proc))
        elif closed is not None:
            all_counts.append(closed.account(env, processors, proc))
        elif kernel is not None:
            all_counts.append(
                _run_kernel(kernel, node, env, processors, proc, block_cache)
            )
        else:
            walker = _ProcWalker(
                node, env, processors, proc, mode, arrays,
                block_cache=block_cache,
            )
            all_counts.append(walker.run())

    multiplier = 1.0
    if machine.contention_coefficient > 0 and processors > 1:
        base_times = [_time_us(c, machine, 1.0) for c in all_counts]
        makespan = max(base_times) or 1.0
        remote_traffic = sum(
            c.remote * machine.remote_access_us
            + c.block_bytes * machine.block_per_byte_us
            for c in all_counts
        )
        utilization = remote_traffic / (processors * makespan)
        multiplier = 1.0 + machine.contention_coefficient * (processors - 1) * utilization

    for proc, counts in enumerate(all_counts):
        per_proc.append(
            ProcessorResult(
                proc=proc,
                counts=counts,
                time_us=_time_us(counts, machine, multiplier),
            )
        )
    return SimulationResult(
        node_name=node.program.name,
        processors=processors,
        machine=machine,
        per_proc=tuple(per_proc),
        remote_multiplier=multiplier,
        engine=chosen,
    )


#: The argument tuple of :func:`simulate_task`:
#: ``(node, processors, params, machine, mode, block_cache, engine)``.
SimulateTask = Tuple[
    NodeProgram, int, Optional[Mapping[str, int]], Optional[MachineConfig],
    str, bool, str,
]


def simulate_task(task: SimulateTask) -> SimulationResult:
    """Top-level, picklable entry point for one simulation cell.

    ``multiprocessing`` workers must import their target function, so the
    parallel sweep engine (:mod:`repro.runtime.executor`) ships cells as
    plain tuples of picklable dataclasses and calls this instead of a
    closure over :func:`simulate`.
    """
    node, processors, params, machine, mode, block_cache, engine = task
    return simulate(
        node,
        processors=processors,
        params=params,
        machine=machine,
        mode=mode,
        block_cache=block_cache,
        engine=engine,
    )


def sequential_time(
    node: NodeProgram,
    *,
    params: Optional[Mapping[str, int]] = None,
    machine: Optional[MachineConfig] = None,
) -> float:
    """The one-processor execution time of a node program (all local)."""
    return simulate(
        node, processors=1, params=params, machine=machine
    ).total_time_us
