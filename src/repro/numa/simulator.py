"""The NUMA machine simulator.

Runs a generated node program on ``P`` simulated processors and accounts
every memory event against a :class:`~repro.numa.machine.MachineConfig`:
local accesses, remote accesses (exact owners computed from the data
distributions), block transfers (startup + per-byte), ownership guards and
statement execution.  The paper's speedup figures are ratios of exactly
these quantities.

Two modes:

* ``account`` (default) — cost accounting only, never touches array data.
  The innermost loop is summarized analytically where possible by the
  ownership counter the closed-form engine shares
  (:mod:`repro.numa.ownership`: owned counts along an arithmetic
  progression are congruence, interval or floor-sum counts), making
  whole-figure sweeps at paper scale (400x400 GEMM) tractable.
* ``execute`` — additionally performs the assignments on real arrays so the
  parallel execution can be checked against the sequential program.
  Processors are simulated one after another; this is faithful for node
  programs whose distributed outer loop carries no dependence (which is
  what access normalization establishes for the paper's workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.codegen.locality import RefClass
from repro.codegen.spmd import NodeProgram
from repro.distributions.base import Distribution
from repro.errors import SimulationError
from repro.ir.interp import evaluate_scalar
from repro.ir.scalar import ArrayRef
from repro.ir.stmt import Assign, BlockRead, IfThen, Statement
from repro.numa.machine import MachineConfig, butterfly_gp1000
from repro.numa.ownership import (
    _compile_affine,
    _CompiledLoop,
    _eval_exact,
    charge_innermost,
    gather_transfers,
    level_progression,
    owner_rule,
    ref_recipe,
)


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
class TierSkip:
    """A faster accounting tier that :func:`choose_tier` passed over.

    ``reason`` is ``unsupported`` (the tier's artifact cannot be built
    for this nest; ``detail`` is the builder's message),
    ``cost-ceiling`` (the symbolic form's estimated per-processor cost
    exceeds :data:`SYMBOLIC_COST_CEILING`; ``detail`` is that estimate)
    or ``block-cache`` (the tier does not model the block cache).
    """

    tier: str
    reason: str
    detail: Union[str, int] = ""


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
    #: The faster tiers ``auto`` passed over, and why (counted as
    #: ``sim.skip.<tier>.<reason>``); not in :meth:`to_dict`.
    skips: Tuple[TierSkip, ...] = field(default=(), compare=False)

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
        self._compiled = [_CompiledLoop(loop) for loop in self.nest.loops]
        # Recipes of the innermost references when the shared counter can
        # charge the innermost loop in one step; None: enumerate it.
        self._inner = None
        loops = self.nest.loops
        if (
            mode == "account"
            and len(loops) > 1
            and not loops[-1].prologue
            and all(isinstance(s, Assign) for s in self.nest.body)
        ):
            recipes = [
                ref_recipe(
                    ref, is_write, self.ref_classes, self.distributions,
                    loops[-1].index,
                )
                for statement in self.nest.body
                for ref, is_write in statement.array_refs()
            ]
            if all(r.kind == "free" or r.slope is not None for r in recipes):
                self._inner = recipes
        self._fast_body = [self._compile_statement(s) for s in self.nest.body]
        self._fast_prologue = [
            [self._compile_statement(s) for s in loop.prologue]
            for loop in self.nest.loops
        ]

    # ------------------------------------------------------------------
    # compiled per-iteration execution
    # ------------------------------------------------------------------
    def _compile_charge(self, ref: ArrayRef, is_write: bool):
        """A closure charging one access of ``ref`` under the current env."""
        counts = self.counts
        rc = self.ref_classes.get((ref, is_write), RefClass.CHECK)
        kind, dim, _ = owner_rule(self.distributions.get(ref.array))
        if kind == "free" or rc in (RefClass.LOCAL, RefClass.COVERED):
            def charge_local(env):
                counts.local += 1
            return charge_local
        if kind in ("wrapped", "blocked"):
            subscript = ref.subscripts[dim]
            compiled = _compile_affine(subscript)
            error = (
                f"non-integral subscript '{subscript}' of array "
                f"{ref.array!r} in {kind} ownership test"
            )
            cap, proc = self.P, self.p
            wrapped = kind == "wrapped"
            if not wrapped:
                block = -(-self.shapes[ref.array][dim] // cap)
                low, high = proc * block, (proc + 1) * block - 1

            def charge_counted(env):
                value = _eval_exact(compiled, env)
                if value is None:
                    raise SimulationError(error)
                if value % cap == proc if wrapped else low <= value <= high:
                    counts.local += 1
                else:
                    counts.remote += 1
            return charge_counted

        distribution = self.distributions[ref.array]

        def charge_generic(env):
            shape = self.shapes.get(ref.array)
            if shape is None:
                raise SimulationError(f"array {ref.array!r} has no declared shape")
            owner = distribution.owner(ref.index_tuple(env), self.P, shape)
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
            cache = self.block_cache
            dist_dims = set(distribution.distribution_dims())
            if all(statement.pattern[d] is None for d in dist_dims):
                # Whole-array gather: the distribution dimensions are
                # wildcards, so the slice spans every owner.  Locally owned
                # elements stay put; the rest arrive with one bulk message
                # per remote owner.
                messages, gather_bytes = gather_transfers(
                    distribution, shape,
                    self.element_bytes.get(statement.array, 8), self.P, self.p,
                )
                gathered = (statement.array, "gather")

                def run_gather(env):
                    if not (messages or gather_bytes):
                        return
                    if cache is not None:
                        if gathered in cache:
                            return
                        cache.add(gathered)
                    counts.block_transfers += messages
                    counts.block_bytes += gather_bytes
                return run_gather
            compiled_probe = [
                _compile_affine(entry) if entry is not None else None
                for entry in statement.pattern
            ]
            cap, proc = self.P, self.p
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

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------
    def run(self) -> AccessCounts:
        self._walk(0)
        return self.counts

    def _walk(self, level: int) -> None:
        nest = self.nest
        env = self.env
        if level == nest.depth:
            self.counts.iterations += 1
            for run in self._fast_body:
                run(env)
            return
        progression = level_progression(
            self._compiled[level], env,
            self.node.schedule if level == 0 else "all", self.P, self.p,
        )
        if level == nest.depth - 1 and self._inner is not None and (
            charge_innermost(
                self._inner, len(nest.body), progression, env, self.P,
                self.p, self.shapes, clamp=True, counts=self.counts,
            )
        ):
            return
        index = nest.loops[level].index
        prologue = self._fast_prologue[level]
        sync_events = self.node.sync_per_outer_iteration if level == 0 else 0
        for value in progression.values():
            env[index] = value
            if sync_events:
                self.counts.syncs += sync_events
            for run in prologue:
                run(env)
            self._walk(level + 1)
        env.pop(index, None)


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

def node_artifact(
    kind: str,
    node: NodeProgram,
    *,
    block_cache: bool = False,
    fingerprint: Optional[str] = None,
) -> Tuple[str, object]:
    """One accounting artifact of ``node``, built at most once.

    ``kind`` is ``closed`` (the tier-1
    :class:`~repro.numa.counting.ClosedFormEngine`), ``form`` (the tier-0
    :class:`~repro.numa.symbolic.SymbolicEngine`, derived on the
    ``closed`` artifact) or ``kernel`` (the tier-2 accounting kernel
    for ``block_cache``).  Returns ``("ok", artifact)`` or ``("error",
    reason)``, memoized in the process-wide
    :class:`~repro.runtime.cache.SimulationCache` by node fingerprint.
    """
    from repro.runtime.cache import node_fingerprint, shared_cache

    fingerprint = fingerprint or node_fingerprint(node)
    if kind == "closed":
        from repro.numa.counting import ClosedFormEngine, ClosedFormUnsupported

        key, failure = fingerprint, ClosedFormUnsupported

        def build():
            return ClosedFormEngine(node)
    elif kind == "form":
        from repro.numa.symbolic import (
            FORM_SCHEMA,
            SymbolicEngine,
            SymbolicUnsupported,
        )

        key, failure = fingerprint + f"|symform:{FORM_SCHEMA}", SymbolicUnsupported

        def build():
            status, base = node_artifact("closed", node, fingerprint=fingerprint)
            if status != "ok":
                raise SymbolicUnsupported(base)
            return SymbolicEngine(node, base=base)
    elif kind == "kernel":
        from repro.codegen.pycodegen import compile_accounting
        from repro.errors import CodegenError

        key, failure = fingerprint + f"|bc={int(bool(block_cache))}", CodegenError

        def build():
            return compile_accounting(node, block_cache=block_cache)

    def factory():
        try:
            return ("ok", build())
        except failure as error:
            return ("error", str(error))

    return shared_cache().artifact(kind, key, factory)


def _run_kernel(
    kernel, node: NodeProgram, block_cache: bool, env: Dict[str, int],
    processors: int, proc: int,
) -> AccessCounts:
    """Run the tier-2 kernel for one processor."""
    program = node.program
    shapes = {decl.name: decl.shape(env) for decl in program.arrays}
    gathers = []
    for array in kernel.gather_arrays:
        element_bytes = next(
            (d.element_bytes for d in program.arrays if d.name == array), 8
        )
        messages, size = gather_transfers(
            program.distributions[array], shapes[array], element_bytes,
            processors, proc,
        )
        gathers.append((messages, size, size // element_bytes))
    cache = set() if block_cache else None
    return AccessCounts(*kernel(env, processors, proc, shapes, gathers, cache))


@dataclass(frozen=True)
class TierChoice:
    """The tier serving one cell: ``account(env, processors, proc)``
    gives one processor's counts, ``skips`` the faster tiers passed over."""

    tier: str
    account: Callable[[Dict[str, int], int, int], AccessCounts]
    skips: Tuple[TierSkip, ...] = ()


#: The tiers faster than the walk, fastest first, with their artifacts.
_FAST_TIERS = (("symbolic", "form"), ("closed-form", "closed"), ("compiled", "kernel"))


def choose_tier(
    node: NodeProgram,
    *,
    processors: int,
    params: Optional[Mapping[str, int]],
    engine: str,
    mode: str,
    block_cache: bool,
    arrays: Optional[Dict] = None,
) -> TierChoice:
    """Decide which accounting tier serves one cell, and why.

    ``auto`` takes the fastest tier that can serve the cell — the
    symbolic per-program form (:mod:`repro.numa.symbolic`) unless its
    estimated cost here exceeds :data:`SYMBOLIC_COST_CEILING`, the
    closed-form engine (:mod:`repro.numa.counting`), the compiled kernel
    (:func:`repro.codegen.pycodegen.compile_accounting`), the walk — and
    records a :class:`TierSkip` for each tier it passes over.  Only the
    kernel and the walk model the block cache; execute mode always walks
    (on ``arrays``).  A forced tier that cannot serve the cell raises
    :class:`~repro.errors.SimulationError`.
    """
    forced = engine in dict(_FAST_TIERS)
    if mode != "account" and forced:
        raise SimulationError(
            f"engine {engine!r} only supports account mode; "
            "execute mode always uses the walk engine"
        )
    if block_cache and engine in ("symbolic", "closed-form"):
        raise SimulationError(
            f"{engine} engine does not model the block cache; "
            "use the compiled or walk engine"
        )

    def walk(env: Dict[str, int], processors: int, proc: int) -> AccessCounts:
        return _ProcWalker(
            node, env, processors, proc, mode, arrays, block_cache=block_cache
        ).run()

    if mode != "account" or engine == "walk":
        return TierChoice("walk", walk)
    from repro.runtime.cache import node_fingerprint

    fingerprint = node_fingerprint(node)
    skips: List[TierSkip] = []
    for tier, kind in _FAST_TIERS:
        if engine not in ("auto", tier):
            continue
        if block_cache and tier != "compiled":
            skips.append(TierSkip(tier, "block-cache"))
            continue
        status, artifact = node_artifact(
            kind, node, block_cache=block_cache, fingerprint=fingerprint
        )
        if status != "ok":
            if forced:
                raise SimulationError(
                    f"{tier} engine cannot handle this nest: {artifact}"
                )
            skips.append(TierSkip(tier, "unsupported", artifact))
            continue
        if tier == "symbolic" and not forced:
            cost = artifact.estimate_cost(
                node.program.bound_params(params), processors
            )
            if cost > SYMBOLIC_COST_CEILING:
                skips.append(TierSkip(tier, "cost-ceiling", cost))
                continue
        if tier == "compiled":
            account = partial(_run_kernel, artifact, node, block_cache)
        else:
            account = artifact.account
        return TierChoice(tier, account, tuple(skips))
    return TierChoice("walk", walk, tuple(skips))


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

    ``engine`` picks the accounting tier (see :func:`choose_tier`);
    all tiers are bit-identical on every count (the tier equivalence
    tests and the fuzz oracle enforce this), so ``auto`` never changes
    results, only speed.  The chosen tier is reported as
    ``SimulationResult.engine``, the tiers ``auto`` skipped as
    ``SimulationResult.skips``.
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
    if processors <= 0:
        raise SimulationError("need at least one processor")
    machine = machine or butterfly_gp1000()
    choice = choose_tier(
        node, processors=processors, params=params, engine=engine,
        mode=mode, block_cache=block_cache, arrays=arrays,
    )

    all_counts: List[AccessCounts] = []
    for proc in range(processors):
        env = node.program.bound_params(params)
        env[node.procs_param] = processors
        env[node.proc_param] = proc
        all_counts.append(choice.account(env, processors, proc))

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

    per_proc = tuple(
        ProcessorResult(
            proc=proc, counts=counts,
            time_us=_time_us(counts, machine, multiplier),
        )
        for proc, counts in enumerate(all_counts)
    )
    return SimulationResult(
        node_name=node.program.name,
        processors=processors,
        machine=machine,
        per_proc=per_proc,
        remote_multiplier=multiplier,
        engine=choice.tier,
        skips=choice.skips,
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
