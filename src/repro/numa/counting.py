"""Tier 1 of the accounting engine: whole-nest closed-form counting.

The interpreter walk (:class:`~repro.numa.simulator._ProcWalker`) visits
every iteration; its analytic fast path collapses only the innermost loop.
This module collapses *entire per-processor nests* into exact
:class:`~repro.numa.simulator.AccessCounts` by assigning each loop level a
strategy, chosen innermost-out at build time:

``inner``
    The innermost level.  Iterations, statements and per-reference
    local/remote splits over the loop's arithmetic progression come from
    the ownership counter the walk shares
    (:func:`~repro.numa.ownership.charge_innermost`) — O(refs) regardless
    of the trip count.

``const``
    No bound, subscript or block-read probe of any deeper level depends on
    this index: the inner accounting is computed once and multiplied by
    the trip count — O(1) per level.

``periodic``
    Deeper levels depend on this index only through wrapped (cyclic)
    ownership tests, whose outcome is periodic in the index value modulo
    the processor count: the progression splits into at most P residue
    classes (:func:`~repro.linalg.progression.residue_classes`), the inner
    accounting is evaluated once per class and scaled by the class size —
    O(P) instead of O(trips).

``segmented``
    The second-innermost level when every body reference is
    distribution-free and the innermost loop is a plain unit-step loop:
    the innermost trip count is a piecewise-affine function of this index
    (max-of-lowers / min-of-uppers), summed exactly per breakpoint segment
    as an arithmetic series — O(bounds^2) segments, independent of trips.

``enumerate``
    The general fallback: iterate this level's values and recurse (still
    benefiting from closed forms below).  Levels that deeper blocked or
    block-cyclic ownership tests depend on enumerate.

The engine is *bit-identical* to the interpreter walk on every counter for
programs inside its domain: affine integral bounds and subscripts, plain
assignment bodies, block-read prologues, and replicated, wrapped, blocked
or block-cyclic distributions (:func:`~repro.numa.ownership.owner_rule`).
Outside it (guarded bodies, multi-dimensional distributions, rational
bounds or subscripts, block caching) the constructor raises
:class:`ClosedFormUnsupported`, letting the simulator fall back to tier 2
(the compiled kernel) or tier 3 (the walk).  Like the walk's innermost
summary, ownership is computed from subscript values directly, so
out-of-range accesses that would make the walk's ``Distribution.owner``
raise are outside the shared domain (the static bounds pass guards it).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.codegen.spmd import NodeProgram
from repro.ir.stmt import Assign, BlockRead
from repro.linalg.progression import (
    affine_segment_starts,
    congruence_period,
    residue_classes,
    sum_affine_range,
)
from repro.numa.ownership import (
    Recipe,
    _CompiledLoop,
    _eval_floor,
    charge_innermost,
    gather_transfers,
    level_progression,
    owned_count,
    read_recipe,
    ref_recipe,
)
from repro.numa.simulator import AccessCounts


class ClosedFormUnsupported(Exception):
    """The nest falls outside the closed-form engine's domain."""


def _require_integral(expr, what: str) -> None:
    if not expr.is_integral():
        raise ClosedFormUnsupported(f"rational {what} '{expr}'")


class ClosedFormEngine:
    """Accounts a whole per-processor nest in closed form (tier 1).

    Build once per node program (the analysis is structural); then call
    :meth:`account` once per processor.  Raises
    :class:`ClosedFormUnsupported` from the constructor when any feature
    of the nest needs enumeration or guard evaluation.
    """

    def __init__(self, node: NodeProgram):
        nest = node.nest
        if nest.depth == 0:
            raise ClosedFormUnsupported("empty loop nest")
        if node.schedule not in ("wrapped", "blocked", "all"):
            raise ClosedFormUnsupported(f"unknown schedule {node.schedule!r}")
        self.node = node
        self.nest = nest
        program = node.program
        self.decls = {decl.name: decl for decl in program.arrays}
        self.element_bytes = {
            decl.name: decl.element_bytes for decl in program.arrays
        }
        self.distributions = program.distributions
        ref_classes = {
            (info.ref, info.is_write): info.ref_class for info in node.plan.refs
        }
        indices = nest.indices

        self.compiled: List[_CompiledLoop] = []
        for loop in nest.loops:
            exprs = list(loop.lower) + list(loop.upper)
            if loop.align is not None:
                exprs.append(loop.align)
            for expr in exprs:
                _require_integral(expr, f"bound of loop {loop.index}")
            self.compiled.append(_CompiledLoop(loop))

        self.body_len = len(nest.body)
        self.refs: List[Recipe] = []
        for statement in nest.body:
            if not isinstance(statement, Assign):
                raise ClosedFormUnsupported(
                    f"body statement {type(statement).__name__} needs "
                    "guard/read evaluation"
                )
            for ref, is_write in statement.array_refs():
                recipe = ref_recipe(
                    ref, is_write, ref_classes, self.distributions, indices[-1]
                )
                self.refs.append(self._counted(
                    recipe, f"reference {ref}", f"subscript of {ref.array!r}"
                ))

        self.reads: List[List[Recipe]] = []
        for level, loop in enumerate(nest.loops):
            recipes = []
            for statement in loop.prologue:
                if not isinstance(statement, BlockRead):
                    raise ClosedFormUnsupported(
                        f"prologue statement {type(statement).__name__} "
                        "is not a block read"
                    )
                recipes.append(self._read_recipe(statement, level, indices))
            self.reads.append(recipes)

        self.strategies = self._choose_strategies(indices)

    # ------------------------------------------------------------------
    # build-time analysis
    # ------------------------------------------------------------------
    def _read_recipe(self, statement: BlockRead, level: int, indices) -> Recipe:
        array = statement.array
        if array not in self.decls:
            raise ClosedFormUnsupported(f"array {array!r} has no declared shape")
        read = self._counted(
            read_recipe(statement, self.distributions, indices[level]),
            f"block read of {array!r}", f"block-read probe of {array!r}",
        )
        for deeper in indices[level + 1:]:
            if read.subscript is not None and read.subscript.coeff(deeper):
                raise ClosedFormUnsupported(
                    f"block-read probe of {array!r} uses inner index "
                    f"{deeper!r}"
                )
        return read

    def _counted(self, recipe: Recipe, what: str, subscript: str) -> Recipe:
        """``recipe``, when the shared counter can count it exactly."""
        if recipe.kind == "enumerate":
            raise ClosedFormUnsupported(
                f"{what} under '{self.distributions[recipe.array].describe()}' "
                "needs owner enumeration"
            )
        if recipe.subscript is not None:
            _require_integral(recipe.subscript, subscript)
        return recipe

    def _choose_strategies(self, indices) -> List[Tuple]:
        depth = self.nest.depth
        loops = self.nest.loops
        strategies: List[Tuple] = []
        all_free = all(recipe.kind == "free" for recipe in self.refs)
        for level in range(depth):
            if level == depth - 1:
                strategies.append(("inner",))
                continue
            name = indices[level]
            bounds_dep = False
            for m in range(level + 1, depth):
                exprs = list(loops[m].lower) + list(loops[m].upper)
                if loops[m].align is not None:
                    exprs.append(loops[m].align)
                if any(expr.coeff(name) != 0 for expr in exprs):
                    bounds_dep = True
                    break
            # Wrapped ownership is periodic in this index; blocked and
            # block-cyclic ownership make the level enumerate.
            wrapped_coeffs: List[int] = []
            blocked_dep = False
            deeper_reads = [read for m in range(level + 1, depth) for read in self.reads[m]]
            for recipe in self.refs + deeper_reads:
                if recipe.subscript is None or not recipe.subscript.coeff(name):
                    continue
                if recipe.kind == "wrapped":
                    wrapped_coeffs.append(int(recipe.subscript.coeff(name)))
                else:
                    blocked_dep = True
            if not bounds_dep and not wrapped_coeffs and not blocked_dep:
                strategies.append(("const",))
            elif not bounds_dep and not blocked_dep:
                strategies.append(("periodic", tuple(wrapped_coeffs)))
            elif (
                level == depth - 2
                and all_free
                and not self.nest.loops[depth - 1].prologue
                and loops[depth - 1].step == 1
                and loops[depth - 1].align is None
            ):
                strategies.append(("segmented",))
            else:
                strategies.append(("enumerate",))
        return strategies

    def describe_strategies(self) -> Tuple[str, ...]:
        """The per-level strategy names, outermost first (for tests/docs)."""
        return tuple(strategy[0] for strategy in self.strategies)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def account(self, env: Dict[str, int], processors: int, proc: int) -> AccessCounts:
        """Exact counts for one processor — never iterates the nest."""
        counts = AccessCounts()
        shapes = {name: decl.shape(env) for name, decl in self.decls.items()}
        self._level(0, env, processors, proc, shapes, counts)
        return counts

    def _level(self, level, env, processors, proc, shapes, counts) -> None:
        progression = level_progression(
            self.compiled[level], env,
            self.node.schedule if level == 0 else "all", processors, proc,
        )
        if level == 0 and self.node.sync_per_outer_iteration:
            counts.syncs += self.node.sync_per_outer_iteration * progression.trips
        for read in self.reads[level]:
            self._charge_read(
                read, progression, env, processors, proc, shapes, counts
            )
        if progression.trips == 0:
            return
        strategy = self.strategies[level]
        kind = strategy[0]
        if kind == "inner":
            # The walk clamps a blocked owner's interval in its innermost
            # summary (depth > 1), not in its depth-1 enumeration.
            charge_innermost(
                self.refs, self.body_len, progression, env, processors, proc,
                shapes, clamp=self.nest.depth > 1, counts=counts,
            )
            return
        index = self.nest.loops[level].index
        if kind == "const":
            inner = AccessCounts()
            env[index] = progression.first
            self._level(level + 1, env, processors, proc, shapes, inner)
            del env[index]
            _accumulate(counts, inner, progression.trips)
        elif kind == "periodic":
            period = congruence_period(
                processors, *(c * progression.step for c in strategy[1])
            )
            for value, size in residue_classes(progression, period):
                inner = AccessCounts()
                env[index] = value
                self._level(level + 1, env, processors, proc, shapes, inner)
                _accumulate(counts, inner, size)
            del env[index]
        elif kind == "segmented":
            self._segmented(level, progression, env, counts)
        else:  # enumerate
            value = progression.first
            for _ in range(progression.trips):
                env[index] = value
                self._level(level + 1, env, processors, proc, shapes, counts)
                value += progression.step
            del env[index]

    def _charge_read(
        self, read, progression, env, processors, proc, shapes, counts
    ) -> None:
        if read.kind == "free" or progression.trips == 0:
            return
        shape = shapes[read.array]
        if read.kind == "gather":
            messages, num_bytes = gather_transfers(
                self.distributions[read.array], shape,
                self.element_bytes.get(read.array, 8), processors, proc,
            )
            counts.block_transfers += messages * progression.trips
            counts.block_bytes += num_bytes * progression.trips
            return
        elements = 1
        for dim, entry in enumerate(read.pattern):
            if entry is None:
                elements *= shape[dim]
        num_bytes = elements * self.element_bytes.get(read.array, 8)
        local = owned_count(
            read, _eval_floor(read.rest, env), progression, processors, proc,
            shapes, clamp=False,
        )
        fetches = progression.trips - local
        counts.block_transfers += fetches
        counts.block_bytes += fetches * num_bytes

    def _segmented(self, level, progression, env, counts) -> None:
        """Sum the innermost trip count over this level as affine segments."""
        inner = self.compiled[level + 1]
        index = self.nest.loops[level].index
        first, step = progression.first, progression.step

        def _as_position_affine(compiled_bound):
            pairs, _den, const = compiled_bound  # den == 1 by precondition
            slope_x = 0
            base = const
            for name, coeff in pairs:
                if name == index:
                    slope_x += coeff
                else:
                    base += coeff * env[name]
            return (slope_x * step, slope_x * first + base)

        lowers = [_as_position_affine(c) for c in inner.lowers]
        uppers = [_as_position_affine(c) for c in inner.uppers]
        differences = []
        for i in range(len(lowers)):
            for j in range(i + 1, len(lowers)):
                differences.append(
                    (lowers[i][0] - lowers[j][0], lowers[i][1] - lowers[j][1])
                )
        for i in range(len(uppers)):
            for j in range(i + 1, len(uppers)):
                differences.append(
                    (uppers[i][0] - uppers[j][0], uppers[i][1] - uppers[j][1])
                )
        for ls, li in lowers:
            for us, ui in uppers:
                differences.append((us - ls, ui - li + 1))
        starts = affine_segment_starts(differences, progression.trips)
        n_refs = len(self.refs)
        for k, start in enumerate(starts):
            end = (
                starts[k + 1] - 1 if k + 1 < len(starts)
                else progression.trips - 1
            )
            low = max(lowers, key=lambda f: f[0] * start + f[1])
            high = min(uppers, key=lambda f: f[0] * start + f[1])
            slope = high[0] - low[0]
            intercept = high[1] - low[1] + 1
            if slope * start + intercept <= 0:
                continue
            total = sum_affine_range(slope, intercept, start, end)
            counts.iterations += total
            counts.statements += total * self.body_len
            counts.local += total * n_refs


def _accumulate(counts: AccessCounts, inner: AccessCounts, factor: int) -> None:
    counts.local += inner.local * factor
    counts.remote += inner.remote * factor
    counts.block_transfers += inner.block_transfers * factor
    counts.block_bytes += inner.block_bytes * factor
    counts.guards += inner.guards * factor
    counts.statements += inner.statements * factor
    counts.iterations += inner.iterations * factor
    counts.syncs += inner.syncs * factor
