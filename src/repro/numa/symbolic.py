"""Tier 0 of the accounting engine: per-program symbolic count forms.

The closed-form engine (:mod:`repro.numa.counting`) collapses a nest into
exact counts, but re-derives them for every concrete ``(params, P, proc)``
cell.  This module derives each :class:`~repro.numa.simulator.AccessCounts`
field *once per node program* as a :class:`~repro.linalg.sympoly.SymExpr`
over the program parameters, the processor count and the processor id —
after which every sweep cell is a single compiled-form evaluation.

The derivation deliberately reuses the closed-form engine's build-time
analysis (bound compilation, reference/read recipes, domain checks) and
derives the integral, non-block-cyclic part of its domain
(:func:`unsupported_reason`), then replaces its
per-level strategy dispatch with a uniform innermost-out symbolic
summation: each loop level contributes ``value = first + stride * t`` for
``t in [0, trips)``, ownership tests become ``Mod``/``Ge0`` indicator
atoms, and :func:`~repro.linalg.sympoly.sym_sum` eliminates one level at a
time.  The substitution order matters: each level is summed with its
enclosing indices still symbolic, and the enclosing level's value is
substituted only when that level itself is summed — substituting early
threads schedule atoms (``Mod(p, P)`` etc.) through every inner split and
blows the form up combinatorially.

Nests whose derivation leaves the summable fragment raise
:class:`~repro.linalg.sympoly.SymbolicUnsupported`; the simulator treats
that as "fall down the engine ladder" to the closed-form tier, never as an
error.  Within its domain the engine is bit-identical to the interpreter
walk on every count — including subscripts past a blocked array's
extent, which every tier counts by ``Blocked.owner``'s ``v // block``
rule (see :func:`~repro.numa.ownership.owned_count`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.spmd import NodeProgram
from repro.linalg.sympoly import (
    SymExpr,
    SymbolicUnsupported,
    bounded_sum,
    compile_account,
    const,
    eq0,
    eval_cost,
    floordiv,
    fresh_name,
    ge0,
    mod,
    planned_cost,
    pos,
    smax,
    smin,
    sym,
    sym_sum,
)
from repro.numa.counting import ClosedFormEngine, ClosedFormUnsupported
from repro.numa.ownership import owner_rule
from repro.numa.simulator import AccessCounts

__all__ = ["SymbolicEngine", "SymbolicUnsupported", "FIELDS", "FORM_SCHEMA"]

#: Version of the derivation + compilation schema.  Cached artifacts
#: keyed off a node fingerprint (the ``form`` and ``cert`` artifacts
#: of :meth:`~repro.runtime.cache.SimulationCache.artifact`) embed
#: this so an upgraded derivation — new splits, new evaluator shapes —
#: never reads a stale pre-upgrade entry from a shared store.  Bump it
#: whenever the derived forms or their compiled evaluators change shape.
FORM_SCHEMA = 3

#: ``sym_sum`` work (``1 + term_count`` per call, recursive splits
#: included) allowed per level elimination before falling back to an
#: explicit loop — the one limit on derivation.  Multi-armed
#: ``smax``/``smin`` bounds (e.g. SYR2K's skewed band) make range
#: splitting exponential; past the budget the level is kept as a
#: :class:`~repro.linalg.sympoly.BoundedSum`, which the compiled form
#: runs as a real loop — O(extent) for that level instead of O(1), still
#: exact and still derive-once per program.
_LEVEL_SUM_BUDGET = 600

#: A closed form replacing a loop only pays off while it is cheaper to
#: *evaluate* than the loop it replaced.  The comparison uses
#: :func:`~repro.linalg.sympoly.eval_cost` under a nominal machine size —
#: ``P`` processors, ``_NOMINAL_EXTENT`` iterations for any bound the
#: nominal environment cannot settle (program parameters stay symbolic
#: here).
_NOMINAL_PROCS = 32
_NOMINAL_EXTENT = 64

#: The AccessCounts fields, in declaration order.
FIELDS = (
    "local",
    "remote",
    "block_transfers",
    "block_bytes",
    "guards",
    "statements",
    "iterations",
    "syncs",
)


def _from_compiled(compiled) -> SymExpr:
    """A ``_compile_affine`` triple as a SymExpr (integral by
    :func:`unsupported_reason`)."""
    pairs, den, c = compiled
    if den != 1:  # pragma: no cover - unsupported_reason rejects these
        raise SymbolicUnsupported("rational affine expression")
    total = const(c)
    for name, coeff in pairs:
        total = total + coeff * sym(name)
    return total


def _from_affine(expr) -> SymExpr:
    """An :class:`~repro.ir.affine.AffineExpr` as a SymExpr."""
    total = const(expr.const)
    for name, coeff in expr.coeffs.items():
        total = total + coeff * sym(name)
    return total


def unsupported_reason(base: ClosedFormEngine) -> Optional[str]:
    """Why a nest tier 1 accepts has no symbolic form (None: derive);
    tier 0 derives integral, non-block-cyclic nests only."""
    for loop in base.nest.loops:
        for expr in (*loop.lower, *loop.upper, loop.align):
            if expr is not None and not expr.is_integral():
                return f"rational bound of loop {loop.index} '{expr}'"
    recipes = base.refs + [r for reads in base.reads for r in reads]
    for recipe in recipes:
        if recipe.subscript is not None and not recipe.subscript.is_integral():
            what = "subscript" if recipe.pattern is None else "block-read probe"
            return f"rational {what} of {recipe.array!r} '{recipe.subscript}'"
    for recipe in recipes:
        kind = recipe.kind
        if kind == "gather":
            kind = owner_rule(base.distributions[recipe.array])[0]
        if kind == "block-cyclic":
            return (
                f"block-cyclic ownership of {recipe.array!r} has no "
                "symbolic form"
            )
    return None


class SymbolicEngine:
    """Derive-once symbolic accounting for a node program (tier 0).

    Build once per node program — the constructor runs the full symbolic
    derivation and compiles one fused evaluator for all count fields —
    then call :meth:`account` once per ``(params, P, proc)`` cell.  Raises
    :class:`SymbolicUnsupported` from the constructor when the nest (or
    its derivation) falls outside the symbolic fragment.  ``base`` is
    the node's closed-form engine when the caller already built it.
    """

    def __init__(self, node: NodeProgram, base: Optional[ClosedFormEngine] = None):
        try:
            base = base or ClosedFormEngine(node)
        except ClosedFormUnsupported as error:
            raise SymbolicUnsupported(str(error))
        reason = unsupported_reason(base)
        if reason is not None:
            raise SymbolicUnsupported(reason)
        self.node = node
        self.base = base
        self.procs_name = node.procs_param
        self.proc_name = node.proc_param
        taken = set(node.nest.indices) | set(node.program.params)
        if self.procs_name in taken or self.proc_name in taken:
            raise SymbolicUnsupported(
                "processor symbols shadow program names"
            )
        self._hint = self._make_hint(
            {self.procs_name: _NOMINAL_PROCS, self.proc_name: 0}
        )
        self.forms: Dict[str, SymExpr] = self._derive()
        # One fused evaluator for all fields: sums sharing a summation
        # level run in one loop and shared atoms evaluate once.  The
        # identity snapshot lets evaluator() detect callers that rebind
        # ``self.forms`` entries (certification injects defective forms
        # this way) and recompile, so it never serves a stale
        # pre-mutation evaluator.
        self._account = compile_account(self.forms)
        self._account_forms = tuple(self.forms.values())

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def _sym_progression(self, level: int) -> Tuple[SymExpr, SymExpr, SymExpr]:
        """``(first, stride, trips)`` of one level, outer indices symbolic.

        ``trips`` is the *raw* trip expression (may be negative where the
        loop body is empty); :func:`sym_sum` clamps it, and multiplicative
        uses wrap it in ``pos``.
        """
        compiled = self.base.compiled[level]
        P = sym(self.procs_name)
        p = sym(self.proc_name)
        low = None
        for bound in compiled.lowers:
            expr = _from_compiled(bound)
            low = expr if low is None else smax(low, expr)
        high = None
        for bound in compiled.uppers:
            expr = _from_compiled(bound)
            high = expr if high is None else smin(high, expr)
        step = compiled.step
        first = low
        if compiled.align is not None:
            offset = _from_compiled(compiled.align)
            first = low + mod(offset - low, step)
        if level > 0 or self.node.schedule == "all":
            return first, const(step), floordiv(high - first, step) + 1
        if self.node.schedule == "wrapped":
            if step == 1:
                # Value-based round robin: start at the first value
                # congruent to the processor id.
                start = first + mod(p - first, P)
                return start, P, floordiv(high - start, P) + 1
            start = first + step * p
            stride = step * P
            return start, stride, floordiv(high - start, stride) + 1
        # blocked: contiguous position ranges
        total = pos(floordiv(high - first, step) + 1)
        block = floordiv(total + P - 1, P)
        start_pos = p * block
        count = smin(total, (p + 1) * block) - start_pos
        return first + step * start_pos, const(step), count

    @staticmethod
    def _make_hint(env: Dict[str, int]):
        """An ``eval_cost`` extent hint: evaluate the bound under ``env``,
        falling back to a nominal extent when the bound mentions symbols
        the environment does not settle (loop variables of enclosing
        ``BoundedSum`` levels, or — for the derive-time nominal hint —
        program parameters)."""

        def hint(bound: SymExpr) -> int:
            try:
                return bound.evaluate(env)
            except (KeyError, ValueError, SymbolicUnsupported):
                return _NOMINAL_EXTENT

        return hint

    def _sum(
        self, body: SymExpr, var: str, trips: SymExpr, positive: frozenset
    ) -> SymExpr:
        """Eliminate one level: closed form, or an explicit loop.

        Closed-form elimination is exponential in the number of
        ``smax``/``smin`` bound arms; when it exceeds the budget (or the
        fragment), the level stays a ``BoundedSum`` — definitionally the
        same sum, evaluated by the compiled form as a loop.

        A closed form that *can* be derived is kept only when it is
        estimated cheaper to evaluate than the loop it replaces.  Range
        splitting on symbolic ``P`` can trade an O(trips) loop for a
        residue ``BoundedSum`` over ``P`` with a body hundreds of terms
        wide — symbolically "closed", practically slower — so the keep
        rule compares :func:`eval_cost` under the nominal hint instead
        of raw term counts.
        """
        try:
            result = sym_sum(body, var, trips, [_LEVEL_SUM_BUDGET], positive)
        except SymbolicUnsupported:
            return bounded_sum(var, trips, body)
        loop_cost = max(0, self._hint(trips)) * (
            1 + eval_cost(body, self._hint)
        )
        if eval_cost(result, self._hint) > loop_cost:
            return bounded_sum(var, trips, body)
        return result

    def _count_wrapped(self, c: SymExpr, s, trips: SymExpr):
        """``#{t in [0, max(0, trips)) : c + s*t ≡ 0 (mod P)}`` directly.

        The symbolic mirror of the walk's innermost progression count:
        ``c`` and ``trips`` stay opaque (they may hold smax/smin atoms),
        so no case analysis is needed.  ``None`` when no rule applies.
        """
        P = sym(self.procs_name)
        s = SymExpr._coerce(s)
        if not s.subs(self.procs_name, const(0))._terms:
            # The step is 0 or a multiple of P: the residue never moves.
            return eq0(mod(c, P)) * pos(trips)
        if not s.is_const():
            return None
        slope = int(s.const_value())  # integral: tier 0's domain
        if slope == 1:
            t0 = mod(-c, P)
        elif slope == -1:
            t0 = mod(c, P)
        else:
            # gcd(|s|, P) with P symbolic: leave to the split machinery.
            return None
        return pos(floordiv(trips - 1 - t0, P) + 1)

    def _count_blocked(
        self, c: SymExpr, s, trips: SymExpr, low: SymExpr, high: SymExpr
    ):
        """``#{t in [0, max(0, trips)) : low <= c + s*t <= high}`` directly."""
        s = SymExpr._coerce(s)
        if not s.is_const():
            return None
        slope = int(s.const_value())  # integral: tier 0's domain
        if slope == 0:
            return ge0(c - low) * ge0(high - c) * pos(trips)
        if slope > 0:
            lo_t = -floordiv(c - low, slope)
            hi_t = floordiv(high - c, slope)
        else:
            lo_t = -floordiv(high - c, -slope)
            hi_t = floordiv(c - low, -slope)
        return pos(smin(trips - 1, hi_t) - smax(const(0), lo_t) + 1)

    def _owned(self, distribution, shape: Tuple[SymExpr, ...]) -> SymExpr:
        """Symbolic :func:`~repro.numa.ownership.owned_elements`."""
        P = sym(self.procs_name)
        p = sym(self.proc_name)
        kind, dim, _ = owner_rule(distribution)
        if kind == "free":
            total = const(1)
            for extent in shape:
                total = total * extent
            return total
        if kind in ("wrapped", "blocked"):
            extent = shape[dim]
            if kind == "wrapped":
                mine = pos(floordiv(extent - 1 - mod(p, P), P) + 1)
            else:
                block = floordiv(extent + P - 1, P)
                mine = pos(smin((p + 1) * block, extent) - p * block)
            rest = const(1)
            for d, other in enumerate(shape):
                if d != dim:
                    rest = rest * other
            return mine * rest
        raise SymbolicUnsupported(
            f"ownership under '{distribution.describe()}' needs enumeration"
        )

    def _charge_read(
        self,
        read,
        prog: Tuple[SymExpr, SymExpr, SymExpr],
        contribs: List[List],
        extents: Dict[str, Tuple[SymExpr, ...]],
        positive: frozenset,
    ) -> None:
        """Append one prologue block read's transfers/bytes contributions."""
        if read.kind == "free":
            return
        P = sym(self.procs_name)
        p = sym(self.proc_name)
        first, stride, trips = prog
        visits = pos(trips)
        shape = extents[read.array]
        element_bytes = self.base.element_bytes.get(read.array, 8)
        if read.kind == "gather":
            total = const(1)
            for extent in shape:
                total = total * extent
            distribution = self.base.distributions[read.array]
            remote = total - self._owned(distribution, shape)
            messages = smin(P - 1, remote)
            contribs.append(["block_transfers", messages * visits])
            contribs.append(["block_bytes", remote * element_bytes * visits])
            return
        elements = const(1)
        for dim, entry in enumerate(read.pattern):
            if entry is None:
                elements = elements * shape[dim]
        head = read.slope * first + _from_compiled(read.rest)
        slope = read.slope * stride
        if read.kind == "wrapped":
            local = self._count_wrapped(head - p, slope, trips)
        else:
            extent = shape[read.dim]
            block = floordiv(extent + P - 1, P)
            local = self._count_blocked(
                head, slope, trips, p * block, (p + 1) * block - 1
            )
        if local is None:
            tvar = fresh_name()
            probe = head + slope * sym(tvar)
            if read.kind == "wrapped":
                indicator = eq0(mod(probe - p, P))
            else:
                indicator = ge0(probe - p * block) * ge0(
                    (p + 1) * block - 1 - probe
                )
            local = self._sum(indicator, tvar, trips, positive)
        fetches = visits - local
        contribs.append(["block_transfers", fetches])
        contribs.append(["block_bytes", fetches * elements * element_bytes])

    def _derive(self) -> Dict[str, SymExpr]:
        base = self.base
        nest = base.nest
        depth = nest.depth
        P = sym(self.procs_name)
        p = sym(self.proc_name)
        positive = frozenset((self.procs_name,))
        extents = {
            name: tuple(_from_affine(e) for e in decl.extents)
            for name, decl in base.decls.items()
        }
        zero = const(0)
        progs = [self._sym_progression(level) for level in range(depth)]

        # Each count contribution is folded through the enclosing levels
        # *independently*: sym_sum is linear, and summing an aggregate
        # would let the distinct indicator atoms of unrelated references
        # multiply each other's range splits combinatorially.
        contribs: List[List] = []

        # Innermost level: iterations, statements and per-reference
        # local/remote splits, with every outer index still symbolic.
        first, stride, trips = progs[depth - 1]
        tvar = fresh_name()
        value = first + stride * sym(tvar)
        visits = self._sum(const(1), tvar, trips, positive)
        contribs.append(["iterations", visits])
        contribs.append(["statements", visits * base.body_len])
        indicator_sums: Dict[SymExpr, SymExpr] = {}
        for recipe in base.refs:
            if recipe.kind == "free":
                contribs.append(["local", visits])
                continue
            head = recipe.slope * first + _from_compiled(recipe.rest)
            slope = recipe.slope * stride
            subscript = head + slope * sym(tvar)
            if recipe.kind == "wrapped":
                indicator = eq0(mod(subscript - p, P))
            else:
                extent = extents[recipe.array][recipe.dim]
                block = floordiv(extent + P - 1, P)
                high_own = (p + 1) * block - 1
                indicator = ge0(subscript - p * block) * ge0(
                    high_own - subscript
                )
            mine = indicator_sums.get(indicator)
            if mine is None:
                if recipe.kind == "wrapped":
                    mine = self._count_wrapped(head - p, slope, trips)
                else:
                    mine = self._count_blocked(
                        head, slope, trips, p * block, high_own
                    )
                if mine is None:
                    mine = self._sum(indicator, tvar, trips, positive)
                indicator_sums[indicator] = mine
            contribs.append(["local", mine])
            contribs.append(["remote", visits - mine])

        # Fold levels outward.  Block reads at a level are charged once
        # per visit of that level (their locality sum ranges over the
        # level's own values), so they join *before* enclosing levels are
        # summed and get multiplied by outer trip counts naturally.
        for level in range(depth - 1, -1, -1):
            if level < depth - 1:
                first, stride, trips = progs[level]
                tvar = fresh_name()
                value = first + stride * sym(tvar)
                index = nest.loops[level].index
                folded: Dict[SymExpr, SymExpr] = {}
                for entry in contribs:
                    expr = entry[1]
                    result = folded.get(expr)
                    if result is None:
                        result = self._sum(
                            expr.subs(index, value), tvar, trips, positive
                        )
                        folded[expr] = result
                    entry[1] = result
            for read in base.reads[level]:
                self._charge_read(
                    read, progs[level], contribs, extents, positive
                )
            if level == 0 and self.node.sync_per_outer_iteration:
                contribs.append([
                    "syncs",
                    self.node.sync_per_outer_iteration * pos(progs[0][2]),
                ])

        counts: Dict[str, SymExpr] = {name: zero for name in FIELDS}
        for name, expr in contribs:
            counts[name] = counts[name] + expr
        return counts

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluator(self):
        """The fused evaluator for the *current* ``self.forms``.

        Recompiled whenever a form object has been rebound since the last
        compile, so mutations of ``self.forms`` (defect injection during
        certification, experimental form surgery) are always honored by
        the evaluation path the certificate vouches for.
        """
        current = tuple(self.forms.values())
        if len(current) != len(self._account_forms) or any(
            a is not b for a, b in zip(current, self._account_forms)
        ):
            self._account = compile_account(self.forms)
            self._account_forms = current
        return self._account

    def account(
        self, env: Dict[str, int], processors: int, proc: int
    ) -> AccessCounts:
        """Exact counts for one processor — a pure form evaluation."""
        eval_env = dict(env)
        eval_env[self.procs_name] = processors
        eval_env[self.proc_name] = proc
        fused = self.evaluator()
        try:
            values = fused(eval_env)
        except KeyError as error:
            raise SymbolicUnsupported(
                f"unbound symbol {error.args[0]!r} at evaluation"
            )
        return AccessCounts(**dict(zip(fused.fields, values)))

    def estimate_cost(self, env: Dict[str, int], processors: int) -> int:
        """Estimated flat-op count to evaluate all fields for one processor.

        Concrete bounds (``BoundedSum`` extents) are evaluated under the
        given parameter binding; bounds that still mention an enclosing
        loop variable fall back to a nominal extent.  ``simulate``'s auto
        tier selection uses this to demote a derivable-but-expensive form
        (residual loops over large extents) to the next tier; a forced
        ``symbolic`` engine is never demoted.

        The estimate walks the fused evaluator's cost tree
        (:func:`~repro.linalg.sympoly.planned_cost`), pricing the plain
        loops the runtime executes: each fused loop is costed once — not
        once per field — at its trip count times its per-iteration ops.
        """
        eval_env = dict(env)
        eval_env[self.procs_name] = processors
        eval_env[self.proc_name] = 0
        return planned_cost(
            self.evaluator().cost_tree, self._make_hint(eval_env)
        )
