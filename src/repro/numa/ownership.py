"""The ownership counter shared by the interpreter walk and tier 1.

Both the walk (:mod:`repro.numa.simulator`) and the closed-form engine
(:mod:`repro.numa.counting`) ask of a loop level which values processor
``p`` runs (:func:`level_progression`, always an arithmetic progression)
and how many of their accesses to one reference ``p`` owns
(:func:`owned_count` along a :class:`Recipe`, the reference's
distribution-dimension subscript written as ``slope * index + rest``,
counted in position space so rational forms count like integral ones).

Owner maps are affine index maps composed with div/mod along one
dimension: wrapped ``v mod P`` counts as a linear congruence, blocked
``v // ceil(extent / P)`` as an interval and block-cyclic
``(v // b) mod P`` as a floor-sum (:mod:`repro.linalg.progression`);
:func:`owner_test` is the same rule for one value.  Any other
distribution is kind ``enumerate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod
from numbers import Rational
from typing import Callable, Mapping, Optional, Sequence, Tuple

from repro.codegen.locality import RefClass
from repro.distributions import BlockCyclic, Blocked, Wrapped
from repro.errors import SimulationError
from repro.ir.affine import AffineExpr
from repro.ir.loop import Loop
from repro.linalg.progression import (
    Progression,
    count_block_cyclic,
    count_congruent,
    count_in_interval,
)


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


def _eval_rational(compiled, env) -> Rational:
    """The exact value: an int when ``den`` is 1, else a Fraction."""
    pairs, den, const = compiled
    total = const
    for name, coeff in pairs:
        total += coeff * env[name]
    return total if den == 1 else Fraction(total, den)


def _eval_exact(compiled, env) -> Optional[int]:
    """Integer value, or None when the rational value is not integral."""
    value = _eval_rational(compiled, env)
    return int(value) if value.denominator == 1 else None


class _CompiledLoop:
    """Precompiled bound/alignment evaluators for one loop level."""

    __slots__ = ("lowers", "uppers", "align", "step")

    def __init__(self, loop: Loop):
        self.lowers = tuple(_compile_affine(e) for e in loop.lower)
        self.uppers = tuple(_compile_affine(e) for e in loop.upper)
        self.align = _compile_affine(loop.align) if loop.align is not None else None
        self.step = loop.step

    def high(self, env) -> int:
        return min(_eval_floor(c, env) for c in self.uppers)

    def first(self, env) -> int:
        low = max(_eval_ceil(c, env) for c in self.lowers)
        if self.align is None:
            return low
        offset = _eval_exact(self.align, env)
        if offset is None:
            raise SimulationError("alignment expression is not integral")
        return low + ((offset - low) % self.step)


def level_progression(
    compiled: _CompiledLoop, env: Mapping[str, int], schedule: str,
    processors: int, proc: int,
) -> Progression:
    """The values of one loop level that processor ``proc`` runs.

    ``schedule`` is the node program's schedule (``wrapped``, ``blocked``
    or ``all``) for the distributed outermost level, and ``all`` for every
    deeper level.
    """
    first = compiled.first(env)
    high = compiled.high(env)
    step = compiled.step
    if schedule == "all":
        return Progression.from_bounds(first, high, step)
    if first > high:
        return Progression(first, step, 0)
    if schedule == "wrapped":
        if step == 1:
            # Value-based round robin (the paper's semantics): processor p
            # executes the iterations whose value is congruent to p, which
            # is what makes normal distribution-dimension subscripts local.
            start = first + ((proc - first) % processors)
            return Progression.from_bounds(start, high, processors)
        # Strided outer loop (tile loop or non-unimodular stride):
        # position-based round robin keeps every processor busy.
        return Progression.from_bounds(
            first + step * proc, high, step * processors
        )
    if schedule == "blocked":
        # Contiguous position ranges.
        trips = (high - first) // step + 1
        block = -(-trips // processors)
        start = proc * block
        return Progression(
            first + step * start, step, max(0, min(trips, start + block) - start)
        )
    raise SimulationError(f"unknown schedule {schedule!r}")


#: The distributions whose owner map the counter closes, by exact type.
_COUNTED = {Wrapped: "wrapped", Blocked: "blocked", BlockCyclic: "block-cyclic"}


def owner_rule(distribution) -> Tuple[str, int, int]:
    """``(kind, dim, block)``: how the counter reads a distribution.

    ``kind`` is ``free`` (no distribution, or no distribution dimension:
    every access is local), ``wrapped``, ``blocked``, ``block-cyclic``
    (``block`` is its block size) or ``enumerate``.
    """
    if distribution is None or not distribution.distribution_dims():
        return ("free", 0, 0)
    dims = distribution.distribution_dims()
    kind = _COUNTED.get(type(distribution))
    if kind is None or len(dims) != 1:
        return ("enumerate", 0, 0)
    return (kind, dims[0], getattr(distribution, "block", 0))


@dataclass
class Recipe:
    """How one reference's owner varies along one loop index.

    ``kind`` is an :func:`owner_rule` kind or ``gather`` (a block read
    whose distribution dimensions are all wildcards).  For the counted
    kinds ``subscript`` is the distribution-dimension subscript (a block
    read's probe), ``slope`` its exact coefficient of the index (an int
    when integral, else a Fraction) and ``rest`` the compiled remainder.
    """

    kind: str
    array: Optional[str] = None
    dim: int = 0
    block: int = 0
    subscript: Optional[AffineExpr] = None
    slope: Rational = 0
    rest: Optional[tuple] = None
    pattern: Optional[tuple] = None

    def non_integral(self) -> SimulationError:
        """The error of an access whose subscript value is not integral."""
        return SimulationError(
            f"non-integral subscript '{self.subscript}' of array "
            f"{self.array!r} in {self.kind} ownership test"
        )


def _recipe(distribution, array, subscripts, index, pattern=None) -> Recipe:
    kind, dim, block = owner_rule(distribution)
    if kind in ("free", "enumerate"):
        return Recipe(kind, array, pattern=pattern)
    subscript = subscripts[dim]
    slope = subscript.coeff(index)
    return Recipe(
        kind, array, dim, block, subscript,
        int(slope) if slope.denominator == 1 else slope,
        _compile_affine(subscript - slope * AffineExpr.var(index)),
        pattern,
    )


def ref_recipe(
    ref, is_write: bool, ref_classes: Mapping, distributions: Mapping,
    index: str,
) -> Recipe:
    """The recipe of one body reference along ``index``.

    References the locality plan proved local (or covered by a block
    transfer) are ``free`` whatever their distribution.
    """
    if ref_classes.get((ref, is_write), RefClass.CHECK) in (
        RefClass.LOCAL, RefClass.COVERED,
    ):
        return Recipe("free", ref.array)
    return _recipe(distributions.get(ref.array), ref.array, ref.subscripts, index)


def read_recipe(statement, distributions: Mapping, index: str) -> Recipe:
    """The recipe of one prologue block read along its own loop's index."""
    distribution = distributions.get(statement.array)
    pattern = statement.pattern
    if distribution is not None and distribution.distribution_dims() and all(
        pattern[d] is None for d in distribution.distribution_dims()
    ):
        return Recipe("gather", statement.array, pattern=pattern)
    return _recipe(distribution, statement.array, pattern, index, pattern)


def owner_test(
    recipe: Recipe, shapes: Mapping[str, Sequence[int]], processors: int,
    proc: int,
) -> Callable[[int], bool]:
    """Whether ``proc`` owns one distribution-dimension index of a
    counted recipe: the rule :func:`owned_count` counts, also past the
    extent (blocked is :meth:`Blocked.owner
    <repro.distributions.Blocked.owner>`'s ``v // ceil(extent / P)``)."""
    if recipe.kind == "wrapped":
        return lambda value: value % processors == proc
    if recipe.kind == "block-cyclic":
        return lambda value: value // recipe.block % processors == proc
    block = -(-shapes[recipe.array][recipe.dim] // processors)
    return lambda value: value // block == proc


def owned_count(
    recipe: Recipe, rest: Rational, progression: Progression, processors: int,
    proc: int, shapes: Mapping[str, Sequence[int]],
) -> int:
    """How many values of ``progression`` give ``proc`` an owned access.

    ``rest`` is the recipe's exact remainder at the current outer
    indices.  At position ``k`` the subscript is ``head + advance * k``;
    a non-integral ``head`` (``trips >= 1``) or ``advance`` (``trips >=
    2``) is the access enumeration fails on, so it raises its error.
    """
    kind = recipe.kind
    trips = progression.trips
    if kind == "free":
        return trips
    head = recipe.slope * progression.first + rest
    advance = recipe.slope * progression.step
    if type(head) is not int or type(advance) is not int:
        if (trips and head.denominator != 1) or (
            trips > 1 and advance.denominator != 1
        ):
            raise recipe.non_integral()
        head, advance = int(head), int(advance)
    if kind == "wrapped":
        return count_congruent(advance, head, 0, 1, trips, processors, proc)
    if kind == "block-cyclic":
        return count_block_cyclic(
            advance, head, 0, 1, trips, recipe.block, processors, proc
        )
    block = -(-shapes[recipe.array][recipe.dim] // processors)
    return count_in_interval(
        advance, head, 0, 1, trips, proc * block, (proc + 1) * block - 1
    )


def charge_innermost(
    recipes: Sequence[Recipe], statements: int, progression: Progression,
    env: Mapping[str, int], processors: int, proc: int,
    shapes: Mapping[str, Sequence[int]], counts,
) -> None:
    """Charge a whole innermost level to ``counts`` in O(refs) time.

    ``recipes`` are the body references' recipes along the innermost
    index, ``statements`` the number of body statements.  Like
    enumeration, it raises for a non-integral head (in reference order)
    before any non-integral advance.
    """
    trips = progression.trips
    if trips == 0:
        return
    local = 0
    counted = []
    for recipe in recipes:
        if recipe.kind == "free":
            local += trips
            continue
        rest = _eval_rational(recipe.rest, env)
        if (recipe.slope * progression.first + rest).denominator != 1:
            raise recipe.non_integral()
        counted.append((recipe, rest))
    for recipe, rest in counted:
        local += owned_count(
            recipe, rest, progression, processors, proc, shapes
        )
    counts.iterations += trips
    counts.statements += trips * statements
    counts.local += local
    counts.remote += trips * len(recipes) - local


def owned_elements(distribution, shape, processors: int, proc: int) -> int:
    """How many elements of an array one processor owns.

    Shared by the closed-form engine, the interpreter walk's and the
    compiled kernel's gather accounting, so every tier charges
    whole-array block reads identically.
    """
    kind, dim, block = owner_rule(distribution)
    if kind == "free":
        return prod(shape)
    if kind == "enumerate":  # small arrays only
        return sum(
            1
            for indices in product(*(range(extent) for extent in shape))
            if distribution.owner(indices, processors, shape) == proc
        )
    mine = owned_count(
        Recipe(kind, None, dim, block, slope=1), 0,
        Progression(0, 1, shape[dim]), processors, proc, {None: shape},
    )
    return mine * prod(e for d, e in enumerate(shape) if d != dim)


def gather_transfers(
    distribution, shape, element_bytes: int, processors: int, proc: int
) -> Tuple[int, int]:
    """``(messages, bytes)`` of one whole-array gather: the elements
    ``proc`` does not own arrive as one message per remote owner."""
    remote = prod(shape) - owned_elements(distribution, shape, processors, proc)
    if remote <= 0:
        return 0, 0
    return min(processors - 1, remote), remote * element_bytes
