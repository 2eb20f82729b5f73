"""Fourier-Motzkin elimination over rational constraint systems.

Loop bound generation for a transformed nest needs, for every loop level
``k``, lower and upper bounds on variable ``u_k`` expressed in the outer
variables ``u_0 .. u_{k-1}`` (and symbolic parameters).  Fourier-Motzkin
elimination, applied innermost-variable first, produces exactly that
triangular system of bounds.

Constraints are affine inequalities ``coeffs . y + const >= 0`` where ``y``
stacks the eliminable variables first and any number of symbolic parameters
after them.  Parameters are never eliminated.

Elimination runs on primitive integer rows: every constraint is scaled to
coprime ``int`` coefficients on entry (:meth:`Constraint.normalized`) and
pairwise combination keeps it integral, so the only rationals are the
bounds' quotients by the eliminated variable's coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import LinalgError

Number = Union[int, Fraction]


class InfeasibleSystemError(LinalgError):
    """The constraint system has no rational solution."""


@dataclass(frozen=True)
class Constraint:
    """The affine inequality ``coeffs . y + const >= 0``.

    Callers may build rows from any mix of ints and Fractions; the
    eliminator works on :meth:`normalized` rows, whose entries are ints.
    """

    coeffs: Tuple[Number, ...]
    const: Number

    @staticmethod
    def make(coeffs: Sequence[Number], const: Number) -> "Constraint":
        return Constraint(tuple(Fraction(c) for c in coeffs), Fraction(const))

    def normalized(self) -> "Constraint":
        """The same inequality as a primitive integer row: ``int`` entries
        with gcd 1 (a stable deduplication key)."""
        values = self.coeffs + (self.const,)
        denominator = lcm(*[value.denominator for value in values])
        scaled = [
            value.numerator * (denominator // value.denominator)
            for value in values
        ]
        divisor = gcd(*scaled)
        if divisor > 1:
            scaled = [value // divisor for value in scaled]
        return Constraint(tuple(scaled[:-1]), scaled[-1])

    def evaluate(self, point: Sequence[Number]) -> Fraction:
        """The value of ``coeffs . point + const``."""
        total = self.const
        for coefficient, value in zip(self.coeffs, point):
            if coefficient:
                total += coefficient * Fraction(value)
        return total

    def is_trivial(self) -> bool:
        """True for ``0 >= -c`` with ``c >= 0`` (always satisfied)."""
        return all(c == 0 for c in self.coeffs) and self.const >= 0

    def is_contradiction(self) -> bool:
        """True for ``0 >= c`` with ``c > 0`` (never satisfied)."""
        return all(c == 0 for c in self.coeffs) and self.const < 0


@dataclass(frozen=True)
class Bound:
    """A one-sided bound on variable ``var``.

    For a lower bound: ``var >= (coeffs . y + const)``; for an upper bound:
    ``var <= (coeffs . y + const)``.  ``coeffs`` never mentions ``var`` or
    any variable inner to it.
    """

    var: int
    coeffs: Tuple[Fraction, ...]
    const: Fraction
    is_lower: bool

    @staticmethod
    def from_constraint(constraint: Constraint, var: int) -> "Bound":
        """The bound an integer row places on ``var`` (nonzero coefficient).

        ``a*var + rest >= 0`` is ``var >= -rest/a`` for ``a > 0`` and
        ``var <= rest/(-a)`` for ``a < 0``.
        """
        a = constraint.coeffs[var]
        scale = -1 if a > 0 else 1
        den = abs(a)
        coeffs = tuple(
            Fraction(scale * c, den) if j != var else Fraction(0)
            for j, c in enumerate(constraint.coeffs)
        )
        return Bound(
            var, coeffs, Fraction(scale * constraint.const, den), is_lower=a > 0
        )

    def evaluate(self, point: Sequence[Number]) -> Fraction:
        """The bound's value at ``point`` (outer variables + parameters)."""
        total = self.const
        for coefficient, value in zip(self.coeffs, point):
            if coefficient:
                total += coefficient * Fraction(value)
        return total


@dataclass(frozen=True)
class LevelBounds:
    """All lower and upper bounds for one loop level."""

    var: int
    lowers: Tuple[Bound, ...]
    uppers: Tuple[Bound, ...]

    def lower_value(self, point: Sequence[Number]) -> Fraction:
        """max of the lower bounds at ``point``."""
        if not self.lowers:
            raise InfeasibleSystemError(f"variable {self.var} has no lower bound")
        return max(bound.evaluate(point) for bound in self.lowers)

    def upper_value(self, point: Sequence[Number]) -> Fraction:
        """min of the upper bounds at ``point``."""
        if not self.uppers:
            raise InfeasibleSystemError(f"variable {self.var} has no upper bound")
        return min(bound.evaluate(point) for bound in self.uppers)


def _dedup(constraints: List[Constraint]) -> List[Constraint]:
    seen = set()
    result = []
    for constraint in constraints:
        normal = constraint.normalized()
        if normal.is_trivial():
            continue
        if normal.is_contradiction():
            raise InfeasibleSystemError("constraint system is infeasible")
        key = (normal.coeffs, normal.const)
        if key not in seen:
            seen.add(key)
            result.append(normal)
    return result


def eliminate(constraints: Sequence[Constraint], num_vars: int) -> List[LevelBounds]:
    """Triangularize a constraint system by Fourier-Motzkin elimination.

    Parameters
    ----------
    constraints:
        Affine inequalities over ``num_vars`` eliminable variables followed by
        any number of symbolic parameters (all constraint vectors must have
        the same length).
    num_vars:
        How many leading coordinates are loop variables to bound; the
        remaining coordinates are parameters that survive elimination.

    Returns
    -------
    One :class:`LevelBounds` per variable, outermost (index 0) first.  The
    bounds for variable ``k`` only reference variables ``0 .. k-1`` and the
    parameters.  Raises :class:`InfeasibleSystemError` when a constant
    contradiction is discovered (the rational relaxation is empty).
    """
    levels, _ = eliminate_with_projections(constraints, num_vars)
    return levels


def eliminate_with_projections(
    constraints: Sequence[Constraint], num_vars: int
) -> Tuple[List[LevelBounds], List[List[Constraint]]]:
    """Like :func:`eliminate`, also returning the projected systems.

    ``projections[k]`` is the constraint set over variables ``0 .. k-1``
    (and the parameters) obtained after eliminating variables ``k`` and
    inner — exactly the set of outer-prefix values for which the loop at
    level ``k`` is non-empty (Fourier-Motzkin projection is exact over the
    rationals).  Used by redundant-bound elimination.
    """
    active = _dedup(list(constraints))
    levels: List[LevelBounds] = [None] * num_vars  # type: ignore[list-item]
    projections: List[List[Constraint]] = [None] * num_vars  # type: ignore[list-item]

    for var in range(num_vars - 1, -1, -1):
        neutral: List[Constraint] = []
        positive: List[Constraint] = []
        negative: List[Constraint] = []
        for constraint in active:
            coefficient = constraint.coeffs[var]
            if coefficient > 0:
                positive.append(constraint)
            elif coefficient < 0:
                negative.append(constraint)
            else:
                neutral.append(constraint)

        lowers = [Bound.from_constraint(c, var) for c in positive]
        uppers = [Bound.from_constraint(c, var) for c in negative]

        levels[var] = LevelBounds(var=var, lowers=tuple(lowers), uppers=tuple(uppers))

        # Combine each (positive, negative) pair to eliminate the variable.
        combined = neutral + [
            _combine(pos, neg, var) for pos in positive for neg in negative
        ]
        active = _dedup(combined)
        projections[var] = list(active)

    return levels, projections


def _combine(pos: Constraint, neg: Constraint, var: int) -> Constraint:
    """The row without ``var`` implied by a lower and an upper row on it."""
    a_pos = pos.coeffs[var]
    a_neg = -neg.coeffs[var]
    coeffs = tuple(a_neg * cp + a_pos * cn for cp, cn in zip(pos.coeffs, neg.coeffs))
    return Constraint(coeffs, a_neg * pos.const + a_pos * neg.const)


def _project_to_first(
    constraints: Sequence[Constraint], num_vars: int
) -> List[Constraint]:
    """The rows over variable 0 alone once variables ``1 .. num_vars-1``
    are eliminated, pruned by Chernikov's rule: after ``k`` eliminations
    a row combining more than ``k + 1`` input rows (its history bitmask)
    is implied by the others, so dropping it keeps the projection and
    its emptiness exact.  Unpruned, six rows over four variables can
    grow to tens of thousands of rows per level."""
    def keep(rows) -> dict:
        kept: dict = {}
        for row, history in rows:
            normal = row.normalized()
            if normal.is_contradiction():
                raise InfeasibleSystemError("constraint system is infeasible")
            if not normal.is_trivial():
                kept.setdefault(normal, history)
        return kept

    active = keep((row, 1 << index) for index, row in enumerate(constraints))
    for eliminated, var in enumerate(range(num_vars - 1, 0, -1), start=1):
        rows = [(row, h) for row, h in active.items() if row.coeffs[var] == 0]
        positive = [(row, h) for row, h in active.items() if row.coeffs[var] > 0]
        negative = [(row, h) for row, h in active.items() if row.coeffs[var] < 0]
        for pos, pos_history in positive:
            for neg, neg_history in negative:
                history = pos_history | neg_history
                if bin(history).count("1") <= eliminated + 1:
                    rows.append((_combine(pos, neg, var), history))
        active = keep(rows)
    return list(active)


def maximize(
    constraints: Sequence[Constraint],
    objective_coeffs: Sequence[Number],
    objective_const: Number = 0,
) -> Optional[Fraction]:
    """Exact maximum of an affine objective over a rational polyhedron.

    Returns ``None`` when the objective is unbounded above, and raises
    :class:`InfeasibleSystemError` when the polyhedron is empty.  Fourier-
    Motzkin projection is exact over the rationals, so this is a tiny exact
    LP — enough for the redundant-bound elimination used by loop
    simplification.
    """
    width = len(objective_coeffs)
    # Coordinates: [t, original...]; constrain t == objective.
    lifted: List[Constraint] = []
    for constraint in constraints:
        lifted.append(Constraint((0,) + tuple(constraint.coeffs), constraint.const))
    obj = tuple(Fraction(c) for c in objective_coeffs)
    const = Fraction(objective_const)
    lifted.append(Constraint((1,) + tuple(-c for c in obj), -const))
    lifted.append(Constraint((-1,) + obj, const))
    rows = _project_to_first(lifted, num_vars=width + 1)
    uppers = [Fraction(r.const, -r.coeffs[0]) for r in rows if r.coeffs[0] < 0]
    if not uppers:
        return None
    # Check feasibility: t must have some admissible value.
    lowers = [Fraction(-r.const, r.coeffs[0]) for r in rows if r.coeffs[0] > 0]
    if lowers and max(lowers) > min(uppers):
        raise InfeasibleSystemError("empty polyhedron")
    return min(uppers)


def implies_bound(
    constraints: Sequence[Constraint],
    dominated: Sequence[Number],
    dominating: Sequence[Number],
) -> bool:
    """Is ``dominating <= dominated`` everywhere on the polyhedron?

    Both arguments are affine functions given as ``(coeffs..., const)``
    rows over the constraint coordinates.  Used to drop redundant loop
    bounds: an upper bound is redundant when another upper bound is
    pointwise at most it (and dually for lower bounds).
    """
    coeffs = [
        Fraction(a) - Fraction(b)
        for a, b in zip(dominating[:-1], dominated[:-1])
    ]
    const = Fraction(dominating[-1]) - Fraction(dominated[-1])
    try:
        best = maximize(constraints, coeffs, const)
    except InfeasibleSystemError:
        return True  # empty region: anything holds
    return best is not None and best <= 0
