"""Closed-form counting over integer arithmetic progressions.

The NUMA simulator's analytic accounting reduces every per-level question
about a loop to a question about the arithmetic progression
``v(q) = first + step*q`` for positions ``q in [0, trips)``:

* how many progression values satisfy a linear congruence
  ``a*v + r === target (mod m)`` — wrapped (cyclic) ownership tests;
* how many land in an interval ``low <= a*v + r <= high`` — blocked
  ownership tests;
* how many satisfy ``((a*v + r) // block) mod modulus == target`` —
  block-cyclic ownership tests, as an exact floor-sum;
* the exact sum of an affine function of the position over a sub-range —
  collapsing triangular trip counts into arithmetic series;
* how the progression splits into residue classes of its position modulo a
  period — collapsing an outer loop whose inner accounting is periodic in
  the outer value (the residue-class step of the closed-form engine,
  :mod:`repro.numa.counting`).

Everything is exact integer arithmetic (Python ints), mirroring the rest of
the :mod:`repro.linalg` substrate: the paper's speedup figures are ratios
of exact access counts, so the counting layer must never approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class Progression:
    """``first + step*q`` for ``q in [0, trips)`` with ``step >= 1``."""

    first: int
    step: int
    trips: int

    def __post_init__(self) -> None:
        # The documented invariant: a zero step used to surface later as a
        # bare ZeroDivisionError in from_bounds, and a negative step
        # silently computed a wrong trip count.
        if self.step < 1:
            raise ValueError(
                f"Progression requires step >= 1, got {self.step}"
            )

    @staticmethod
    def from_bounds(first: int, high: int, step: int) -> "Progression":
        """The values ``first, first+step, ...`` not exceeding ``high``."""
        if step < 1:
            raise ValueError(
                f"Progression requires step >= 1, got {step}"
            )
        if first > high:
            return Progression(first, step, 0)
        return Progression(first, step, (high - first) // step + 1)

    def value(self, q: int) -> int:
        """The progression value at position ``q``."""
        return self.first + self.step * q

    def values(self) -> Iterator[int]:
        value = self.first
        for _ in range(self.trips):
            yield value
            value += self.step


def count_congruent(
    a: int, r: int, first: int, step: int, trips: int, modulus: int, target: int
) -> int:
    """#{q in [0, trips) : a*(first + step*q) + r === target (mod modulus)}."""
    if modulus == 1:
        return trips
    lhs = (a * step) % modulus
    rhs = (target - r - a * first) % modulus
    if lhs == 0:
        return trips if rhs == 0 else 0
    g = gcd(lhs, modulus)
    if rhs % g != 0:
        return 0
    period = modulus // g
    inverse = pow((lhs // g) % period, -1, period)
    q0 = ((rhs // g) * inverse) % period
    if q0 >= trips:
        return 0
    return (trips - 1 - q0) // period + 1


def count_in_interval(
    a: int, r: int, first: int, step: int, trips: int, low: int, high: int
) -> int:
    """#{q in [0, trips) : low <= a*(first + step*q) + r <= high}."""
    if low > high:
        return 0
    if a == 0:
        return trips if low <= r <= high else 0
    # Solve low <= a*first + a*step*q + r <= high for q.
    slope = a * step
    base = a * first + r
    if slope > 0:
        q_low = -(-(low - base) // slope)
        q_high = (high - base) // slope
    else:
        q_low = -(-(high - base) // slope)
        q_high = (low - base) // slope
    q_low = max(q_low, 0)
    q_high = min(q_high, trips - 1)
    return max(0, q_high - q_low + 1)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum((a*q + b) // m for q in [0, n))`` for ``m >= 1``, in O(log)
    iterations: move the integral parts of ``a/m`` and ``b/m`` out (which
    also folds in negative ``a`` and ``b``), then count the lattice points
    under the remaining line as the same sum with ``a`` and ``m`` swapped.
    """
    total = 0
    while True:
        if not 0 <= a < m:
            total += (n * (n - 1) // 2) * (a // m)
            a %= m
        if not 0 <= b < m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def count_block_cyclic(
    a: int, r: int, first: int, step: int, trips: int, block: int,
    modulus: int, target: int,
) -> int:
    """#{q in [0, trips) : ((a*(first + step*q) + r) // block) mod modulus
    == target} for ``0 <= target < modulus``.

    ``x mod (block*modulus)`` lies in ``[target*block, (target+1)*block)``
    exactly when ``floor((x - target*block) / (block*modulus)) -
    floor((x - (target+1)*block) / (block*modulus))`` is 1 (it is 0
    otherwise), so the count is a difference of two floor-sums along the
    progression — O(log) time whatever the trip count.
    """
    period = block * modulus
    slope = a * step
    base = a * first + r - target * block
    return _floor_sum(trips, period, slope, base) - _floor_sum(
        trips, period, slope, base - block
    )


def residue_classes(
    progression: Progression, period: int
) -> List[Tuple[int, int]]:
    """Split a progression into residue classes of its position.

    Returns ``(representative value, class size)`` for every inhabited
    class ``q === c (mod period)``.  Any function of the progression value
    that is invariant under ``v -> v + step*period`` is constant on each
    class, so its sum over the whole progression is
    ``sum(f(representative) * size)`` — one evaluation per class instead of
    one per trip.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    classes: List[Tuple[int, int]] = []
    for c in range(min(period, progression.trips)):
        size = (progression.trips - 1 - c) // period + 1
        classes.append((progression.value(c), size))
    return classes


def congruence_period(modulus: int, *slopes: int) -> int:
    """The position-period of congruence tests along a progression.

    A test ``a*v === t (mod modulus)`` evaluated along ``v(q)`` with the
    value advancing by ``slope = a*step`` per position repeats with period
    ``modulus // gcd(modulus, slope)``.  The combined period of several
    tests is the lcm of the individual periods — always a divisor of
    ``modulus``, so residue-class splitting costs at most ``modulus``
    evaluations.
    """
    period = 1
    for slope in slopes:
        g = gcd(modulus, slope)
        part = modulus // g if g else 1
        period = period * part // gcd(period, part)
    return max(period, 1)


def sum_affine_range(slope: int, intercept: int, start: int, end: int) -> int:
    """Exact ``sum(slope*q + intercept for q in [start, end])`` (inclusive).

    Returns 0 for an empty range (``end < start``).  ``(start+end)*count``
    is always even, so the arithmetic-series midpoint formula stays in
    integer arithmetic.
    """
    if end < start:
        return 0
    count = end - start + 1
    return slope * ((start + end) * count // 2) + intercept * count


def affine_segment_starts(
    differences: Sequence[Tuple[int, int]], trips: int
) -> List[int]:
    """Partition positions ``[0, trips)`` into sign-stable segments.

    ``differences`` are affine functions of the position given as
    ``(slope, intercept)`` pairs.  Returns sorted segment-start positions
    such that inside one segment no difference changes sign strictly
    (is negative at one position and positive at another), and in any
    segment with more than one position a difference with nonzero slope is
    nonzero at the segment start.  Both integers straddling each real root
    become starts, which is what guarantees the two properties; evaluating
    the active bound / emptiness test at a segment's start therefore
    decides it for the whole segment.
    """
    starts = {0}
    if trips > 0:
        for slope, intercept in differences:
            if slope == 0:
                continue
            root_floor = (-intercept) // slope
            for candidate in (root_floor, root_floor + 1):
                if 0 < candidate < trips:
                    starts.add(candidate)
    return sorted(starts)
