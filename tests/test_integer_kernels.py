"""Oracle tests for the integer-native exact-arithmetic kernels.

Fourier-Motzkin elimination runs on primitive integer rows and symbolic
forms keep integral coefficients as plain ints.  The references below
are written here in Fractions and share no code with ``src/``: a
deliberately naive elimination that keeps every row scaled so its first
nonzero entry has magnitude 1 (bounds and projections), and an exact LP
by enumeration of row subsets (maxima and implications), whose cost is
fixed by the system's size rather than by how its rows combine.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import gemm_variants, syr2k_variants
from repro.linalg import (
    Constraint,
    InfeasibleSystemError,
    eliminate_with_projections,
    implies_bound,
    maximize,
)
from repro.linalg.sympoly import (
    BoundedSum,
    SymExpr,
    const,
    floordiv,
    mod,
    pos,
    sym,
    sym_sum,
)
from repro.numa.symbolic import SymbolicEngine


# ----------------------------------------------------------------------
# the Fraction reference
# ----------------------------------------------------------------------
class _Empty(Exception):
    """The reference found a constant contradiction."""


def _canonical(row):
    """``row`` (coeffs..., const) scaled by a positive rational so its
    first nonzero entry is +-1: one key per half-space."""
    scale = next(abs(value) for value in row if value)
    return tuple(Fraction(value) / scale for value in row)


def _reference_dedup(rows):
    kept = []
    for row in rows:
        if all(value == 0 for value in row[:-1]):
            if row[-1] < 0:
                raise _Empty()
            continue
        key = _canonical(row)
        if key not in kept:
            kept.append(key)
    return kept


def _reference_bound(row, var):
    a = row[var]
    coeffs = tuple(
        Fraction(0) if j == var else -value / a
        for j, value in enumerate(row[:-1])
    )
    return coeffs, -row[-1] / a


def _reference_eliminate(rows, num_vars):
    """``(levels, projections)``: per variable the sets of lower and
    upper bounds, and the canonical rows left after eliminating it."""
    active = _reference_dedup(rows)
    levels = [None] * num_vars
    projections = [None] * num_vars
    for var in range(num_vars - 1, -1, -1):
        positive = [row for row in active if row[var] > 0]
        negative = [row for row in active if row[var] < 0]
        combined = [row for row in active if row[var] == 0]
        levels[var] = (
            {_reference_bound(row, var) for row in positive},
            {_reference_bound(row, var) for row in negative},
        )
        for low in positive:
            for high in negative:
                combined.append(tuple(
                    -high[var] * x + low[var] * y for x, y in zip(low, high)
                ))
        active = _reference_dedup(combined)
        projections[var] = set(active)
    return levels, projections


def _row_reduce(matrix, rhs, width):
    """Gauss-Jordan elimination of ``matrix . x = rhs`` over ``width``
    unknowns: ``(rank, x)`` with ``x`` one solution (free unknowns 0),
    or ``(rank, None)`` when the system is inconsistent."""
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [value / lead for value in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col] != 0:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[rank])]
        pivots.append(col)
    rank = len(pivots)
    if any(row[-1] != 0 for row in rows[rank:]):
        return rank, None
    solution = [Fraction(0)] * width
    for i, col in enumerate(pivots):
        solution[col] = rows[i][-1]
    return rank, solution


def _reference_maximize(rows, objective, objective_const):
    """The max of ``objective . y + objective_const`` over the rows'
    polyhedron ``{y : row . (y, 1) >= 0}``; None if unbounded above,
    ``_Empty`` if the polyhedron is empty.

    Every minimal face of the polyhedron solves ``rank`` linearly
    independent rows with equality, so the feasible solutions of those
    subsets witness (non)emptiness.  The objective is bounded above iff
    it is a nonnegative combination of the negated constraint normals
    (Farkas), and then of a linearly independent subset of them
    (Caratheodory); it is then constant on every minimal face, and its
    maximum is the best face value.  At most ``2**len(rows)`` small
    eliminations, whatever the draw.
    """
    width = len(objective)
    matrix = [row[:-1] for row in rows]
    consts = [row[-1] for row in rows]

    def value(normal, point):
        return sum(a * y for a, y in zip(normal, point))

    rank, _ = _row_reduce(matrix, [0] * len(rows), width)
    face_values = []
    for subset in combinations(range(len(rows)), rank):
        sub_rank, point = _row_reduce(
            [matrix[i] for i in subset], [-consts[i] for i in subset], width
        )
        if sub_rank < rank or point is None:
            continue
        if all(value(matrix[i], point) + consts[i] >= 0 for i in range(len(rows))):
            face_values.append(value(objective, point) + objective_const)
    if not face_values:
        raise _Empty()
    for size in range(rank + 1):
        for subset in combinations(range(len(rows)), size):
            normals = [[-matrix[i][j] for i in subset] for j in range(width)]
            sub_rank, weights = _row_reduce(normals, objective, size)
            if sub_rank == size and weights is not None and min(weights, default=0) >= 0:
                return max(face_values)
    return None


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (InfeasibleSystemError, _Empty):
        return ("empty", None)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
ENTRY = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def systems(draw):
    """``(num_vars, rows)``: up to six constraints over one to three
    variables plus at most one parameter, mixing int and Fraction entries."""
    num_vars = draw(st.integers(1, 3))
    width = num_vars + draw(st.integers(0, 1))
    row = st.lists(ENTRY, min_size=width + 1, max_size=width + 1)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return num_vars, [tuple(r) for r in rows]


def _constraints(rows):
    return [Constraint(row[:-1], row[-1]) for row in rows]


def _fraction_rows(rows):
    return [tuple(Fraction(value) for value in row) for row in rows]


def _is_int_row(constraint):
    return all(type(v) is int for v in constraint.coeffs + (constraint.const,))


# ----------------------------------------------------------------------
# Fourier-Motzkin against the reference
# ----------------------------------------------------------------------
class TestFourierMotzkinOracle:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_elimination_matches_reference(self, system):
        num_vars, rows = system
        actual = _outcome(
            eliminate_with_projections, _constraints(rows), num_vars
        )
        expected = _outcome(
            _reference_eliminate, _fraction_rows(rows), num_vars
        )
        assert actual[0] == expected[0]
        if actual[0] == "empty":
            return
        levels, projections = actual[1]
        ref_levels, ref_projections = expected[1]
        for var in range(num_vars):
            level = levels[var]
            assert level.var == var
            assert {(b.coeffs, b.const) for b in level.lowers} == ref_levels[var][0]
            assert {(b.coeffs, b.const) for b in level.uppers} == ref_levels[var][1]
            assert all(b.is_lower for b in level.lowers)
            assert not any(b.is_lower for b in level.uppers)
            assert all(_is_int_row(row) for row in projections[var])
            assert {
                _canonical(row.coeffs + (row.const,))
                for row in projections[var]
            } == ref_projections[var]

    @settings(max_examples=200, deadline=None)
    @given(systems(), st.data())
    def test_maximize_matches_reference(self, system, data):
        _num_vars, rows = system
        width = len(rows[0]) - 1
        objective = data.draw(
            st.lists(ENTRY, min_size=width, max_size=width)
        )
        offset = data.draw(ENTRY)
        actual = _outcome(maximize, _constraints(rows), objective, offset)
        expected = _outcome(
            _reference_maximize,
            _fraction_rows(rows),
            [Fraction(c) for c in objective],
            Fraction(offset),
        )
        assert actual == expected

    @settings(max_examples=200, deadline=None)
    @given(systems(), st.data())
    def test_implies_bound_matches_reference(self, system, data):
        _num_vars, rows = system
        width = len(rows[0]) - 1
        affine = st.lists(ENTRY, min_size=width + 1, max_size=width + 1)
        dominated = data.draw(affine)
        dominating = data.draw(affine)
        difference = [Fraction(a) - Fraction(b) for a, b in zip(dominating, dominated)]
        outcome = _outcome(
            _reference_maximize, _fraction_rows(rows),
            difference[:-1], difference[-1],
        )
        expected = outcome[0] == "empty" or (
            outcome[1] is not None and outcome[1] <= 0
        )
        assert implies_bound(_constraints(rows), dominated, dominating) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ENTRY, min_size=2, max_size=5))
    def test_normalized_rows_are_primitive_ints(self, row):
        constraint = Constraint(tuple(row[:-1]), row[-1])
        normal = constraint.normalized()
        values = normal.coeffs + (normal.const,)
        assert all(type(value) is int for value in values)
        original = tuple(Fraction(v) for v in row)
        if not any(original):
            assert not any(values)
            return
        from math import gcd

        assert gcd(*values) == 1
        # A positive multiple of the original row: the same half-space.
        assert _canonical(values) == _canonical(original)


# ----------------------------------------------------------------------
# SymExpr coefficients
# ----------------------------------------------------------------------
def _exprs(expr):
    """``expr`` and every SymExpr nested in its atoms."""
    yield expr
    for atom in expr.atoms():
        if isinstance(atom, BoundedSum):
            children = (atom.bound, atom.body)
        else:
            children = (atom.arg, getattr(atom, "modulus", None))
        for child in children:
            if isinstance(child, SymExpr):
                yield from _exprs(child)


def _assert_canonical_coeffs(expr):
    for sub in _exprs(expr):
        for _mono, coeff in sub._terms:
            assert type(coeff) is int or coeff.denominator != 1, (coeff, sub)


class TestSymExprCoefficients:
    def test_derived_forms_carry_no_integral_fractions(self):
        nodes = dict(gemm_variants(8))
        nodes.update(syr2k_variants(12, 3))
        for name, node in sorted(nodes.items()):
            for field, form in SymbolicEngine(node).forms.items():
                _assert_canonical_coeffs(form)

    def test_power_sums_keep_only_non_integral_fractions(self):
        total = sym_sum(sym("q") * sym("q"), "q", sym("n"), [10_000])
        _assert_canonical_coeffs(total)
        assert any(
            type(coeff) is not int for _mono, coeff in total._terms
        )
        for n in range(8):
            assert total.evaluate({"n": n}) == sum(q * q for q in range(n))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "mul", "mod", "floordiv", "pos"]),
                st.fractions(min_value=-6, max_value=6, max_denominator=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_arithmetic_normalizes_integral_coefficients(self, steps):
        expr = sym("x") + 1
        for op, value in steps:
            if op == "add":
                expr = expr + const(value) * sym("y")
            elif op == "mul":
                expr = expr * const(value)
            elif op in ("mod", "floordiv") and expr.integer_coeffs():
                modulus = abs(value.numerator) + 1
                expr = (mod if op == "mod" else floordiv)(expr, modulus) * 2
            elif op == "pos":
                expr = pos(expr)
            _assert_canonical_coeffs(expr)
