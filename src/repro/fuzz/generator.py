"""Seeded random generation of valid affine loop-nest programs.

The generator aims at the corners where the normalization pipeline's repair
paths (BasisMatrix completion, LegalBasis negation, LegalInvt padding) have
to work hardest: interchange/skew/reversal-inducing subscripts, triangular,
shifted and *banded* bounds (``max``/``min``-armed diagonal bands around an
outer index — the shapes on which the fused tier-0 evaluators must stay
bit-identical), strided loops, singular and rank-deficient access
matrices, and every standard distribution (wrapped, blocked,
block-cyclic).

Every generated program is *valid by construction*:

* bounds reference only outer indices and parameters (checked by
  ``ir.validate``);
* all subscripts are non-negative and within their array extents — the
  generator enumerates the concrete iteration space once, then shifts each
  array dimension's subscripts by a common offset and sizes the extents to
  fit;
* loop-body values stay exactly representable in float64: arrays are
  initialized with small integers and multiplication only ever involves
  *read-only* operands, so accumulated values grow at most polynomially in
  the (small) iteration count and interpreter results can be compared
  bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.ir.affine import AffineExpr
from repro.ir.builder import make_nest
from repro.fuzz.spec import MAX_ITERATIONS, DistSpec, ProgramSpec, SpecError

INDEX_NAMES = ("i", "j", "k", "l")
#: Largest extent the generator will declare for one array dimension.
MAX_EXTENT = 48
#: How many internal re-rolls one seed gets before giving up (deterministic).
MAX_ATTEMPTS = 40

# ----------------------------------------------------------------------
# RHS expression templates (kept as a tiny tree so that subscript offsets
# can be patched in after the extent pass, then rendered to strings).
# ----------------------------------------------------------------------
# node := ("load", array_name, [AffineExpr, ...])
#       | ("index", AffineExpr)
#       | ("const", int)
#       | ("bin", op, node, node)


def _render(node) -> str:
    kind = node[0]
    if kind == "load":
        _, array, subs = node
        inner = ", ".join(str(sub) for sub in subs)
        return f"{array}[{inner}]"
    if kind == "index":
        return f"({node[1]})"
    if kind == "const":
        return str(node[1])
    _, op, left, right = node
    return f"({_render(left)} {op} {_render(right)})"


def _walk_loads(node, fn) -> object:
    """Rebuild ``node`` with ``fn`` applied to every load's subscripts."""
    kind = node[0]
    if kind == "load":
        _, array, subs = node
        return ("load", array, fn(array, subs))
    if kind == "bin":
        _, op, left, right = node
        return ("bin", op, _walk_loads(left, fn), _walk_loads(right, fn))
    return node


def _collect_loads(node, out: List[Tuple[str, List[AffineExpr]]]) -> None:
    kind = node[0]
    if kind == "load":
        out.append((node[1], node[2]))
    elif kind == "bin":
        _collect_loads(node[2], out)
        _collect_loads(node[3], out)


class _Draft:
    """A program under construction, before the extent/offset pass."""

    def __init__(self):
        self.loops: List[Tuple[str, str, str, int]] = []
        self.arrays: Dict[str, int] = {}  # name -> rank
        self.readonly: List[str] = []
        self.written: List[str] = []
        # statements as (lhs_array, [lhs subs], rhs tree, accumulate?)
        self.statements: List[Tuple[str, List[AffineExpr], object, bool]] = []
        self.params: Dict[str, int] = {}


def _subscript(rng: random.Random, indices: Sequence[str]) -> AffineExpr:
    """One random affine subscript expression over the loop indices.

    Draws from the transformation-inducing shapes the paper catalogues:
    plain indices (identity), pairs with ±1/±2 coefficients (interchange /
    skewing), negated indices plus a constant (reversal / negative memory
    stride), scaled indices and constants (rank deficiency).
    """
    roll = rng.random()
    if roll < 0.45:  # plain index
        return AffineExpr.var(rng.choice(list(indices)))
    if roll < 0.65:  # skew: a*x + b*y (+ c)
        first, second = rng.sample(list(indices), 2) if len(indices) >= 2 else (
            indices[0], indices[0])
        a = rng.choice([1, 1, 1, 2, -1])
        b = rng.choice([1, 1, -1, -1, 2])
        expr = AffineExpr.var(first) * a + AffineExpr.var(second) * b
        if rng.random() < 0.4:
            expr = expr + rng.randint(-2, 2)
        return expr
    if roll < 0.8:  # reversal: -x + const (offset pass fixes the range)
        return AffineExpr.var(rng.choice(list(indices))) * -1
    if roll < 0.9:  # scaled index, possibly shifted
        scale = rng.choice([2, 2, 3])
        return AffineExpr.var(rng.choice(list(indices))) * scale + rng.randint(0, 2)
    if roll < 0.97:  # shifted index
        return AffineExpr.var(rng.choice(list(indices))) + rng.randint(1, 3)
    return AffineExpr.constant(rng.randint(0, 2))  # constant subscript


def _ref_subscripts(
    rng: random.Random, indices: Sequence[str], rank: int
) -> List[AffineExpr]:
    subs = [_subscript(rng, indices) for _ in range(rank)]
    if rank >= 2 and rng.random() < 0.15:
        # Deliberately singular access rows: repeat a subscript.
        subs[rng.randrange(rank)] = subs[rng.randrange(rank)]
    return subs


def _readonly_atom(rng: random.Random, draft: _Draft, indices: Sequence[str]):
    roll = rng.random()
    if draft.readonly and roll < 0.6:
        array = rng.choice(draft.readonly)
        return ("load", array, _ref_subscripts(rng, indices, draft.arrays[array]))
    if roll < 0.85:
        return ("index", _subscript(rng, indices))
    return ("const", rng.randint(1, 3))


def _rhs_term(rng: random.Random, draft: _Draft, indices: Sequence[str]):
    """A value term whose multiplicative operands are all read-only.

    Written arrays may only be combined *additively* (below), which bounds
    every intermediate value polynomially and keeps float64 arithmetic
    exact — the property the oracle's bit-exact comparison rests on.
    """
    roll = rng.random()
    left = _readonly_atom(rng, draft, indices)
    if roll < 0.45:
        return ("bin", "*", left, _readonly_atom(rng, draft, indices))
    if roll < 0.6:
        op = rng.choice(["+", "-"])
        return ("bin", op, left, _readonly_atom(rng, draft, indices))
    return left


def _try_generate(rng: random.Random, name: str) -> Optional[ProgramSpec]:
    draft = _Draft()
    depth = rng.choice([2, 2, 2, 2, 3, 3, 3, 4])
    indices = INDEX_NAMES[:depth]
    n_value = rng.randint(3, 6)
    draft.params["N"] = n_value
    if rng.random() < 0.3:
        # A second size parameter: rectangular (non-square) spaces.
        draft.params["M"] = rng.randint(3, 6)

    # ------------------------------------------------------------------
    # loops: rectangular, shifted, triangular, banded, occasionally strided
    # ------------------------------------------------------------------
    # Banded drafts get a band-width parameter and emit SYR2K-style
    # multi-armed bounds on inner levels: the fused symbolic evaluators
    # must stay bit-identical (and certified) on
    # exactly these shapes, so the fuzzer leans into them.
    banded = depth >= 2 and rng.random() < 0.35
    if banded:
        draft.params["b"] = rng.randint(2, 3)
    size = "N"
    for level, index in enumerate(indices):
        if "M" in draft.params:
            size = rng.choice(["N", "N", "M"])
        outer = list(indices[:level])
        lower = "0"
        upper = f"{size}-1"
        roll = rng.random()
        if banded and outer and roll < 0.6:
            # A width-b diagonal band around an outer index.
            anchor = rng.choice(outer)
            lower = f"max({anchor}-b+1, 0)"
            upper = f"min({anchor}+b-1, {size}-1)"
            draft.loops.append((index, lower, upper, 1))
            continue
        if roll < 0.25 and outer:  # triangular lower bound
            lower = rng.choice(outer)
            if rng.random() < 0.4:
                lower = f"{lower}+1"
        elif roll < 0.35:  # shifted lower bound
            lower = "1"
        roll = rng.random()
        if roll < 0.2 and outer:  # triangular upper bound
            upper = f"{size}-1-{rng.choice(outer)}"
        elif roll < 0.3:
            upper = f"{size}-2" if draft.params[size] >= 4 else f"{size}-1"
        # Source nests must be unit-step: the transformation framework
        # (like the paper's) assumes normalized loops.  Strided loops only
        # appear in *generated* code (lattice scans, tiling).
        draft.loops.append((index, lower, upper, 1))

    # ------------------------------------------------------------------
    # arrays: 1-3, rank 1-2, some written and some read-only
    # ------------------------------------------------------------------
    n_arrays = rng.randint(1, 3)
    names = ["A", "B", "C"][:n_arrays]
    n_written = rng.randint(1, n_arrays)
    for position, array in enumerate(names):
        choices = [1, 2, 2] if depth >= 2 else [1]
        if depth >= 3:
            choices.append(3)
        rank = rng.choice(choices)
        draft.arrays[array] = rank
        (draft.written if position < n_written else draft.readonly).append(array)

    # ------------------------------------------------------------------
    # statements: accumulate into or overwrite the written arrays
    # ------------------------------------------------------------------
    n_statements = rng.randint(1, 3)
    for _ in range(n_statements):
        target = rng.choice(draft.written)
        lhs_subs = _ref_subscripts(rng, indices, draft.arrays[target])
        rhs = _rhs_term(rng, draft, indices)
        accumulate = rng.random() < 0.65
        if not accumulate and rng.random() < 0.4 and len(draft.written) > 1:
            # Additive read of another written array (dependence chains).
            other = rng.choice([w for w in draft.written if w != target])
            other_load = (
                "load", other, _ref_subscripts(rng, indices, draft.arrays[other])
            )
            rhs = ("bin", "+", rhs, other_load)
        draft.statements.append((target, lhs_subs, rhs, accumulate))

    return _finalize(draft, name)


def _finalize(draft: _Draft, name: str) -> Optional[ProgramSpec]:
    """The extent/offset pass: make every subscript non-negative in range.

    Enumerates the concrete iteration space once, measures each array
    dimension's subscript range over *all* references to it, then shifts the
    whole dimension by a common offset and sizes the extent to fit.
    """
    # All (array, dim) -> list of AffineExpr across LHS and RHS loads.
    refs: List[Tuple[str, List[AffineExpr]]] = []
    for target, lhs_subs, rhs, _ in draft.statements:
        refs.append((target, lhs_subs))
        _collect_loads(rhs, refs)
    try:
        nest = make_nest([tuple(loop) for loop in draft.loops], [])
    except ReproError:
        return None

    envs = []
    count = 0
    for env in nest.iterate(draft.params):
        count += 1
        if count > MAX_ITERATIONS:
            return None
        envs.append(dict(env))
    if not envs:
        return None

    spans: Dict[Tuple[str, int], Tuple[Fraction, Fraction]] = {}
    for array, subs in refs:
        for dim, sub in enumerate(subs):
            lo = hi = None
            for env in envs:
                value = sub.evaluate(env)
                if value.denominator != 1:
                    return None
                lo = value if lo is None else min(lo, value)
                hi = value if hi is None else max(hi, value)
            key = (array, dim)
            if key in spans:
                old_lo, old_hi = spans[key]
                spans[key] = (min(old_lo, lo), max(old_hi, hi))
            else:
                spans[key] = (lo, hi)

    offsets: Dict[Tuple[str, int], int] = {}
    extents: Dict[str, List[int]] = {
        array: [1] * rank for array, rank in draft.arrays.items()
    }
    for (array, dim), (lo, hi) in spans.items():
        offset = int(-lo) if lo < 0 else 0
        extent = int(hi) + offset + 1
        if extent > MAX_EXTENT:
            return None
        offsets[(array, dim)] = offset
        extents[array][dim] = extent

    def shift(array: str, subs: List[AffineExpr]) -> List[AffineExpr]:
        return [
            sub + offsets.get((array, dim), 0) for dim, sub in enumerate(subs)
        ]

    statements: List[str] = []
    for target, lhs_subs, rhs, accumulate in draft.statements:
        lhs_subs = shift(target, lhs_subs)
        rhs = _walk_loads(rhs, shift)
        lhs_text = f"{target}[{', '.join(str(s) for s in lhs_subs)}]"
        rhs_text = _render(rhs)
        if accumulate:
            rhs_text = f"{lhs_text} + {rhs_text}"
        statements.append(f"{lhs_text} = {rhs_text}")

    return ProgramSpec(
        name=name,
        loops=tuple(draft.loops),
        statements=tuple(statements),
        arrays=tuple(
            (array, tuple(extents[array])) for array in draft.arrays
        ),
        distributions=(),  # filled in by generate_spec
        params=tuple(sorted(draft.params.items())),
    )


def _pick_distributions(
    rng: random.Random, spec: ProgramSpec
) -> Tuple[Tuple[str, DistSpec], ...]:
    # Banded nests (max/min-armed bounds) lean toward wrapped and
    # block-cyclic: wrapped is what puts Mod/FloorDiv atoms into the
    # tier-0 forms (the paper's SYR2K shape), block-cyclic exercises
    # the engines' decline paths on the same bounds.
    banded = any(
        "max(" in str(loop[1]) or "min(" in str(loop[2])
        for loop in spec.loops
    )
    chosen: List[Tuple[str, DistSpec]] = []
    for array, extents in spec.arrays:
        roll = rng.random()
        replicated = 0.1 if banded else 0.2
        if roll < replicated:
            continue  # replicated
        dim = rng.randrange(len(extents))
        if banded:
            if roll < 0.65:
                chosen.append((array, DistSpec("wrapped", dim)))
            elif roll < 0.8:
                chosen.append(
                    (array, DistSpec("blockcyclic", dim, rng.choice([2, 3])))
                )
            else:
                chosen.append((array, DistSpec("blocked", dim)))
            continue
        if roll < 0.55:
            chosen.append((array, DistSpec("wrapped", dim)))
        elif roll < 0.8:
            chosen.append((array, DistSpec("blocked", dim)))
        else:
            chosen.append((array, DistSpec("blockcyclic", dim, rng.choice([2, 3]))))
    return tuple(chosen)


def generate_spec(seed: int, *, name: Optional[str] = None) -> ProgramSpec:
    """The valid program spec for one fuzz seed (pure function of ``seed``).

    Internally re-rolls up to :data:`MAX_ATTEMPTS` times when a draft comes
    out empty or oversized; the retry counter is part of the derived RNG
    seed, so the result is fully deterministic.
    """
    label = name or f"fuzz-{seed}"
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"repro-fuzz:{seed}:{attempt}")
        spec = _try_generate(rng, label)
        if spec is None:
            continue
        spec = spec.with_(
            distributions=_pick_distributions(rng, spec), seed=seed
        )
        try:
            spec.build()
        except SpecError:
            continue
        return spec
    raise SpecError(
        f"seed {seed} produced no valid program in {MAX_ATTEMPTS} attempts"
    )
