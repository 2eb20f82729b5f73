"""Unit tests for the closed-form accounting engine and its math substrate.

The tier-1 engine (``repro.numa.counting``) collapses whole processor
nests into closed form on top of the progression-counting primitives in
``repro.linalg.progression``.  These tests pin the primitives against
brute force, the per-level strategy selection on the paper kernels, the
forced-engine error contract of :func:`repro.numa.simulate`, and the
innermost-summary fallback of the interpreter walk (a fractional
remainder expression must fall back to enumeration, not raise).
"""

from fractions import Fraction

import pytest

from repro.bench import gemm_variants, syr2k_variants
from repro.distributions import BlockCyclic, Blocked, Wrapped
from repro.errors import SimulationError
from repro.ir.loop import Loop
from repro.linalg import (
    Progression,
    affine_segment_starts,
    congruence_period,
    count_block_cyclic,
    count_congruent,
    count_in_interval,
    residue_classes,
    sum_affine_range,
)
from repro.numa import AccessCounts, simulate
from repro.numa.counting import ClosedFormEngine
from repro.numa.ownership import (
    Recipe,
    _compile_affine,
    _CompiledLoop,
    charge_innermost,
    level_progression,
    owned_elements,
)
from repro.numa.simulator import _ProcWalker
from repro.ir.affine import AffineExpr


# ----------------------------------------------------------------------
# progression primitives vs brute force
# ----------------------------------------------------------------------
def test_count_congruent_matches_enumeration():
    for a in (-2, 0, 1, 3):
        for first in (-3, 0, 2):
            for step in (1, 2, 3):
                for trips in (0, 1, 7):
                    for modulus in (2, 3, 4):
                        for target in range(modulus):
                            brute = sum(
                                1
                                for q in range(trips)
                                if (a * (first + step * q)) % modulus == target
                            )
                            got = count_congruent(
                                a, 0, first, step, trips, modulus, target
                            )
                            assert got == brute, (a, first, step, trips,
                                                  modulus, target)


@pytest.mark.parametrize("schedule", ["wrapped", "blocked", "all"])
def test_count_block_cyclic_matches_owner_enumeration(schedule):
    """Along every processor's share of a scheduled level, the floor-sum
    count equals enumerating ``BlockCyclic.owner`` — negative slopes,
    ``block=1`` and ``block*P > trips`` included."""
    for block in (1, 3, 8):
        for processors in (1, 2, 3, 5):
            for a in (-2, -1, 1, 3):
                for step in (1, 2):
                    for trips in (0, 1, 7, 30):
                        low = -3
                        loop = _CompiledLoop(
                            Loop.make("v", low, low + step * trips - 1, step)
                        )
                        # Keep every subscript a*v + r inside the array.
                        r = -min(a * low, a * (low + step * trips)) + 1
                        extent = max(a * low, a * (low + step * trips)) + r + 1
                        owner = BlockCyclic(0, block).owner
                        for proc in range(processors):
                            prog = level_progression(
                                loop, {}, schedule, processors, proc
                            )
                            brute = sum(
                                1
                                for v in prog.values()
                                if owner((a * v + r,), processors, (extent,))
                                == proc
                            )
                            got = count_block_cyclic(
                                a, r, prog.first, prog.step, prog.trips,
                                block, processors, proc,
                            )
                            assert got == brute, (
                                schedule, block, processors, a, step, trips,
                                proc,
                            )


def test_count_congruent_with_remainder():
    assert count_congruent(1, 5, 0, 1, 12, 4, 1) == sum(
        1 for q in range(12) if (q + 5) % 4 == 1
    )


def test_count_in_interval_matches_enumeration():
    for a in (-2, -1, 0, 1, 2):
        for r in (-1, 0, 3):
            for first in (-2, 0):
                for step in (1, 3):
                    for trips in (0, 1, 9):
                        for low, high in ((-4, 4), (0, 0), (3, 1)):
                            brute = sum(
                                1
                                for q in range(trips)
                                if low <= a * (first + step * q) + r <= high
                            )
                            got = count_in_interval(
                                a, r, first, step, trips, low, high
                            )
                            assert got == brute, (a, r, first, step, trips,
                                                  low, high)


def test_residue_classes_cover_progression():
    progression = Progression(first=3, step=2, trips=11)
    for period in (1, 2, 3, 5, 16):
        classes = residue_classes(progression, period)
        assert sum(size for _, size in classes) == progression.trips
        # Each representative is the value at position c < period, and its
        # class collects exactly the positions congruent to c.
        for c, (value, size) in enumerate(classes):
            assert value == progression.value(c)
            assert size == sum(
                1 for q in range(progression.trips) if q % period == c
            )


def test_congruence_period_is_sound_and_minimal_per_slope():
    for modulus in (2, 3, 4, 6, 12):
        for slope in (0, 1, 2, 3, 8):
            period = congruence_period(modulus, slope)
            assert modulus % period == 0 or slope == 0
            # Sound: residues repeat with the period...
            for q in range(24):
                assert (slope * q) % modulus == (slope * (q + period)) % modulus
            # ...and not with any shorter lag when slope != 0.
            if slope:
                for shorter in range(1, period):
                    assert any(
                        (slope * q) % modulus != (slope * (q + shorter)) % modulus
                        for q in range(modulus)
                    )


def test_congruence_period_combines_with_lcm():
    assert congruence_period(12, 4, 6) == 6  # lcm(3, 2)
    assert congruence_period(4) == 1


def test_sum_affine_range_matches_enumeration():
    for slope in (-3, 0, 2):
        for intercept in (-1, 0, 5):
            for start in (-2, 0, 4):
                for end in (start - 1, start, start + 7):
                    assert sum_affine_range(slope, intercept, start, end) == sum(
                        slope * q + intercept for q in range(start, end + 1)
                    )


def test_affine_segment_starts_are_sign_stable():
    differences = [(2, -5), (-3, 7), (0, 4), (1, 0)]
    trips = 12
    starts = affine_segment_starts(differences, trips)
    assert starts[0] == 0 and starts == sorted(set(starts))
    boundaries = starts + [trips]
    for begin, end in zip(boundaries, boundaries[1:]):
        for slope, intercept in differences:
            values = [slope * q + intercept for q in range(begin, end)]
            assert not (min(values) < 0 < max(values)), (begin, end, slope)
            if end - begin > 1 and slope != 0:
                assert values[0] != 0


# ----------------------------------------------------------------------
# ownership counting
# ----------------------------------------------------------------------
def test_owned_elements_matches_owner_enumeration():
    from itertools import product

    shape = (7, 5)
    for distribution in (
        Wrapped(dim=1),
        Wrapped(dim=0),
        Blocked(dim=0),
        Blocked(dim=1),
        BlockCyclic(dim=0, block=2),
        BlockCyclic(dim=1, block=3),
    ):
        for processors in (1, 2, 3, 4):
            counted = sum(
                owned_elements(distribution, shape, processors, proc)
                for proc in range(processors)
            )
            assert counted == shape[0] * shape[1]
            for proc in range(processors):
                brute = sum(
                    1
                    for indices in product(*(range(e) for e in shape))
                    if distribution.owner(indices, processors, shape) == proc
                )
                assert owned_elements(
                    distribution, shape, processors, proc
                ) == brute, (distribution, processors, proc)


# ----------------------------------------------------------------------
# per-level strategy selection on the paper kernels
# ----------------------------------------------------------------------
def test_gemm_strategies():
    nodes = gemm_variants(12)
    # Naive GEMM: B[k, j]'s owner depends on the middle index only through
    # a wrapped test, so the middle level collapses to residue classes.
    assert ClosedFormEngine(nodes["gemm"]).describe_strategies() == (
        "const", "periodic", "inner",
    )
    # Normalized GEMM with block transfers: every ownership test left in
    # the nest is loop-invariant below the top level.
    assert ClosedFormEngine(nodes["gemmB"]).describe_strategies() == (
        "const", "const", "inner",
    )


def test_syr2k_strategies():
    nodes = syr2k_variants(24, 4)
    # Normalized banded SYR2K with block transfers: triangular middle
    # bounds collapse into breakpoint segments summed as arithmetic series.
    assert ClosedFormEngine(nodes["syr2kB"]).describe_strategies() == (
        "enumerate", "segmented", "inner",
    )
    assert ClosedFormEngine(nodes["syr2kT"]).describe_strategies() == (
        "enumerate", "enumerate", "inner",
    )


# ----------------------------------------------------------------------
# forced-engine error contract
# ----------------------------------------------------------------------
def test_unknown_engine_is_rejected():
    node = gemm_variants(8)["gemmT"]
    with pytest.raises(SimulationError, match="unknown engine 'turbo'"):
        simulate(node, processors=2, engine="turbo")


def test_forced_tiers_reject_execute_mode():
    node = gemm_variants(8)["gemmT"]
    for engine in ("closed-form", "compiled"):
        with pytest.raises(SimulationError, match="only supports account mode"):
            simulate(
                node, processors=2, mode="execute", arrays={}, engine=engine
            )


def test_closed_form_rejects_block_cache():
    node = gemm_variants(8)["gemmB"]
    with pytest.raises(SimulationError, match="does not model the block cache"):
        simulate(node, processors=2, block_cache=True, engine="closed-form")
    # auto still works: the compiled kernel models the cache.
    outcome = simulate(node, processors=2, block_cache=True)
    assert outcome.engine in ("compiled", "walk")


# ----------------------------------------------------------------------
# innermost-summary fallback (fractional remainder expressions)
# ----------------------------------------------------------------------
def test_summary_falls_back_on_fractional_rest():
    node = gemm_variants(8)["gemm"]
    env = node.program.bound_params(None)
    env[node.procs_param] = 2
    env[node.proc_param] = 0
    walker = _ProcWalker(node, env, 2, 0, "account", None)
    # Force a remainder expression of i/2: integral only at even i.
    half_i = AffineExpr.var("i") * Fraction(1, 2)
    recipes = [Recipe("wrapped", "A", 1, slope=1, rest=_compile_affine(half_i))]
    walker.env["i"] = walker.env["j"] = 2
    inner = level_progression(walker._compiled[-1], walker.env, "all", 2, 0)

    def summarize():
        return charge_innermost(
            recipes, len(node.nest.body), inner, walker.env, 2, 0,
            walker.shapes, True, walker.counts,
        )

    assert summarize() is True
    assert walker.counts.iterations == 8  # N=8 trips charged in one step
    charged = walker.counts.local + walker.counts.remote
    assert charged == 8
    # At odd i the remainder is fractional: the summary must decline
    # without charging anything, so the caller can enumerate the loop.
    walker.counts = AccessCounts()
    walker.env["i"] = 3
    assert summarize() is False
    assert walker.counts == AccessCounts()
