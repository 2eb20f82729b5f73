"""All accounting tiers must be bit-identical on every count.

Parametrized over every sample program under ``examples/programs/`` and
every regression-corpus entry under ``tests/corpus/`` at P in {1, 2, 3, 4}:
the interpreter walk, whatever tier ``auto`` picks, and any forced tier
that accepts the nest must reproduce :func:`reference_account` exactly —
per processor, on every :class:`~repro.numa.AccessCounts` field.  The
reference enumerates every iteration and shares no code with the tiers
(the walk and the closed-form engine share one ownership counter, so the
walk alone cannot vouch for it).  A forced tier is allowed to *reject* a
nest (that is what ``auto`` falls back for) but never to disagree.
"""

import dataclasses
import glob
import json
import os

import pytest

from repro.codegen import generate_spmd
from repro.core import access_normalize
from repro.errors import SimulationError
from repro.fuzz import ProgramSpec
from repro.lang import parse_program
from repro.numa import simulate
from tests.reference_account import reference_account

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "programs", "*.an")))
CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.json"))
)

PROCS = (1, 2, 3, 4)

#: Small parameter overrides keeping the reference account fast in CI.
EXAMPLE_PARAMS = {
    "gemm": {"N": 24},
    "syr2k": {"N": 40, "b": 6},
    "figure1": {"N1": 16, "N2": 12, "b": 4},
}


def _assert_tiers_match(node, processors, params=None):
    expected = [
        reference_account(node, params, processors, proc)
        for proc in range(processors)
    ]
    for engine in ("walk", "auto", "symbolic", "closed-form", "compiled"):
        try:
            outcome = simulate(
                node, processors=processors, params=params, engine=engine
            )
        except SimulationError as error:
            # auto and the walk must accept every nest; a forced tier may
            # decline.
            assert engine not in ("auto", "walk"), error
            continue
        for proc, result in enumerate(outcome.per_proc):
            assert dataclasses.asdict(result.counts) == expected[proc], (
                f"engine {outcome.engine!r} disagrees with the reference "
                f"account on proc {proc} at P={processors}"
            )


def _load_example(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read(), name=os.path.basename(path))


@pytest.mark.parametrize(
    "path", EXAMPLES,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in EXAMPLES],
)
@pytest.mark.parametrize("processors", PROCS)
def test_example_programs_tier_equivalence(path, processors):
    assert EXAMPLES, "no example programs found"
    program = _load_example(path)
    params = EXAMPLE_PARAMS.get(program.name)
    normalized = access_normalize(program).transformed
    variants = (
        generate_spmd(program, block_transfers=False),
        generate_spmd(normalized, block_transfers=False),
        generate_spmd(normalized, block_transfers=True),
    )
    for node in variants:
        _assert_tiers_match(node, processors, params=params)


@pytest.mark.parametrize(
    "path", CORPUS,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in CORPUS],
)
@pytest.mark.parametrize("processors", PROCS)
@pytest.mark.parametrize("schedule", ("wrapped", "blocked"))
def test_corpus_tier_equivalence(path, processors, schedule):
    assert CORPUS, "no corpus entries found"
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    spec = ProgramSpec.from_dict(data.get("spec", data))
    result = access_normalize(spec.build())
    node = generate_spmd(
        result.transformed,
        schedule=schedule,
        sync_events=result.outer_carried_count,
    )
    _assert_tiers_match(node, processors)


def test_paper_kernels_are_tier1_end_to_end():
    """Acceptance criterion: ``auto`` answers the Figure 4 GEMM sweep
    AND the Figure 5 SYR2K sweep from the symbolic per-program forms.
    SYR2K's banded nests used to be demoted to closed form (their
    multi-armed bounds made naive form evaluation slower than
    re-derivation); fused, strength-reduced evaluators made the forms
    cheap enough that auto's cost model now promotes them.  No
    paper kernel ever falls back to the walk."""
    from repro.bench import gemm_variants, syr2k_variants

    for name, node in gemm_variants(16).items():
        outcome = simulate(node, processors=4)
        assert outcome.engine == "symbolic", (name, outcome.engine)
    for name, node in syr2k_variants(24, 4).items():
        outcome = simulate(node, processors=4)
        assert outcome.engine == "symbolic", (name, outcome.engine)


# ----------------------------------------------------------------------
# rational bounds and subscripts (non-unimodular loop scaling)
# ----------------------------------------------------------------------
#: A strided loop whose subscript coefficient is rational: ``1/2*u``
#: moves by 1 per position of the step-2 loop ``u``.
HALFWRAP = """program halfwrap
param N = 10
real A(2*N, N) distribute (wrapped, *)
real C(N, N) distribute (wrapped, *)
for w = 0, N-1
    for u = 0, 2*N-2, step 2
        for v = 0, N-1
            C[w, 0] = C[w, 0] + A[1/2*u + v, w]
"""

#: Distribution-free, with a rational innermost upper bound.
HALFSEG = """program halfseg
param N = 9
real A(N, N)
for u = 0, N-1
    for v = 0, 1/2*u
        A[u, v] = A[u, v] + 1
"""

#: ``1/2*j`` is not integral at odd ``j``.
HALFJ = """program halfj
param N = 6
real A(N, N) distribute (wrapped, *)
real C(N, N) distribute (*, wrapped)
for i = 0, N-1
    for j = 0, N-1
        C[i, j] = C[i, j] + A[1/2*j, i]
"""

#: The block read ``read A[1/2*i, *]`` probes a non-integral row at odd ``i``.
HALFREAD = """program halfread
param N = 8
real A(N, N) distribute (blocked, *)
real C(N, N) distribute (blocked, *)
for i = 0, N-1
    for j = 0, N-1
        C[i, j] = C[i, j] + A[1/2*i, j]
"""


def _closed_form_matches_reference(node, processors):
    outcome = simulate(node, processors=processors, engine="closed-form")
    assert [
        dataclasses.asdict(result.counts) for result in outcome.per_proc
    ] == [
        reference_account(node, None, processors, proc)
        for proc in range(processors)
    ]


@pytest.mark.parametrize("processors", PROCS)
def test_closed_form_counts_rational_subscripts(processors):
    node = generate_spmd(parse_program(HALFWRAP), block_transfers=False)
    _closed_form_matches_reference(node, processors)
    _assert_tiers_match(node, processors)


@pytest.mark.parametrize("processors", PROCS)
def test_rational_inner_bound_is_not_segmented(processors):
    from repro.numa.counting import ClosedFormEngine

    node = generate_spmd(parse_program(HALFSEG), block_transfers=False)
    assert ClosedFormEngine(node).describe_strategies() == ("enumerate", "inner")
    _closed_form_matches_reference(node, processors)


def test_closed_form_accepts_rational_negative_bound():
    with open(os.path.join(os.path.dirname(__file__), "corpus",
                           "rational-negative-bound.json")) as handle:
        spec = ProgramSpec.from_dict(json.load(handle)["spec"])
    node = generate_spmd(access_normalize(spec.build()).transformed)
    for processors in PROCS:
        _closed_form_matches_reference(node, processors)


@pytest.mark.parametrize("engine", ("walk", "auto", "closed-form", "compiled"))
@pytest.mark.parametrize(
    "source, options, message",
    [
        (HALFJ, {"block_transfers": False},
         "non-integral subscript '1/2*j' of array 'A' in wrapped ownership test"),
        (HALFREAD, {"schedule": "blocked"},
         "non-integral subscript '1/2*i' of array 'A' in blocked ownership test"),
    ],
    ids=["reference", "block-read"],
)
def test_non_integral_subscript_raises_the_walk_error(
    source, options, message, engine
):
    node = generate_spmd(parse_program(source), **options)
    with pytest.raises(SimulationError) as info:
        simulate(node, processors=2, engine=engine)
    assert str(info.value) == message
