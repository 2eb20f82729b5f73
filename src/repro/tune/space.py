"""The transformation autotuner's search space.

The paper hand-picks one transformation ``T`` per kernel from the
access-normalization machinery and one data distribution per array.  The
tuner replaces both choices with enumeration:

* **Distribution assignments** — per array, every wrapped/blocked
  dimension choice (the :mod:`repro.core.autodist` menu), extended with
  block-cyclic distributions at configurable block sizes and, optionally,
  replication.
* **Transformation recipes** — candidate bases seeded from the data
  access matrix (Algorithm BasisMatrix row subsets, in both priority
  orders), plus skewed and scaled variants of the reduced basis, each
  repaired by Algorithm LegalBasis and completed to an invertible matrix
  by Algorithm LegalInvt.  The ``derived`` recipe is the paper's own
  pipeline (:func:`repro.core.normalize.derive_transformation_matrix`),
  so the hand-picked transformations are always *in* the space; the
  ``identity`` recipe keeps the untransformed nest as a candidate.

Recipes whose completion fails (LegalBasis drops every row, the padding
is singular, ...) are reported with a reason rather than silently
skipped — the driver records them as pruned candidates.

Nests with non-uniform dependences have no distance matrix to complete
against, so their recipe set degrades to ``derived`` (the conservative
direction-vector partial normalization) and ``identity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.access_matrix import DataAccessMatrix
from repro.core.basis import basis_matrix
from repro.core.legal import legal_basis, legal_invertible
from repro.core.normalize import _derive_with_directions, derive_transformation_matrix
from repro.dependence.distance import Dependence, has_non_uniform
from repro.distributions import BlockCyclic, Blocked, Distribution, Wrapped
from repro.errors import LinalgError, ReproError, IllegalTransformationError
from repro.ir.program import Program
from repro.linalg.fraction_matrix import Matrix

#: Every recipe kind the enumerator understands, in enumeration order.
RECIPE_KINDS = ("derived", "identity", "rows", "skew", "scale")

#: Provenance pairs: ``(access_row_index, negated)`` as in
#: :class:`~repro.core.legal.LegalBasisResult`.
Provenance = Tuple[Tuple[int, bool], ...]

#: Skew factors applied between reduced-basis rows.
SKEW_FACTORS = (1, -1)
#: Diagonal scale factors (non-unimodular stride candidates).
SCALE_FACTORS = (2,)
#: Access-matrix rows considered for subset recipes (ranked prefix).
MAX_ROWS = 6
#: Cap on row-subset recipes per distribution assignment.
MAX_ROW_SELECTIONS = 48


@dataclass(frozen=True)
class SearchSpace:
    """Bounds and knobs of the candidate space.

    ``block_sizes=()`` and ``recipes=("derived",)`` reproduce the classic
    :func:`repro.core.autodist.search_distributions` menu exactly (same
    options, same order), which is how that module is now implemented.
    """

    #: Block sizes offered for block-cyclic distributions (per dimension).
    block_sizes: Tuple[int, ...] = (8,)
    #: Offer full replication (no distribution) per array.
    allow_replicated: bool = False
    #: Recipe kinds to enumerate (subset of :data:`RECIPE_KINDS`).
    recipes: Tuple[str, ...] = RECIPE_KINDS

    def __post_init__(self) -> None:
        unknown = sorted(set(self.recipes) - set(RECIPE_KINDS))
        if unknown:
            raise ReproError(
                f"unknown tuner recipe(s) {', '.join(unknown)}: expected a "
                f"subset of {', '.join(RECIPE_KINDS)}"
            )
        if not self.recipes:
            raise ReproError("the search space needs at least one recipe")
        if any(size <= 0 for size in self.block_sizes):
            raise ReproError("block sizes must be positive")


@dataclass(frozen=True)
class TransformRecipe:
    """How one candidate transformation matrix was constructed.

    ``rows`` are data-access-matrix row indices seeding the basis (in
    priority order); ``skew`` is ``(target, source, factor)`` and
    ``scale`` is ``(target, factor)``, both positions *within* ``rows``.
    """

    kind: str
    rows: Tuple[int, ...] = ()
    skew: Optional[Tuple[int, int, int]] = None
    scale: Optional[Tuple[int, int]] = None

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "derived":
            return f"derived(rows {list(self.rows)})"
        if self.kind == "rows":
            return f"rows {list(self.rows)}"
        if self.kind == "skew":
            target, source, factor = self.skew  # type: ignore[misc]
            sign = "+" if factor > 0 else "-"
            return (
                f"rows {list(self.rows)} with r{target} {sign}= "
                f"{abs(factor)}*r{source}"
            )
        target, factor = self.scale  # type: ignore[misc]
        return f"rows {list(self.rows)} with r{target} *= {factor}"


@dataclass(frozen=True)
class RecipeOutcome:
    """One enumerated recipe: either a matrix or a rejection reason."""

    recipe: TransformRecipe
    matrix: Optional[Matrix] = None
    provenance: Provenance = ()
    error: str = ""


# ----------------------------------------------------------------------
# distribution assignments
# ----------------------------------------------------------------------
def array_options(
    rank: int, space: SearchSpace
) -> List[Optional[Distribution]]:
    """Distribution choices for one array, in enumeration order.

    The wrapped/blocked prefix is the classic ``core.autodist`` menu, so
    that search is a strict prefix of the tuner's.
    """
    options: List[Optional[Distribution]] = []
    for dim in range(rank):
        options.append(Wrapped(dim))
        options.append(Blocked(dim))
    for dim in range(rank):
        for block in space.block_sizes:
            options.append(BlockCyclic(dim, block))
    if space.allow_replicated:
        options.append(None)
    return options


def candidate_assignments(
    program: Program, space: SearchSpace
) -> Iterator[Dict[str, Optional[Distribution]]]:
    """Every per-array distribution assignment, in deterministic order."""
    names = [decl.name for decl in program.arrays]
    option_lists = [
        array_options(program.array(name).rank, space) for name in names
    ]
    for combo in product(*option_lists):
        yield dict(zip(names, combo))


def assignment_count(program: Program, space: SearchSpace) -> int:
    """How many distribution assignments the space contains."""
    total = 1
    for decl in program.arrays:
        total *= len(array_options(decl.rank, space))
    return total


# ----------------------------------------------------------------------
# transformation recipes
# ----------------------------------------------------------------------
def _complete(
    seed: Matrix, deps: Matrix, source_rows: Sequence[int]
) -> Tuple[Matrix, Provenance]:
    """LegalBasis + LegalInvt on a seeded basis, with row provenance."""
    legal = legal_basis(seed, deps)
    transform = legal_invertible(legal.basis, deps)
    provenance = tuple(
        (source_rows[source], negated) for source, negated in legal.row_map
    )
    return transform, provenance


def _row_selections(nrows: int, depth: int) -> Iterator[Tuple[int, ...]]:
    """Ranked-prefix row subsets, smallest first, both priority orders."""
    emitted = 0
    usable = min(nrows, MAX_ROWS)
    for size in range(1, min(depth, usable) + 1):
        for combo in combinations(range(usable), size):
            orders = [combo] if size == 1 else [combo, tuple(reversed(combo))]
            for order in orders:
                if emitted >= MAX_ROW_SELECTIONS:
                    return
                emitted += 1
                yield order


def enumerate_recipes(
    access: DataAccessMatrix,
    deps: Matrix,
    depth: int,
    space: SearchSpace,
    *,
    dependences: Sequence[Dependence] = (),
    kinds: Optional[Sequence[str]] = None,
) -> Iterator[RecipeOutcome]:
    """Yield every candidate transformation for one assignment's access
    matrix, as :class:`RecipeOutcome` records (failed completions carry
    their reason instead of a matrix).

    ``kinds`` restricts (and orders) the recipe kinds for this call; the
    driver uses it to run a derived-first pass over every assignment
    before spending budget on exotic recipes.
    """
    selected = tuple(kinds) if kinds is not None else space.recipes
    selected = tuple(kind for kind in selected if kind in space.recipes)
    non_uniform = has_non_uniform(dependences)
    if non_uniform:
        selected = tuple(k for k in selected if k in ("derived", "identity"))

    matrix = access.matrix
    basis = basis_matrix(matrix) if matrix.nrows else None
    kept = basis.kept_rows if basis is not None else ()

    for kind in selected:
        if kind == "identity":
            yield RecipeOutcome(
                recipe=TransformRecipe("identity"),
                matrix=Matrix.identity(depth),
                provenance=(),
            )
            continue
        if kind == "derived":
            recipe = TransformRecipe("derived", rows=tuple(kept))
            try:
                if non_uniform:
                    derived, provenance = _derive_with_directions(
                        matrix, dependences, depth
                    )
                else:
                    derived, provenance = derive_transformation_matrix(
                        matrix, deps, depth
                    )
                yield RecipeOutcome(recipe, derived, provenance)
            except (IllegalTransformationError, LinalgError, ReproError) as error:
                yield RecipeOutcome(recipe, error=f"no legal completion: {error}")
            continue
        if basis is None or not kept:
            continue  # empty access matrix: nothing to seed rows/skews from
        if kind == "rows":
            for selection in _row_selections(matrix.nrows, depth):
                recipe = TransformRecipe("rows", rows=selection)
                yield _try_complete(
                    recipe, matrix.select_rows(list(selection)), deps, selection
                )
        elif kind == "skew":
            reduced = basis.basis_of(matrix)
            k = reduced.nrows
            for target in range(k):
                for source in range(k):
                    if source == target:
                        continue
                    for factor in SKEW_FACTORS:
                        recipe = TransformRecipe(
                            "skew", rows=tuple(kept),
                            skew=(target, source, factor),
                        )
                        rows = [list(reduced.row_at(i)) for i in range(k)]
                        rows[target] = [
                            value + factor * rows[source][j]
                            for j, value in enumerate(rows[target])
                        ]
                        yield _try_complete(recipe, Matrix(rows), deps, kept)
        elif kind == "scale":
            reduced = basis.basis_of(matrix)
            k = reduced.nrows
            for target in range(k):
                for factor in SCALE_FACTORS:
                    recipe = TransformRecipe(
                        "scale", rows=tuple(kept), scale=(target, factor)
                    )
                    rows = [list(reduced.row_at(i)) for i in range(k)]
                    rows[target] = [factor * value for value in rows[target]]
                    yield _try_complete(recipe, Matrix(rows), deps, kept)


def _try_complete(
    recipe: TransformRecipe,
    seed: Matrix,
    deps: Matrix,
    source_rows: Sequence[int],
) -> RecipeOutcome:
    try:
        matrix, provenance = _complete(seed, deps, source_rows)
    except (IllegalTransformationError, LinalgError, ReproError) as error:
        return RecipeOutcome(recipe, error=f"no legal completion: {error}")
    return RecipeOutcome(recipe, matrix, provenance)


__all__ = [
    "Provenance",
    "RECIPE_KINDS",
    "RecipeOutcome",
    "SearchSpace",
    "TransformRecipe",
    "array_options",
    "assignment_count",
    "candidate_assignments",
    "enumerate_recipes",
]
