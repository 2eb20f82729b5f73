"""The transformation autotuner's driver: admit, materialize, score, rank.

Three phases over one list of candidate specs, one per ``(distribution
assignment, recipe)``:

1. **Admit** (``_admit``) — enumerate every assignment's recipes
   (:mod:`repro.tune.space`), deduplicate matrices per assignment, and
   reject any matrix failing Section 6's legality criterion
   (:func:`~repro.core.legal.is_legal_transformation`, or its
   direction-vector variant for non-uniform nests) before spending
   anything on it.
2. **Materialize** (``_materialize_task``) — apply the transformation
   (Fourier-Motzkin bounds, Hermite lattice), generate the SPMD node
   program, and re-prove legality with the analysis legality pass
   (LEG001-LEG004) over the produced artifacts; this fans out over
   :func:`~repro.runtime.executor.run_tasks`.
3. **Score** — simulate every survivor at every requested processor
   count through one :func:`~repro.runtime.executor.run_grid` call, so
   the tiered accounting engine and the shared
   :class:`~repro.runtime.cache.SimulationCache` make thousands of
   candidates cheap.

The fuzz oracle :func:`verify_search_legality` runs the first two
phases as they are, so it checks the path the tuner takes.

Ranking is by ``(sum of per-P times, per-P time tuple, enumeration
index)`` — fully deterministic and independent of ``jobs`` (both fan-out
primitives return results in input order).

``budget`` caps *admitted* (pruner-passed) candidates, counted in
enumeration order.  Enumeration runs in two passes — the ``derived``
recipe over every assignment first, then the remaining recipes — so a
small budget still covers the whole distribution menu with each
assignment's natural transformation (the ``core.autodist`` search is
exactly that first pass) before exploring exotic bases on early
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.manager import analyze_artifacts, resolve_passes
from repro.codegen.spmd import NodeProgram, generate_spmd
from repro.core.access_matrix import DataAccessMatrix, build_access_matrix
from repro.core.classify import classify
from repro.core.directions import (
    distance_to_direction,
    is_legal_direction_transformation,
)
from repro.core.legal import is_legal_transformation
from repro.core.normalize import NormalizationResult, access_normalize
from repro.core.transform import apply_transformation
from repro.dependence.analysis import analyze_dependences
from repro.dependence.distance import (
    Dependence,
    dependence_matrix,
    has_non_uniform,
)
from repro.distributions import Distribution
from repro.errors import ReproError
from repro.ir.program import Program
from repro.linalg.fraction_matrix import Matrix
from repro.numa.machine import MachineConfig, butterfly_gp1000
from repro.runtime.cache import SimulationCache
from repro.runtime.executor import SweepCell, run_grid, run_tasks
from repro.runtime.metrics import Metrics
from repro.tune.space import (
    Provenance,
    SearchSpace,
    TransformRecipe,
    assignment_count,
    candidate_assignments,
    enumerate_recipes,
)

#: Default processor counts candidates are scored at (the paper's figures
#: report P = 4 and P = 16 for both kernels).
DEFAULT_PROCESSORS = (4, 16)

#: Default cap on admitted candidates.
DEFAULT_BUDGET = 400


@dataclass(frozen=True)
class TuneCandidate:
    """One candidate of the search, scored or pruned, with provenance."""

    index: int
    distributions: Mapping[str, Optional[Distribution]]
    recipe: TransformRecipe
    matrix: Optional[Matrix]
    provenance: Provenance = ()
    #: Signed subscript expressions behind ``provenance`` (e.g. ``-(j-i)``
    #: for a row LegalBasis negated into a loop reversal).
    access_rows: Tuple[str, ...] = ()
    labels: Tuple[str, ...] = ()
    status: str = "scored"  # "scored" | "pruned"
    reason: str = ""
    times_us: Tuple[float, ...] = ()

    @property
    def total_us(self) -> float:
        """The ranking score: summed simulated time over the swept P."""
        return sum(self.times_us)

    def describe_distributions(self) -> str:
        parts = []
        for name in sorted(self.distributions):
            distribution = self.distributions[name]
            label = distribution.describe() if distribution else "replicated"
            parts.append(f"{name}: {label}")
        return "; ".join(parts)

    def describe_matrix(self) -> str:
        if self.matrix is None:
            return "(none)"
        return repr(self.matrix)

    def provenance_text(self) -> str:
        """Which access rows (and signs) the leading rows of T came from."""
        if not self.access_rows:
            return f"{self.recipe.describe()}; no access-matrix rows kept"
        return (
            f"{self.recipe.describe()}; normal rows: "
            + ", ".join(self.access_rows)
        )


@dataclass(frozen=True)
class TuneResult:
    """Everything the search produced, ranking best-first."""

    program_name: str
    machine_name: str
    processors: Tuple[int, ...]
    params: Optional[Dict[str, int]]
    budget: Optional[int]
    assignments: int
    enumerated: int
    admitted: int
    ranking: Tuple[TuneCandidate, ...]
    pruned: Tuple[TuneCandidate, ...]
    #: The program's own declared distributions with the paper's derived
    #: transformation — the hand-picked configuration candidates must beat.
    baseline: Optional[TuneCandidate] = None

    @property
    def best(self) -> TuneCandidate:
        return self.ranking[0]

    @property
    def scored(self) -> int:
        return len(self.ranking)


@dataclass
class _Spec:
    """One enumerated candidate on its way through admit, materialize and
    score."""

    index: int
    trial: Program
    assignment: Dict[str, Optional[Distribution]]
    recipe: TransformRecipe
    matrix: Optional[Matrix]
    provenance: Provenance
    access: DataAccessMatrix
    access_rows: Tuple[str, ...] = ()
    node: Optional[NodeProgram] = None


def _pruned(spec: _Spec, reason: str) -> TuneCandidate:
    return TuneCandidate(
        index=spec.index, distributions=spec.assignment, recipe=spec.recipe,
        matrix=spec.matrix, provenance=spec.provenance,
        access_rows=spec.access_rows, status="pruned", reason=reason,
    )


def _trial_program(
    program: Program,
    assignment: Mapping[str, Optional[Distribution]],
    params: Optional[Mapping[str, int]],
) -> Program:
    distributions = {
        name: distribution
        for name, distribution in assignment.items()
        if distribution is not None
    }
    return Program(
        nest=program.nest,
        arrays=program.arrays,
        distributions=distributions,
        params=program.bound_params(params),
        name=program.name,
        assumptions=tuple(getattr(program, "assumptions", ()) or ()),
    )


def _signed_rows(access: DataAccessMatrix, provenance: Provenance) -> Tuple[str, ...]:
    rows = []
    for row_index, negated in provenance:
        if row_index >= len(access.rows):
            continue  # defensive: provenance beyond the built rows
        expr = str(access.rows[row_index].expr)
        rows.append(f"-({expr})" if negated else expr)
    return tuple(rows)


def _materialize_task(item) -> Tuple[str, object, str]:
    """Top-level worker: transform, generate SPMD, re-prove legality.

    ``item`` is ``(spec, dependence context, assumptions)``.  Returns
    ``("ok", node, legality_error_codes)`` or ``("error", reason, "")``;
    exceptions never escape so a bad candidate cannot take down the pool.
    """
    spec, (dependences, deps, directions), assumptions = item
    trial = spec.trial
    try:
        transformation = apply_transformation(
            trial.nest, spec.matrix, assumptions=tuple(assumptions)
        )
        transformed = trial.with_nest(
            transformation.nest, name=f"{trial.name}-tuned"
        )
        node = generate_spmd(transformed)
    except ReproError as error:
        return ("error", f"pipeline: {error}", "")
    except Exception as error:  # noqa: BLE001 - candidate bugs are data
        return ("error", f"pipeline: {type(error).__name__}: {error}", "")
    result = NormalizationResult(
        program=trial,
        transformed=transformed,
        transformation=transformation,
        access=spec.access,
        dependences=tuple(dependences),
        dependence_columns=deps,
        normalized_rows=spec.provenance,
        direction_dependences=directions,
    )
    try:
        report = analyze_artifacts(
            trial, result=result, node=node,
            passes=resolve_passes(["legality"]),
        )
    except Exception as error:  # noqa: BLE001
        return ("error", f"legality pass crashed: {error}", "")
    codes = ",".join(report.error_codes) if report.has_errors else ""
    return ("ok", node, codes)


#: ``(dependences, distance matrix, direction vectors)`` of one program.
_DependenceContext = Tuple[
    Tuple[Dependence, ...], Matrix, Tuple[Tuple[str, ...], ...]
]


def _dependence_context(
    program: Program, params: Optional[Mapping[str, int]]
) -> _DependenceContext:
    """Dependences, distance matrix and direction vectors — distribution
    independent, so computed once per program."""
    depth = program.nest.depth
    dependences = tuple(
        analyze_dependences(program.nest, program.bound_params(params) or None)
    )
    if has_non_uniform(dependences):
        directions = tuple(
            distance_to_direction(d.distance)
            if d.distance is not None
            else tuple(d.direction)
            for d in dependences
        )
        return dependences, Matrix.zeros(depth, 0), directions
    deps = dependence_matrix(
        [d for d in dependences if d.distance is not None], depth
    )
    return dependences, deps, ()


def _quick_legal(
    matrix: Matrix,
    deps: Matrix,
    directions: Tuple[Tuple[str, ...], ...],
) -> bool:
    if directions:
        return is_legal_direction_transformation(matrix, directions)
    return is_legal_transformation(matrix, deps)


def _admit(
    program: Program,
    space: SearchSpace,
    context: _DependenceContext,
    *,
    params: Optional[Mapping[str, int]] = None,
    priority: Optional[Sequence[str]] = None,
    budget: Optional[int] = None,
    metrics: Metrics,
) -> Tuple[List[_Spec], List[TuneCandidate]]:
    """Enumerate assignments × recipes and admit what Section 6 allows.

    Matrices are deduplicated per assignment.  A recipe without a
    matrix, or whose matrix fails the quick legality prune, becomes a
    pruned candidate.  The ``derived`` recipe runs over every assignment
    before the other recipes, and ``budget`` caps the admitted specs.
    Returns ``(admitted, pruned)``, each in enumeration order.
    """
    dependences, deps, directions = context
    depth = program.nest.depth
    per_assignment = []
    for assignment in candidate_assignments(program, space):
        trial = _trial_program(program, assignment, params)
        access = build_access_matrix(
            trial.nest, trial.distributions, priority=priority
        )
        per_assignment.append((assignment, trial, access, set()))

    passes = [
        kinds for kinds in (
            ("derived",),
            tuple(k for k in space.recipes if k != "derived"),
        ) if any(k in space.recipes for k in kinds)
    ]
    admitted: List[_Spec] = []
    pruned: List[TuneCandidate] = []
    for kinds in passes:
        for assignment, trial, access, seen in per_assignment:
            for outcome in enumerate_recipes(
                access, deps, depth, space,
                dependences=dependences, kinds=kinds,
            ):
                if outcome.matrix is not None:
                    key = repr(outcome.matrix)
                    if key in seen:
                        metrics.count("tune.duplicates")
                        continue
                    seen.add(key)
                metrics.count("tune.candidates")
                spec = _Spec(
                    index=len(admitted) + len(pruned), trial=trial,
                    assignment=dict(assignment), recipe=outcome.recipe,
                    matrix=outcome.matrix, provenance=outcome.provenance,
                    access=access,
                    access_rows=_signed_rows(access, outcome.provenance),
                )
                if outcome.matrix is None:
                    pruned.append(_pruned(spec, outcome.error))
                elif not _quick_legal(outcome.matrix, deps, directions):
                    pruned.append(_pruned(
                        spec, "illegal: a column of T @ D is not "
                        "lexicographically positive",
                    ))
                else:
                    admitted.append(spec)
                    metrics.count("tune.admitted")
                    if budget is not None and len(admitted) >= budget:
                        return admitted, pruned
                    continue
                metrics.count("tune.pruned")
    return admitted, pruned


def tune_program(
    program: Program,
    *,
    processors: Sequence[int] = DEFAULT_PROCESSORS,
    machine: Optional[MachineConfig] = None,
    params: Optional[Mapping[str, int]] = None,
    priority: Optional[Sequence[str]] = None,
    assumptions: Optional[Sequence[str]] = None,
    budget: Optional[int] = DEFAULT_BUDGET,
    space: Optional[SearchSpace] = None,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
    include_baseline: bool = True,
) -> TuneResult:
    """Search the T × distribution × block-size space, best first.

    ``params`` binds symbolic program parameters for *scoring* (the
    relative ranking is what matters; score at a scaled-down size to keep
    the search cheap, then validate winners at full scale).  Raises
    :class:`~repro.errors.ReproError` when no candidate survives scoring.
    """
    machine = machine or butterfly_gp1000()
    metrics = metrics if metrics is not None else Metrics()
    space = space if space is not None else SearchSpace()
    procs = tuple(processors)
    if not procs or any(p <= 0 for p in procs):
        raise ReproError("tune needs a non-empty list of positive processor counts")
    if budget is not None and budget <= 0:
        raise ReproError(f"budget must be positive, got {budget}")
    if assumptions is None:
        assumptions = tuple(getattr(program, "assumptions", ()) or ())

    context = _dependence_context(program, params)

    # -- admit (serial, deterministic) ---------------------------------
    with metrics.stage("tune.enumerate"):
        admitted, pruned = _admit(
            program, space, context, params=params, priority=priority,
            budget=budget, metrics=metrics,
        )
    enumerated = len(admitted) + len(pruned)  # later phases prune more

    # -- materialize (parallel, order-preserving) ----------------------
    items = [(spec, context, assumptions) for spec in admitted]
    with metrics.stage("tune.materialize"):
        outcomes = run_tasks(_materialize_task, items, jobs=jobs, metrics=metrics)
    survivors: List[_Spec] = []
    for spec, (status, payload, codes) in zip(admitted, outcomes):
        if status == "error" or codes:
            reason = (
                str(payload) if status == "error"
                else f"legality pass: {codes}"
            )
            pruned.append(_pruned(spec, reason))
            metrics.count("tune.pruned")
            continue
        spec.node = payload  # type: ignore[assignment]
        survivors.append(spec)
    metrics.count("tune.materialized", len(survivors))

    # -- baseline: declared distributions + the paper's derived T ------
    baseline_spec: Optional[_Spec] = None
    if include_baseline:
        try:
            declared = {
                decl.name: program.distributions.get(decl.name)
                for decl in program.arrays
            }
            trial = _trial_program(program, declared, params)
            result = access_normalize(
                trial, priority=priority, assumptions=assumptions or None
            )
            baseline_spec = _Spec(
                index=-1, trial=trial, assignment=declared,
                recipe=TransformRecipe(
                    "derived",
                    rows=tuple(row for row, _ in result.normalized_rows),
                ),
                matrix=result.matrix, provenance=result.normalized_rows,
                access=result.access,
                access_rows=_signed_rows(result.access, result.normalized_rows),
                node=generate_spmd(result.transformed),
            )
        except ReproError:
            baseline_spec = None

    # -- score (one grid, shared cache, jobs fan-out) ------------------
    to_score = survivors + ([baseline_spec] if baseline_spec else [])
    cells = [
        SweepCell(f"tune-{spec.index}", spec.node, p, None, machine)
        for spec in to_score
        for p in procs
    ]
    with metrics.stage("tune.score"):
        grid = run_grid(
            cells, jobs=jobs, cache=cache, metrics=metrics, on_error="keep"
        )

    scored: List[TuneCandidate] = []
    baseline: Optional[TuneCandidate] = None
    for slot, spec in enumerate(to_score):
        window = grid[slot * len(procs):(slot + 1) * len(procs)]
        failure = next((o for o in window if isinstance(o, ReproError)), None)
        candidate_fields = dict(
            index=spec.index, distributions=spec.assignment,
            recipe=spec.recipe, matrix=spec.matrix,
            provenance=spec.provenance, access_rows=spec.access_rows,
            labels=tuple(classify(spec.matrix)),
        )
        if failure is not None:
            candidate = TuneCandidate(
                status="pruned", reason=f"simulation: {failure}",
                **candidate_fields,
            )
            if spec is baseline_spec:
                baseline = candidate
            else:
                pruned.append(candidate)
                metrics.count("tune.pruned")
            continue
        candidate = TuneCandidate(
            status="scored",
            times_us=tuple(o.total_time_us for o in window),
            **candidate_fields,
        )
        if spec is baseline_spec:
            baseline = candidate
        else:
            scored.append(candidate)
            metrics.count("tune.scored")

    if not scored:
        raise ReproError("no tuning candidate could be scored")
    scored.sort(key=lambda c: (c.total_us, c.times_us, c.index))
    pruned.sort(key=lambda c: c.index)
    return TuneResult(
        program_name=program.name,
        machine_name=machine.name,
        processors=procs,
        params=dict(params) if params else None,
        budget=budget,
        assignments=assignment_count(program, space),
        enumerated=enumerated,
        admitted=len(admitted),
        ranking=tuple(scored),
        pruned=tuple(pruned),
        baseline=baseline,
    )


# ----------------------------------------------------------------------
# fuzz-oracle hook
# ----------------------------------------------------------------------
def verify_search_legality(
    program: Program,
    *,
    budget: int = 12,
    space: Optional[SearchSpace] = None,
) -> Tuple[int, str]:
    """Re-prove legality on every transformation the tuner would emit.

    Runs the tuner's own admit phase (enumeration, dedupe and Section
    6's quick prune, capped at ``budget`` admitted candidates) and its
    materialize task, whose analysis legality pass (LEG001-LEG004)
    re-checks each admitted candidate over the materialized artifacts.
    Returns ``(candidates_checked, "")`` on success or ``(n, detail)``
    naming the first candidate the pass flags: a T that the quick prune
    admitted but the pass rejects is a tuner bug.

    This is the differential fuzzer's tuner oracle; ``budget`` keeps it
    cheap per fuzz case.
    """
    space = space if space is not None else SearchSpace(block_sizes=())
    context = _dependence_context(program, None)
    assumptions = tuple(getattr(program, "assumptions", ()) or ())
    admitted, _ = _admit(
        program, space, context, budget=budget, metrics=Metrics()
    )
    for checked, spec in enumerate(admitted, 1):
        status, _, codes = _materialize_task((spec, context, assumptions))
        if status == "ok" and codes:
            where = _pruned(spec, codes).describe_distributions()
            return checked, (
                f"emitted T flagged by the legality pass ({codes}): "
                f"{spec.recipe.describe()} under {where}"
            )
    return len(admitted), ""


__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_PROCESSORS",
    "TuneCandidate",
    "TuneResult",
    "tune_program",
    "verify_search_legality",
]
