"""Automatic data-distribution selection (Section 9, future work).

The paper speculates: "it might be possible to start with the dependence
matrix and use our techniques in reverse, so to speak, to determine what a
good data distribution should be", noting that the main difficulty is load
balance.  This module implements that idea as an empirical search: for
each candidate assignment of wrapped/blocked/replicated distributions to
the program's arrays, run the *full* pipeline — access normalization,
SPMD code generation with block transfers, event-exact simulation — and
rank candidates by simulated makespan (which accounts for locality, block
transfers *and* load balance at once, addressing the paper's concern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.distributions import Distribution
from repro.errors import ReproError
from repro.ir.program import Program
from repro.numa.machine import MachineConfig, butterfly_gp1000
from repro.runtime.cache import SimulationCache
from repro.runtime.metrics import Metrics


@dataclass(frozen=True)
class Candidate:
    """One evaluated distribution assignment."""

    distributions: Mapping[str, Optional[Distribution]]
    time_us: float
    transformation_labels: Tuple[str, ...]

    def describe(self) -> str:
        parts = []
        for name in sorted(self.distributions):
            distribution = self.distributions[name]
            label = distribution.describe() if distribution else "replicated"
            parts.append(f"{name}: {label}")
        return "; ".join(parts)


@dataclass(frozen=True)
class AutoDistResult:
    """Outcome of the search: every candidate, best first."""

    ranking: Tuple[Candidate, ...]
    evaluated: int

    @property
    def best(self) -> Candidate:
        return self.ranking[0]


def search_distributions(
    program: Program,
    *,
    processors: int = 16,
    machine: Optional[MachineConfig] = None,
    params: Optional[Mapping[str, int]] = None,
    max_candidates: Optional[int] = None,
    allow_replicated: bool = False,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> AutoDistResult:
    """Search distribution assignments, best (lowest makespan) first.

    ``params`` can scale the problem down so the search stays cheap; the
    *relative* ranking is what matters.  Candidates whose pipeline fails
    (e.g. no legal transformation) are skipped.

    This classic search is now a thin preset of the transformation
    autotuner (:func:`repro.tune.search.tune_program`): the same
    wrapped/blocked menu (``SearchSpace(block_sizes=(), ...)``), only the
    paper's derived transformation per assignment
    (``recipes=("derived",)``), scored at a single processor count.  The
    tuner shares the scoring path — one :func:`run_grid` fan-out over
    ``jobs`` workers with memoization — so the ranking is identical at
    any job count, and each candidate keeps its full provenance.
    """
    from repro.tune.search import tune_program
    from repro.tune.space import SearchSpace

    machine = machine or butterfly_gp1000()
    metrics = metrics if metrics is not None else Metrics()
    space = SearchSpace(
        block_sizes=(),
        allow_replicated=allow_replicated,
        recipes=("derived",),
    )
    try:
        outcome = tune_program(
            program,
            processors=(processors,),
            machine=machine,
            params=params,
            budget=max_candidates,
            space=space,
            jobs=jobs,
            cache=cache,
            metrics=metrics,
            include_baseline=False,
        )
    except ReproError:
        raise ReproError("no distribution candidate could be evaluated")
    candidates = [
        Candidate(
            distributions=dict(scored.distributions),
            time_us=scored.times_us[0],
            transformation_labels=tuple(scored.labels),
        )
        for scored in outcome.ranking
    ]
    return AutoDistResult(ranking=tuple(candidates), evaluated=len(candidates))
