"""Regeneration of the paper's results figures (Figures 4 and 5).

Both figures plot speedup against processor count (1..28) on a simulated
BBN Butterfly GP-1000.  ``figure_machine`` is the calibrated machine used
throughout: the published access/transfer constants, a 10 us
multiply-add statement cost, and a mild contention coefficient (the paper
discusses contention in Sections 1 and 8); EXPERIMENTS.md records the
calibration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import PAPER_PROCS, run_speedup_sweep
from repro.blas import PAPER_PRIORITY, gemm_program, syr2k_program
from repro.codegen import generate_spmd
from repro.core import access_normalize
from repro.numa.machine import MachineConfig, butterfly_gp1000
from repro.runtime.cache import SimulationCache
from repro.runtime.metrics import Metrics


def figure_machine(**overrides) -> MachineConfig:
    """The calibrated machine model used for the figure reproductions."""
    defaults = dict(contention_coefficient=0.05)
    defaults.update(overrides)
    return butterfly_gp1000(**defaults)


def gemm_variants(n: int) -> Dict[str, object]:
    """The three node programs behind Figure 4's curves."""
    program = gemm_program(n)
    normalized = access_normalize(program).transformed
    return {
        "gemm": generate_spmd(program, block_transfers=False),
        "gemmT": generate_spmd(normalized, block_transfers=False),
        "gemmB": generate_spmd(normalized, block_transfers=True),
    }


def syr2k_variants(n: int, b: int) -> Dict[str, object]:
    """The three node programs behind Figure 5's curves."""
    program = syr2k_program(n, b)
    normalized = access_normalize(program, priority=PAPER_PRIORITY).transformed
    return {
        "syr2k": generate_spmd(program, block_transfers=False),
        "syr2kT": generate_spmd(normalized, block_transfers=False),
        "syr2kB": generate_spmd(normalized, block_transfers=True),
    }


def fig4_series(
    n: int = 400,
    procs: Sequence[int] = PAPER_PROCS,
    machine: Optional[MachineConfig] = None,
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> Tuple[Sequence[int], Dict[str, List[float]]]:
    """Figure 4 (GEMM speedups), via the simulator's ``auto`` engine.

    Tier 0 derives each variant's counts once as a symbolic form, so
    the paper's 400x400 scale evaluates in a fraction of a second.
    """
    machine = machine or figure_machine()
    series = run_speedup_sweep(
        gemm_variants(n), procs, machine=machine, baseline="gemmB",
        jobs=jobs, cache=cache, metrics=metrics,
    )
    return procs, series


def fig5_series(
    n: int = 400,
    b: int = 48,
    procs: Sequence[int] = PAPER_PROCS,
    machine: Optional[MachineConfig] = None,
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> Tuple[Sequence[int], Dict[str, List[float]]]:
    """Figure 5 (banded SYR2K speedups), via the event-exact simulator.

    The banded iteration space is small enough (outer trip count ``2b-1``)
    that exact simulation at paper scale is cheap.
    """
    machine = machine or figure_machine()
    series = run_speedup_sweep(
        syr2k_variants(n, b), procs, machine=machine, baseline="syr2kB",
        jobs=jobs, cache=cache, metrics=metrics,
    )
    return procs, series
