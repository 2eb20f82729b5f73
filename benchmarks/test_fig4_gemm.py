"""FIG4 — Figure 4 of the paper: GEMM speedup on the Butterfly GP-1000.

Regenerates the three curves (``gemm``, ``gemmT``, ``gemmB``) at the
paper's scale (400x400 arrays, P = 1..28) on the simulator's ``auto``
engine (tier 0: one symbolic form per variant), and cross-checks a
smaller scale and one point against the interpreter walk.

Expected shape (paper): the untransformed ``gemm`` saturates at low
speedup; the normalized variants scale to ~20 at 28 processors with
``gemmB`` above ``gemmT`` by a modest margin (three of four accesses are
already local after normalization, so block transfers add relatively
little here).
"""

import pytest

from repro.bench import (
    PAPER_PROCS,
    fig4_series,
    figure_machine,
    render_chart,
    speedup_table,
)


def test_fig4_paper_scale(benchmark, show):
    procs, series = benchmark(fig4_series, 400, PAPER_PROCS)
    show("Figure 4: GEMM speedups (N=400)",
         speedup_table(procs, series) + "\n\n"
         + render_chart(procs, series, title="speedup vs processors"))
    last = {name: values[-1] for name, values in series.items()}
    # Shape assertions: ordering and saturation as in the paper.
    assert last["gemmB"] > last["gemmT"] > last["gemm"]
    assert last["gemm"] < 8.0            # naive saturates low
    assert last["gemmT"] > 12.0          # normalized scales
    assert last["gemmB"] > 18.0          # block transfers help a bit more
    # Monotone growth for the normalized variants.
    assert series["gemmB"] == sorted(series["gemmB"])
    assert series["gemmT"] == sorted(series["gemmT"])


def test_fig4_simulated_cross_check(benchmark, show):
    procs = (1, 8, 16, 28)
    procs_out, series = benchmark.pedantic(
        fig4_series, args=(96, procs), rounds=1, iterations=1
    )
    show("Figure 4 cross-check (N=96)",
         speedup_table(procs_out, series))
    assert series["gemmB"][-1] > series["gemmT"][-1] > series["gemm"][-1]


def test_fig4_auto_matches_walk_midscale(benchmark):
    """The symbolic tier and the interpreter walk agree exactly."""
    from repro.bench import gemm_variants
    from repro.numa import simulate

    machine = figure_machine()
    nodes = gemm_variants(48)

    def run():
        auto = simulate(nodes["gemmB"], processors=12, machine=machine)
        walk = simulate(
            nodes["gemmB"], processors=12, machine=machine, engine="walk"
        )
        return auto.total_time_us, walk.total_time_us

    auto_time, walk_time = benchmark(run)
    assert auto_time == pytest.approx(walk_time, rel=1e-9)
