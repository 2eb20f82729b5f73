"""Benchmark harness: sweeps, tables and the paper's figure generators."""

from repro.bench.ascii_plot import render_chart
from repro.bench.figures import (
    fig4_series,
    fig5_series,
    figure_machine,
    gemm_variants,
    syr2k_variants,
)
from repro.bench.harness import (
    PAPER_PROCS,
    format_table,
    run_speedup_sweep,
    speedup_table,
)

__all__ = [
    "PAPER_PROCS",
    "render_chart",
    "fig4_series",
    "fig5_series",
    "figure_machine",
    "format_table",
    "gemm_variants",
    "run_speedup_sweep",
    "speedup_table",
    "syr2k_variants",
]
