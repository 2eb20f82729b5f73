"""One-command regeneration of every experiment: ``python -m repro.bench.report``.

Runs FIG4, FIG5 and the ablations, and writes a markdown report (default
``RESULTS.md``) with the reproduced tables and ASCII charts.  This is the
companion artifact to EXPERIMENTS.md: EXPERIMENTS.md interprets, the report
regenerates.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Sequence

from repro.bench.ascii_plot import render_chart
from repro.bench.figures import fig4_series, fig5_series, figure_machine
from repro.bench.harness import PAPER_PROCS, format_table, speedup_table
from repro.numa.machine import butterfly_gp1000, ipsc860, uniform_memory
from repro.runtime.cache import SimulationCache
from repro.runtime.metrics import Metrics, with_process_counters


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def fig4_section(n: int, **sweep) -> str:
    procs, series = fig4_series(n, PAPER_PROCS, **sweep)
    body = (
        speedup_table(procs, series)
        + "\n\n"
        + render_chart(procs, series, title=f"GEMM speedup, N={n}")
    )
    return _section(
        f"FIG4 — GEMM speedups (N={n}, event-exact simulator)", body
    )


def fig5_section(
    n: int,
    b: int,
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> str:
    procs, series = fig5_series(
        n, b, PAPER_PROCS, jobs=jobs, cache=cache, metrics=metrics
    )
    body = (
        speedup_table(procs, series)
        + "\n\n"
        + render_chart(procs, series, title=f"banded SYR2K speedup, N={n}, b={b}")
    )
    return _section(
        f"FIG5 — banded SYR2K speedups (N={n}, b={b}, event-exact simulator)",
        body,
    )


def _gemm_speedups(n: int, processors: int, machine, **sweep):
    """Each GEMM variant's speedup at ``processors`` over gemmB at P=1."""
    _, series = fig4_series(n, [processors], machine, **sweep)
    return {variant: values[0] for variant, values in series.items()}


def contention_section(n: int = 400, processors: int = 28, **sweep) -> str:
    rows = []
    for coefficient in (0.0, 0.05, 0.1, 0.2, 0.4):
        machine = butterfly_gp1000(contention_coefficient=coefficient)
        speeds = _gemm_speedups(n, processors, machine, **sweep)
        speed_t, speed_b = speeds["gemmT"], speeds["gemmB"]
        rows.append(
            (coefficient, f"{speed_t:.2f}", f"{speed_b:.2f}",
             f"{speed_b / speed_t:.2f}x")
        )
    return _section(
        f"ABL1 — contention sweep (GEMM N={n}, P={processors})",
        format_table(["coeff", "gemmT", "gemmB", "B advantage"], rows),
    )


def machines_section(n: int = 400, processors: int = 16, **sweep) -> str:
    rows = []
    for factory in (butterfly_gp1000, ipsc860, uniform_memory):
        machine = factory()
        speeds = _gemm_speedups(n, processors, machine, **sweep)
        rows.append(
            (
                machine.name,
                f"{speeds['gemm']:.2f}",
                f"{speeds['gemmT']:.2f}",
                f"{speeds['gemmB']:.2f}",
            )
        )
    return _section(
        f"ABL6 — machine sensitivity (GEMM N={n}, P={processors})",
        format_table(["machine", "gemm", "gemmT", "gemmB"], rows),
    )


def breakeven_section() -> str:
    rows = []
    for factory in (butterfly_gp1000, ipsc860):
        machine = factory()
        rows.append(
            (machine.name, f"{machine.block_breakeven_elements(8):.2f}")
        )
    return _section(
        "ABL3 — block-transfer breakeven (8-byte elements)",
        format_table(["machine", "breakeven elements"], rows),
    )


def _stamp_line(timestamp: bool) -> str:
    """The "Generated ..." line, deterministic when asked.

    ``timestamp=False`` drops the wall-clock entirely; otherwise the
    conventional ``SOURCE_DATE_EPOCH`` environment variable (an integer
    UNIX time) pins it for reproducible builds.
    """
    if not timestamp:
        return "Generated by `python -m repro.bench.report`."
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(int(epoch)))
    else:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    return f"Generated {stamp} by `python -m repro.bench.report`."


def build_report(
    n_gemm: int = 400,
    n_syr2k: int = 400,
    b: int = 48,
    *,
    jobs: int = 1,
    timestamp: bool = True,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> str:
    """Assemble the full markdown report.

    The simulated sections run on the parallel sweep engine: ``jobs``
    controls the fan-out (output is byte-identical at any job count),
    ``cache`` memoizes simulation cells across regenerations and
    ``metrics`` records stage timings and cache hit/miss counters.
    """
    machine = figure_machine()
    sweep = dict(jobs=jobs, cache=cache, metrics=metrics)
    parts: List[str] = [
        "# Reproduced results",
        "",
        _stamp_line(timestamp),
        "",
        f"Machine model: {machine.name} — local {machine.local_access_us} us, "
        f"remote {machine.remote_access_us} us, block "
        f"{machine.block_startup_us} us + {machine.block_per_byte_us} us/byte, "
        f"compute {machine.compute_per_statement_us} us/stmt, "
        f"contention {machine.contention_coefficient}.",
        "",
        fig4_section(n_gemm, **sweep),
        fig5_section(n_syr2k, b, **sweep),
        contention_section(**sweep),
        machines_section(**sweep),
        breakeven_section(),
    ]
    return "\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.report",
        description="Regenerate every figure/table into a markdown report",
    )
    parser.add_argument("--output", default="RESULTS.md")
    parser.add_argument("--gemm-n", type=int, default=400)
    parser.add_argument("--syr2k-n", type=int, default=400)
    parser.add_argument("--band", type=int, default=48)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="simulate sweep cells on this many worker processes "
        "(0 = all cores); output is identical at any job count",
    )
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generation timestamp so repeated runs are "
        "byte-identical (SOURCE_DATE_EPOCH also pins it)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-stage timings and cache statistics to stderr",
    )
    args = parser.parse_args(argv)
    metrics = Metrics()
    report = build_report(
        args.gemm_n, args.syr2k_n, args.band,
        jobs=args.jobs, timestamp=not args.no_timestamp, metrics=metrics,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    if args.profile:
        print(with_process_counters(metrics).report(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
