#!/usr/bin/env python
"""Micro-benchmark the tier-0 form evaluators; calibrate the cost model.

The symbolic cost model (:func:`repro.linalg.sympoly.planned_cost` and
``SYMBOLIC_COST_CEILING`` in :mod:`repro.numa.simulator`) prices a form
in *flat ops*: one polynomial term or atom evaluation, and one step of
a fused loop.  Auto's tier gate compares that estimate against the
ceiling, so the ceiling only demotes honestly if it is derived from what
the compiled evaluators actually cost at runtime.  This script
measures, on the host it runs on:

``flat_ns_per_op``
    Wall-clock per flat op of a straight-line compiled form (no loops).

``loop_ns_per_iter``
    Per-iteration cost of a compiled fused loop with induction
    registers, the ``trips * (1 + iter_ops)`` side of ``planned_cost``.

``syr2k_paper``
    The calibration that the tier gate rests on: on the naive banded
    SYR2K kernel (N=416, b=52, the largest paper-scale cell the
    benchmark runs), ``estimate_cost`` ops versus measured ``account``
    wall per cell on tier 0, and at P=1 the closed-form tier's wall on
    the same cell.

``break_even_ops``
    The bound these conversions imply: the closed-form cell's wall
    divided by tier 0's ns per estimated op at P=1.  A form estimated
    above it would evaluate slower than the closed-form cell it
    replaces.  ``SYMBOLIC_COST_CEILING`` sits below this bound and above
    every form the paper sweeps keep; re-derive it when
    ``ns_per_estimated_op`` shifts by more than ~2x.

The results land in the ``sympoly`` section of ``BENCH_simulator.json``
(everything else in the file is preserved; ``bench_trajectory.py``
likewise preserves this section when it re-records the sweeps).

Usage (from the repo root):

    PYTHONPATH=src python scripts/bench_sympoly.py
    PYTHONPATH=src python scripts/bench_sympoly.py --repeats 1 --dry-run
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench import syr2k_variants
from repro.linalg.sympoly import (
    _flat_ops,
    bounded_sum,
    compile_account,
    floordiv,
    mod,
    pos,
    sym,
)
from repro.numa.counting import ClosedFormEngine
from repro.numa.simulator import SYMBOLIC_COST_CEILING
from repro.numa.symbolic import SymbolicEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_simulator.json")


def _best_of(repeats, fn, *args):
    """Best wall clock of ``repeats`` runs (noise floor, not average)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure_flat(repeats):
    """ns per flat op of a straight-line compiled form."""
    n, p, P = sym("n"), sym("p"), sym("P")
    expr = (
        3 * n * n
        + 2 * n * p
        + 5 * floordiv(n, P)
        + mod(n + p, P)
        + pos(n + (-7) * p)
        + mod(3 * n + 1, 4)
    )
    ops = _flat_ops(expr)
    fn = compile_account({"value": expr})
    env = {"n": 400, "p": 3, "P": 28}
    calls = 20000

    def run():
        for _ in range(calls):
            fn(env)

    best = _best_of(repeats, run)
    return best * 1e9 / (calls * ops), ops


def measure_loop(repeats):
    """ns per iteration of a compiled fused loop with induction registers."""
    q = sym("q")
    expr = bounded_sum("q", sym("n"), q * q + mod(q, sym("P")) + 2)
    fn = compile_account({"value": expr})
    trips = 20000
    env = {"n": trips, "P": 7}

    def run():
        fn(env)

    best = _best_of(repeats, run)
    return best * 1e9 / trips


#: The calibration cell: the largest banded SYR2K size the benchmark's
#: Figure 5 sweeps run, where tier-0 accounts cost the most.
SYR2K_PARAMS = {"N": 416, "b": 52}


def measure_syr2k(repeats):
    """End-to-end: estimate_cost ops vs account wall, both tiers."""
    node = syr2k_variants(400, 48)["syr2k"]
    engine = SymbolicEngine(node)
    closed = ClosedFormEngine(node)
    env = node.program.bound_params(SYR2K_PARAMS)
    out = {}
    for procs in (1, 8, 28):
        estimate = engine.estimate_cost(env, procs)
        calls = 2 * procs

        def run():
            for proc in (0, procs - 1):
                for _ in range(calls):
                    engine.account(env, procs, proc)

        best = _best_of(repeats, run)
        wall_us = best * 1e6 / (2 * calls)
        out[str(procs)] = {
            "estimate_ops": estimate,
            "account_us": round(wall_us, 3),
            "ns_per_estimated_op": round(wall_us * 1000 / estimate, 3),
        }
    closed_s = _best_of(repeats, closed.account, env, 1, 0)
    out["1"]["closed_form_us"] = round(closed_s * 1e6, 3)
    return out


def run_benchmark(repeats):
    flat_ns, flat_ops = measure_flat(repeats)
    loop_ns = measure_loop(repeats)
    syr2k = measure_syr2k(repeats)
    single = syr2k["1"]
    break_even = int(
        single["closed_form_us"] * 1000 / single["ns_per_estimated_op"]
    )
    section = {
        "flat_ns_per_op": round(flat_ns, 3),
        "flat_probe_ops": flat_ops,
        "loop_ns_per_iter": round(loop_ns, 3),
        "syr2k_paper": syr2k,
        "syr2k_params": SYR2K_PARAMS,
        "break_even_ops": break_even,
        "cost_ceiling_ops": SYMBOLIC_COST_CEILING,
    }
    print(f"flat evaluation: {flat_ns:.2f} ns/op ({flat_ops}-op probe)")
    print(f"fused loop:      {loop_ns:.2f} ns/iter")
    for procs, row in syr2k.items():
        print(
            f"syr2k paper P={procs}: estimate {row['estimate_ops']} ops, "
            f"account {row['account_us']} us/cell "
            f"({row['ns_per_estimated_op']} ns/op)"
        )
    print(f"closed-form tier at P=1: {single['closed_form_us']} us/cell")
    print(
        f"break-even {break_even} ops; SYMBOLIC_COST_CEILING is "
        f"{SYMBOLIC_COST_CEILING} ops"
    )
    return section


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--dry-run", action="store_true",
        help="measure and print, but do not touch the JSON record",
    )
    args = parser.parse_args(argv)

    section = run_benchmark(args.repeats)
    if args.dry_run:
        return 0

    document = {}
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    document["sympoly"] = section
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote sympoly section of {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
