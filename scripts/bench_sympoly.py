#!/usr/bin/env python
"""Micro-benchmark the tier-0 form evaluators; calibrate the cost model.

The symbolic cost model (:func:`repro.linalg.sympoly.planned_cost` and
``SYMBOLIC_COST_CEILING`` in :mod:`repro.numa.simulator`) prices a form
in *flat ops* — the unit is "one polynomial term or atom evaluation".
Auto's tier gate compares that estimate against the ceiling, so the
model's constants only promote honestly if they track what the compiled
evaluators actually cost at runtime.  This script measures, on the host
it runs on:

``flat_ns_per_op``
    Wall-clock per flat op of a straight-line compiled form (no loops):
    the unit everything else is expressed in.

``loop_ns_per_iter``
    Per-iteration cost of a compiled *fallback* residual loop (a body
    the residue-class planner declines — here a quadratic in the bound
    variable), the ``trips * (1 + iter_ops)`` side of ``planned_cost``.

``plan_setup_ns`` / ``plan_ns_per_class``
    The residue-class plan side: cost of one ``_LoopPlan.run`` fitted
    as ``setup + classes * per_class`` by timing the same banded body
    across processor counts (the class count is the lcm of the moduli,
    here simply ``P``).

``implied_setup_ops`` / ``implied_class_ops``
    The fitted plan constants divided by ``flat_ns_per_op``.  These are
    much larger than ``_PLAN_SETUP_OPS`` / ``_PLAN_CLASS_OPS`` — the
    model's op counts are a *relative* unit, not a wall-clock predictor
    per op: a residue class costs hundreds of flat-op-equivalents of
    interpreter machinery (spec rebuilding, segment recursion), while a
    fallback loop iteration costs a fraction of one.  What makes the
    gate honest is the end-to-end conversion below.

``syr2k_paper``
    The calibration that the tier gate actually rests on: on the real
    banded kernel at paper scale (N=400, b=48), ``estimate_cost`` ops
    versus measured ``account`` wall per cell.  ``ns_per_estimated_op``
    is stable across processor counts (~0.4-0.6 us/op on the reference
    host), so ``SYMBOLIC_COST_CEILING`` — expressed in estimated ops —
    maps to a stable per-cell wall bound (~50-70 ms), placed just above
    the small-P regime where evaluating the banded form beats the
    closed-form engine's per-cell re-derivation.  Re-run this after
    evaluator changes; if ``ns_per_estimated_op`` shifts by more than
    ~2x, re-derive the ceiling from the new conversion.

The results land in the ``sympoly`` section of ``BENCH_simulator.json``
(everything else in the file is preserved; ``bench_trajectory.py``
likewise preserves this section when it re-records the sweeps).

Usage (from the repo root):

    PYTHONPATH=src python scripts/bench_sympoly.py
    PYTHONPATH=src python scripts/bench_sympoly.py --repeats 7 --dry-run
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
    _PLAN_CLASS_OPS,
    _PLAN_SETUP_OPS,
    _flat_ops,
    bounded_sum,
    compile_account,
    floordiv,
    mod,
    pos,
    sym,
)
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
    """ns per iteration of a compiled fallback residual loop.

    The quadratic bound-variable term disqualifies the residue-class
    planner (degree > 1 in the moving atom's argument is fine, but a
    squared loop variable in a monomial is not plan-eligible), so this
    times the plain fused loop with induction registers.
    """
    q = sym("q")
    expr = bounded_sum("q", sym("n"), q * q + mod(q, sym("P")) + 2)
    fn = compile_account({"value": expr})
    trips = 20000
    env = {"n": trips, "P": 7}

    def run():
        fn(env)

    best = _best_of(repeats, run)
    return best * 1e9 / trips


def measure_plan(repeats):
    """Fit ``_LoopPlan.run`` as setup + classes * per_class.

    The banded body's moduli are all ``P``, so the class count equals
    the processor count; a linear fit over P gives the two constants.
    """
    q, P = sym("q"), sym("P")
    body = 3 * mod(q, P) + 2 * floordiv(q, P) + pos(q + (-50)) + mod(q + 1, P)
    expr = bounded_sum("q", sym("n"), body)
    fn = compile_account({"value": expr})
    calls = 2000
    points = []
    for procs in (1, 4, 8, 16, 28):
        env = {"n": 100000, "P": procs}

        def run():
            for _ in range(calls):
                fn(env)

        best = _best_of(repeats, run)
        points.append((procs, best * 1e9 / calls))
    # Least-squares fit ns = setup + classes * per_class.
    count = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = count * sxx - sx * sx
    per_class = (count * sxy - sx * sy) / denom
    setup = (sy - per_class * sx) / count
    return max(setup, 0.0), max(per_class, 0.0), points


def measure_syr2k(repeats):
    """End-to-end: estimate_cost ops vs account wall at paper scale."""
    node = syr2k_variants(400, 48)["syr2k"]
    engine = SymbolicEngine(node)
    env = node.program.bound_params(None)
    out = {}
    for procs in (1, 4, 28):
        estimate = engine.estimate_cost(env, procs)
        calls = 200

        def run():
            for proc in (0, procs - 1):
                for _ in range(calls):
                    engine.account(env, procs, proc)

        best = _best_of(repeats, run)
        wall_us = best * 1e6 / (2 * calls)
        out[str(procs)] = {
            "estimate_ops": estimate,
            "account_us": round(wall_us, 3),
            "ns_per_estimated_op": round(wall_us * 1000 / estimate, 3)
            if estimate
            else None,
        }
    return out


def run_benchmark(repeats):
    flat_ns, flat_ops = measure_flat(repeats)
    loop_ns = measure_loop(repeats)
    setup_ns, class_ns, points = measure_plan(repeats)
    syr2k = measure_syr2k(repeats)
    implied_setup = setup_ns / flat_ns if flat_ns else 0.0
    implied_class = class_ns / flat_ns if flat_ns else 0.0
    section = {
        "flat_ns_per_op": round(flat_ns, 3),
        "flat_probe_ops": flat_ops,
        "loop_ns_per_iter": round(loop_ns, 3),
        "plan_setup_ns": round(setup_ns, 1),
        "plan_ns_per_class": round(class_ns, 3),
        "plan_fit_points": [[p, round(ns, 1)] for p, ns in points],
        "implied_setup_ops": round(implied_setup, 1),
        "implied_class_ops": round(implied_class, 1),
        "model_setup_ops": _PLAN_SETUP_OPS,
        "model_class_ops": _PLAN_CLASS_OPS,
        "cost_ceiling_ops": SYMBOLIC_COST_CEILING,
        "syr2k_paper": syr2k,
    }
    print(f"flat evaluation: {flat_ns:.2f} ns/op ({flat_ops}-op probe)")
    print(f"fallback loop:   {loop_ns:.2f} ns/iter")
    print(
        f"residue plan:    {setup_ns:.0f} ns setup + {class_ns:.1f} ns/class "
        f"(implied flat-op-equivalents: setup {implied_setup:.0f}, class "
        f"{implied_class:.0f}; model weights {_PLAN_SETUP_OPS}/"
        f"{_PLAN_CLASS_OPS} are relative units)"
    )
    for procs, row in syr2k.items():
        print(
            f"syr2k paper P={procs}: estimate {row['estimate_ops']} ops, "
            f"account {row['account_us']} us/cell "
            f"({row['ns_per_estimated_op']} ns/op)"
        )
    ceiling_us = SYMBOLIC_COST_CEILING * flat_ns / 1000
    print(
        f"ceiling {SYMBOLIC_COST_CEILING} ops ~= {ceiling_us:.0f} us/cell "
        f"at the measured flat rate"
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
