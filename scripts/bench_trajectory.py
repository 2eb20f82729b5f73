#!/usr/bin/env python
"""Benchmark the accounting-tier trajectory on the paper's kernels.

Times the account-mode sweeps behind Figure 4 (GEMM) and Figure 5 (banded
SYR2K) three times — with the interpreter walk forced (tier 3), with the
symbolic engine forced (tier 0: derive each program's piecewise form
once, evaluate it per cell), and with automatic tier selection — and
writes ``BENCH_simulator.json`` with per-config wall-clock, the tier
histogram of the auto run, and a checksum over every per-processor
count.  All runs must produce identical checksums (the tiers are
bit-identical by construction; this script hard fails otherwise), so the
recorded speedups are purely an engine effect.  The forced-symbolic run
is the derive-once-evaluate-many measurement: one derivation per node
program serves every (N, P) cell of the sweep.

Everything simulated here is deterministic — there is no randomness to
seed — and the JSON carries no wall-clock timestamps beyond the optional
``SOURCE_DATE_EPOCH`` stamp, so regenerating at the same scale changes
only the timing fields.

Usage (from the repo root):

    PYTHONPATH=src python scripts/bench_trajectory.py           # paper scale
    PYTHONPATH=src python scripts/bench_trajectory.py --smoke   # CI scale
    PYTHONPATH=src python scripts/bench_trajectory.py --smoke --check

At paper scale every measurement runs ``REPEATS["paper"]`` times and
the JSON records the median wall clock, with all walls in
``wall_s_runs`` so each recorded number carries its spread; every
repeat must reproduce the same counts and tuner results.

``--check`` re-measures symbolic and analytic coverage (at whatever
scale is selected) and fails if either drops below the value recorded in
the JSON — the CI ``perf-smoke`` job runs this so a change that silently
demotes the paper kernels off the symbolic (or any analytic) engine
cannot land.  Two fresh (record-independent) gates ride along: the
banded SYR2K sweep must keep nonzero symbolic coverage, and auto's
sweep wall must not exceed the forced walk's in the same run (enforced
only when the walk took long enough for one-time derivation costs to
amortize; vacuous at smoke scale).

The ``tune`` section records the transformation autotuner on the same
two kernels: candidates explored under the budget, search wall clock,
and the best found schedule validated at *full* kernel scale against the
paper's hand-picked transformation (``best_vs_paper <= 1`` means the
search matched or beat the paper).  ``--check`` gates both properties:
at least 100 legality-pruned candidates explored, and the best schedule
no slower than the paper's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench import PAPER_PROCS, gemm_variants, syr2k_variants
from repro.bench.figures import figure_machine
from repro.runtime.cache import SimulationCache, shared_cache
from repro.runtime.executor import SweepCell, run_grid
from repro.runtime.metrics import Metrics

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_simulator.json")

#: The measured configurations: the account-mode sweeps behind the
#: paper's two results figures, at paper scale and at a CI smoke scale.
SCALES = {
    "paper": {
        "fig4-gemm": {"kind": "gemm", "n": 400, "procs": list(PAPER_PROCS)},
        "fig5-syr2k": {
            "kind": "syr2k", "n": 400, "b": 48, "procs": list(PAPER_PROCS)
        },
    },
    "smoke": {
        "fig4-gemm": {"kind": "gemm", "n": 64, "procs": [1, 4, 8]},
        "fig5-syr2k": {
            "kind": "syr2k", "n": 80, "b": 10, "procs": [1, 4, 8]
        },
    },
}


#: The autotuner benchmark: search with scoring at a scaled-down size
#: (the relative ranking is what matters), then validate the top
#: candidates and the paper baseline at full kernel scale.
TUNE_SCALES = {
    "paper": {
        # 216 distribution assignments per kernel: a 250 budget covers
        # the full derived pass and then explores exotic recipes (row
        # subsets, skews, scalings), exercising the legality pruner.
        "fig4-gemm": {
            "kind": "gemm", "n": 400, "score": {"N": 24},
            "procs": [4, 16], "budget": 250, "top_k": 3,
        },
        "fig5-syr2k": {
            "kind": "syr2k", "n": 400, "b": 48, "score": {"N": 24, "b": 3},
            "procs": [4, 16], "budget": 250, "top_k": 3,
        },
    },
    "smoke": {
        "fig4-gemm": {
            "kind": "gemm", "n": 64, "score": {"N": 16},
            "procs": [4, 16], "budget": 120, "top_k": 3,
        },
        "fig5-syr2k": {
            "kind": "syr2k", "n": 80, "b": 10, "score": {"N": 16, "b": 2},
            "procs": [4, 16], "budget": 120, "top_k": 3,
        },
    },
}

#: The ``--check`` floors for the tune section (the PR's acceptance
#: criteria): candidates explored per kernel, and how the best found
#: schedule may compare to the paper's hand-picked one at full scale.
TUNE_MIN_EXPLORED = 100
TUNE_MAX_VS_PAPER = 1.0005  # exact tie expected; tiny float headroom

#: Runs per measurement: the recorded paper-scale walls are medians with
#: a spread; the CI smoke gate only reads coverage, so one run is enough.
REPEATS = {"paper": 3, "smoke": 1}

#: The auto-vs-walk wall bound in ``--check`` only applies when the
#: forced walk itself took at least this long: below it (CI smoke
#: scale) the sweep is dominated by the analytic tiers' one-time
#: derivation cost and the comparison carries no signal.
WALL_GATE_MIN_WALK_S = 2.0


def _variants(config):
    if config["kind"] == "gemm":
        return gemm_variants(config["n"])
    return syr2k_variants(config["n"], config["b"])


def _cells(nodes, procs, machine, engine):
    cells = []
    for processors in procs:
        for name, node in nodes.items():
            cells.append(
                SweepCell(name, node, processors, None, machine, engine=engine)
            )
    return cells


def _checksum(results):
    digest = hashlib.sha256()
    for result in results:
        for proc in result.per_proc:
            counts = proc.counts
            digest.update(
                json.dumps(
                    [
                        counts.local, counts.remote, counts.block_transfers,
                        counts.block_bytes, counts.guards, counts.statements,
                        counts.iterations, counts.syncs,
                    ]
                ).encode("ascii")
            )
    return digest.hexdigest()


def _measure(config, engine, jobs):
    """One timed sweep with an isolated cache (no cross-engine hits).

    The process-wide shared cache (symbolic forms, compiled kernels) is
    cleared first so every measurement pays its own derivation cost —
    the forced-symbolic wall clock really is "derive once, then evaluate
    every cell", not "evaluate forms a previous run derived".
    """
    shared_cache().clear()
    nodes = _variants(config)
    machine = figure_machine()
    cells = _cells(nodes, config["procs"], machine, engine)
    metrics = Metrics()
    start = time.perf_counter()
    results = run_grid(
        cells, jobs=jobs, cache=SimulationCache(), metrics=metrics
    )
    wall = time.perf_counter() - start
    tiers = {
        name[len("sim.tier."):]: value
        for name, value in metrics.counters.items()
        if name.startswith("sim.tier.")
    }
    return {
        "wall_s": round(wall, 4),
        "tiers": tiers,
        "cells": len(cells),
        "checksum": _checksum(results),
    }


def _tune_full_program(config):
    from repro.blas import gemm_program, syr2k_program

    if config["kind"] == "gemm":
        return gemm_program(config["n"]), None
    from repro.blas import PAPER_PRIORITY

    return (
        syr2k_program(config["n"], config["b"]),
        list(PAPER_PRIORITY),
    )


def _validate_candidate(program, candidate, procs, machine):
    """Simulated time of one tuner candidate at *full* kernel scale."""
    from repro.codegen.spmd import generate_spmd
    from repro.core.transform import apply_transformation
    from repro.numa.simulator import simulate
    from repro.tune.search import _trial_program

    trial = _trial_program(program, candidate.distributions, None)
    transformation = apply_transformation(
        trial.nest, candidate.matrix,
        assumptions=tuple(trial.assumptions),
    )
    node = generate_spmd(trial.with_nest(transformation.nest))
    times = {
        str(p): simulate(node, processors=p, machine=machine).total_time_us
        for p in procs
    }
    return times, sum(times.values())


def _measure_tune(config, jobs):
    """Run the autotuner on one kernel and validate at full scale."""
    from repro.codegen.spmd import generate_spmd
    from repro.core.normalize import access_normalize
    from repro.numa.simulator import simulate
    from repro.tune.search import tune_program

    shared_cache().clear()
    program, priority = _tune_full_program(config)
    machine = figure_machine()
    procs = config["procs"]
    start = time.perf_counter()
    result = tune_program(
        program,
        processors=tuple(procs),
        machine=machine,
        params=config["score"],
        priority=priority,
        budget=config["budget"],
        jobs=jobs,
    )
    wall = time.perf_counter() - start

    # The paper's configuration at full scale: declared distributions,
    # derived transformation.
    paper_node = generate_spmd(
        access_normalize(program, priority=priority).transformed
    )
    paper_times = {
        str(p): simulate(
            paper_node, processors=p, machine=machine
        ).total_time_us
        for p in procs
    }
    paper_total = sum(paper_times.values())

    best_entry = None
    for candidate in result.ranking[: config["top_k"]]:
        times, total = _validate_candidate(program, candidate, procs, machine)
        if best_entry is None or total < best_entry["total_us"]:
            best_entry = {
                "rank_at_score_scale": result.ranking.index(candidate) + 1,
                "distributions": candidate.describe_distributions(),
                "recipe": candidate.recipe.describe(),
                "matrix": candidate.describe_matrix(),
                "times_us": times,
                "total_us": total,
            }
    return {
        "score_params": dict(config["score"]),
        "processors": list(procs),
        "budget": config["budget"],
        "explored": result.enumerated,
        "admitted": result.admitted,
        "scored": result.scored,
        "pruned": len(result.pruned),
        "wall_s": round(wall, 4),
        "best": best_entry,
        "paper_times_us": paper_times,
        "paper_total_us": paper_total,
        "best_vs_paper": (
            round(best_entry["total_us"] / paper_total, 4)
            if best_entry and paper_total
            else None
        ),
    }


def _repeated(repeats, measure, *args):
    """``measure(*args)`` run ``repeats`` times: the median wall clock,
    with every wall in ``wall_s_runs``."""
    runs = [measure(*args) for _ in range(repeats)]

    def timeless(run):
        return {key: value for key, value in run.items() if key != "wall_s"}

    for run in runs[1:]:
        if timeless(run) != timeless(runs[0]):
            raise SystemExit("a repeated measurement changed its results")
    result = dict(runs[0])
    walls = sorted(run["wall_s"] for run in runs)
    result["wall_s"] = round(statistics.median(walls), 4)
    result["wall_s_runs"] = walls
    return result


def run_benchmark(scale, jobs):
    repeats = REPEATS[scale]
    document = {
        "schema": 1,
        "scale": scale,
        "source_date_epoch": int(os.environ.get("SOURCE_DATE_EPOCH", "0")),
        "configs": {},
    }
    for name, config in SCALES[scale].items():
        walk = _repeated(repeats, _measure, config, "walk", jobs)
        auto = _repeated(repeats, _measure, config, "auto", jobs)
        symbolic = _repeated(repeats, _measure, config, "symbolic", jobs)
        for label, run in (("auto", auto), ("symbolic", symbolic)):
            if walk["checksum"] != run["checksum"]:
                raise SystemExit(
                    f"{name}: {label} results diverge from the walk engine "
                    f"({run['checksum']} vs {walk['checksum']})"
                )
        cells = auto["cells"]
        symbolic_cells = auto["tiers"].get("symbolic", 0)
        analytic_cells = symbolic_cells + auto["tiers"].get("closed_form", 0)
        symbolic_coverage = symbolic_cells / cells if cells else 0.0
        coverage = analytic_cells / cells if cells else 0.0
        speedup = walk["wall_s"] / auto["wall_s"] if auto["wall_s"] else 0.0
        symbolic_speedup = (
            walk["wall_s"] / symbolic["wall_s"] if symbolic["wall_s"] else 0.0
        )
        document["configs"][name] = {
            "params": {k: v for k, v in config.items() if k != "kind"},
            "counts_checksum": auto["checksum"],
            "engines": {
                label: {
                    key: run[key] for key in ("wall_s", "wall_s_runs", "tiers")
                }
                for label, run in (
                    ("walk", walk), ("auto", auto), ("symbolic", symbolic)
                )
            },
            "speedup_vs_walk": round(speedup, 2),
            "symbolic_speedup_vs_walk": round(symbolic_speedup, 2),
            "tier1_coverage": round(coverage, 4),
            "symbolic_coverage": round(symbolic_coverage, 4),
        }
        print(
            f"{name}: walk {walk['wall_s']:.3f}s -> auto {auto['wall_s']:.3f}s "
            f"({speedup:.1f}x; forced symbolic {symbolic['wall_s']:.3f}s, "
            f"{symbolic_speedup:.1f}x), symbolic coverage "
            f"{symbolic_coverage:.0%}, analytic coverage {coverage:.0%}"
        )
    document["tune"] = {}
    for name, config in TUNE_SCALES[scale].items():
        section = _repeated(repeats, _measure_tune, config, jobs)
        document["tune"][name] = section
        ratio = section["best_vs_paper"]
        print(
            f"{name}: tune explored {section['explored']} candidates "
            f"({section['scored']} scored, {section['pruned']} pruned) in "
            f"{section['wall_s']:.1f}s; best vs paper at full scale: "
            f"{ratio:.4f}x"
        )
    return document


def check_coverage(document, recorded_path):
    """Fail if symbolic or analytic coverage dropped below the record."""
    with open(recorded_path, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    failures = []
    for name, fresh in document["configs"].items():
        baseline = recorded.get("configs", {}).get(name)
        if baseline is None:
            continue
        for metric, label in (
            ("tier1_coverage", "analytic coverage"),
            ("symbolic_coverage", "symbolic coverage"),
        ):
            floor = baseline.get(metric)
            if floor is None:
                continue  # pre-symbolic record: nothing to hold
            if fresh[metric] < floor:
                failures.append(
                    f"{name}: {label} {fresh[metric]:.0%} "
                    f"dropped below recorded {floor:.0%}"
                )
    # The banded-nest acceptance criterion measured fresh, not against
    # the record: auto must answer some of the SYR2K sweep from the
    # symbolic tier (fused loop evaluators make tier 0 win on banded
    # nests; a cost-model change that silently demotes them all fails
    # here even if the recorded JSON predates the criterion).
    syr2k = document["configs"].get("fig5-syr2k")
    if syr2k is not None and syr2k["symbolic_coverage"] <= 0:
        failures.append(
            "fig5-syr2k: symbolic coverage is 0 — auto answers no banded "
            "cell from the symbolic tier"
        )
    # Machine-independent wall bound, also measured fresh: within one
    # run, auto must never be slower than the walk it tiers above (a
    # mis-calibrated promotion gate shows up here without needing a
    # host-comparable recorded wall clock).  Only enforced when the
    # walk is slow enough for the analytic tiers' one-time derivation
    # cost to amortize — at CI smoke scale the whole walk finishes in
    # tens of milliseconds and any engine with fixed setup "loses",
    # which would make the bound pure noise.
    for name, fresh in document["configs"].items():
        auto_wall = fresh["engines"]["auto"]["wall_s"]
        walk_wall = fresh["engines"]["walk"]["wall_s"]
        if walk_wall >= WALL_GATE_MIN_WALK_S and auto_wall > walk_wall:
            failures.append(
                f"{name}: auto sweep ({auto_wall:.3f}s) is slower than the "
                f"forced walk ({walk_wall:.3f}s) in the same run"
            )
    for name, fresh in document.get("tune", {}).items():
        if fresh["explored"] < TUNE_MIN_EXPLORED:
            failures.append(
                f"{name}: tuner explored only {fresh['explored']} "
                f"candidates (floor {TUNE_MIN_EXPLORED})"
            )
        ratio = fresh["best_vs_paper"]
        if ratio is None or ratio > TUNE_MAX_VS_PAPER:
            failures.append(
                f"{name}: tuner best is {ratio}x of the paper's hand-picked "
                f"schedule at full scale (must be <= {TUNE_MAX_VS_PAPER})"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced scale for CI (does not overwrite the recorded JSON)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare symbolic/analytic coverage against the recorded "
        "JSON and fail on regression instead of rewriting it",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "paper"
    document = run_benchmark(scale, args.jobs)

    if args.check:
        failures = check_coverage(document, args.output)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"symbolic/analytic coverage holds against {args.output}")
        return 0

    # Re-recording the sweeps must not drop sections other tools own
    # (bench_sympoly.py writes the evaluator micro-benchmark here).
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
        if "sympoly" in previous:
            document["sympoly"] = previous["sympoly"]
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
