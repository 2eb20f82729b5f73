"""The repository's benchmark: four workloads in machine-normalised seconds.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {figures,tune,nests,serve,all} \\
        --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (``perfbench/child.py``) with no
on-disk simulation store, so no run inherits caches from another.  With
``--trace 0`` the benchmark runs two set-up probes and then as many
measurement passes as fill ``--seconds`` (normalised, to the nearest
whole pass, at least one), and
prints the end-to-end metrics: ``wall_s`` is the median over passes, the
op percentiles are taken over the ops of all passes, and ``setup_s`` is
the median over the probes and passes.  With ``--trace 1`` it runs one
untraced and one traced pass and prints the per-layer metrics, including
``bench.trace_overhead`` (traced over untraced ``wall_s``).

All timings are normalised by a reference kernel ticking under the
workload (``perfbench/normclock.py``).  Every op's output is checked
against goldens (``perfbench/goldens/``) outside the timed region; ops
that fail or answer wrongly count in ``failed`` and in ``error_rate``.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from child import isolated_env  # noqa: E402

WORKLOADS = ("figures", "tune", "nests", "serve")

#: Fresh-interpreter set-up probes per untraced run (the measurement
#: pass's own set-up is one more sample).
SETUP_PROBES = 2

#: Wall-clock budget for all passes of one workload.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics printed in the JSON line of ``--trace 1``.  Layer
#: timers that only some workloads enter (the service stages, the tuner
#: phases, the walk, the closed-form and compiled tiers) are printed on
#: the ``ledger`` line instead, so every JSON time is a measured,
#: non-zero value on every workload.
PER_LAYER = (
    ("numa.symbolic.evaluate.calls", "count"),
    ("numa.symbolic.evaluate.self_s", "s"),
    ("numa.symbolic.derive.calls", "count"),
    ("numa.symbolic.derive.self_s", "s"),
    ("numa.symbolic.derive.failed", "count"),
    ("numa.symbolic.derive.unused", "count"),
    ("numa.symbolic.derive.useful_ratio", "ratio"),
    ("numa.symbolic.evals_per_derive", "ratio"),
    ("linalg.sympoly.compile_account.calls", "count"),
    ("linalg.sympoly.compile_account.self_s", "s"),
    ("numa.simulate.calls", "count"),
    ("numa.simulate.self_s", "s"),
    ("numa.simulate.cells.symbolic", "count"),
    ("numa.simulate.cells.closed_form", "count"),
    ("numa.simulate.cells.compiled", "count"),
    ("numa.simulate.cells.walk", "count"),
    ("numa.symbolic.gate.calls", "count"),
    ("numa.symbolic.gate.self_s", "s"),
    ("numa.counting.build.calls", "count"),
    ("numa.counting.evaluate.calls", "count"),
    ("codegen.pycodegen.compile_accounting.calls", "count"),
    ("core.normalize.calls", "count"),
    ("core.normalize.self_s", "s"),
    ("codegen.spmd.calls", "count"),
    ("codegen.spmd.self_s", "s"),
    ("runtime.grid.calls", "count"),
    ("runtime.grid.self_s", "s"),
    ("runtime.grid.cells", "count"),
    ("runtime.grid.hit_ratio", "ratio"),
    ("service.requests", "count"),
    ("service.batches", "count"),
    ("service.batch_size", "ratio"),
    ("service.errors", "count"),
    ("service.rejected", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("runtime.cache.form_derives", "count"),
    ("runtime.cache.form_hits", "count"),
    ("runtime.cache.kernel_compiles", "count"),
    ("runtime.cache.kernel_hits", "count"),
    ("tune.candidates", "count"),
    ("tune.scored", "count"),
    ("tune.pruned", "count"),
    ("tune.scored_ratio", "ratio"),
    ("bench.raw_wall_s", "s"),
    ("bench.speed_factor", "ratio"),
    ("bench.trace_overhead", "ratio"),
)

#: Layer timers on the ``ledger`` line only (zero where a workload
#: never enters the layer).
LEDGER_ONLY = (
    "numa.simulate.walk_s",
    "numa.counting.build.self_s",
    "numa.counting.evaluate.self_s",
    "codegen.pycodegen.compile_accounting.self_s",
    "service.parse_s",
    "service.normalize_s",
    "service.codegen_s",
    "service.simulate_s",
    "service.solve_s",
    "tune.enumerate_s",
    "tune.materialize_s",
    "tune.score_s",
)


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, role, deadline, trace=False, extra=()):
    """Run one fresh-interpreter pass; returns its JSON document."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--role", role,
    ]
    if trace:
        command.append("--trace")
    command.extend(extra)
    process = subprocess.Popen(
        command, cwd=ROOT, env=isolated_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise PassFailed(f"{workload} {role} pass exceeded the time budget")
    if process.returncode != 0:
        tail = err.decode("utf-8", errors="replace")[-2000:]
        raise PassFailed(f"{workload} {role} pass failed:\n{tail}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def percentiles_ms(op_seconds):
    """(p50, p90) of per-op seconds, in milliseconds."""
    if len(op_seconds) == 1:
        return op_seconds[0] * 1e3, op_seconds[0] * 1e3
    cuts = statistics.quantiles(op_seconds, n=10, method="inclusive")
    return cuts[4] * 1e3, cuts[8] * 1e3


def end_to_end(workload, seed, seconds, deadline, extra=()):
    setups = [
        run_pass(workload, seed, "setup", deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    passes = []
    measured = 0.0
    # As many passes as fill --seconds, to the nearest whole pass: stop
    # once what is left is at most half a pass.
    while not passes or seconds - measured > passes[-1]["wall_s"] / 2:
        document = run_pass(workload, seed, "measure", deadline, extra=extra)
        passes.append(document)
        setups.append(document["setup_s"])
        measured += document["wall_s"]
    p50, p90 = percentiles_ms([s for p in passes for s in p["op_s"]])
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return values, passes


def layer_values(traced, untraced):
    """Per-layer metric values from one traced pass (plus the untraced
    pass for the tracing overhead)."""
    from tracer import layer_metrics

    factor = traced["speed_factor"]
    layers = traced["layers"]
    values = layer_metrics(layers["trace"], factor)
    cache = layers["cache"]
    for name in ("form_derives", "form_hits", "kernel_compiles", "kernel_hits"):
        values[f"runtime.cache.{name}"] = cache[name]

    service = layers.get("service", {"counters": {}, "timers": {}})
    counters, timers = service["counters"], service["timers"]
    batches = counters.get("service.batches", 0)
    hits = counters.get("cache_hits", 0) + counters.get("dedup_hits", 0)
    lookups = hits + counters.get("cache_misses", 0)
    values.update({
        "service.requests": counters.get("service.requests", 0),
        "service.batches": batches,
        "service.batch_size": (
            counters.get("service.batched_requests", 0) / batches if batches else 0.0
        ),
        "service.errors": counters.get("service.errors", 0),
        "service.rejected": counters.get("service.rejected", 0),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
    })
    for stage in ("parse", "normalize", "codegen", "simulate", "solve"):
        values[f"service.{stage}_s"] = timers.get(stage, 0.0) * factor

    tune = layers.get("tune", {"counters": {}, "timers": {}})
    counters, timers = tune["counters"], tune["timers"]
    candidates = counters.get("tune.candidates", 0)
    values.update({
        "tune.candidates": candidates,
        "tune.scored": counters.get("tune.scored", 0),
        "tune.pruned": counters.get("tune.pruned", 0),
        "tune.scored_ratio": (
            counters.get("tune.scored", 0) / candidates if candidates else 0.0
        ),
    })
    for stage in ("enumerate", "materialize", "score"):
        values[f"tune.{stage}_s"] = timers.get(f"tune.{stage}", 0.0) * factor

    values["bench.raw_wall_s"] = traced["raw_wall_s"]
    values["bench.speed_factor"] = factor
    values["bench.trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
    return values


def per_layer(workload, seed, deadline, extra=()):
    untraced = run_pass(workload, seed, "measure", deadline, extra=extra)
    traced = run_pass(workload, seed, "measure", deadline, trace=True, extra=extra)
    return layer_values(traced, untraced), [untraced, traced]


def measure(workload, seed, seconds, trace, deadline, extra=()):
    """(metrics dict, attempted, failed) for one workload."""
    if trace:
        values, passes = per_layer(workload, seed, deadline, extra)
        names = PER_LAYER
        ledger = {name: values[name] for name in LEDGER_ONLY}
        print(f"{workload} ledger: {json.dumps(ledger, sort_keys=True)}")
    else:
        values, passes = end_to_end(workload, seed, seconds, deadline, extra)
        names = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        if p["failures"]:
            print(f"{workload}: wrong or failed ops: {', '.join(p['failures'])}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, unit in names:
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    print(f"{workload} error_rate = {failed / attempted:.6g} ({failed}/{attempted} ops)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--inject-wrong-count", action="store_true",
        help="corrupt one op's output per pass (tests the output checks)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=None,
        help="run only the first N ops of each pass (smoke size)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: run from a checkout of the repository (src/repro is missing)",
              file=sys.stderr)
        return 2

    extra = ("--inject-wrong-count",) if args.inject_wrong_count else ()
    if args.max_ops is not None:
        extra += ("--max-ops", str(args.max_ops))
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in selected:
            deadline = time.monotonic() + RUN_BUDGET_S
            values, tried, wrong = measure(
                workload, args.seed, args.seconds, bool(args.trace), deadline, extra
            )
            attempted += tried
            failed += wrong
            prefix = "" if len(selected) == 1 else f"{workload}."
            metrics.update({prefix + name: value for name, value in values.items()})
    except PassFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
