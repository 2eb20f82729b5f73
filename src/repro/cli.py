"""Command-line driver: the 'compiler binary' of this reproduction.

Subcommands:

* ``compile FILE``  — run access normalization and print the requested
  artifacts (report, transformed IR, node program, generated Python);
* ``analyze FILE...`` — statically check legality, bounds, SPMD races,
  and lint findings with stable diagnostic codes (see
  :mod:`repro.analysis`);
* ``simulate FILE`` — compile and sweep processor counts on a simulated
  NUMA machine, printing a speedup table;
* ``solve FILE``    — answer an analytic crossover question ("at what P
  does blocked overtake wrapped?") from the symbolic accounting forms;
* ``autodist FILE`` — search for a good data distribution (the Section 9
  "use our techniques in reverse" speculation);
* ``fuzz``          — differential fuzzing of the whole pipeline against
  the reference interpreter (see :mod:`repro.fuzz`);
* ``serve``         — run the long-lived compilation service daemon;
* ``fleet``         — run N serve replicas behind a consistent-hash
  router (identical requests always hit the warm replica);
* ``submit``        — run compile/analyze/simulate through a daemon (or
  a fleet router) with byte-identical output (see :mod:`repro.service`).

``compile``/``analyze``/``simulate`` execute through the same job layer
as the service (:mod:`repro.service.jobs`), so the direct and served
paths cannot drift apart.

Programs are written in the FORTRAN-D-style DSL (see ``repro.lang``);
sample programs live in ``examples/programs/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench.harness import format_table
from repro.errors import ReproError
from repro.lang import parse_program
from repro.runtime import Metrics
from repro.runtime.metrics import with_process_counters
from repro.service.jobs import (
    MACHINES as _MACHINES,
    compile_payload,
    machine_from_payload,
    run_compile,
    run_solve,
    run_sweep,
    solve_payload,
    sweep_payload,
)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read(), name=path)


def _machine(args):
    return machine_from_payload(
        {"machine": args.machine, "contention": args.contention}
    )


def _parse_procs(text: str) -> List[int]:
    """Argparse type for ``--processors``: positive ints, deduplicated and
    sorted (``4,4,1`` would otherwise produce duplicate/unordered sweep
    cells and skew cache statistics)."""
    try:
        procs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid processor list {text!r}: expected comma-separated "
            "integers like '1,4,8'"
        )
    if not procs:
        raise argparse.ArgumentTypeError(
            "processor list is empty: pass comma-separated positive "
            "counts like '1,4,8'"
        )
    if any(p <= 0 for p in procs):
        raise argparse.ArgumentTypeError(
            f"processor counts must be positive, got {text!r}"
        )
    return sorted(set(procs))


def cmd_compile(args) -> int:
    print(run_compile(compile_payload(args)))
    return 0


def cmd_simulate(args) -> int:
    metrics = Metrics()
    stdout, stderr = run_sweep(
        sweep_payload(args), jobs=args.jobs, metrics=metrics
    )
    if stderr:
        print(stderr, file=sys.stderr)
    print(stdout)
    if args.profile:
        print(with_process_counters(metrics).report(), file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    print(run_solve(solve_payload(args)))
    return 0


def cmd_autodist(args) -> int:
    from repro.core.autodist import search_distributions

    metrics = Metrics()
    with metrics.stage("parse"):
        program = _load(args.file)
    machine = _machine(args)
    outcome = search_distributions(
        program,
        processors=args.single_p,
        machine=machine,
        max_candidates=args.max_candidates,
        jobs=args.jobs,
        metrics=metrics,
    )
    rows = [
        (rank + 1, candidate.describe(), f"{candidate.time_us:,.0f}")
        for rank, candidate in enumerate(outcome.ranking[: args.top])
    ]
    print(f"machine: {machine.name}; P={args.single_p}; "
          f"{outcome.evaluated} candidates evaluated")
    print(format_table(["rank", "distribution", "time (us)"], rows))
    print(f"\nbest: {outcome.best.describe()}")
    if args.profile:
        print(with_process_counters(metrics).report(), file=sys.stderr)
    return 0


def add_compile_options(parser: argparse.ArgumentParser) -> None:
    """The ``compile`` arguments, shared with ``repro submit compile``."""
    parser.add_argument(
        "--emit",
        choices=["report", "ir", "node", "python", "all"],
        default="all",
    )
    parser.add_argument(
        "--schedule", choices=["wrapped", "blocked"], default="wrapped"
    )
    parser.add_argument("--no-block-transfers", action="store_true")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the selected artifacts as one JSON document",
    )


def add_simulate_options(parser: argparse.ArgumentParser) -> None:
    """The ``simulate`` arguments, shared with ``repro submit simulate``."""
    parser.add_argument(
        "-P", "--processors", default=[1, 4, 8, 16, 28], type=_parse_procs,
        help="comma-separated processor counts",
    )
    parser.add_argument(
        "--ownership", action="store_true",
        help="include the ownership-rule baseline",
    )
    parser.add_argument(
        "--detail", action="store_true",
        help="print a per-processor breakdown at the largest P",
    )
    parser.add_argument(
        "--engine",
        choices=["auto", "symbolic", "closed-form", "compiled", "walk"],
        default="auto",
        help="accounting engine tier: auto picks the fastest tier that "
        "handles the nest (all tiers are bit-identical); forcing "
        "symbolic, closed-form or compiled fails with a clear error when "
        "the tier cannot handle the nest (see docs/performance.md)",
    )


def add_solve_options(parser: argparse.ArgumentParser) -> None:
    """The ``solve`` arguments, shared with ``repro submit solve``."""
    parser.add_argument(
        "--left", default="normalized/wrapped", metavar="VARIANT[/SCHEDULE]",
        help="baseline candidate, e.g. 'normalized/wrapped' or 'naive' "
        "(default: normalized/wrapped)",
    )
    parser.add_argument(
        "--right", default="normalized/blocked", metavar="VARIANT[/SCHEDULE]",
        help="challenger candidate (default: normalized/blocked)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="bind a symbolic program parameter, e.g. 'N=400' (repeatable)",
    )
    parser.add_argument(
        "--min-processors", type=int, default=1, metavar="P",
        help="low end of the processor range to scan (default: 1)",
    )
    parser.add_argument(
        "--max-processors", type=int, default=64, metavar="P",
        help="high end of the processor range to scan (default: 64)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full (P, time, time) series as one JSON document",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Access normalization for NUMA machines (Li & Pingali, "
        "ASPLOS 1992) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="DSL source file")
    common.add_argument(
        "--priority",
        help="comma-separated subscript expressions pinning access-matrix "
        "row order (e.g. 'j-i,j-k,k')",
    )
    common.add_argument(
        "--assume",
        action="append",
        default=[],
        metavar="FACT",
        help="parameter fact like 'N >= 2*b' used to simplify generated "
        "bounds (repeatable)",
    )
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument(
        "--machine", choices=sorted(_MACHINES), default="butterfly"
    )
    machine.add_argument(
        "--contention", type=float, default=None,
        help="contention coefficient override",
    )
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument(
        "--jobs", type=int, default=1,
        help="run simulations on this many worker processes "
        "(0 = all cores); results are identical at any job count",
    )
    runtime.add_argument(
        "--profile", action="store_true",
        help="print per-stage timings and cache statistics to stderr",
    )

    compile_cmd = sub.add_parser(
        "compile", parents=[common], help="run the pass and print artifacts"
    )
    add_compile_options(compile_cmd)
    compile_cmd.set_defaults(func=cmd_compile)

    simulate_cmd = sub.add_parser(
        "simulate", parents=[common, machine, runtime],
        help="sweep processor counts and print speedups",
    )
    add_simulate_options(simulate_cmd)
    simulate_cmd.set_defaults(func=cmd_simulate)

    solve_cmd = sub.add_parser(
        "solve", parents=[common, machine],
        help="answer an analytic crossover question from the symbolic forms",
    )
    add_solve_options(solve_cmd)
    solve_cmd.set_defaults(func=cmd_solve)

    autodist_cmd = sub.add_parser(
        "autodist", parents=[common, machine, runtime],
        help="search for a good data distribution (Section 9 future work)",
    )
    autodist_cmd.add_argument("--single-p", type=int, default=16)
    autodist_cmd.add_argument("--top", type=int, default=5)
    autodist_cmd.add_argument("--max-candidates", type=int, default=None)
    autodist_cmd.set_defaults(func=cmd_autodist)

    from repro.analysis.cli import add_analyze_parser
    from repro.fuzz.cli import add_fuzz_parser
    from repro.service.cli import (
        add_fleet_parser,
        add_serve_parser,
        add_submit_parser,
    )
    from repro.tune.cli import add_tune_options, cmd_tune

    tune_cmd = sub.add_parser(
        "tune", parents=[common, machine, runtime],
        help="autotune the transformation and data distribution jointly",
    )
    add_tune_options(tune_cmd)
    tune_cmd.set_defaults(func=cmd_tune)

    add_analyze_parser(sub)
    add_fuzz_parser(sub, parents=[runtime])
    add_serve_parser(sub)
    add_fleet_parser(sub)
    add_submit_parser(sub, common=common, machine=machine)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
