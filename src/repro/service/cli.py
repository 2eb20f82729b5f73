"""``repro serve`` and ``repro submit`` — the service's CLI surface.

``serve`` runs the daemon in the foreground (SIGTERM/SIGINT drain
gracefully).  ``submit`` mirrors the direct subcommands — ``repro submit
compile ...`` accepts exactly the arguments of ``repro compile ...`` —
and round-trips them through a running daemon; because both paths
execute the same :mod:`repro.service.jobs` functions, the printed output
is byte-identical to the direct CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.service.client import ServiceClient, default_host, default_port
from repro.service.jobs import (
    analyze_payload,
    compile_payload,
    solve_payload,
    sweep_payload,
)
from repro.service.protocol import ServiceConfig


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_daemon
    from repro.service.server import CompilationServer

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        timeout_s=args.timeout,
        batch_window_s=args.batch_window,
        drain_grace_s=args.drain_grace,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries,
        log_requests=not args.quiet,
    )
    return run_daemon(CompilationServer(config))


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.service.fleet import FleetConfig, run_fleet

    config = FleetConfig(
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        timeout_s=args.timeout,
        batch_window_s=args.batch_window,
        drain_grace_s=args.drain_grace,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries,
        log_dir=args.log_dir,
        state_file=args.state_file,
        health_interval_s=args.health_interval,
        log_requests=not args.quiet,
    )
    return run_fleet(config)


def cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(
        args.host, args.port, timeout=args.client_timeout,
        retries=args.retries,
    )
    subcommand = args.subcommand
    if subcommand == "health":
        print(json.dumps(client.health(), indent=2, sort_keys=True))
        return 0
    if subcommand == "metrics":
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    if subcommand == "compile":
        response = client.compile(compile_payload(args))
    elif subcommand == "analyze":
        if getattr(args, "list_passes", False):
            # Pure registry metadata: answer locally, no round trip.
            from repro.analysis.cli import render_pass_list

            print(render_pass_list())
            return 0
        if not args.files:
            print(
                "error: no input files (or use --list-passes)",
                file=sys.stderr,
            )
            return 2
        response = client.analyze(analyze_payload(args))
    elif subcommand == "simulate":
        # The CLI's `simulate` is a full speedup sweep -> the sweep op.
        response = client.sweep(sweep_payload(args))
    elif subcommand == "solve":
        response = client.solve(solve_payload(args))
    elif subcommand == "tune":
        from repro.service.jobs import tune_payload

        response = client.tune(tune_payload(args))
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(f"unknown submit subcommand {subcommand!r}")
    result = response.get("result") or {}
    stdout = result.get("stdout", "")
    stderr = result.get("stderr", "")
    if stderr:
        print(stderr, file=sys.stderr)
    if stdout:
        print(stdout)
    return int(response.get("exit_code", 0))


def add_serve_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "serve",
        help="run the compilation service daemon (compile/analyze/"
        "simulate/sweep/solve over JSON HTTP)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=default_port(),
        help="TCP port (0 binds an ephemeral port; default %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width for batched CPU-bound work "
        "(0 = all cores)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="max admitted-but-unfinished requests before answering 429 "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request execution timeout in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.01,
        help="micro-batch coalescing window in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="max seconds to wait for in-flight requests on shutdown",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk simulation cache directory (default: REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="cap on disk-cache entries, oldest evicted first",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress structured request logs on stderr",
    )
    parser.set_defaults(func=cmd_serve)
    return parser


def add_fleet_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "fleet",
        help="run N serve replicas behind a consistent-hash router "
        "(identical requests always hit the warm replica)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=default_port(),
        help="router TCP port clients connect to (0 binds an ephemeral "
        "port; default %(default)s)",
    )
    parser.add_argument(
        "--replicas", type=int, default=3,
        help="number of serve replica processes (default %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width per replica (0 = all cores)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="per-replica admission queue capacity (default %(default)s)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request execution timeout in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.01,
        help="per-replica micro-batch window in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="max seconds for each drain stage on shutdown",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared on-disk simulation cache for every replica "
        "(default: REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="cap on shared disk-cache entries, oldest evicted first",
    )
    parser.add_argument(
        "--log-dir", default=None,
        help="directory for replica log files (default: a fresh tempdir)",
    )
    parser.add_argument(
        "--state-file", default=None,
        help="write the running topology (router port, replica pids/"
        "ports/logs) to this JSON file once the router is up",
    )
    parser.add_argument(
        "--health-interval", type=float, default=1.0,
        help="seconds between replica health probes (default %(default)s)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request router logs on stderr "
        "(lifecycle events always print)",
    )
    parser.set_defaults(func=cmd_fleet)
    return parser


def add_submit_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
    *,
    common: argparse.ArgumentParser,
    machine: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    # Deferred import: repro.cli imports this module inside build_parser,
    # so repro.cli is fully initialized by the time this runs.
    from repro.analysis.cli import add_analyze_options
    from repro.cli import (
        add_compile_options,
        add_simulate_options,
        add_solve_options,
    )

    parser = sub.add_parser(
        "submit",
        help="run a subcommand through a running compilation service "
        "(byte-identical output to the direct CLI)",
    )
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument(
        "--host", default=default_host(),
        help="service host (default: REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    connection.add_argument(
        "--port", type=int, default=default_port(),
        help="service port (default: REPRO_SERVICE_PORT or 8753)",
    )
    connection.add_argument(
        "--client-timeout", type=float, default=120.0,
        help="client-side HTTP timeout in seconds (default %(default)s)",
    )
    connection.add_argument(
        "--retries", type=int, default=0,
        help="retry 429/503/unreachable responses this many times with "
        "exponential backoff honoring Retry-After (default: no retries)",
    )
    subsub = parser.add_subparsers(dest="subcommand", required=True)

    compile_cmd = subsub.add_parser(
        "compile", parents=[connection, common],
        help="as 'repro compile', served",
    )
    add_compile_options(compile_cmd)

    analyze_cmd = subsub.add_parser(
        "analyze", parents=[connection], help="as 'repro analyze', served"
    )
    add_analyze_options(analyze_cmd)

    simulate_cmd = subsub.add_parser(
        "simulate", parents=[connection, common, machine],
        help="as 'repro simulate', served",
    )
    add_simulate_options(simulate_cmd)

    solve_cmd = subsub.add_parser(
        "solve", parents=[connection, common, machine],
        help="as 'repro solve', served",
    )
    add_solve_options(solve_cmd)

    from repro.tune.cli import add_tune_options

    tune_cmd = subsub.add_parser(
        "tune", parents=[connection, common, machine],
        help="as 'repro tune', served",
    )
    add_tune_options(tune_cmd)

    subsub.add_parser(
        "health", parents=[connection], help="print the /healthz document"
    )
    subsub.add_parser(
        "metrics", parents=[connection], help="print the /metricsz document"
    )
    parser.set_defaults(func=cmd_submit)
    return parser


__all__: Sequence[str] = (
    "add_fleet_parser",
    "add_serve_parser",
    "add_submit_parser",
    "cmd_fleet",
    "cmd_serve",
    "cmd_submit",
)
