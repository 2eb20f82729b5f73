"""The ``repro fuzz`` subcommand: drive a differential fuzzing campaign.

Runs ``--count`` seeded cases (or keeps going for ``--time-budget``
seconds), fanning out over the runtime executor's worker pool with
``--jobs``.  Failing cases are shrunk to minimal repros and written under
``<corpus-dir>/pending/`` as a JSON corpus entry plus a standalone pytest
file, ready to be promoted into the tier-1 regression corpus.

The stdout of a fixed ``--seed``/``--count`` run is a machine-readable JSON
summary that is byte-identical at any ``--jobs`` value — CI diffs it.
Timing and progress go to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.runtime.executor import resolve_jobs, run_tasks
from repro.runtime.metrics import Metrics, with_process_counters
from repro.fuzz.oracle import FuzzRecord, check_spec, fuzz_task
from repro.fuzz.shrink import shrink_spec, write_corpus_entry, write_pytest_repro
from repro.fuzz.spec import ProgramSpec, SpecError

DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")
#: Cases dispatched per pool round in time-budget mode.
BATCH_PER_JOB = 8


def run_campaign(
    *,
    seed: int = 0,
    count: int = 100,
    time_budget: Optional[float] = None,
    jobs: int = 1,
    metrics: Optional[Metrics] = None,
    tune: bool = False,
) -> List[FuzzRecord]:
    """Run fuzz cases and return their records in index order.

    With ``time_budget`` set, batches of cases are dispatched until the
    budget (seconds) is exhausted — ``count`` then only caps the total.
    With ``tune`` set, every case also runs the tuner search-space oracle
    (each emitted transformation must survive the legality pass).
    """
    metrics = metrics if metrics is not None else Metrics()
    records: List[FuzzRecord] = []
    if time_budget is None:
        tasks = [
            (index, seed, True) if tune else (index, seed)
            for index in range(count)
        ]
        with metrics.stage("fuzz"):
            records = list(run_tasks(fuzz_task, tasks, jobs=jobs, metrics=metrics))
        metrics.count("fuzz_cases", len(records))
        return records

    deadline = time.monotonic() + time_budget
    batch_size = max(1, resolve_jobs(jobs)) * BATCH_PER_JOB
    next_index = 0
    with metrics.stage("fuzz"):
        while time.monotonic() < deadline:
            upper = next_index + batch_size
            if count:
                upper = min(upper, count)
            if upper <= next_index:
                break
            tasks = [
                (index, seed, True) if tune else (index, seed)
                for index in range(next_index, upper)
            ]
            records.extend(run_tasks(fuzz_task, tasks, jobs=jobs, metrics=metrics))
            next_index = upper
    metrics.count("fuzz_cases", len(records))
    return records


def shrink_failure(
    record: FuzzRecord, *, tune: bool = False
) -> Optional[ProgramSpec]:
    """Minimize one failing record's program; ``None`` if nothing to shrink."""
    if record.spec is None:
        return None
    try:
        spec = ProgramSpec.from_dict(record.spec)
    except SpecError:
        return None

    def still_failing(candidate: ProgramSpec) -> bool:
        return not check_spec(candidate, tune=tune).ok

    if not still_failing(spec):
        return spec  # flaky or environment-dependent; keep the original
    shrunk = shrink_spec(spec, still_failing)
    return shrunk.with_(name=f"shrunk-{record.seed}")


def summarize(
    records: Sequence[FuzzRecord],
    *,
    seed: int,
    failures: Sequence[Dict],
) -> Dict:
    """The machine-readable campaign summary.

    Deterministic for a fixed seed and case count: ``--jobs`` affects
    scheduling only, never results, so CI can diff the summaries of a
    serial and a parallel run byte for byte.
    """
    by_status: Dict[str, int] = {}
    by_static: Dict[str, int] = {}
    by_certified: Dict[str, int] = {}
    checks = 0
    for record in records:
        by_status[record.status] = by_status.get(record.status, 0) + 1
        checks += record.checks
        static = record.static or "(none)"
        if static.startswith("flagged:"):
            static = "flagged"  # bucket by kind, not by exact code set
        elif static.startswith("analyzer-crash"):
            static = "analyzer-crash"
        by_static[static] = by_static.get(static, 0) + 1
        certified = record.certified or "(none)"
        by_certified[certified] = by_certified.get(certified, 0) + 1
    return {
        "tool": "repro-fuzz",
        "seed": seed,
        "cases": len(records),
        "checks": checks,
        "status": dict(sorted(by_status.items())),
        "static": dict(sorted(by_static.items())),
        "certified": dict(sorted(by_certified.items())),
        "static_consistent": by_status.get("inconsistent", 0) == 0,
        "tuner_legal": by_status.get("tuner-illegal", 0) == 0,
        "forms_certified": by_status.get("form-uncertified", 0) == 0,
        "ok": by_status.get("ok", 0) == len(records),
        "failures": list(failures),
    }


def cmd_fuzz(args) -> int:
    """Entry point wired into the main ``repro`` argument parser."""
    metrics = Metrics()
    started = time.monotonic()
    records = run_campaign(
        seed=args.seed,
        count=args.count,
        time_budget=args.time_budget,
        jobs=args.jobs,
        metrics=metrics,
        tune=args.tune_oracle,
    )
    elapsed = time.monotonic() - started

    failures: List[Dict] = []
    pending_dir = os.path.join(args.corpus_dir, "pending")
    for record in records:
        if record.ok:
            continue
        entry: Dict = {
            "index": record.index,
            "seed": record.seed,
            "status": record.status,
            "stage": record.stage,
            "detail": record.detail,
        }
        if not args.no_shrink and record.spec is not None:
            shrunk = shrink_failure(record, tune=args.tune_oracle)
            if shrunk is not None:
                verdict = check_spec(shrunk, tune=args.tune_oracle)
                entry["shrunk"] = shrunk.to_dict()
                entry["corpus_entry"] = write_corpus_entry(
                    shrunk, pending_dir,
                    status=verdict.status, stage=verdict.stage,
                    detail=verdict.detail,
                    note=f"found by repro fuzz (case seed {record.seed})",
                )
                entry["pytest_repro"] = write_pytest_repro(
                    shrunk, pending_dir, detail=verdict.detail
                )
        failures.append(entry)

    summary = summarize(records, seed=args.seed, failures=failures)
    print(json.dumps(summary, indent=2, sort_keys=True))
    status_line = ", ".join(
        f"{name}={count}" for name, count in summary["status"].items()
    ) or "no cases"
    print(
        f"fuzz: {summary['cases']} cases ({status_line}), "
        f"{summary['checks']} oracle checks in {elapsed:.1f}s",
        file=sys.stderr,
    )
    if failures:
        print(
            f"fuzz: {len(failures)} failing case(s); shrunk repros under "
            f"{pending_dir}",
            file=sys.stderr,
        )
    if args.profile:
        print(with_process_counters(metrics).report(), file=sys.stderr)
    return 0 if summary["ok"] else 1


def add_fuzz_parser(subparsers, parents=()) -> None:
    """Register the ``fuzz`` subcommand on the main CLI's subparsers."""
    fuzz_cmd = subparsers.add_parser(
        "fuzz",
        parents=list(parents),
        help="differential fuzzing: random programs vs the interpreter oracle",
        description=(
            "Generate random affine loop nests, run the full "
            "normalize+SPMD pipeline on each, and check the results "
            "against the reference interpreter and the simulator's "
            "conservation invariants.  Failures are shrunk to minimal "
            "repros under CORPUS_DIR/pending/."
        ),
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0,
        help="base seed of the campaign (case i uses a seed derived "
        "from (seed, i))",
    )
    fuzz_cmd.add_argument(
        "--count", type=int, default=100,
        help="number of cases to run (with --time-budget: a cap, 0 = no cap)",
    )
    fuzz_cmd.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="keep fuzzing until this many seconds have elapsed",
    )
    fuzz_cmd.add_argument(
        "--corpus-dir", default=DEFAULT_CORPUS_DIR,
        help="regression corpus directory (failures go to its pending/ "
        "subdirectory)",
    )
    fuzz_cmd.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging minimization of failing cases",
    )
    fuzz_cmd.add_argument(
        "--tune-oracle", action="store_true",
        help="also verify the autotuner's search space on every case: "
        "each emitted transformation must pass the analysis legality "
        "pass (violations get status 'tuner-illegal')",
    )
    fuzz_cmd.set_defaults(func=cmd_fuzz)
