"""Rendering and argument wiring for ``repro tune``.

The render functions live here (not in the CLI driver) because the
service's ``/v1/tune`` endpoint uses them too: both paths call
:func:`repro.service.jobs.run_tune`, which renders through this module,
so served output is byte-identical to the direct CLI by construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Union

from repro.bench.harness import format_table
from repro.runtime.metrics import Metrics, with_process_counters
from repro.tune.search import TuneCandidate, TuneResult

#: How many pruned candidates the reports show verbatim.
_SHOWN_PRUNED = 5


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------
def _num(value: Fraction) -> Union[int, str]:
    return int(value) if value.denominator == 1 else str(value)


def _matrix_rows(candidate: TuneCandidate) -> Optional[List[List[Union[int, str]]]]:
    matrix = candidate.matrix
    if matrix is None:
        return None
    return [
        [_num(matrix[i, j]) for j in range(matrix.ncols)]
        for i in range(matrix.nrows)
    ]


def _distributions_json(candidate: TuneCandidate) -> Dict[str, str]:
    return {
        name: (d.describe() if d else "replicated")
        for name, d in candidate.distributions.items()
    }


def _candidate_json(
    candidate: TuneCandidate,
    result: TuneResult,
    baseline_total: Optional[float],
) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "index": candidate.index,
        "status": candidate.status,
        "distributions": _distributions_json(candidate),
        "recipe": candidate.recipe.describe(),
        "matrix": _matrix_rows(candidate),
        "normal_rows": list(candidate.access_rows),
        "labels": list(candidate.labels),
    }
    if candidate.status == "scored":
        doc["times_us"] = {
            str(p): t for p, t in zip(result.processors, candidate.times_us)
        }
        doc["total_us"] = candidate.total_us
        if baseline_total:
            doc["vs_baseline"] = round(candidate.total_us / baseline_total, 4)
    else:
        doc["reason"] = candidate.reason
    return doc


def render_json(result: TuneResult, top_k: int) -> str:
    baseline_total = (
        result.baseline.total_us
        if result.baseline is not None and result.baseline.status == "scored"
        else None
    )
    document = {
        "tool": "repro-tune",
        "program": result.program_name,
        "machine": result.machine_name,
        "processors": list(result.processors),
        "params": result.params,
        "budget": result.budget,
        "assignments": result.assignments,
        "enumerated": result.enumerated,
        "admitted": result.admitted,
        "scored": result.scored,
        "pruned": len(result.pruned),
        "baseline": (
            _candidate_json(result.baseline, result, baseline_total)
            if result.baseline is not None
            else None
        ),
        "ranking": [
            _candidate_json(candidate, result, baseline_total)
            for candidate in result.ranking[:top_k]
        ],
        "rejected": [
            _candidate_json(candidate, result, baseline_total)
            for candidate in result.pruned[:_SHOWN_PRUNED]
        ],
        "pruned_reasons": _reason_counts(result),
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _reason_counts(result: TuneResult) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for candidate in result.pruned:
        counts[candidate.reason] = counts.get(candidate.reason, 0) + 1
    return dict(sorted(counts.items()))


def render_text(result: TuneResult, top_k: int) -> str:
    procs = ",".join(str(p) for p in result.processors)
    lines = [f"machine: {result.machine_name}; P={procs}"]
    header = f"program: {result.program_name}"
    if result.params:
        header += "  (" + ", ".join(
            f"{k}={v}" for k, v in sorted(result.params.items())
        ) + ")"
    lines.append(header)
    budget = "unbounded" if result.budget is None else str(result.budget)
    lines.append(
        f"space: {result.assignments} distribution assignments x "
        f"transformation recipes (budget {budget})"
    )
    lines.append(
        f"explored: {result.enumerated} candidates -> {result.scored} "
        f"scored, {len(result.pruned)} pruned"
    )

    baseline = result.baseline
    baseline_total = None
    if baseline is not None and baseline.status == "scored":
        baseline_total = baseline.total_us
        per_p = "; ".join(
            f"P={p}: {t:,.0f}"
            for p, t in zip(result.processors, baseline.times_us)
        )
        lines.append("")
        lines.append(
            f"baseline (declared distributions, derived T): "
            f"{baseline_total:,.0f} us total ({per_p})"
        )
        lines.append(f"  {baseline.describe_distributions()}")
        lines.append(f"  T = {baseline.describe_matrix()}")
    elif baseline is not None:
        lines.append("")
        lines.append(f"baseline could not be scored: {baseline.reason}")

    headers = (
        ["rank", "total (us)"]
        + [f"us @ P={p}" for p in result.processors]
        + ["distribution", "T"]
    )
    rows = []
    for rank, candidate in enumerate(result.ranking[:top_k], start=1):
        rows.append(
            [str(rank), f"{candidate.total_us:,.0f}"]
            + [f"{t:,.0f}" for t in candidate.times_us]
            + [candidate.describe_distributions(), candidate.describe_matrix()]
        )
    lines.append("")
    lines.append(format_table(headers, rows))

    lines.append("")
    lines.append("provenance:")
    for rank, candidate in enumerate(result.ranking[:top_k], start=1):
        labels = ", ".join(candidate.labels) or "identity"
        lines.append(f"  #{rank}: {candidate.provenance_text()}  [{labels}]")

    if result.pruned:
        lines.append("")
        lines.append("why losers lost (pruned candidates by reason):")
        counts = _reason_counts(result)
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for reason, count in ordered[:_SHOWN_PRUNED]:
            lines.append(f"  {count:>4}  {reason}")
        hidden = len(counts) - min(len(counts), _SHOWN_PRUNED)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more reason(s)")

    best = result.best
    summary = f"\nbest: {best.describe_distributions()}  via {best.recipe.describe()}"
    if baseline_total:
        ratio = best.total_us / baseline_total
        summary += f"  ({ratio:.3f}x of baseline)"
    lines.append(summary)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------
def _parse_block_sizes(text: str) -> List[int]:
    """``--block-sizes`` type: comma-separated positive ints; '' disables."""
    if not text.strip() or text.strip().lower() == "none":
        return []
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid block-size list {text!r}: expected comma-separated "
            "integers like '4,16' (or 'none')"
        )
    if any(size <= 0 for size in sizes):
        raise argparse.ArgumentTypeError(
            f"block sizes must be positive, got {text!r}"
        )
    return sorted(set(sizes))


def add_tune_options(parser: argparse.ArgumentParser) -> None:
    """The ``tune`` arguments, shared with ``repro submit tune``."""
    from repro.cli import _parse_procs

    parser.add_argument(
        "-P", "--processors", default=[4, 16], type=_parse_procs,
        help="comma-separated processor counts candidates are scored at "
        "(default: 4,16, the paper's reported points)",
    )
    parser.add_argument(
        "--budget", type=int, default=400,
        help="max candidates admitted to scoring (0 = unbounded; "
        "default %(default)s)",
    )
    parser.add_argument(
        "--top-k", type=int, default=5,
        help="how many ranked candidates to report (default %(default)s)",
    )
    parser.add_argument(
        "--block-sizes", type=_parse_block_sizes, default=[8],
        metavar="B1,B2,...",
        help="block-cyclic block sizes offered per distributed dimension "
        "(default: 8; 'none' searches wrapped/blocked only)",
    )
    parser.add_argument(
        "--allow-replicated", action="store_true",
        help="also offer full replication per array",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="bind a symbolic program parameter for scoring, e.g. 'N=64' "
        "(repeatable; score small, validate winners at full scale)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full ranking and pruning provenance as one JSON "
        "document",
    )


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.service.jobs import run_tune, tune_payload

    metrics = Metrics()
    print(run_tune(tune_payload(args), jobs=args.jobs, metrics=metrics))
    if args.profile:
        print(with_process_counters(metrics).report(), file=sys.stderr)
    return 0


__all__ = [
    "add_tune_options",
    "cmd_tune",
    "render_json",
    "render_text",
]
