"""Pure job execution shared by the direct CLI and the compilation service.

Every endpoint of the daemon and the corresponding ``repro`` subcommand
call the *same* function in this module over the *same* payload dict, so
served output is byte-identical to the direct path by construction —
``repro submit compile --json`` and ``repro compile --json`` cannot
drift apart because there is only one implementation.

Payloads are plain JSON-compatible dicts (they cross both the HTTP wire
and the ``multiprocessing`` pickle boundary); :func:`execute_job` is the
top-level importable worker entry point the runtime's
:func:`~repro.runtime.executor.run_tasks` fans batches out with, and
:func:`execute_batch` is the blocking batch runner the daemon calls on
its executor thread.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.cli import analyze_texts
from repro.bench.harness import run_speedup_sweep, speedup_table
from repro.codegen import (
    emit_python,
    generate_ownership,
    generate_spmd,
    render_node_program,
)
from repro.core import access_normalize
from repro.errors import ReproError
from repro.ir import render_nest
from repro.ir.program import Program
from repro.lang import parse_program
from repro.numa import butterfly_gp1000, ipsc860, simulate, uniform_memory
from repro.numa.machine import MachineConfig
from repro.runtime import (
    Metrics,
    SimulationCache,
    SweepCell,
    run_grid,
    run_tasks,
)

#: Machine factories shared with the CLI's ``--machine`` choice.
MACHINES = {
    "butterfly": butterfly_gp1000,
    "ipsc860": ipsc860,
    "uniform": uniform_memory,
}

#: Simulation variants accepted by the ``simulate`` op.
VARIANTS = ("naive", "normalized", "normalized+bt")

_EMIT_CHOICES = ("report", "ir", "node", "python", "all")


# ----------------------------------------------------------------------
# payload construction (used by both `repro <cmd>` and `repro submit`)
# ----------------------------------------------------------------------
def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def compile_payload(args) -> Dict[str, object]:
    """The ``compile`` payload for parsed CLI args (reads the source file)."""
    return {
        "source": _read_file(args.file),
        "name": args.file,
        "priority": args.priority,
        "assume": list(args.assume),
        "emit": args.emit,
        "schedule": args.schedule,
        "block_transfers": not args.no_block_transfers,
        "json": bool(getattr(args, "json", False)),
    }


def analyze_payload(args) -> Dict[str, object]:
    """The ``analyze`` payload for parsed CLI args (reads every input)."""
    return {
        "inputs": [
            {"name": path, "text": _read_file(path)} for path in args.files
        ],
        "json": bool(args.json),
        "fail_on": args.fail_on,
        "priority": args.priority,
        "assume": list(args.assume),
        "schedule": args.schedule,
        "assume_sync": bool(args.assume_sync),
        "passes": args.passes,
    }


def sweep_payload(args) -> Dict[str, object]:
    """The ``sweep`` payload for parsed ``repro simulate`` args."""
    return {
        "source": _read_file(args.file),
        "name": args.file,
        "priority": args.priority,
        "assume": list(args.assume),
        "machine": args.machine,
        "contention": args.contention,
        "processors": list(args.processors),
        "ownership": bool(args.ownership),
        "detail": bool(args.detail),
        "engine": getattr(args, "engine", "auto"),
    }


def _parse_candidate(text: str) -> Dict[str, str]:
    """``variant`` or ``variant/schedule`` -> a solve candidate spec."""
    variant, _, schedule = str(text).partition("/")
    return {"variant": variant, "schedule": schedule or "wrapped"}


def _parse_bindings(pairs) -> Optional[Dict[str, int]]:
    """Repeatable ``NAME=VALUE`` options -> a parameter dict."""
    if not pairs:
        return None
    params: Dict[str, int] = {}
    for pair in pairs:
        name, sep, value = str(pair).partition("=")
        if not sep or not name:
            raise ReproError(
                f"invalid parameter binding {pair!r}: expected NAME=VALUE"
            )
        try:
            params[name] = int(value)
        except ValueError:
            raise ReproError(
                f"invalid parameter binding {pair!r}: value must be an integer"
            )
    return params


def _payload_params(
    payload: Mapping[str, object],
) -> Optional[Dict[str, int]]:
    """A payload's ``params`` object as ``{name: int}`` (``None`` if absent)."""
    raw = payload.get("params") or None
    if raw is None:
        return None
    if isinstance(raw, Mapping):
        try:
            return {str(k): int(v) for k, v in raw.items()}  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
    raise ReproError("'params' must be an object of integer bindings")


def tune_payload(args) -> Dict[str, object]:
    """The ``tune`` payload for parsed ``repro tune`` args."""
    return {
        "source": _read_file(args.file),
        "name": args.file,
        "priority": args.priority,
        "assume": list(args.assume),
        "machine": args.machine,
        "contention": args.contention,
        "processors": list(args.processors),
        "params": _parse_bindings(args.param),
        "budget": args.budget,
        "top_k": args.top_k,
        "block_sizes": list(args.block_sizes),
        "allow_replicated": bool(args.allow_replicated),
        "json": bool(args.json),
    }


def solve_payload(args) -> Dict[str, object]:
    """The ``solve`` payload for parsed ``repro solve`` args."""
    return {
        "source": _read_file(args.file),
        "name": args.file,
        "priority": args.priority,
        "assume": list(args.assume),
        "machine": args.machine,
        "contention": args.contention,
        "params": _parse_bindings(args.param),
        "left": _parse_candidate(args.left),
        "right": _parse_candidate(args.right),
        "min_processors": args.min_processors,
        "max_processors": args.max_processors,
        "json": bool(args.json),
    }


# ----------------------------------------------------------------------
# payload interpretation
# ----------------------------------------------------------------------
def machine_from_payload(payload: Mapping[str, object]) -> MachineConfig:
    """Build the target machine named by ``payload``."""
    name = payload.get("machine", "butterfly")
    factory = MACHINES.get(str(name))
    if factory is None:
        raise ReproError(
            f"unknown machine {name!r}: expected one of {sorted(MACHINES)}"
        )
    contention = payload.get("contention")
    if contention is not None:
        return factory(contention_coefficient=float(contention))  # type: ignore[arg-type]
    return factory()


def _parse_source(payload: Mapping[str, object], metrics: Metrics) -> Program:
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ReproError("request needs a non-empty 'source' string")
    name = str(payload.get("name") or "<request>")
    with metrics.stage("parse"):
        return parse_program(source, name=name)


def _normalize(payload: Mapping[str, object], program: Program, metrics: Metrics):
    priority_text = payload.get("priority")
    priority = str(priority_text).split(",") if priority_text else None
    assume = tuple(str(fact) for fact in (payload.get("assume") or ()))
    with metrics.stage("normalize"):
        return access_normalize(
            program,
            priority=priority,
            assumptions=(tuple(program.assumptions) + assume) or None,
        )


def _normalize_processors(raw: object) -> List[int]:
    """Validate a processor-count list: positive ints, deduplicated, sorted."""
    if raw is None:
        raw = [1, 4, 8, 16, 28]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ReproError(
            "'processors' must be a non-empty list of positive integers"
        )
    procs = []
    for item in raw:
        try:
            value = int(item)
        except (TypeError, ValueError):
            raise ReproError(f"invalid processor count {item!r}")
        if value <= 0:
            raise ReproError(f"processor counts must be positive, got {item!r}")
        procs.append(value)
    return sorted(set(procs))


def _engine_from_payload(payload: Mapping[str, object]) -> str:
    """Validate the accounting-engine choice of a simulate/sweep payload."""
    from repro.numa.simulator import ENGINES

    engine = str(payload.get("engine", "auto") or "auto")
    if engine not in ENGINES:
        choices = ", ".join(ENGINES)
        raise ReproError(
            f"unknown engine {engine!r}: expected one of: {choices}"
        )
    return engine


def _test_delay(payload: Mapping[str, object]) -> None:
    """Honor the ``delay_ms`` testing aid (used to exercise timeouts,
    queue backpressure and drain ordering deterministically)."""
    delay = payload.get("delay_ms")
    if delay:
        time.sleep(float(delay) / 1000.0)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# the jobs themselves
# ----------------------------------------------------------------------
def _variant_node(
    payload: Mapping[str, object],
    program: Program,
    variant: str,
    metrics: Metrics,
    *,
    schedule: str = "wrapped",
    result=None,
):
    """The node program of one of :data:`VARIANTS` under ``schedule``.

    ``naive`` compiles ``program`` as written; the normalized variants
    compile its access-normalized form, ``result`` when the caller has
    it, else normalized here.
    """
    if variant == "naive":
        source, block_transfers = program, False
    else:
        if result is None:
            result = _normalize(payload, program, metrics)
        source = result.transformed
        block_transfers = variant == "normalized+bt"
    with metrics.stage("codegen"):
        return generate_spmd(
            source, schedule=schedule, block_transfers=block_transfers
        )


def run_compile(
    payload: Mapping[str, object], *, metrics: Optional[Metrics] = None
) -> str:
    """``repro compile``'s stdout (sans trailing newline) for ``payload``."""
    metrics = metrics if metrics is not None else Metrics()
    program = _parse_source(payload, metrics)
    result = _normalize(payload, program, metrics)
    emit = str(payload.get("emit", "all"))
    if emit not in _EMIT_CHOICES:
        raise ReproError(
            f"unknown emit kind {emit!r}: expected one of {_EMIT_CHOICES}"
        )
    schedule = str(payload.get("schedule", "wrapped"))
    block_transfers = bool(payload.get("block_transfers", True))
    with metrics.stage("codegen"):
        node = generate_spmd(
            result.transformed,
            schedule=schedule,
            block_transfers=block_transfers,
        )
    sections: List[Tuple[str, str, str]] = []
    if emit in ("report", "all"):
        sections.append(
            ("report", "access normalization report", result.report())
        )
    if emit in ("ir", "all"):
        sections.append(
            ("ir", "transformed loop nest", render_nest(result.transformed.nest))
        )
    if emit in ("node", "all"):
        sections.append(("node", "SPMD node program", render_node_program(node)))
    if emit in ("python", "all"):
        sections.append(("python", "generated Python", emit_python(node.program)))
    if payload.get("json"):
        document = {
            "tool": "repro-compile",
            "program": program.name,
            "schedule": schedule,
            "block_transfers": block_transfers,
            "artifacts": {key: text for key, _, text in sections},
        }
        return json.dumps(document, indent=2, sort_keys=True)
    return "\n".join(
        f"=== {title} ===\n{text}" for _, title, text in sections
    )


def run_analyze(
    payload: Mapping[str, object], *, metrics: Optional[Metrics] = None
) -> Tuple[str, str, int]:
    """``repro analyze``'s ``(stdout, stderr, exit_code)`` for ``payload``."""
    metrics = metrics if metrics is not None else Metrics()
    raw_inputs = payload.get("inputs")
    if not isinstance(raw_inputs, (list, tuple)) or not raw_inputs:
        raise ReproError("analyze request needs a non-empty 'inputs' list")
    inputs: List[Tuple[str, str]] = []
    for item in raw_inputs:
        if not isinstance(item, Mapping) or "text" not in item:
            raise ReproError(
                "each analyze input must be an object with 'name' and 'text'"
            )
        inputs.append((str(item.get("name", "<request>")), str(item["text"])))
    priority_text = payload.get("priority")
    passes_text = payload.get("passes")
    with metrics.stage("analyze"):
        return analyze_texts(
            inputs,
            fail_on=str(payload.get("fail_on", "error")),
            priority=str(priority_text).split(",") if priority_text else None,
            assume=tuple(str(f) for f in (payload.get("assume") or ())),
            schedule=str(payload.get("schedule", "wrapped")),
            assume_sync=bool(payload.get("assume_sync", False)),
            as_json=bool(payload.get("json", False)),
            passes=str(passes_text).split(",") if passes_text else None,
        )


def run_sweep(
    payload: Mapping[str, object],
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> Tuple[str, str]:
    """``repro simulate``'s ``(stdout, stderr)`` for ``payload``."""
    metrics = metrics if metrics is not None else Metrics()
    program = _parse_source(payload, metrics)
    result = _normalize(payload, program, metrics)
    machine = machine_from_payload(payload)
    err_lines: List[str] = []
    nodes = {
        variant: _variant_node(
            payload, program, variant, metrics, result=result
        )
        for variant in VARIANTS
    }
    if payload.get("ownership"):
        try:
            with metrics.stage("codegen"):
                nodes["ownership"] = generate_ownership(program)
        except ReproError as error:
            err_lines.append(f"(skipping ownership baseline: {error})")
    procs = _normalize_processors(payload.get("processors"))
    engine = _engine_from_payload(payload)
    series = run_speedup_sweep(
        nodes, procs, machine=machine, baseline="normalized+bt",
        jobs=jobs, cache=cache, metrics=metrics, engine=engine,
    )
    lines = [f"machine: {machine.name}", speedup_table(procs, series)]
    if payload.get("detail"):
        outcome = simulate(
            nodes["normalized+bt"], processors=procs[-1], machine=machine,
            engine=engine,
        )
        lines.append(f"\nper-processor breakdown (normalized+bt, P={procs[-1]}):")
        lines.append(outcome.table())
    return "\n".join(lines), "\n".join(err_lines)


#: Candidate schedules accepted by the ``solve`` op.
_SCHEDULES = ("wrapped", "blocked")

#: Upper bound on the processor range a solve request may scan.  The
#: symbolic evaluation is cheap per cell, but the range still bounds
#: served work.
_SOLVE_MAX_PROCESSORS = 4096


def _candidate_node(
    spec: object,
    program: Program,
    normalized,
    metrics: Metrics,
) -> Tuple[str, object]:
    """Build the node program for one solve candidate spec."""
    if not isinstance(spec, Mapping):
        raise ReproError(
            "solve candidates must be objects with 'variant' and 'schedule'"
        )
    variant = str(spec.get("variant", "normalized"))
    if variant not in VARIANTS:
        raise ReproError(
            f"unknown variant {variant!r}: expected one of {VARIANTS}"
        )
    schedule = str(spec.get("schedule", "wrapped"))
    if schedule not in _SCHEDULES:
        raise ReproError(
            f"unknown schedule {schedule!r}: expected one of {_SCHEDULES}"
        )
    node = _variant_node(
        {}, program, variant, metrics, schedule=schedule, result=normalized
    )
    return f"{variant}/{schedule}", node


def run_solve(
    payload: Mapping[str, object], *, metrics: Optional[Metrics] = None
) -> str:
    """``repro solve``'s stdout for ``payload``.

    Answers an analytic crossover question — "at what processor count
    does the *right* candidate start beating the *left* one?" — by
    deriving each candidate's symbolic accounting form once and
    evaluating it at every processor count in the requested range.  The
    whole scan therefore costs two derivations plus cheap per-cell
    evaluations, which is the point of the symbolic tier: the question
    covers hundreds of cells but only ever touches two programs.
    """
    metrics = metrics if metrics is not None else Metrics()
    program = _parse_source(payload, metrics)
    result = _normalize(payload, program, metrics)
    machine = machine_from_payload(payload)
    params = _payload_params(payload)
    try:
        low = int(payload.get("min_processors", 1))  # type: ignore[arg-type]
        high = int(payload.get("max_processors", 64))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ReproError("processor bounds must be integers")
    if low < 1 or high < low:
        raise ReproError(
            f"processor range must satisfy 1 <= min <= max, "
            f"got [{low}, {high}]"
        )
    if high > _SOLVE_MAX_PROCESSORS:
        raise ReproError(
            f"max_processors {high} exceeds the solve cap "
            f"{_SOLVE_MAX_PROCESSORS}"
        )
    left_label, left_node = _candidate_node(
        payload.get("left") or {"variant": "normalized", "schedule": "wrapped"},
        program, result, metrics,
    )
    right_label, right_node = _candidate_node(
        payload.get("right") or {"variant": "normalized", "schedule": "blocked"},
        program, result, metrics,
    )
    series: List[Tuple[int, float, float]] = []
    crossover: Optional[int] = None
    with metrics.stage("solve"):
        for procs in range(low, high + 1):
            left_time = simulate(
                left_node, processors=procs, params=params,
                machine=machine, engine="symbolic",
            ).total_time_us
            right_time = simulate(
                right_node, processors=procs, params=params,
                machine=machine, engine="symbolic",
            ).total_time_us
            series.append((procs, left_time, right_time))
            if crossover is None and right_time < left_time:
                crossover = procs

    if payload.get("json"):
        document = {
            "tool": "repro-solve",
            "program": program.name,
            "machine": machine.name,
            "params": params,
            "left": left_label,
            "right": right_label,
            "min_processors": low,
            "max_processors": high,
            "crossover": crossover,
            "series": [
                {"processors": p, "left_us": lt, "right_us": rt}
                for p, lt, rt in series
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True)

    lines = [
        f"machine: {machine.name}",
        f"program: {program.name}"
        + (
            "  ("
            + ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            + ")"
            if params
            else ""
        ),
        f"question: smallest P in [{low}, {high}] where {right_label} "
        f"beats {left_label}",
    ]
    if crossover is None:
        lines.append(
            f"answer: none — {right_label} never beats {left_label} "
            f"in [{low}, {high}]"
        )
    else:
        lines.append(f"answer: P = {crossover}")
    # Show powers of two plus the crossover neighborhood, not all cells.
    shown = {low, high}
    value = 1
    while value <= high:
        if value >= low:
            shown.add(value)
        value *= 2
    if crossover is not None:
        shown.update(p for p in (crossover - 1, crossover) if low <= p <= high)
    width = max(len(left_label), len(right_label), 12)
    lines.append("")
    lines.append(
        f"{'P':>6}  {left_label + ' (us)':>{width + 5}}  "
        f"{right_label + ' (us)':>{width + 5}}"
    )
    for procs, left_time, right_time in series:
        if procs not in shown:
            continue
        marker = "  <- crossover" if procs == crossover else ""
        lines.append(
            f"{procs:>6}  {left_time:>{width + 5}.1f}  "
            f"{right_time:>{width + 5}.1f}{marker}"
        )
    return "\n".join(lines)


def run_tune(
    payload: Mapping[str, object],
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
    metrics: Optional[Metrics] = None,
) -> str:
    """``repro tune``'s stdout for ``payload``.

    The CLI and the daemon's ``/v1/tune`` endpoint both call this
    function with the same payload dict, so served output is
    byte-identical to the direct CLI by construction.
    """
    from repro.tune.cli import render_json, render_text
    from repro.tune.search import tune_program
    from repro.tune.space import SearchSpace

    metrics = metrics if metrics is not None else Metrics()
    program = _parse_source(payload, metrics)
    machine = machine_from_payload(payload)
    procs = _normalize_processors(payload.get("processors") or [4, 16])

    params = _payload_params(payload)

    raw_budget = payload.get("budget", 400)
    budget: Optional[int]
    try:
        budget = None if raw_budget is None else int(raw_budget)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ReproError(f"invalid budget {raw_budget!r}")
    if budget is not None and budget <= 0:
        budget = None  # 0 (and the CLI's --budget 0) means unbounded

    try:
        top_k = int(payload.get("top_k", 5))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ReproError(f"invalid top_k {payload.get('top_k')!r}")
    if top_k <= 0:
        raise ReproError(f"top_k must be positive, got {top_k}")

    raw_blocks = payload.get("block_sizes")
    if raw_blocks is None:
        raw_blocks = [8]
    if not isinstance(raw_blocks, (list, tuple)):
        raise ReproError("'block_sizes' must be a list of positive integers")
    try:
        block_sizes = tuple(sorted({int(b) for b in raw_blocks}))
    except (TypeError, ValueError):
        raise ReproError("'block_sizes' must be a list of positive integers")

    space = SearchSpace(
        block_sizes=block_sizes,
        allow_replicated=bool(payload.get("allow_replicated")),
    )

    priority_text = payload.get("priority")
    priority = str(priority_text).split(",") if priority_text else None
    assume = tuple(str(fact) for fact in (payload.get("assume") or ()))

    result = tune_program(
        program,
        processors=tuple(procs),
        machine=machine,
        params=params,
        priority=priority,
        assumptions=(tuple(program.assumptions) + assume) or None,
        budget=budget,
        space=space,
        jobs=jobs,
        cache=cache,
        metrics=metrics,
    )
    if payload.get("json"):
        return render_json(result, top_k)
    return render_text(result, top_k)


def build_simulation_cell(
    payload: Mapping[str, object], metrics: Optional[Metrics] = None
) -> SweepCell:
    """Compile a ``simulate`` payload down to one sweep-grid cell.

    The cell is what the daemon's micro-batcher hands to
    :func:`~repro.runtime.executor.run_grid`, whose fingerprint keys
    (:func:`~repro.runtime.cache.cell_key`) then deduplicate identical
    cells within the batch and against the shared cache.
    """
    metrics = metrics if metrics is not None else Metrics()
    _test_delay(payload)
    program = _parse_source(payload, metrics)
    variant = str(payload.get("variant", "normalized+bt"))
    if variant not in VARIANTS:
        raise ReproError(
            f"unknown variant {variant!r}: expected one of {VARIANTS}"
        )
    try:
        processors = int(payload.get("processors", 1))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ReproError(
            f"invalid processor count {payload.get('processors')!r}"
        )
    if processors <= 0:
        raise ReproError(f"processor count must be positive, got {processors}")
    machine = machine_from_payload(payload)
    node = _variant_node(
        payload, program, variant, metrics,
        schedule=str(payload.get("schedule", "wrapped")),
    )
    params = _payload_params(payload)
    return SweepCell(
        name=f"{program.name}@{variant}",
        node=node,
        processors=processors,
        params=params,
        machine=machine,
        engine=_engine_from_payload(payload),
    )


# ----------------------------------------------------------------------
# worker + batch entry points
# ----------------------------------------------------------------------
def _ok(result: Mapping[str, object], exit_code: int = 0) -> Dict[str, object]:
    return {"ok": True, "result": dict(result), "exit_code": exit_code}


def _failed(code: str, message: str) -> Dict[str, object]:
    return {
        "ok": False,
        "error": {"code": code, "message": message},
        "exit_code": 1,
    }


def execute_job(item: Tuple[str, Mapping[str, object]]) -> Dict[str, object]:
    """Run one non-simulate job; top-level and picklable for ``run_tasks``.

    Returns a response dict with a ``metrics`` snapshot attached: worker
    processes cannot mutate the daemon's :class:`Metrics`, so they ship a
    detached :meth:`Metrics.to_dict` snapshot back for the event loop to
    merge.
    """
    op, payload = item
    metrics = Metrics()
    try:
        _test_delay(payload)
        if op == "compile":
            stdout = run_compile(payload, metrics=metrics)
            response = _ok({"stdout": stdout, "stderr": ""})
        elif op == "analyze":
            stdout, stderr, code = run_analyze(payload, metrics=metrics)
            response = _ok({"stdout": stdout, "stderr": stderr}, exit_code=code)
        elif op == "sweep":
            stdout, stderr = run_sweep(payload, metrics=metrics)
            response = _ok({"stdout": stdout, "stderr": stderr})
        elif op == "solve":
            stdout = run_solve(payload, metrics=metrics)
            response = _ok({"stdout": stdout, "stderr": ""})
        elif op == "tune":
            stdout = run_tune(payload, metrics=metrics)
            response = _ok({"stdout": stdout, "stderr": ""})
        else:
            response = _failed("bad_request", f"unknown op {op!r}")
    except ReproError as error:
        response = _failed("compile_error", str(error))
    except Exception as error:  # noqa: BLE001 - workers must not crash batches
        response = _failed("internal", f"{type(error).__name__}: {error}")
    response["metrics"] = metrics.to_dict()
    return response


def execute_batch(
    items: Sequence[Tuple[str, Mapping[str, object]]],
    *,
    jobs: int = 1,
    cache: Optional[SimulationCache] = None,
) -> Tuple[List[Dict[str, object]], Dict[str, Dict[str, float]]]:
    """Run one micro-batch of mixed requests; blocking, executor-thread side.

    ``simulate`` items are compiled to sweep cells and pushed through one
    :func:`run_grid` call, so identical cells inside the batch collapse to
    a single execution (``dedup_hits``) and cells seen before come from
    the shared cache (``cache_hits``).  Everything else fans out over
    :func:`run_tasks` with :func:`execute_job`.  Returns per-item response
    dicts in input order plus one merged metrics snapshot.
    """
    metrics = Metrics()
    results: List[Optional[Dict[str, object]]] = [None] * len(items)

    cells: List[SweepCell] = []
    cell_slots: List[int] = []
    other_slots: List[int] = []
    for index, (op, payload) in enumerate(items):
        if op != "simulate":
            other_slots.append(index)
            continue
        try:
            cells.append(build_simulation_cell(payload, metrics))
            cell_slots.append(index)
        except ReproError as error:
            results[index] = _failed("compile_error", str(error))
        except Exception as error:  # noqa: BLE001
            results[index] = _failed(
                "internal", f"{type(error).__name__}: {error}"
            )

    if cells:
        outcomes = run_grid(
            cells, jobs=jobs, cache=cache, metrics=metrics, on_error="keep"
        )
        for slot, outcome in zip(cell_slots, outcomes):
            if isinstance(outcome, ReproError):
                results[slot] = _failed("compile_error", str(outcome))
            else:
                results[slot] = _ok({"simulation": outcome.to_dict()})

    if other_slots:
        outcomes = run_tasks(
            execute_job,
            [items[slot] for slot in other_slots],
            jobs=jobs,
            metrics=metrics,
        )
        for slot, outcome in zip(other_slots, outcomes):
            snapshot = outcome.pop("metrics", None)
            if snapshot:
                metrics.merge(snapshot)
            results[slot] = outcome

    finished = [
        result
        if result is not None
        else _failed("internal", "batch produced no result")
        for result in results
    ]
    return finished, metrics.to_dict()
