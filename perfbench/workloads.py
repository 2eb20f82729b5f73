"""The benchmark's four workloads: inputs from a seed, ops, output checks.

Every workload maps ``--seed`` onto a fixed menu (``seed % len(menu)``)
so each menu entry has goldens made once, with the interpreter walk as
the oracle, by ``perfbench/make_goldens.py``.  A workload is a fixed,
ordered list of ops; each op is timed on its own and returns a value
that :meth:`Workload.digest` turns into a short count digest.

* ``figures`` — the paper's Figure 4 (GEMM) and Figure 5 (banded SYR2K)
  sweeps on ``auto``: three variants each, P = 1..28 at paper scale,
  plus a neighbouring size bound through ``SweepCell.params``.  One op is
  one cell, run through ``run_grid``; the two variant builds
  (normalize + SPMD codegen) are ops too.
* ``tune`` — ``tune_program`` on six shipped kernels at scoring scale,
  P in {4, 16}, small budgets, cold caches.  One op is one kernel.
* ``nests`` — 100 seeded fuzz nests, normalized, SPMD-generated with the
  schedule alternating with the generator seed's parity, and simulated
  at three P values.  One op is one nest.  The seed picks one of four
  nest sets that share 80 nests and differ in 20, dealt by cost so that
  every set has the same cost profile.
* ``serve`` — simulate, compile, sweep and solve requests over the
  shipped ``.an`` programs in four rounds (the first in fixed order,
  the rest in seeded order), each request sent by both of two
  connections at once to a ``repro serve --jobs 1`` daemon (closed
  loop).  One op is one request.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens")
PROGRAMS = os.path.join(ROOT, "examples", "programs")

Op = Tuple[str, Callable[[], object]]


def digest(value: object) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_counts(result) -> List[List[int]]:
    """Every per-processor count of a ``SimulationResult``."""
    return [
        [c.local, c.remote, c.block_transfers, c.block_bytes, c.guards,
         c.statements, c.iterations, c.syncs]
        for c in (proc.counts for proc in result.per_proc)
    ]


def corrupt(output: object) -> object:
    """``output`` with one count off by one (exercises the checks)."""
    from dataclasses import replace

    from repro.numa.simulator import SimulationResult

    if isinstance(output, list) and output:
        return [corrupt(output[0])] + output[1:]
    if isinstance(output, SimulationResult):
        first = output.per_proc[0]
        counts = replace(first.counts, local=first.counts.local + 1)
        return replace(
            output, per_proc=(replace(first, counts=counts),) + output.per_proc[1:]
        )
    return "corrupted"


def load_golden(name: str) -> Dict:
    with open(os.path.join(GOLDENS, f"{name}.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """A fixed op list built from a menu entry, with digest-based checks."""

    name = ""
    menu: Sequence = ()

    def __init__(self, seed: int, engine: str = "auto") -> None:
        self.seed = seed
        self.index = seed % len(self.menu)
        self.entry = self.menu[self.index]
        self.engine = engine

    def setup(self) -> None:
        """Build the inputs (timed as set-up)."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def digest(self, label: str, output: object) -> str:
        raise NotImplementedError

    def expected(self) -> Dict[str, str]:
        return load_golden(self.name)["digests"][self.index]

    def check(self, labels: List[str], outputs: List[object]) -> List[int]:
        """Positions of ops whose output disagrees with the golden digest."""
        expected = self.expected()
        failed = []
        for position, (label, output) in enumerate(zip(labels, outputs)):
            try:
                ok = self.digest(label, output) == expected.get(label)
            except Exception:  # a failed op or a malformed output
                ok = False
            if not ok:
                failed.append(position)
        return failed


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
FIGURE_PROCS = tuple(range(1, 29))
NEIGHBOUR_PROCS = (1, 4, 8, 16, 28)


class Figures(Workload):
    name = "figures"
    menu = (
        {"gemm": {"N": 384}, "syr2k": {"N": 384, "b": 44}},
        {"gemm": {"N": 392}, "syr2k": {"N": 392, "b": 46}},
        {"gemm": {"N": 408}, "syr2k": {"N": 408, "b": 50}},
        {"gemm": {"N": 416}, "syr2k": {"N": 416, "b": 52}},
    )

    def setup(self) -> None:
        from repro.bench.figures import figure_machine
        from repro.runtime import SimulationCache

        self.machine = figure_machine()
        self.cache = SimulationCache()
        self.nodes: Dict[str, object] = {}

    def _build(self, family: str):
        from repro.bench import figures

        if family == "gemm":
            variants = figures.gemm_variants(400)
        else:
            variants = figures.syr2k_variants(400, 48)
        self.nodes.update(variants)
        return sorted(variants)

    def _cell(self, variant: str, processors: int, params):
        from repro.runtime import SweepCell, executor

        cell = SweepCell(
            variant, self.nodes[variant], processors, params, self.machine,
            engine=self.engine,
        )
        return executor.run_grid([cell], jobs=1, cache=self.cache)[0]

    def ops(self) -> List[Op]:
        ops: List[Op] = []
        for family, variants in (
            ("gemm", ("gemm", "gemmT", "gemmB")),
            ("syr2k", ("syr2k", "syr2kT", "syr2kB")),
        ):
            ops.append((f"build:{family}", lambda f=family: self._build(f)))
            neighbour = self.entry[family]
            grid = [(p, None) for p in FIGURE_PROCS]
            grid += [(p, neighbour) for p in NEIGHBOUR_PROCS]
            for processors, params in grid:
                for variant in variants:
                    size = "paper" if params is None else "N{N}".format(**params)
                    ops.append((
                        f"{variant}@{size}:P={processors}",
                        lambda v=variant, p=processors, q=params: self._cell(v, p, q),
                    ))
        return ops

    def digest(self, label: str, output: object) -> str:
        if label.startswith("build:"):
            return digest(output)
        return digest(result_counts(output))


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------
#: (kernel, budget); the scoring size comes from the menu entry.
TUNE_KERNELS = (
    ("gemm", 24), ("syrk", 24), ("gemv", 24), ("jacobi", 24),
    ("figure1", 16), ("syr2k", 8),
)
TUNE_PROCS = (4, 16)
TUNE_TOP_K = 3


def _tune_program(kernel: str):
    """(program, priority) of a shipped kernel at full scale."""
    from repro import blas
    from repro.lang import parse_program

    if kernel == "figure1":
        with open(os.path.join(PROGRAMS, "figure1.an"), "r", encoding="utf-8") as handle:
            return parse_program(handle.read(), name="figure1"), None
    if kernel == "syr2k":
        return blas.syr2k_program(400, 48), list(blas.PAPER_PRIORITY)
    builder = {
        "gemm": blas.gemm_program, "syrk": blas.syrk_program,
        "gemv": blas.gemv_program, "jacobi": blas.jacobi_program,
    }[kernel]
    return builder(), None


def _tune_params(kernel: str, size: int) -> Dict[str, int]:
    if kernel == "figure1":
        return {"N1": size - 8, "N2": size - 8, "b": 4}
    if kernel == "syr2k":
        return {"N": size, "b": 3}
    return {"N": size}


class Tune(Workload):
    name = "tune"
    # Scoring sizes.  A wider menu moves op_p50_ms with the seed: the
    # median falls between two kernels whose walk-served cells grow
    # with the size at different rates.
    menu = (22, 24)

    def setup(self) -> None:
        from repro.bench.figures import figure_machine
        from repro.runtime.metrics import Metrics

        self.machine = figure_machine()
        self.metrics = Metrics()
        self.programs = {kernel: _tune_program(kernel) for kernel, _ in TUNE_KERNELS}

    def _tune(self, kernel: str, budget: int):
        from repro.runtime import SimulationCache
        from repro.tune import search

        program, priority = self.programs[kernel]
        return search.tune_program(
            program,
            processors=TUNE_PROCS,
            machine=self.machine,
            params=_tune_params(kernel, self.entry),
            priority=priority,
            budget=budget,
            jobs=1,
            cache=SimulationCache(),
            metrics=self.metrics,
        )

    def ops(self) -> List[Op]:
        return [
            (kernel, lambda k=kernel, b=budget: self._tune(k, b))
            for kernel, budget in TUNE_KERNELS
        ]

    def digest(self, label: str, output: object) -> str:
        ranking = [
            [c.index, list(c.times_us), c.describe_distributions(), c.describe_matrix()]
            for c in output.ranking
        ]
        baseline = list(output.baseline.times_us) if output.baseline else None
        return digest([ranking, baseline, output.enumerated, len(output.pruned)])

    def check(self, labels: List[str], outputs: List[object]) -> List[int]:
        failed = set(super().check(labels, outputs))
        for position, (label, output) in enumerate(zip(labels, outputs)):
            if position in failed:
                continue
            try:
                ok = self.walk_rescore_matches(label, output)
            except Exception:  # a malformed result cannot be re-scored
                ok = False
            if not ok:
                failed.add(position)
        return sorted(failed)

    def walk_rescore_matches(self, kernel: str, result) -> bool:
        """Re-score the top-k candidates with the interpreter walk."""
        from repro.codegen.spmd import generate_spmd
        from repro.core.transform import apply_transformation
        from repro.ir.program import Program
        from repro.numa.simulator import simulate

        program, _ = self.programs[kernel]
        params = program.bound_params(_tune_params(kernel, self.entry))
        for candidate in result.ranking[:TUNE_TOP_K]:
            trial = Program(
                nest=program.nest,
                arrays=program.arrays,
                distributions={
                    name: dist for name, dist in candidate.distributions.items()
                    if dist is not None
                },
                params=params,
                name=program.name,
                assumptions=tuple(program.assumptions or ()),
            )
            transformation = apply_transformation(
                trial.nest, candidate.matrix,
                assumptions=tuple(program.assumptions or ()),
            )
            node = generate_spmd(trial.with_nest(transformation.nest))
            times = tuple(
                simulate(node, processors=p, machine=self.machine, engine="walk").total_time_us
                for p in TUNE_PROCS
            )
            if times != tuple(candidate.times_us):
                return False
        return True


# ----------------------------------------------------------------------
# nests
# ----------------------------------------------------------------------
NEST_PROCS = (1, 3, 8)
NEST_SCHEDULES = ("wrapped", "blocked")
NEST_SETS = 4
NESTS_PER_SET = 100


class Nests(Workload):
    name = "nests"
    menu = tuple(range(NEST_SETS))

    def setup(self) -> None:
        from repro.fuzz import generate_spec
        from repro.runtime import SimulationCache

        self.generator_seeds = load_golden("nests")["sets"][self.index]
        self.programs = [generate_spec(s).build() for s in self.generator_seeds]
        self.cache = SimulationCache()

    def _nest(self, position: int):
        from repro.codegen import spmd
        from repro.core import normalize
        from repro.runtime import SweepCell, executor

        program = self.programs[position]
        result = normalize.access_normalize(program)
        node = spmd.generate_spmd(
            result.transformed,
            schedule=NEST_SCHEDULES[self.generator_seeds[position] % 2],
            sync_events=result.outer_carried_count,
        )
        cells = [
            SweepCell(program.name, node, p, None, engine=self.engine)
            for p in NEST_PROCS
        ]
        return executor.run_grid(cells, jobs=1, cache=self.cache)

    def ops(self) -> List[Op]:
        return [
            (f"{position}:{seed}", lambda i=position: self._nest(i))
            for position, seed in enumerate(self.generator_seeds)
        ]

    def digest(self, label: str, output: object) -> str:
        return digest([result_counts(result) for result in output])


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_PROGRAMS = ("gemm", "syr2k", "figure1")
SERVE_ROUNDS = 4


def serve_requests() -> Dict[str, Tuple[str, Dict]]:
    """The distinct requests of the serve mix, by stable key."""
    requests: Dict[str, Tuple[str, Dict]] = {}
    for program in SERVE_PROGRAMS:
        with open(os.path.join(PROGRAMS, f"{program}.an"), "r", encoding="utf-8") as handle:
            source = handle.read()
        for variant in ("naive", "normalized", "normalized+bt"):
            requests[f"simulate:{program}:{variant}"] = (
                "simulate",
                {"source": source, "name": program, "variant": variant,
                 "processors": 8},
            )
        requests[f"compile:{program}"] = (
            "compile", {"source": source, "name": program, "emit": "all"}
        )
        requests[f"sweep:{program}"] = (
            "sweep", {"source": source, "name": program, "processors": [1, 4, 8, 16]}
        )
        requests[f"solve:{program}"] = (
            "solve", {"source": source, "name": program, "max_processors": 16}
        )
    return requests


def served_result(response: Dict) -> Dict:
    """The comparable part of a response: its ``result`` body."""
    result = dict(response.get("result") or {})
    result.pop("elapsed_ms", None)
    return result


class Serve(Workload):
    name = "serve"
    menu = (None,)  # the seed orders the rounds itself; one set of goldens

    def setup(self) -> None:
        self.requests = serve_requests()
        keys = sorted(self.requests)
        # Both connections send the same request at once (consecutive
        # entries), so each pair shares one micro-batch or runs
        # side by side, and either way both replies wait for two jobs of
        # one kind: a request's latency never depends on a partner the
        # seed chose.  The first round, in fixed order, warms the caches;
        # the seed orders the remaining rounds.
        rounds = [keys]
        shuffler = random.Random(self.seed)
        for _ in range(SERVE_ROUNDS - 1):
            rounds.append(shuffler.sample(keys, len(keys)))
        self.order = [key for round_keys in rounds for key in round_keys for _ in range(2)]

    def expected(self) -> Dict[str, str]:
        return load_golden("serve")["digests"]

    def digest(self, label: str, output: object) -> str:
        return digest(served_result(output))


WORKLOADS = {w.name: w for w in (Figures, Tune, Nests, Serve)}
