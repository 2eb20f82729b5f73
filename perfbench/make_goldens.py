"""Regenerate the benchmark's goldens under ``perfbench/goldens/``.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py [figures] [tune] [nests] [serve]

* ``figures``/``nests``: per-op count digests with ``engine="walk"``,
  the interpreter oracle, for every menu entry.  ``nests`` first makes
  the nest sets (see :func:`deal_nests`), so that the seed changes the
  nests but not the expected timings.
* ``tune``: the ranking digest of every kernel per menu entry (the top
  candidates are re-scored with the walk at check time).
* ``serve``: the digest of every distinct request's ``result`` body as
  the job layer computes it directly, without the daemon.

Run it only when the program's answers change on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Generator seeds timed to make the nest sets, and how many of the
#: first usable ones every set shares.
NEST_POOL = 200
NEST_CORE = 80


def write(name: str, document) -> None:
    os.makedirs(workloads.GOLDENS, exist_ok=True)
    path = os.path.join(workloads.GOLDENS, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def op_digests(workload) -> dict:
    workload.setup()
    return {label: workload.digest(label, fn()) for label, fn in workload.ops()}


def make_figures() -> None:
    from repro.runtime import SimulationCache

    shared = SimulationCache()  # paper-size cells repeat across entries
    digests = []
    for index in range(len(workloads.Figures.menu)):
        workload = workloads.Figures(index, engine="walk")
        workload.setup()
        workload.cache = shared
        digests.append({
            label: workload.digest(label, fn()) for label, fn in workload.ops()
        })
    write("figures", {"digests": digests})


def make_tune() -> None:
    digests = [
        op_digests(workloads.Tune(index))
        for index in range(len(workloads.Tune.menu))
    ]
    write("tune", {"digests": digests})


def nest_costs(seeds):
    """[(seconds, seed)] of one nest op per generator seed, timed once
    each in one pass in seed order, as a measured pass runs them."""
    from repro.fuzz import generate_spec
    from repro.runtime import SimulationCache

    costs = []
    for seed in seeds:
        probe = workloads.Nests(0)
        probe.generator_seeds = [seed]
        probe.programs = [generate_spec(seed).build()]
        probe.cache = SimulationCache()
        start = time.perf_counter()
        try:
            probe._nest(0)
        except Exception as error:  # keep only nests no op fails on
            print(f"nest seed {seed} dropped: {error}", file=sys.stderr)
            continue
        costs.append((time.perf_counter() - start, seed))
    return costs


def deal_nests():
    """Every set is the first NEST_CORE usable nests plus its share of
    the next ones, dealt in snake order by cost (the costliest spares
    dropped), so the seed swaps a fifth of the nests and every set keeps
    the same cost profile.  Costs come from a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "nest-costs", str(NEST_POOL)],
        check=True, capture_output=True, text=True,
    )
    costs = [tuple(item) for item in json.loads(completed.stdout)]
    core = [seed for _, seed in costs[:NEST_CORE]]
    extra = workloads.NESTS_PER_SET - NEST_CORE
    ranked = sorted(costs[NEST_CORE:])[:workloads.NEST_SETS * extra]
    sets = [list(core) for _ in range(workloads.NEST_SETS)]
    for rank, (_, seed) in enumerate(ranked):
        lap, slot = divmod(rank, workloads.NEST_SETS)
        sets[slot if lap % 2 == 0 else workloads.NEST_SETS - 1 - slot].append(seed)
    return [sorted(nests) for nests in sets]


def make_nests() -> None:
    sets = deal_nests()
    write("nests", {"sets": sets, "digests": []})
    digests = [
        op_digests(workloads.Nests(index, engine="walk"))
        for index in range(workloads.NEST_SETS)
    ]
    write("nests", {"sets": sets, "digests": digests})


def make_serve() -> None:
    from repro.service.jobs import execute_batch

    digests = {}
    for key, item in sorted(workloads.serve_requests().items()):
        results, _ = execute_batch([item], jobs=1)
        if not results[0].get("ok"):
            raise SystemExit(f"serve request {key} fails: {results[0]}")
        digests[key] = workloads.digest(workloads.served_result(results[0]))
    write("serve", {"digests": digests})


def main(argv) -> int:
    if argv[:1] == ["nest-costs"]:
        print(json.dumps(nest_costs(range(int(argv[1])))))
        return 0
    makers = {
        "figures": make_figures, "tune": make_tune,
        "nests": make_nests, "serve": make_serve,
    }
    for name in argv or list(makers):
        makers[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
