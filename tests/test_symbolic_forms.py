"""The symbolic (tier-0) accounting layer and the PR's hardening fixes.

Covers the :mod:`repro.linalg.sympoly` piecewise-quasi-polynomial layer,
:class:`repro.numa.symbolic.SymbolicEngine` pinned against the
interpreter walk on a sampled (params, P) grid, the forced-engine error
contracts, auto's cost-based demotion, the fingerprint-keyed form store,
the ``solve`` job, and regression tests for the satellite fixes
(``Progression`` step validation, ``REPRO_CACHE_MAX_ENTRIES``
validation, true-LRU disk eviction, HTTP-date ``Retry-After``).
"""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from repro.bench import gemm_variants, syr2k_variants
from repro.codegen import generate_spmd
from repro.core import access_normalize
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.lang import parse_program
from repro.linalg import Progression
from repro.linalg import sympoly
from repro.linalg.sympoly import (
    Mod,
    SymExpr,
    SymbolicUnsupported,
    bounded_sum,
    compile_account,
    const,
    eq0,
    eval_cost,
    floordiv,
    ge0,
    mod,
    pos,
    sym,
    sym_sum,
)
from repro.numa import simulate
from repro.numa.symbolic import FIELDS, SymbolicEngine
from repro.runtime.cache import SimulationCache, set_shared_cache, shared_cache
from repro.service.client import _parse_retry_after
from repro.service.jobs import (
    _parse_bindings,
    _parse_candidate,
    build_simulation_cell,
    run_solve,
    run_tune,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples", "programs")


def _example_source(name):
    with open(os.path.join(EXAMPLES, name), "r", encoding="utf-8") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# golden derivation output
# ----------------------------------------------------------------------
#: sha256 of ``repr(engine.forms)`` + ``engine.evaluator().source`` per
#: node.  Regenerate only together with a ``FORM_SCHEMA`` bump:
#:
#:     PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_symbolic_forms.py \
#:         --write-golden-forms
GOLDEN_FORMS = os.path.join(REPO_ROOT, "tests", "golden_forms.json")


def golden_form_digests():
    """Digest every pinned node's derived forms and fused source.

    Atom sort indices and binder names follow the order atoms are first
    built in a process, so the digests are only comparable when taken in
    a fresh interpreter that derives exactly these nodes in this order.
    """
    nodes = dict(gemm_variants(400))
    nodes.update(syr2k_variants(400, 48))
    for filename in sorted(os.listdir(EXAMPLES)):
        if not filename.endswith(".an"):
            continue
        program = parse_program(_example_source(filename), name=filename)
        normalized = access_normalize(program).transformed
        nodes[f"{filename}:naive"] = generate_spmd(
            program, block_transfers=False
        )
        nodes[f"{filename}:normalized"] = generate_spmd(
            normalized, block_transfers=False
        )
    digests = {}
    for name, node in nodes.items():
        try:
            engine = SymbolicEngine(node)
        except SymbolicUnsupported:
            digests[name] = None
            continue
        digest = hashlib.sha256(repr(engine.forms).encode("utf-8"))
        digest.update(engine.evaluator().source.encode("utf-8"))
        digests[name] = digest.hexdigest()
    return digests


def test_derived_forms_match_golden():
    from repro.numa.symbolic import FORM_SCHEMA

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--print-golden-forms"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    with open(GOLDEN_FORMS, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["form_schema"] == FORM_SCHEMA
    assert json.loads(output) == golden["digests"]


# ----------------------------------------------------------------------
# sympoly: the piecewise-quasi-polynomial layer
# ----------------------------------------------------------------------
class TestSympoly:
    def test_mod_floordiv_reconstruct(self):
        n = sym("n")
        expr = 5 * floordiv(n, 5) + mod(n, 5)
        for value in (-13, -1, 0, 1, 4, 5, 17):
            assert expr.evaluate({"n": value}) == value

    def test_indicator_semantics(self):
        n = sym("n")
        for value in (-3, -1, 0, 1, 7):
            assert pos(n).evaluate({"n": value}) == max(0, value)
            assert ge0(n).evaluate({"n": value}) == (1 if value >= 0 else 0)
            assert eq0(n).evaluate({"n": value}) == (1 if value == 0 else 0)

    def test_sym_sum_matches_bruteforce(self):
        body = const(2) + 3 * sym("t")
        closed = sym_sum(body, "t", sym("n"), budget=[600])
        assert not closed.depends_on("t")
        for n in (-4, 0, 1, 2, 9, 23):
            expected = sum(2 + 3 * t for t in range(max(0, n)))
            assert closed.evaluate({"n": n}) == expected

    def test_sym_sum_respects_budget(self):
        with pytest.raises(SymbolicUnsupported):
            sym_sum(sym("t"), "t", sym("n"), budget=[0])

    def test_sym_sum_budget_is_per_call(self):
        # Two derivations on two threads at once: each is charged only
        # against its own budget, so an exhausted one never starves the
        # other.
        barrier = threading.Barrier(2, timeout=10)
        budgets = {"empty": [0], "full": [600]}
        outcomes = {}

        def run(label):
            barrier.wait()
            try:
                outcomes[label] = sym_sum(
                    sym("t"), "t", sym("n"), budget=budgets[label]
                )
            except SymbolicUnsupported as error:
                outcomes[label] = error

        threads = [
            threading.Thread(target=run, args=(label,)) for label in budgets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert isinstance(outcomes["empty"], SymbolicUnsupported)
        closed = outcomes["full"]
        assert isinstance(closed, SymExpr)
        for n in (-2, 0, 1, 7):
            assert closed.evaluate({"n": n}) == sum(range(max(0, n)))
        # ``t`` is one term: the successful call charged 1 + 1.
        assert budgets == {"empty": [0], "full": [598]}

    def test_bounded_sum_evaluates_as_loop(self):
        squares = bounded_sum("t", sym("n"), sym("t") * sym("t"))
        assert squares.evaluate({"n": 6}) == 55
        assert squares.evaluate({"n": 0}) == 0
        assert squares.evaluate({"n": -2}) == 0

    def test_eval_cost_charges_loops_by_extent(self):
        hint = lambda bound: 10
        flat = const(1) + sym("x")
        body = sym("t") + const(1)
        loop = bounded_sum("t", sym("n"), body)
        assert eval_cost(flat, hint) <= 4
        assert eval_cost(loop, hint) >= 10 * (1 + eval_cost(body, hint))
        # A hint of zero extent still charges the surrounding expression.
        assert eval_cost(loop, lambda bound: 0) >= 1

    def test_compiled_forms_match_interpreter(self):
        node = gemm_variants(12)["gemm"]
        engine = SymbolicEngine(node)
        fused = compile_account(engine.forms)
        env = node.program.bound_params(None)
        for P in (1, 3, 4):
            for proc in range(P):
                full = dict(env)
                full[engine.procs_name] = P
                full[engine.proc_name] = proc
                values = dict(zip(fused.fields, fused(full)))
                for name, form in engine.forms.items():
                    assert values[name] == form.evaluate(full), (
                        name, P, proc,
                    )


# ----------------------------------------------------------------------
# hash-consed atoms: one object per structure, structural equality kept
# ----------------------------------------------------------------------
def _only_atom(expr):
    (atom,) = list(expr.atoms())
    return atom


def _all_atoms(forms):
    return [
        atom for form in forms.values()
        for atom in sympoly._deep_atoms(form, [])
    ]


def _nested_atoms(tag):
    """The same nested mod/floordiv/pos/ge0/bounded_sum structures on
    every call; ``tag`` keeps them apart from atoms other tests built."""
    n, procs, q = sym(f"{tag}_n"), sym(f"{tag}_P"), sym(f"{tag}_q")
    exprs = []
    for k in range(1, 4):
        inner = mod(n + k, procs)
        mid = floordiv(inner + 3 * n, k + 1)
        exprs.append(
            bounded_sum(f"{tag}_q", procs, mod(q + mid + k, 3))
            + pos(mid - n) * ge0(inner - k)
        )
    return exprs


class TestAtomInterning:
    def test_each_constructor_returns_one_object_per_structure(self):
        n, procs = sym("intern_n"), sym("intern_P")
        builders = [
            lambda: mod(n + 1, 4),
            lambda: mod(2 * n + 1, procs),
            lambda: floordiv(n + 3, 4),
            lambda: floordiv(n, procs),
            lambda: pos(n - 2),
            lambda: ge0(n - 5),
            lambda: bounded_sum("intern_q", procs, mod(sym("intern_q") + n, 3)),
        ]
        for build in builders:
            first, second = build(), build()
            assert first == second
            assert _only_atom(first) is _only_atom(second), first

    def test_rederiving_a_node_reuses_every_atom(self):
        # gemmB's forms hold no sums, whose binders come from a
        # process-wide fresh-name counter and so differ per derivation.
        node = gemm_variants(12)["gemmB"]
        first, second = SymbolicEngine(node), SymbolicEngine(node)
        assert first.forms == second.forms
        atoms, again = _all_atoms(first.forms), _all_atoms(second.forms)
        assert atoms and len(atoms) == len(again)
        assert all(a is b for a, b in zip(atoms, again))

    def test_raw_copy_and_pickle_compare_equal_to_the_canonical_form(self):
        canonical = mod(sym("N") * 2 + 1, 4)
        raw = Mod(sym("N") * 2 + 1, 4)  # bypasses the constructor
        assert raw is not _only_atom(canonical)
        assert raw == _only_atom(canonical) and _only_atom(canonical) == raw
        assert hash(raw) == hash(_only_atom(canonical))
        # A form holding the raw atom, not built through SymExpr._atom.
        unshared = SymExpr({((raw, 1),): Fraction(1)})
        assert unshared == canonical and hash(unshared) == hash(canonical)
        assert SymExpr._atom(raw) == canonical
        assert _only_atom(SymExpr._atom(raw)) is _only_atom(canonical)

        node = syr2k_variants(16, 3)["syr2kB"]
        engine = SymbolicEngine(node)
        env = node.program.bound_params(None)
        for field, form in engine.forms.items():
            for clone in (copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
                assert clone == form and hash(clone) == hash(form), field
                assert repr(clone) == repr(form)
                for procs, proc in ((1, 0), (3, 2), (4, 1)):
                    point = dict(env)
                    point[engine.procs_name] = procs
                    point[engine.proc_name] = proc
                    assert clone.evaluate(point) == form.evaluate(point)
        for unshared_clone in (copy.deepcopy(raw), pickle.loads(pickle.dumps(raw))):
            assert unshared_clone is _only_atom(canonical)

    @staticmethod
    def _race(build, threads=8):
        """``build()`` on ``threads`` threads released together."""
        results, errors = [None] * threads, []
        start = threading.Barrier(threads)

        def worker(slot):
            try:
                start.wait(timeout=60)
                results[slot] = build()
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in workers)
        assert not errors, errors
        return results

    def test_concurrent_interning_yields_one_object_and_serial_terms(self):
        node = generate_spmd(
            access_normalize(
                parse_program(_example_source("gemm.an"), name="gemm.an")
            ).transformed
        )
        tags = [f"race{round_}" for round_ in range(25)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Fresh structures each round: the race is on first sight.
            raced = [self._race(lambda: SymbolicEngine(node).forms)] + [
                self._race(lambda tag=tag: _nested_atoms(tag)) for tag in tags
            ]
        finally:
            sys.setswitchinterval(previous)
        serial = [SymbolicEngine(node).forms] + [
            dict(enumerate(_nested_atoms(tag))) for tag in tags
        ]
        for results, expected in zip(raced, serial):
            expected_atoms = _all_atoms(expected)
            for result in results:
                forms = result if isinstance(result, dict) else dict(enumerate(result))
                atoms = _all_atoms(forms)
                assert len(atoms) == len(expected_atoms)
                assert all(a is b for a, b in zip(atoms, expected_atoms))
                assert {k: e._terms for k, e in forms.items()} == {
                    k: e._terms for k, e in expected.items()
                }
        orders = [atom._order for atom in sympoly._INTERN.values()]
        assert len(set(orders)) == len(orders)

    def test_intern_counters_reach_profile_and_metricsz(self, capsys):
        from repro.cli import main
        from repro.runtime.metrics import Metrics, with_process_counters

        mod(sym("counted_n") + 1, 7)
        mod(sym("counted_n") + 1, 7)
        counters = sympoly.intern_counters()
        assert counters["sympoly.atoms_interned"] == len(sympoly._INTERN)
        assert counters["sympoly.intern_hits"] >= 1
        metrics = Metrics()
        metrics.count("cells", 2)
        merged = with_process_counters(metrics).to_dict()["counters"]
        assert merged["cells"] == 2
        assert merged["sympoly.atoms_interned"] >= counters["sympoly.atoms_interned"]
        assert "sympoly.intern_hits" in with_process_counters(metrics).report()
        assert metrics.to_dict()["counters"] == {"cells": 2}
        gemm = os.path.join(EXAMPLES, "gemm.an")
        assert main(["simulate", gemm, "-P", "1,2", "--profile"]) == 0
        assert "sympoly.atoms_interned" in capsys.readouterr().err


# ----------------------------------------------------------------------
# binder hygiene: every form compiles, whatever names its sums bind
# ----------------------------------------------------------------------
def _assert_compiles_like_interpreter(expr, grid):
    fused = compile_account({"total": expr})
    for env in grid:
        assert fused(env) == (expr.evaluate(env),), env


class TestBinderHygiene:
    def test_nested_sums_rebinding_one_name(self):
        q, n, P = sym("q"), sym("n"), sym("P")
        inner = bounded_sum("q", P, q * mod(q + n, P))
        # The outer body repeats the inner atom mod(q + n, P): with one
        # name for both binders, a scope-cached copy would leak across.
        expr = bounded_sum("q", n, q * inner + mod(q + n, P))
        assert len(expr.binders()) == 2
        _assert_compiles_like_interpreter(expr, [
            {"n": N, "P": procs}
            for N in (-1, 0, 1, 5, 13, 30) for procs in (1, 2, 3, 7)
        ])

    def test_binder_also_free_in_the_expression(self):
        k, N = sym("k"), sym("N")
        # ``k`` is free in the bound (and outside the sum) yet bound in
        # the body: two meanings of one name in one form.
        expr = 5 * mod(k, 4) + bounded_sum("k", k + 3, k * N + mod(k, 4))
        assert "k" in expr.free_symbols()
        assert "k" not in expr.binders()
        _assert_compiles_like_interpreter(expr, [
            {"k": value, "N": size}
            for value in (-4, 0, 1, 6, 11) for size in (0, 2, 9)
        ])

    def test_binder_free_in_a_sibling_sum(self):
        k, n, P = sym("k"), sym("n"), sym("P")
        # Emitted in construction order: ``head`` caches mod(k, 5) for
        # the free ``k`` before ``bound_k`` loops over its own ``k``
        # (with a nested sum inside the loop), and ``tail`` reads the
        # free ``k`` after it.
        head = bounded_sum("h", mod(k, 5) + n, sym("h"))
        bound_k = bounded_sum(
            "k", n, mod(k, 5) * bounded_sum("i", P, mod(sym("i") + k, P))
        )
        tail = bounded_sum("j", mod(k, 5) + n, mod(sym("j") + k, 7))
        expr = head + bound_k + tail
        assert "k" in expr.free_symbols() and "k" in expr.binders()
        _assert_compiles_like_interpreter(expr, [
            {"k": value, "n": N, "P": procs}
            for value in (-3, 2, 7) for N in (0, 5, 13, 41)
            for procs in (1, 3, 4)
        ])

    def test_replace_atom_does_not_capture(self):
        t, n, x = sym("t"), sym("n"), sym("x")
        (target,) = pos(x).atoms()
        expr = bounded_sum("t", n, t * pos(x)).replace_atom(target, t)
        for env in ({"n": N, "t": value} for N in (0, 1, 6) for value in (-2, 3)):
            expected = env["t"] * sum(range(env["n"]))
            assert expr.evaluate(env) == expected, env
        _assert_compiles_like_interpreter(expr, [
            {"n": N, "t": value} for N in (0, 1, 6, 20) for value in (-2, 3)
        ])

    def test_sibling_sums_keep_their_shared_binder(self):
        q, n = sym("q"), sym("n")
        forms = {
            "a": bounded_sum("q", n, q * q),
            "b": bounded_sum("q", n, mod(q, 3)),
        }
        assert forms["a"].binders() == forms["b"].binders() == {"q"}
        fused = compile_account(forms)
        assert fused.source.count("for ") == 1  # one fused loop
        env = {"n": 10}
        assert fused(env) == tuple(f.evaluate(env) for f in forms.values())


def test_every_shipped_engine_compiles_its_fused_evaluator():
    from repro.analysis.cli import _load_input
    from repro.analysis.manager import build_context

    inputs = [
        os.path.join(EXAMPLES, name)
        for name in sorted(os.listdir(EXAMPLES)) if name.endswith(".an")
    ] + sorted(
        os.path.join(REPO_ROOT, "tests", "corpus", name)
        for name in os.listdir(os.path.join(REPO_ROOT, "tests", "corpus"))
        if name.endswith(".json")
    )
    engines = 0
    without = set()
    for path in inputs:
        program, _ = _load_input(path)
        for block_transfers in (False, True):
            node = build_context(
                program, block_transfers=block_transfers
            ).node
            try:
                engine = SymbolicEngine(node)
            except SymbolicUnsupported:
                without.add(os.path.basename(path))
                continue
            engines += 1
            fused = engine.evaluator()
            assert fused.fields == FIELDS, path
            env = node.program.bound_params(None)
            for proc in range(3):
                point = dict(env)
                point[engine.procs_name] = 3
                point[engine.proc_name] = proc
                expected = tuple(
                    engine.forms[field].evaluate(point) for field in FIELDS
                )
                assert fused(point) == expected, (path, proc)
    # Every input but the three block-cyclic corpus entries (no tier 0).
    assert without == {
        "negative-stride.json", "rational-negative-bound.json",
        "triangular-skew.json",
    }
    assert engines == 2 * (len(inputs) - len(without))


# ----------------------------------------------------------------------
# SymbolicEngine pinned against the walk on a (params, P) grid
# ----------------------------------------------------------------------
GRID = [
    ("gemm.an", {"N": 8}),
    ("gemm.an", {"N": 19}),
    ("syr2k.an", {"N": 16, "b": 3}),
    ("syr2k.an", {"N": 25, "b": 5}),
    ("figure1.an", {"N1": 9, "N2": 7, "b": 2}),
]


@pytest.mark.parametrize(
    "filename,params", GRID, ids=[f"{n}-{p}" for n, p in GRID]
)
@pytest.mark.parametrize("processors", (1, 2, 5))
def test_symbolic_matches_walk_on_grid(filename, params, processors):
    program = parse_program(_example_source(filename), name=filename)
    normalized = access_normalize(program).transformed
    variants = (
        generate_spmd(program, block_transfers=False),
        generate_spmd(normalized, block_transfers=False),
        generate_spmd(normalized, block_transfers=True),
    )
    for node in variants:
        walk = simulate(
            node, processors=processors, params=params, engine="walk"
        )
        try:
            symbolic = simulate(
                node, processors=processors, params=params, engine="symbolic"
            )
        except SimulationError:
            # A forced tier may decline a nest, never disagree; the paper
            # kernels must not decline.
            assert filename == "figure1.an"
            continue
        assert symbolic.engine == "symbolic"
        for reference, tiered in zip(walk.per_proc, symbolic.per_proc):
            assert tiered.counts == reference.counts, (
                f"symbolic disagrees with walk on proc {reference.proc} "
                f"at P={processors}, params={params}"
            )


# ----------------------------------------------------------------------
# engine contracts and auto's cost-based demotion
# ----------------------------------------------------------------------
class TestEngineContracts:
    def test_symbolic_rejects_execute_mode(self):
        node = gemm_variants(8)["gemm"]
        with pytest.raises(SimulationError, match="account mode"):
            simulate(
                node, processors=2, engine="symbolic", mode="execute",
                arrays={},
            )

    def test_symbolic_rejects_block_cache(self):
        node = gemm_variants(8)["gemmB"]
        with pytest.raises(SimulationError, match="block cache"):
            simulate(node, processors=2, engine="symbolic", block_cache=True)

    def test_unknown_engine_rejected(self):
        node = gemm_variants(8)["gemm"]
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate(node, processors=2, engine="quantum")

    def test_forced_symbolic_reports_unsupported_nest(self):
        source = """
program blockcyclic
param N = 16
real A(N) distribute (cyclic(2))

for i = 0, N-1
    A[i] = A[i] + 1
"""
        program = parse_program(source, name="blockcyclic")
        node = generate_spmd(program, block_transfers=False)
        with pytest.raises(SimulationError, match="symbolic engine cannot"):
            simulate(node, processors=2, engine="symbolic")
        # auto still answers (lower tier) and matches the walk.
        walk = simulate(node, processors=2, engine="walk")
        auto = simulate(node, processors=2)
        for reference, tiered in zip(walk.per_proc, auto.per_proc):
            assert tiered.counts == reference.counts

    def test_auto_derives_many_armed_bounds(self):
        # The level budget alone bounds derivation: a nest with many
        # max/min bound arms derives quickly (the arms that overrun a
        # level's budget stay loops), and auto serves it from tier 0.
        source = """
program armstorm
param N = 32
param b = 4
real A(N, N) distribute (*, wrapped)

for i = 0, N-1
    for j = max(i-b+1, i-2*b+1, i-3*b+1, i-4*b+1, 0), min(i+b-1, i+2*b-1, i+3*b-1, i+4*b-1, N-1)
        for k = max(j-b+1, j-2*b+1, 0), min(j+b-1, j+2*b-1, N-1)
            A[i, j] = A[i, j] + A[i, k]
"""
        program = parse_program(source, name="armstorm")
        node = generate_spmd(program, block_transfers=False)
        for processors in (1, 3, 8):
            auto = simulate(node, processors=processors)
            walk = simulate(node, processors=processors, engine="walk")
            assert auto.engine == "symbolic"
            for reference, tiered in zip(walk.per_proc, auto.per_proc):
                assert tiered.counts == reference.counts

    def test_estimate_cost_positive_and_param_sensitive(self):
        node = syr2k_variants(40, 6)["syr2k"]
        engine = SymbolicEngine(node)
        env = node.program.bound_params(None)
        small = engine.estimate_cost(env, 8)
        assert small > 0
        bigger = engine.estimate_cost(
            node.program.bound_params({"N": 400, "b": 48}), 8
        )
        assert bigger > small

    def test_form_store_derives_once_per_program(self):
        previous = shared_cache()
        cache = set_shared_cache(SimulationCache())
        try:
            node = gemm_variants(8)["gemm"]
            simulate(node, processors=2, engine="symbolic")
            simulate(node, processors=3, engine="symbolic")
            assert cache.form_derives == 1
            assert cache.form_hits >= 1
        finally:
            set_shared_cache(previous)

    def test_engine_fields_cover_access_counts(self):
        node = gemm_variants(8)["gemm"]
        engine = SymbolicEngine(node)
        assert set(engine.forms) == set(FIELDS)


# ----------------------------------------------------------------------
# the solve job
# ----------------------------------------------------------------------
class TestSolve:
    def _payload(self, **overrides):
        payload = {
            "source": _example_source("gemm.an"),
            "name": "gemm.an",
            "params": {"N": 12},
            "left": {"variant": "naive", "schedule": "wrapped"},
            "right": {"variant": "normalized+bt", "schedule": "wrapped"},
            "min_processors": 1,
            "max_processors": 6,
        }
        payload.update(overrides)
        return payload

    def test_solve_reports_crossover(self):
        output = run_solve(self._payload())
        assert "question: smallest P in [1, 6]" in output
        assert "naive/wrapped" in output
        assert "normalized+bt/wrapped" in output
        assert "answer:" in output
        # Deterministic: a re-run is byte-identical.
        assert run_solve(self._payload()) == output

    def test_solve_json_series_is_complete(self):
        document = json.loads(run_solve(self._payload(json=True)))
        assert document["tool"] == "repro-solve"
        assert document["min_processors"] == 1
        assert document["max_processors"] == 6
        assert len(document["series"]) == 6
        assert "crossover" in document
        for row in document["series"]:
            assert row["left_us"] >= 0 and row["right_us"] >= 0

    def test_solve_validates_candidates_and_range(self):
        with pytest.raises(ReproError, match="unknown variant"):
            run_solve(self._payload(left={"variant": "turbo"}))
        with pytest.raises(ReproError, match="unknown schedule"):
            run_solve(
                self._payload(right={"variant": "naive", "schedule": "x"})
            )
        with pytest.raises(ReproError, match="1 <= min <= max"):
            run_solve(self._payload(min_processors=5, max_processors=2))
        with pytest.raises(ReproError, match="solve cap"):
            run_solve(self._payload(max_processors=1 << 20))

    @pytest.mark.parametrize(
        "entry", [run_solve, run_tune, build_simulation_cell]
    )
    @pytest.mark.parametrize("params", [{"N": "twelve"}, {"N": None}, [12]])
    def test_params_must_be_integer_bindings(self, entry, params):
        # solve, tune and simulate share one parameter-binding parser.
        with pytest.raises(ReproError, match="object of integer bindings"):
            entry(self._payload(params=params))

    def test_candidate_and_binding_parsers(self):
        assert _parse_candidate("naive") == {
            "variant": "naive", "schedule": "wrapped",
        }
        assert _parse_candidate("normalized/blocked") == {
            "variant": "normalized", "schedule": "blocked",
        }
        assert _parse_bindings(["N=400", "b=48"]) == {"N": 400, "b": 48}
        assert _parse_bindings([]) is None
        with pytest.raises(ReproError, match="NAME=VALUE"):
            _parse_bindings(["N"])
        with pytest.raises(ReproError):
            _parse_bindings(["N=ten"])


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
class TestProgressionValidation:
    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="step >= 1"):
            Progression(first=0, step=0, trips=3)
        with pytest.raises(ValueError, match="step >= 1"):
            Progression.from_bounds(0, 10, 0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step >= 1"):
            Progression.from_bounds(0, 10, -2)

    def test_valid_step_unchanged(self):
        assert Progression.from_bounds(0, 10, 3).trips == 4


class TestSharedCacheConfig:
    def _reset(self):
        import repro.runtime.cache as cache_mod

        previous = cache_mod._SHARED
        cache_mod._SHARED = None
        return cache_mod, previous

    def test_malformed_cap_raises(self, monkeypatch):
        cache_mod, previous = self._reset()
        try:
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "10k")
            with pytest.raises(ConfigurationError, match="10k"):
                shared_cache()
        finally:
            cache_mod._SHARED = previous

    def test_valid_cap_applied(self, monkeypatch):
        cache_mod, previous = self._reset()
        try:
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
            assert shared_cache().disk_max_entries == 7
        finally:
            cache_mod._SHARED = previous


class TestDiskLru:
    def test_disk_hit_refreshes_entry_against_eviction(self, tmp_path):
        node = gemm_variants(8)["gemm"]
        result = simulate(node, processors=2)
        cache = SimulationCache(store_dir=str(tmp_path), disk_max_entries=2)
        for index, key in enumerate(["old", "mid"]):
            cache.put(key, result)
            stamp = 1_000_000 + index
            os.utime(tmp_path / f"{key}.pkl", (stamp, stamp))
        # A disk hit (fresh cache: cold memory) must refresh the entry's
        # mtime, otherwise eviction is FIFO-by-write and the hottest
        # long-lived entry goes first.
        reader = SimulationCache(store_dir=str(tmp_path), disk_max_entries=2)
        assert reader.get("old") is not None
        reader.put("new", result)
        reader._evict_disk()
        assert reader.disk_entries() == 2
        assert (tmp_path / "old.pkl").exists()  # re-read: survives
        assert not (tmp_path / "mid.pkl").exists()  # coldest: evicted
        assert (tmp_path / "new.pkl").exists()


class TestRetryAfterParsing:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1.5", 1.5),
            ("0", 0.0),
            ("120", 120.0),
            ("Fri, 31 Dec 1999 23:59:59 GMT", None),  # RFC 9110 HTTP-date
            ("soon", None),
            ("-5", None),
            ("", None),
            (None, None),
        ],
    )
    def test_values(self, value, expected):
        assert _parse_retry_after(value) == expected


# ----------------------------------------------------------------------
# Fused evaluators (tier-0 on banded nests)
# ----------------------------------------------------------------------
class TestFusedEvaluator:
    """The fused, strength-reduced evaluation path on banded forms.

    Three implementations of the same counts must agree bit-for-bit:
    the fused evaluator ("split"), the per-form interpreter
    (`evaluate`, "unsplit"), and the tier-3 walk.
    """

    def test_split_unsplit_walk_agree_on_banded_grid(self):
        for name, node in syr2k_variants(18, 3).items():
            engine = SymbolicEngine(node)
            fused = compile_account(engine.forms)
            for params in ({"N": 18, "b": 3}, {"N": 25, "b": 4}):
                env = node.program.bound_params(params)
                for processors in (1, 2, 3, 5):
                    walk = simulate(
                        node,
                        processors=processors,
                        params=params,
                        engine="walk",
                    )
                    for proc in range(processors):
                        point = dict(env)
                        point[engine.procs_name] = processors
                        point[engine.proc_name] = proc
                        split = dict(zip(fused.fields, fused(point)))
                        for field in FIELDS:
                            unsplit = engine.forms[field].evaluate(point)
                            reference = getattr(
                                walk.per_proc[proc].counts, field
                            )
                            key = (name, field, params, processors, proc)
                            assert split[field] == unsplit, key
                            assert split[field] == reference, key

    def test_paper_scale_forms_clear_the_cost_ceiling(self):
        # Auto serves the Figure 4/5 sweeps from tier 0: at paper scale
        # (and at the benchmark's largest neighbour size) the plain
        # fused loops of every variant are priced under the ceiling,
        # at one processor (the costliest cell) and at 28.
        from repro.numa.simulator import SYMBOLIC_COST_CEILING

        nodes = dict(gemm_variants(400))
        nodes.update(syr2k_variants(400, 48))
        for name, node in sorted(nodes.items()):
            engine = SymbolicEngine(node)
            for params in ({"N": 400, "b": 48}, {"N": 416, "b": 52}):
                env = node.program.bound_params({
                    key: value for key, value in params.items()
                    if key in node.program.params
                })
                for processors in (1, 28):
                    cost = engine.estimate_cost(env, processors)
                    key = (name, params, processors, cost)
                    assert 0 < cost <= SYMBOLIC_COST_CEILING, key

    def test_fused_matches_interpreter_on_synthetic_mod_sums(self):
        # Direct sympoly-level check: a banded-style sum whose body
        # carries Mod/FloorDiv/Pos atoms in the bound variable, over
        # short and long trip counts, for several moduli (incl. 1).
        q = sym("q")
        P = sym("P")
        n = sym("n")
        body = (
            3 * mod(q, P)
            + floordiv(q, P) * 2
            + pos(q + (-1) * sym("c"))
            + mod(q + 5, 3)
        )
        expr = bounded_sum("q", n, body) + bounded_sum(
            "r", mod(n, P) + 2, sym("r") + 7
        )
        fast = compile_account({"total": expr})
        for N in (0, 1, 7, 12, 13, 40, 97):
            for procs in (1, 2, 3, 4, 7):
                for c in (0, 3, 50):
                    env = {"n": N, "P": procs, "c": c}
                    assert fast(env) == (expr.evaluate(env),), env

    def test_fused_and_interpreter_reject_nonpositive_modulus(self):
        # A runtime modulus <= 0 must raise the checked-atom error from
        # both the interpreter and the fused evaluator.
        q = sym("q")
        expr = bounded_sum("q", sym("n"), mod(q, sym("P")))
        env = {"n": 64, "P": 0}
        with pytest.raises(SymbolicUnsupported):
            expr.evaluate(env)
        with pytest.raises(SymbolicUnsupported):
            compile_account({"total": expr})(env)

    def test_strength_reduced_sources_pass_kernel_sanitizer(self):
        # KERN001/KERN002 stay clean on the emitted fused sources even
        # after induction-variable strength reduction leaves counted
        # loops whose target the body no longer reads.
        from repro.analysis.kernels import sanitize_generated_source

        for kind, variants in (
            ("syr2k", syr2k_variants(24, 4)),
            ("gemm", gemm_variants(16)),
        ):
            for name, node in variants.items():
                fused = SymbolicEngine(node).evaluator()
                diagnostics = sanitize_generated_source(
                    fused.source, artifact="form", program=name
                )
                assert diagnostics == [], (name, diagnostics)


if __name__ == "__main__":
    if sys.argv[1:] == ["--print-golden-forms"]:
        print(json.dumps(golden_form_digests(), sort_keys=True))
    elif sys.argv[1:] == ["--write-golden-forms"]:
        from repro.numa.symbolic import FORM_SCHEMA

        payload = {
            "form_schema": FORM_SCHEMA,
            "digests": golden_form_digests(),
        }
        with open(GOLDEN_FORMS, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        sys.exit(
            "usage: test_symbolic_forms.py "
            "{--print-golden-forms,--write-golden-forms}"
        )
