"""The accounting tier decision (``choose_tier``) and its artifact table.

One function decides which tier serves a cell and records why every
faster tier was skipped; the simulator, the analysis passes and the
sweep engine's counters all read that one decision.  Each tier's
artifact (closed-form engine, symbolic form, compiled kernel, form
certificate) is built once per node fingerprint in its own table.
"""

import dataclasses
import os

import pytest

from repro.analysis import forms as forms_module
from repro.analysis.cli import _load_input
from repro.analysis.forms import CERT_MAX_PROCS, FormsPass, certify_node
from repro.analysis.manager import AnalysisContext, build_context
from repro.bench import gemm_variants, syr2k_variants
from repro.distributions import Block2D
from repro.errors import SimulationError
from repro.numa.simulator import ENGINES, TierSkip, choose_tier, simulate
from repro.runtime import Metrics, SimulationCache, set_shared_cache, shared_cache
from repro.runtime.executor import SweepCell, run_grid
from repro.runtime.metrics import with_process_counters

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _program_node(relative, distributions=None):
    program, _ = _load_input(os.path.join(REPO_ROOT, relative))
    if distributions is not None:
        program = dataclasses.replace(program, distributions=distributions)
    return build_context(program).node


def _context(node):
    return AnalysisContext(program=node.program, node=node)


@pytest.fixture
def fresh_cache():
    previous = shared_cache()
    cache = set_shared_cache(SimulationCache())
    try:
        yield cache
    finally:
        set_shared_cache(previous)


@pytest.fixture(scope="module")
def nodes():
    """One node per rejection class of ``auto``."""
    return {
        # Every exact tier serves it.
        "gemmB": gemm_variants(8)["gemmB"],
        # No symbolic form: the closed-form engine serves.
        "negative-stride": _program_node("tests/corpus/negative-stride.json"),
        # Block-cyclic ownership: no symbolic form, the closed-form
        # engine serves.
        "triangular-skew": _program_node("tests/corpus/triangular-skew.json"),
        # Two-dimensional ownership on a 1x2 grid (P=2 only): every
        # faster tier rejects, the walk serves.
        "block-2d": _program_node(
            "tests/corpus/triangular-skew.json", {"A": Block2D(1, 2)}
        ),
        # The naive banded SYR2K at P=1 is over the symbolic cost ceiling.
        "syr2k-big": syr2k_variants(800, 100)["syr2k"],
    }


def _choose(node, engine="auto", mode="account", block_cache=False, processors=2):
    return choose_tier(
        node, processors=processors, params=None, engine=engine, mode=mode,
        block_cache=block_cache,
    )


# ----------------------------------------------------------------------
# forced engines
# ----------------------------------------------------------------------
FAST = ("symbolic", "closed-form", "compiled")


@pytest.mark.parametrize("mode", ["account", "execute"])
@pytest.mark.parametrize("block_cache", [False, True])
@pytest.mark.parametrize("engine", ENGINES)
def test_forced_engine_outcomes(nodes, engine, block_cache, mode):
    """Every engine x block_cache x mode: the tier, or the verbatim error."""
    node = nodes["block-2d"]
    if mode == "execute" and engine in FAST:
        expected = (
            f"engine {engine!r} only supports account mode; "
            "execute mode always uses the walk engine"
        )
    elif block_cache and engine in ("symbolic", "closed-form"):
        expected = (
            f"{engine} engine does not model the block cache; "
            "use the compiled or walk engine"
        )
    elif engine in FAST:
        reason = {
            skip.tier: skip.detail
            for skip in _choose(node, block_cache=block_cache).skips
        }[engine]
        expected = f"{engine} engine cannot handle this nest: {reason}"
    else:
        choice = _choose(node, engine, mode, block_cache)
        assert choice.tier == "walk"
        return
    with pytest.raises(SimulationError) as info:
        _choose(node, engine, mode, block_cache)
    assert str(info.value) == expected
    if mode == "account":  # simulate passes the decision's error through
        with pytest.raises(SimulationError) as info:
            simulate(node, processors=2, engine=engine, block_cache=block_cache)
        assert str(info.value) == expected


@pytest.mark.parametrize("engine", FAST)
def test_forced_engine_serves_a_supported_nest(nodes, engine):
    block_cache = engine == "compiled"
    choice = _choose(nodes["gemmB"], engine, block_cache=block_cache)
    assert choice.tier == engine
    assert choice.skips == ()


# ----------------------------------------------------------------------
# auto's skip list, one node per rejection class
# ----------------------------------------------------------------------
def test_auto_takes_tier_zero_without_skips(nodes):
    choice = _choose(nodes["gemmB"])
    assert (choice.tier, choice.skips) == ("symbolic", ())


def test_auto_skips_block_cache_tiers(nodes):
    choice = _choose(nodes["gemmB"], block_cache=True)
    assert choice.tier == "compiled"
    assert choice.skips == (
        TierSkip("symbolic", "block-cache"),
        TierSkip("closed-form", "block-cache"),
    )


def test_auto_skips_unsupported_form(nodes):
    choice = _choose(nodes["negative-stride"])
    assert choice.tier == "closed-form"
    (skip,) = choice.skips
    assert (skip.tier, skip.reason) == ("symbolic", "unsupported")
    assert skip.detail == "block-cyclic ownership of 'B' has no symbolic form"


def test_auto_serves_block_cyclic_from_closed_form(nodes):
    choice = _choose(nodes["triangular-skew"])
    assert choice.tier == "closed-form"
    (skip,) = choice.skips
    assert (skip.tier, skip.reason) == ("symbolic", "unsupported")
    assert skip.detail == "block-cyclic ownership of 'A' has no symbolic form"


def test_auto_falls_to_the_walk_with_every_reason(nodes):
    choice = _choose(nodes["block-2d"])
    assert choice.tier == "walk"
    assert [(s.tier, s.reason) for s in choice.skips] == [
        ("symbolic", "unsupported"),
        ("closed-form", "unsupported"),
        ("compiled", "unsupported"),
    ]
    assert all("needs owner enumeration" in s.detail for s in choice.skips)


def test_auto_demotes_over_the_cost_ceiling(nodes):
    node = nodes["syr2k-big"]
    choice = _choose(node, processors=1)
    assert choice.tier == "closed-form"
    (skip,) = choice.skips
    assert (skip.tier, skip.reason) == ("symbolic", "cost-ceiling")
    assert isinstance(skip.detail, int) and skip.detail > 16_000_000
    # The ceiling prices the cell: at P=4 each processor's share fits.
    assert _choose(node, processors=4).tier == "symbolic"
    # A forced symbolic engine is never demoted.
    assert _choose(node, "symbolic", processors=1).tier == "symbolic"


def test_execute_mode_and_forced_walk_record_no_skips(nodes):
    node = nodes["block-2d"]
    assert _choose(node, mode="execute").skips == ()
    assert _choose(node, "walk").skips == ()


def test_result_carries_skips_outside_the_wire_format(nodes, fresh_cache):
    result = simulate(nodes["negative-stride"], processors=2)
    assert result.engine == "closed-form"
    assert [(s.tier, s.reason) for s in result.skips] == [
        ("symbolic", "unsupported")
    ]
    assert "skips" not in result.to_dict()


def test_sweep_counts_skip_reasons(nodes, fresh_cache):
    metrics = Metrics()
    cells = [
        SweepCell("walk", nodes["block-2d"], 2),
        SweepCell("closed", nodes["negative-stride"], 2),
        SweepCell("cached", nodes["gemmB"], 2, block_cache=True),
    ]
    run_grid(cells, metrics=metrics)
    skips = {
        name: value for name, value in metrics.counters.items()
        if name.startswith("sim.skip.")
    }
    assert skips == {
        "sim.skip.symbolic.unsupported": 2,
        "sim.skip.closed_form.unsupported": 1,
        "sim.skip.compiled.unsupported": 1,
        "sim.skip.symbolic.block_cache": 1,
        "sim.skip.closed_form.block_cache": 1,
    }
    assert metrics.counter("sim.tier.walk") == 1
    assert metrics.counter("sim.tier.closed_form") == 1
    assert metrics.counter("sim.tier.compiled") == 1


# ----------------------------------------------------------------------
# FORM003 reads the same decision
# ----------------------------------------------------------------------
@pytest.mark.parametrize("N, b", [(12, 3), (416, 52), (3200, 400)])
def test_form003_fires_exactly_on_a_cost_ceiling_skip(monkeypatch, N, b):
    node = syr2k_variants(N, b)["syr2k"]
    # The certificate grid at paper-scale defaults is not what this
    # checks; FORM003 is decided before it.
    monkeypatch.setattr(forms_module, "certify_node", lambda node: None)
    codes = [d.code for d in FormsPass().run(_context(node))]
    skips = _choose(node, processors=CERT_MAX_PROCS).skips
    demoted = any(
        s.tier == "symbolic" and s.reason == "cost-ceiling" for s in skips
    )
    assert ("FORM003" in codes) == demoted
    assert demoted == (N == 3200)


# ----------------------------------------------------------------------
# the artifact table
# ----------------------------------------------------------------------
def test_one_closed_build_per_node(nodes, fresh_cache):
    for name in ("gemmB", "negative-stride", "triangular-skew", "block-2d"):
        node = nodes[name]
        before = fresh_cache.builds["closed"]
        # The 1x2 grid of block-2d fixes P=2.
        for processors in (2, 2, 2) if name == "block-2d" else (1, 2, 3):
            simulate(node, processors=processors)
        if name != "block-2d":
            simulate(node, processors=2, engine="closed-form")
        FormsPass().run(_context(node))
        assert fresh_cache.builds["closed"] == before + 1, name
    assert fresh_cache.hits["closed"] > 0


def test_certificates_have_their_own_kind(fresh_cache):
    node = _program_node("examples/programs/figure1.an")
    simulate(node, processors=2)
    derives, build_s = fresh_cache.form_derives, fresh_cache.form_build_s
    assert derives == 1
    assert certify_node(node).verified
    assert certify_node(node).verified
    assert fresh_cache.form_derives == derives
    assert fresh_cache.form_build_s == build_s
    assert (fresh_cache.builds["cert"], fresh_cache.hits["cert"]) == (1, 1)
    counters = with_process_counters(Metrics()).to_dict()["counters"]
    assert counters["sim.cache.cert.builds"] == 1
    assert counters["sim.cache.closed.builds"] == 1


def test_each_kind_evicts_only_its_own_table(monkeypatch, fresh_cache):
    monkeypatch.setitem(fresh_cache.ARTIFACT_MAX_ENTRIES, "cert", 2)
    fresh_cache.artifact("form", "f", lambda: "form")
    for key in "abc":
        fresh_cache.artifact("cert", key, lambda: key)
    assert fresh_cache.artifact("form", "f", lambda: "rebuilt") == "form"
    assert fresh_cache.artifact("cert", "a", lambda: "rebuilt") == "rebuilt"
    assert fresh_cache.builds == {"form": 1, "closed": 0, "cert": 4, "kernel": 0}
