"""Tests for the transformation autotuner (``repro tune`` / ``/v1/tune``).

Covers the tentpole guarantees:

* **Enumerator completeness** — the paper's hand-picked transformations
  for GEMM, SYR2K (under the published priority) and the Figure-1 kernel
  all appear among the enumerated candidates.
* **Pruner soundness** — every candidate the pruner admits passes
  Section 6's legality criterion, and the fuzz-oracle hook
  (``verify_search_legality``) finds no admitted-but-illegal candidate.
* **Determinism** — rendered output is byte-identical at any ``--jobs``
  value, and the service's ``/v1/tune`` reproduces the direct CLI byte
  for byte.
"""

import json

import pytest

from repro.blas import PAPER_PRIORITY, gemm_program, syr2k_program
from repro.core.access_matrix import build_access_matrix
from repro.core.legal import is_legal_transformation
from repro.errors import ReproError
from repro.lang.parser import parse_program
from repro.linalg.fraction_matrix import Matrix
from repro.runtime import SimulationCache, reset_shared_cache, set_shared_cache
from repro.runtime.metrics import Metrics
from repro.service.client import ServiceClient
from repro.service.jobs import run_tune
from repro.service.protocol import ServiceConfig
from repro.service.server import ServerThread
from repro.tune import (
    SearchSpace,
    assignment_count,
    enumerate_recipes,
    tune_program,
    verify_search_legality,
)
from repro.tune.search import _dependence_context

FIGURE1 = "examples/programs/figure1.an"

#: The paper's hand-picked transformations (golden values shared with
#: tests/test_core_normalize.py).
GEMM_T = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
SYR2K_T = Matrix([[-1, 1, 0], [0, -1, 1], [0, 0, 1]])
FIGURE1_T = Matrix([[-1, 1, 0], [0, 1, 1], [1, 0, 0]])


def _enumerated_matrices(program, space, priority=None):
    dependences, deps, _ = _dependence_context(program, None)
    access = build_access_matrix(
        program.nest, program.distributions, priority=priority
    )
    return [
        outcome.matrix
        for outcome in enumerate_recipes(
            access, deps, program.nest.depth, space, dependences=dependences
        )
        if outcome.matrix is not None
    ]


class TestEnumeratorCompleteness:
    def test_gemm_paper_transformation_enumerated(self):
        matrices = _enumerated_matrices(gemm_program(8), SearchSpace())
        assert GEMM_T in matrices

    def test_syr2k_paper_transformation_enumerated(self):
        matrices = _enumerated_matrices(
            syr2k_program(12, 3), SearchSpace(), priority=list(PAPER_PRIORITY)
        )
        assert SYR2K_T in matrices

    def test_figure1_paper_transformation_enumerated(self):
        program = parse_program(open(FIGURE1).read(), name=FIGURE1)
        matrices = _enumerated_matrices(program, SearchSpace())
        assert FIGURE1_T in matrices

    def test_space_goes_beyond_the_derived_transformation(self):
        # Row subsets, skews and scalings give strictly more candidates
        # than the paper's single derived pipeline.
        matrices = _enumerated_matrices(gemm_program(8), SearchSpace())
        assert len({repr(m) for m in matrices}) > 3

    def test_classic_autodist_menu_is_a_prefix(self):
        from itertools import product

        from repro.distributions import Blocked, Wrapped
        from repro.tune.space import candidate_assignments

        # The classic autodist menu: per array, wrapped then blocked along
        # each dimension in turn.
        program = gemm_program(8)
        space = SearchSpace(block_sizes=())
        options = [
            repr(kind(dim)) for dim in (0, 1) for kind in (Wrapped, Blocked)
        ]
        names = [decl.name for decl in program.arrays]
        classic_list = [
            dict(zip(names, combo)) for combo in product(options, repeat=3)
        ]
        tuner_list = [
            {k: repr(v) for k, v in a.items()}
            for a in candidate_assignments(program, space)
        ]
        assert tuner_list == classic_list
        assert assignment_count(program, space) == len(classic_list)

    def test_block_sizes_extend_the_assignment_menu(self):
        program = gemm_program(8)
        plain = assignment_count(program, SearchSpace(block_sizes=()))
        extended = assignment_count(program, SearchSpace(block_sizes=(4, 8)))
        assert extended == 8**3 and plain == 4**3

    def test_invalid_spaces_are_rejected(self):
        with pytest.raises(ReproError):
            SearchSpace(recipes=("derived", "teleport"))
        with pytest.raises(ReproError):
            SearchSpace(block_sizes=(0,))


class TestPrunerSoundness:
    def test_every_scored_candidate_is_legal(self):
        program = syr2k_program(8, 2)
        result = tune_program(
            program, processors=(4,), params=None, budget=24,
            priority=list(PAPER_PRIORITY),
        )
        _, deps, _ = _dependence_context(program, None)
        assert result.ranking
        for candidate in result.ranking:
            assert is_legal_transformation(candidate.matrix, deps)

    def test_oracle_hook_finds_no_violation(self):
        checked, violation = verify_search_legality(syr2k_program(8, 2))
        assert checked > 0
        assert violation == ""

    def test_legality_violation_is_seen_by_oracle_and_tuner(self, monkeypatch):
        # Make the legality pass flag one matrix the quick prune admits:
        # the oracle must report its first candidate, and the tuner must
        # prune every candidate carrying it.
        import repro.tune.search as search

        flagged = Matrix([[1, 0, 0], [-1, 0, 1], [0, 1, -1]])
        real = search.analyze_artifacts

        class FlaggedReport:
            has_errors = True
            error_codes = ("LEG001",)

        def analyze(program, *, result, **kwargs):
            if result.matrix == flagged:
                return FlaggedReport()
            return real(program, result=result, **kwargs)

        monkeypatch.setattr(search, "analyze_artifacts", analyze)
        program = syr2k_program(8, 2)
        space = SearchSpace(block_sizes=())
        checked, violation = verify_search_legality(program, space=space)
        assert checked == 11
        assert violation == (
            "emitted T flagged by the legality pass (LEG001): "
            "derived(rows [0, 1, 2]) under Ab: wrapped column; "
            "Bb: wrapped column; Cb: wrapped row"
        )

        result = tune_program(
            program, processors=(4,), budget=12, space=space,
            include_baseline=False,
        )
        flagged_out = [c for c in result.pruned if c.matrix == flagged]
        assert [c.index for c in flagged_out] == [10, 11]
        assert all(c.reason == "legality pass: LEG001" for c in flagged_out)
        assert flagged_out[0].describe_distributions() in violation
        assert all(c.matrix != flagged for c in result.ranking)

    def test_pruned_candidates_carry_reasons(self):
        result = tune_program(
            syr2k_program(8, 2), processors=(4,), budget=24,
            priority=list(PAPER_PRIORITY),
        )
        for candidate in result.pruned:
            assert candidate.status == "pruned" and candidate.reason

    def test_budget_caps_admitted(self):
        result = tune_program(gemm_program(8), processors=(4,), budget=5)
        assert result.admitted == 5
        assert result.scored <= 5

    def test_bad_arguments_are_repro_errors(self):
        with pytest.raises(ReproError):
            tune_program(gemm_program(8), processors=())
        with pytest.raises(ReproError):
            tune_program(gemm_program(8), budget=-1)


class TestRankingAndBaseline:
    def test_best_matches_or_beats_the_paper_configuration(self):
        # GEMM's declared distributions + derived T are the paper's pick;
        # the tuner must never rank anything above-cost first.
        result = tune_program(gemm_program(8), processors=(4,), budget=40)
        assert result.baseline is not None
        assert result.baseline.status == "scored"
        assert result.best.total_us <= result.baseline.total_us

    def test_ranking_is_sorted_and_provenanced(self):
        result = tune_program(gemm_program(8), processors=(4,), budget=24)
        totals = [c.total_us for c in result.ranking]
        assert totals == sorted(totals)
        for candidate in result.ranking:
            assert candidate.provenance_text()
            assert candidate.labels


def _payload(**overrides):
    payload = {
        "source": open(FIGURE1).read(),
        "name": FIGURE1,
        "params": {"N": 12},
        "processors": [4],
        "budget": 12,
        "top_k": 3,
        "block_sizes": [8],
        "json": False,
    }
    payload.update(overrides)
    return payload


class TestDeterminismAndService:
    def test_jobs_do_not_change_the_rendered_output(self):
        serial = run_tune(_payload(), jobs=1, metrics=Metrics())
        parallel = run_tune(_payload(), jobs=2, metrics=Metrics())
        assert serial == parallel

    def test_json_document_is_well_formed(self):
        document = json.loads(run_tune(_payload(json=True)))
        assert document["tool"] == "repro-tune"
        assert document["scored"] >= 1
        assert document["ranking"]
        best = document["ranking"][0]
        assert best["matrix"] and best["times_us"]

    def test_service_tune_matches_cli_byte_for_byte(self):
        cache = set_shared_cache(SimulationCache())
        try:
            direct = run_tune(_payload(json=True), cache=cache)
            config = ServiceConfig(
                port=0, jobs=1, log_requests=False, batch_window_s=0.005,
                queue_limit=32, timeout_s=60.0,
            )
            with ServerThread(config) as handle:
                client = ServiceClient("127.0.0.1", handle.port, timeout=60.0)
                response = client.tune(_payload(json=True))
        finally:
            reset_shared_cache()
        assert response["ok"] is True
        assert response["result"]["stdout"] == direct

    def test_metrics_record_search_counters(self):
        metrics = Metrics()
        run_tune(_payload(), metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert counters.get("tune.candidates", 0) >= counters.get(
            "tune.admitted", 0
        )
        assert counters.get("tune.scored", 0) >= 1

    def test_cli_tune_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "tune", FIGURE1, "--param", "N=12", "-P", "4",
            "--budget", "8", "--top-k", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "best:" in out and "provenance:" in out
