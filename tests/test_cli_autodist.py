"""Tests for the CLI driver and the automatic-distribution search."""

import pytest

from repro.cli import main
from repro.core.autodist import search_distributions
from repro.blas import gemm_program
from repro.distributions import Blocked, Wrapped
from repro.numa import butterfly_gp1000
from repro.tune.space import SearchSpace, candidate_assignments


@pytest.fixture
def gemm_file(tmp_path):
    path = tmp_path / "gemm.an"
    path.write_text(
        """
program gemm
param N = 8
real C(N, N) distribute (*, wrapped)
real A(N, N) distribute (*, wrapped)
real B(N, N) distribute (*, wrapped)

for i = 0, N-1
    for j = 0, N-1
        for k = 0, N-1
            C[i, j] = C[i, j] + A[i, k] * B[k, j]
"""
    )
    return str(path)


class TestCLICompile:
    def test_compile_all(self, gemm_file, capsys):
        assert main(["compile", gemm_file]) == 0
        out = capsys.readouterr().out
        assert "access normalization report" in out
        assert "SPMD node program" in out
        assert "generated Python" in out
        assert "C[w, u] = C[w, u] + A[w, v] * B[v, u]" in out

    def test_compile_report_only(self, gemm_file, capsys):
        assert main(["compile", gemm_file, "--emit", "report"]) == 0
        out = capsys.readouterr().out
        assert "transformation T" in out
        assert "SPMD node program" not in out

    def test_compile_no_block_transfers(self, gemm_file, capsys):
        assert main(["compile", gemm_file, "--no-block-transfers",
                     "--emit", "node"]) == 0
        out = capsys.readouterr().out
        assert "read A[*, v]" not in out

    def test_compile_with_priority(self, gemm_file, capsys):
        assert main(["compile", gemm_file, "--emit", "report",
                     "--priority", "i,k,j"]) == 0
        out = capsys.readouterr().out
        assert "transformation T" in out

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/prog.an"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.an"
        bad.write_text("for i = broken\n")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestCLISimulate:
    def test_simulate_table(self, gemm_file, capsys):
        assert main(["simulate", gemm_file, "-P", "1,2,4"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out
        assert "normalized+bt" in out
        assert "BBN Butterfly" in out

    def test_simulate_with_ownership(self, gemm_file, capsys):
        assert main(["simulate", gemm_file, "-P", "1,2", "--ownership"]) == 0
        assert "ownership" in capsys.readouterr().out

    def test_simulate_other_machine(self, gemm_file, capsys):
        assert main(
            ["simulate", gemm_file, "-P", "1,2", "--machine", "ipsc860"]
        ) == 0
        assert "iPSC" in capsys.readouterr().out

    def test_contention_override(self, gemm_file, capsys):
        assert main(
            ["simulate", gemm_file, "-P", "1,4", "--contention", "0.3"]
        ) == 0


class TestCLIAutodist:
    def test_autodist_runs(self, gemm_file, capsys):
        assert main(
            ["autodist", gemm_file, "--single-p", "4", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "candidates evaluated" in out


def _all_columns(outcome, kind):
    """The ranking entry distributing every array as ``kind(1)``."""
    return next(
        c for c in outcome.ranking
        if all(
            type(d) is kind and d.dim == 1 for d in c.distributions.values()
        )
    )


class TestAutodistSearch:
    def test_candidate_enumeration(self):
        program = gemm_program(8)
        candidates = list(
            candidate_assignments(program, SearchSpace(block_sizes=()))
        )
        # Three 2-D arrays, each with 4 options (wrapped/blocked x 2 dims).
        assert len(candidates) == 4 ** 3
        with_replicated = list(
            candidate_assignments(
                program, SearchSpace(block_sizes=(), allow_replicated=True)
            )
        )
        assert len(with_replicated) == 5 ** 3

    def test_evaluate_assignment(self):
        outcome = search_distributions(gemm_program(12), processors=4)
        candidate = _all_columns(outcome, Wrapped)
        assert candidate.time_us > 0
        assert "wrapped column" in candidate.describe()

    def test_search_ranks_paper_distribution_at_top(self):
        # The paper's all-wrapped-column choice must tie the best candidate
        # (its row-wise mirror image has identical cost by symmetry).
        program = gemm_program(12)
        outcome = search_distributions(
            program, processors=4, machine=butterfly_gp1000()
        )
        best_time = outcome.best.time_us
        column_candidates = [
            c
            for c in outcome.ranking
            if all(
                isinstance(d, Wrapped) and d.dim == 1
                for d in c.distributions.values()
            )
        ]
        assert column_candidates
        assert column_candidates[0].time_us == pytest.approx(best_time, rel=1e-9)

    def test_search_max_candidates(self):
        program = gemm_program(8)
        outcome = search_distributions(
            program, processors=2, max_candidates=5
        )
        assert outcome.evaluated == 5

    def test_wrapped_beats_all_blocked_for_gemm(self):
        # Blocked columns misalign with the wrapped outer schedule, so the
        # all-wrapped assignments must come out ahead.
        outcome = search_distributions(gemm_program(12), processors=4)
        wrapped = _all_columns(outcome, Wrapped)
        blocked = _all_columns(outcome, Blocked)
        assert wrapped.time_us <= blocked.time_us
