"""Additional coverage: simulator corner cases, rectangular normal forms,
multi-statement bodies, and odd code paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import RefClass, generate_spmd, plan_locality, render_node_program
from repro.core import access_normalize
from repro.distributions import Block2D, Wrapped, wrapped_column
from repro.errors import ShapeError
from repro.ir import allocate_arrays, arrays_equal, execute, make_program
from repro.linalg import Matrix, column_hnf, hnf_diagonal, row_hnf, solve_diophantine
from repro.numa import simulate


class TestMultiStatementBodies:
    def make(self, n=8):
        return make_program(
            loops=[("i", 0, "N-1"), ("j", 0, "N-1"), ("k", 0, "N-1")],
            body=[
                "C[i, j] = C[i, j] + A[i, k] * B[k, j]",
                "D[i, j] = D[i, j] + A[i, k]",
            ],
            arrays=[
                ("C", "N", "N"), ("D", "N", "N"),
                ("A", "N", "N"), ("B", "N", "N"),
            ],
            distributions={
                "A": wrapped_column(), "B": wrapped_column(),
                "C": wrapped_column(), "D": wrapped_column(),
            },
            params={"N": n},
            name="dual",
        )

    def test_normalization_handles_two_statements(self):
        program = self.make()
        result = access_normalize(program)
        base = allocate_arrays(program, seed=100)
        other = {k: v.copy() for k, v in base.items()}
        execute(program, base)
        execute(result.transformed, other)
        assert arrays_equal(base, other)

    def test_analytic_summary_counts_both_statements(self):
        program = self.make(6)
        node = generate_spmd(access_normalize(program).transformed)
        outcome = simulate(node, processors=2)
        assert outcome.totals.statements == 2 * 6 ** 3
        # 4 refs in stmt 1 + 3 refs in stmt 2.
        assert outcome.totals.local + outcome.totals.remote == 7 * 6 ** 3

    def test_parallel_execution_two_statements(self):
        program = self.make(6)
        node = generate_spmd(access_normalize(program).transformed)
        arrays = allocate_arrays(program, seed=101)
        expected_c = arrays["C"] + arrays["A"] @ arrays["B"]
        simulate(node, processors=3, arrays=arrays, mode="execute")
        np.testing.assert_allclose(arrays["C"], expected_c, atol=1e-9)
        # D's accumulation is easiest checked against sequential execution.
        base = allocate_arrays(program, seed=101)
        execute(program, base)
        np.testing.assert_allclose(arrays["D"], base["D"], atol=1e-9)


class TestDepthOneNest:
    def test_simulate_vector_scale(self):
        program = make_program(
            loops=[("i", 0, "N-1")],
            body=["X[i] = X[i] * 2"],
            arrays=[("X", "N")],
            distributions={"X": Wrapped(0)},
            params={"N": 10},
        )
        node = generate_spmd(program, block_transfers=False)
        outcome = simulate(node, processors=3)
        assert outcome.totals.iterations == 10
        assert outcome.totals.remote == 0  # i === p (mod P) matches owner

    def test_depth_one_execute(self):
        program = make_program(
            loops=[("i", 0, 9)],
            body=["X[i] = 3*i"],
            arrays=[("X", 10)],
            distributions={"X": Wrapped(0)},
        )
        node = generate_spmd(program)
        arrays = allocate_arrays(program, init="zeros")
        simulate(node, processors=4, arrays=arrays, mode="execute")
        np.testing.assert_allclose(arrays["X"], np.arange(10) * 3)


class TestRectangularNormalForms:
    @given(st.integers(1, 3), st.integers(1, 4),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_wide_and_tall_hnf(self, nrows, ncols, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        matrix = Matrix(rows)
        h, u = column_hnf(matrix)
        assert matrix @ u == h
        assert abs(u.det()) == 1
        hr, ur = row_hnf(matrix)
        assert ur @ matrix == hr

    def test_hnf_diagonal_rectangular(self):
        diag = hnf_diagonal(Matrix([[2, 4, 6], [0, 4, 8]]))
        assert len(diag) == 2
        assert all(d >= 0 for d in diag)


class TestDiophantineExtras:
    def test_sample_shape_error(self):
        solution = solve_diophantine(Matrix([[1, 1]]), [3])
        with pytest.raises(ShapeError):
            solution.sample([1, 2, 3])

    def test_tall_inconsistent(self):
        from repro.errors import NoIntegerSolutionError

        with pytest.raises(NoIntegerSolutionError):
            solve_diophantine(Matrix([[1], [1], [1]]), [1, 1, 2])


class TestAutodistReplicated:
    def test_allow_replicated_includes_none(self):
        from repro.core.autodist import search_distributions
        from repro.blas import gemm_program

        outcome = search_distributions(
            gemm_program(6), processors=2, allow_replicated=True
        )
        candidate = next(
            c for c in outcome.ranking
            if c.distributions["A"] is None and c.distributions["B"] is None
            and isinstance(c.distributions["C"], Wrapped)
            and c.distributions["C"].dim == 1
        )
        assert "replicated" in candidate.describe()
        assert candidate.time_us > 0


class TestRenderingExtras:
    def test_all_schedule_rendering(self):
        from repro.codegen import generate_ownership
        from repro.blas import gemm_program

        node = generate_ownership(gemm_program(6))
        text = render_node_program(node)
        assert "for i = 0, N-1" in text

    def test_block2d_plan_reason(self):
        program = make_program(
            loops=[("i", 0, 3), ("j", 0, 3)],
            body=["A[i, j] = 1"],
            arrays=[("A", 4, 4)],
            distributions={"A": Block2D(2, 2)},
        )
        plan = plan_locality(program.nest, program.distributions)
        assert plan.refs[0].ref_class == RefClass.CHECK
        assert "multi-dimensional" in plan.refs[0].reason

    def test_rank_mismatch_reason(self):
        # Distribution dimension beyond the reference rank.
        program = make_program(
            loops=[("i", 0, 3)],
            body=["A[i] = 1"],
            arrays=[("A", 4)],
            distributions={"A": Wrapped(1)},
        )
        plan = plan_locality(program.nest, program.distributions)
        assert "rank mismatch" in plan.refs[0].reason


class TestAssumptionDefaults:
    def test_program_assumptions_used_by_default(self):
        from repro.blas import syr2k_program
        from repro.ir import Program

        base = syr2k_program(40, 5)
        with_facts = Program(
            nest=base.nest,
            arrays=base.arrays,
            distributions=base.distributions,
            params=base.params,
            name=base.name,
            assumptions=("N >= 2*b", "b >= 2"),
        )
        result = access_normalize(
            with_facts, priority=["j-i", "j-k", "k", "i-k", "i"]
        )
        assert len(result.transformed.nest.loops[0].upper) == 1
