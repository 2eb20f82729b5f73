"""Tests for the NUMA machine model and simulator."""

import numpy as np
import pytest

from repro.bench import fig4_series, gemm_variants
from repro.blas import gemm_program, gemm_reference, syr2k_program, syr2k_reference
from repro.codegen import generate_ownership, generate_spmd
from repro.core import access_normalize
from repro.errors import SimulationError
from repro.ir import allocate_arrays, execute
from repro.linalg.progression import count_congruent, count_in_interval
from repro.numa import (
    butterfly_gp1000,
    ipsc860,
    sequential_time,
    simulate,
    uniform_memory,
)


class TestMachineConfig:
    def test_paper_constants(self):
        machine = butterfly_gp1000()
        assert machine.local_access_us == 0.6
        assert machine.remote_access_us == 6.6
        assert machine.block_startup_us == 8.0
        assert machine.block_per_byte_us == 0.31

    def test_block_transfer_cost(self):
        machine = butterfly_gp1000()
        assert machine.block_transfer_us(100) == pytest.approx(8.0 + 31.0)

    def test_breakeven(self):
        machine = butterfly_gp1000()
        # 8 / (6.6 - 2.48) ~= 1.94 elements: block transfers win almost
        # immediately on the Butterfly (the Section 1 argument).
        assert machine.block_breakeven_elements(8) == pytest.approx(1.94, abs=0.01)

    def test_breakeven_never(self):
        machine = butterfly_gp1000(remote_access_us=1.0)
        assert machine.block_breakeven_elements(8) == float("inf")

    def test_presets(self):
        assert ipsc860().block_startup_us == 70.0
        assert uniform_memory().remote_access_us == uniform_memory().local_access_us

    def test_with_contention(self):
        assert butterfly_gp1000().with_contention(0.1).contention_coefficient == 0.1


class TestCountingHelpers:
    @pytest.mark.parametrize("a,r,first,step,trips,mod,target", [
        (1, 0, 0, 1, 20, 4, 2),
        (3, 5, -7, 2, 33, 6, 1),
        (0, 5, 0, 1, 10, 4, 1),
        (-2, 1, 3, 3, 17, 5, 0),
        (4, 0, 0, 2, 25, 8, 4),
    ])
    def test_count_congruent_matches_bruteforce(self, a, r, first, step, trips, mod, target):
        expected = sum(
            1 for q in range(trips) if (a * (first + step * q) + r) % mod == target % mod
        )
        assert count_congruent(a, r, first, step, trips, mod, target) == expected

    @pytest.mark.parametrize("a,r,first,step,trips,low,high", [
        (1, 0, 0, 1, 20, 5, 11),
        (-3, 40, 0, 2, 15, 10, 25),
        (0, 7, 0, 1, 9, 5, 10),
        (0, 7, 0, 1, 9, 8, 10),
        (2, -3, -5, 3, 12, -4, 4),
    ])
    def test_count_interval_matches_bruteforce(self, a, r, first, step, trips, low, high):
        expected = sum(
            1 for q in range(trips) if low <= a * (first + step * q) + r <= high
        )
        assert count_in_interval(a, r, first, step, trips, low, high) == expected


class TestSimulatorBasics:
    def make_node(self, n=12, block=True):
        return generate_spmd(
            access_normalize(gemm_program(n)).transformed,
            block_transfers=block,
        )

    def test_one_processor_all_local(self):
        node = self.make_node()
        result = simulate(node, processors=1)
        totals = result.totals
        assert totals.remote == 0
        assert totals.block_transfers == 0
        assert totals.local == 4 * 12 ** 3

    def test_iterations_partitioned(self):
        node = self.make_node()
        sequential = simulate(node, processors=1).totals.iterations
        for processors in (2, 3, 5):
            result = simulate(node, processors=processors)
            assert result.totals.iterations == sequential

    def test_blocked_schedule_partitions(self):
        node = generate_spmd(
            access_normalize(gemm_program(12)).transformed, schedule="blocked"
        )
        result = simulate(node, processors=5)
        assert result.totals.iterations == 12 ** 3

    def test_all_schedule_replicates(self):
        node = generate_ownership(gemm_program(6))
        result = simulate(node, processors=3)
        assert result.totals.iterations == 3 * 6 ** 3
        # but each element is written exactly once in total:
        assert result.totals.statements == 6 ** 3
        assert result.totals.guards == 3 * 6 ** 3

    def test_block_transfer_counts(self):
        node = self.make_node(n=10)
        result = simulate(node, processors=5)
        totals = result.totals
        # One transfer per (u, v) with v not owned: N * (N - N/P) columns.
        assert totals.block_transfers == 10 * (10 - 2)
        assert totals.block_bytes == totals.block_transfers * 10 * 8
        assert totals.remote == 0

    def test_no_block_transfers_variant(self):
        node = self.make_node(n=10, block=False)
        result = simulate(node, processors=5)
        totals = result.totals
        assert totals.block_transfers == 0
        # A[w, v] remote whenever v is not local: N * (N - N/P) * N elements.
        assert totals.remote == 10 * (10 - 2) * 10

    def test_access_conservation(self):
        # local + remote must equal refs-per-iteration * iterations.
        node = self.make_node(n=9, block=False)
        for processors in (1, 2, 4):
            totals = simulate(node, processors=processors).totals
            assert totals.local + totals.remote == 4 * 9 ** 3

    def test_speedup_and_summary(self):
        node = self.make_node()
        seq = sequential_time(node)
        result = simulate(node, processors=4)
        assert 1.0 < result.speedup(seq) <= 4.0
        assert "P=4" in result.summary()

    def test_invalid_arguments(self):
        node = self.make_node()
        with pytest.raises(SimulationError):
            simulate(node, processors=0)
        with pytest.raises(SimulationError):
            simulate(node, processors=2, mode="warp")
        with pytest.raises(SimulationError):
            simulate(node, processors=2, mode="execute")  # arrays missing


class TestExecuteMode:
    def test_gemm_parallel_execution_correct(self):
        program = gemm_program(8)
        node = generate_spmd(access_normalize(program).transformed)
        arrays = allocate_arrays(program, seed=21)
        expected = gemm_reference(arrays)
        simulate(node, processors=3, arrays=arrays, mode="execute")
        np.testing.assert_allclose(arrays["C"], expected, atol=1e-9)

    def test_syr2k_parallel_execution_correct(self):
        program = syr2k_program(10, 3)
        result = access_normalize(program, priority=["j-i", "j-k", "k", "i-k", "i"])
        node = generate_spmd(result.transformed)
        arrays = allocate_arrays(program, seed=22)
        expected = syr2k_reference(arrays, 10, 3)
        simulate(node, processors=4, arrays=arrays, mode="execute")
        np.testing.assert_allclose(arrays["Cb"], expected, atol=1e-9)

    def test_execute_and_account_counts_agree(self):
        program = gemm_program(7)
        node = generate_spmd(access_normalize(program).transformed)
        arrays = allocate_arrays(program, seed=23)
        executed = simulate(node, processors=3, arrays=arrays, mode="execute")
        accounted = simulate(node, processors=3, mode="account")
        for lhs, rhs in zip(executed.per_proc, accounted.per_proc):
            assert lhs.counts == rhs.counts


class TestContention:
    def test_multiplier_grows_with_remote_traffic(self):
        machine = butterfly_gp1000(contention_coefficient=0.1)
        node = generate_spmd(
            access_normalize(gemm_program(12)).transformed, block_transfers=False
        )
        result = simulate(node, processors=8, machine=machine)
        assert result.remote_multiplier > 1.0
        base = simulate(node, processors=8, machine=butterfly_gp1000())
        assert result.total_time_us > base.total_time_us

    def test_no_contention_on_single_processor(self):
        machine = butterfly_gp1000(contention_coefficient=0.5)
        node = generate_spmd(access_normalize(gemm_program(8)).transformed)
        result = simulate(node, processors=1, machine=machine)
        assert result.remote_multiplier == 1.0


class TestModelCrossValidation:
    """Figure 4's performance model is the tier-0 symbolic form that the
    ``auto`` engine evaluates; it must equal the interpreter walk."""

    @staticmethod
    def _simulate(node, processors, machine):
        auto, walk = (
            simulate(
                node, processors=processors, machine=machine, engine=engine
            )
            for engine in ("auto", "walk")
        )
        assert auto.engine == "symbolic"
        assert auto.total_time_us == walk.total_time_us
        return walk

    @pytest.mark.parametrize("variant,block", [
        ("gemmT", False),
        ("gemmB", True),
    ])
    @pytest.mark.parametrize("processors", [1, 3, 7])
    def test_normalized_variants_match_simulator(self, variant, block, processors):
        machine = butterfly_gp1000(contention_coefficient=0.05)
        walk = self._simulate(gemm_variants(24)[variant], processors, machine)
        transfers = walk.totals.block_transfers
        assert (transfers > 0) == (block and processors > 1)

    @pytest.mark.parametrize("processors", [1, 3, 7])
    def test_naive_variant_matches_simulator(self, processors):
        machine = butterfly_gp1000(contention_coefficient=0.05)
        self._simulate(gemm_variants(24)["gemm"], processors, machine)

    def test_speedup_series_shape(self):
        _, series = fig4_series(64, [1, 4, 8, 16], butterfly_gp1000())
        assert series["gemmB"][-1] > series["gemmT"][-1] > series["gemm"][-1]
        assert series["gemmB"][0] == pytest.approx(1.0)
