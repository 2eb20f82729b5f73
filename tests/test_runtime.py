"""Tests for the parallel sweep engine: executor, cache, metrics."""

import pytest

from repro.bench.figures import (
    fig4_series,
    fig5_series,
    figure_machine,
    gemm_variants,
)
from repro.bench.harness import run_speedup_sweep
from repro.core.autodist import search_distributions
from repro.blas import gemm_program
from repro.errors import ReproError, SimulationError
from repro.numa.machine import butterfly_gp1000, ipsc860
from repro.numa.simulator import simulate, simulate_task
from repro.runtime import (
    Metrics,
    SimulationCache,
    SweepCell,
    cell_key,
    node_fingerprint,
    resolve_jobs,
    run_grid,
)
from repro.runtime import executor as executor_module


@pytest.fixture
def gemm_node():
    return gemm_variants(8)["gemmB"]


class TestMetrics:
    def test_counters_and_timers(self):
        metrics = Metrics()
        metrics.count("hits")
        metrics.count("hits", 2)
        metrics.add_time("simulate", 0.25)
        assert metrics.counter("hits") == 3
        assert metrics.counter("absent") == 0
        assert metrics.timers["simulate"] == pytest.approx(0.25)

    def test_stage_context_manager(self):
        metrics = Metrics()
        with metrics.stage("parse"):
            pass
        assert metrics.timers["parse"] >= 0.0

    def test_merge(self):
        a, b = Metrics(), Metrics()
        a.count("cells", 2)
        b.count("cells", 3)
        b.add_time("simulate", 1.0)
        a.merge(b)
        assert a.counter("cells") == 5
        assert a.timers["simulate"] == pytest.approx(1.0)

    def test_report_lists_stages_and_counters(self):
        metrics = Metrics()
        metrics.add_time("simulate", 0.5)
        metrics.count("cache_hits", 7)
        text = metrics.report()
        assert "simulate" in text
        assert "cache_hits" in text

    def test_empty_report(self):
        assert "no events" in Metrics().report()


class TestFingerprints:
    def test_fingerprint_stable_across_rebuilds(self):
        a = gemm_variants(8)["gemmB"]
        b = gemm_variants(8)["gemmB"]
        assert a is not b
        assert node_fingerprint(a) == node_fingerprint(b)

    def test_fingerprint_distinguishes_variants(self):
        nodes = gemm_variants(8)
        prints = {node_fingerprint(n) for n in nodes.values()}
        assert len(prints) == len(nodes)

    def test_cell_key_covers_every_input(self, gemm_node):
        machine = butterfly_gp1000()
        base = cell_key(gemm_node, 4, None, machine)
        assert cell_key(gemm_node, 8, None, machine) != base
        assert cell_key(gemm_node, 4, {"N": 16}, machine) != base
        assert cell_key(gemm_node, 4, None, ipsc860()) != base
        assert cell_key(gemm_node, 4, None, machine, mode="execute") != base
        assert cell_key(gemm_node, 4, None, machine, block_cache=True) != base
        assert cell_key(gemm_node, 4, None, machine, engine="walk") != base
        assert cell_key(gemm_node, 4, None, machine) == base


class TestSimulationCache:
    def test_lru_eviction(self, gemm_node):
        cache = SimulationCache(max_entries=2)
        result = simulate(gemm_node, processors=2)
        cache.put("a", result)
        cache.put("b", result)
        cache.put("c", result)
        assert cache.get("a") is None
        assert cache.get("b") is result
        assert cache.get("c") is result
        assert len(cache) == 2

    def test_zero_capacity_never_stores(self, gemm_node):
        cache = SimulationCache(max_entries=0)
        cache.put("a", simulate(gemm_node, processors=2))
        assert cache.get("a") is None

    def test_disk_store_survives_new_cache(self, gemm_node, tmp_path):
        result = simulate(gemm_node, processors=2)
        first = SimulationCache(store_dir=str(tmp_path))
        first.put("key", result)
        fresh = SimulationCache(store_dir=str(tmp_path))
        loaded = fresh.get("key")
        assert loaded is not None
        assert loaded.total_time_us == result.total_time_us

    def test_disk_roundtrip_through_run_grid(self, gemm_node, tmp_path):
        cell = SweepCell("g", gemm_node, 4)
        cold_metrics = Metrics()
        run_grid(
            [cell],
            cache=SimulationCache(store_dir=str(tmp_path)),
            metrics=cold_metrics,
        )
        assert cold_metrics.counter("simulate_calls") == 1
        warm_metrics = Metrics()
        run_grid(
            [cell],
            cache=SimulationCache(store_dir=str(tmp_path)),
            metrics=warm_metrics,
        )
        assert warm_metrics.counter("simulate_calls") == 0
        assert warm_metrics.counter("cache_hits") == 1

    def test_corrupt_disk_entry_is_a_counted_miss(self, gemm_node, tmp_path):
        from repro.runtime.metrics import global_metrics

        cache = SimulationCache(store_dir=str(tmp_path))
        cache.put("key", simulate(gemm_node, processors=2))
        path = tmp_path / "key.pkl"
        path.write_bytes(b"\x80\x04 truncated garbage")
        fresh = SimulationCache(store_dir=str(tmp_path))
        before = global_metrics().counter("cache.disk_corrupt")
        assert fresh.get("key") is None
        assert global_metrics().counter("cache.disk_corrupt") == before + 1
        assert not path.exists()  # corrupted entry was deleted

    def test_non_result_disk_entry_is_rejected(self, gemm_node, tmp_path):
        import pickle

        cache = SimulationCache(store_dir=str(tmp_path))
        (tmp_path / "key.pkl").write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get("key") is None
        assert not (tmp_path / "key.pkl").exists()

    def test_disk_cap_evicts_oldest_by_mtime(self, gemm_node, tmp_path):
        import os

        result = simulate(gemm_node, processors=2)
        cache = SimulationCache(store_dir=str(tmp_path), disk_max_entries=2)
        for index, key in enumerate(["old", "mid", "new"]):
            cache.put(key, result)
            # Force distinct mtimes without sleeping.
            stamp = 1_000_000 + index
            os.utime(tmp_path / f"{key}.pkl", (stamp, stamp))
            cache._evict_disk()
        assert cache.disk_entries() == 2
        assert not (tmp_path / "old.pkl").exists()
        assert (tmp_path / "new.pkl").exists()

    def test_disk_entries_counts_store(self, gemm_node, tmp_path):
        cache = SimulationCache(store_dir=str(tmp_path))
        assert cache.disk_entries() == 0
        cache.put("a", simulate(gemm_node, processors=2))
        assert cache.disk_entries() == 1
        assert SimulationCache().disk_entries() == 0  # no store configured


class TestMetricsSnapshots:
    def test_to_dict_shape_and_sorting(self):
        metrics = Metrics()
        metrics.count("zeta")
        metrics.count("alpha", 2)
        metrics.add_time("simulate", 0.5)
        snapshot = metrics.to_dict()
        assert snapshot == {
            "counters": {"alpha": 2, "zeta": 1},
            "timers": {"simulate": 0.5},
        }
        assert list(snapshot["counters"]) == ["alpha", "zeta"]

    def test_merge_accepts_snapshot_dicts(self):
        metrics = Metrics()
        metrics.count("cells", 1)
        metrics.merge(
            {"counters": {"cells": 4}, "timers": {"simulate": 0.25}}
        )
        assert metrics.counter("cells") == 5
        assert metrics.timers["simulate"] == pytest.approx(0.25)

    def test_merge_snapshot_roundtrip(self):
        source = Metrics()
        source.count("hits", 3)
        source.add_time("parse", 0.1)
        sink = Metrics()
        sink.merge(source.to_dict())
        assert sink.to_dict() == source.to_dict()

    def test_report_format_unchanged_by_snapshot_merge(self):
        metrics = Metrics()
        metrics.merge({"counters": {"cache_hits": 7}, "timers": {}})
        text = metrics.report()
        assert "cache_hits" in text
        assert text.startswith("pipeline profile")

    def test_process_counters_carry_cache_artifacts(self, gemm_node):
        from repro.runtime import set_shared_cache, shared_cache
        from repro.runtime.metrics import with_process_counters

        previous = shared_cache()
        cache = set_shared_cache(SimulationCache())
        try:
            for processors in (2, 3):
                simulate(gemm_node, processors=processors, engine="symbolic")
            metrics = Metrics()
            merged = with_process_counters(metrics).to_dict()
        finally:
            set_shared_cache(previous)
        counters = merged["counters"]
        assert counters["sim.cache.form_derives"] == cache.form_derives == 1
        assert counters["sim.cache.form_hits"] == cache.form_hits >= 1
        assert counters["sim.cache.kernel_compiles"] == cache.kernel_compiles
        assert counters["sim.cache.kernel_hits"] == cache.kernel_hits
        build_s = merged["timers"]["sim.cache.form_build_s"]
        assert build_s == cache.form_build_s > 0.0
        # The caller's own sink is not touched.
        assert metrics.to_dict() == {"counters": {}, "timers": {}}


class TestSimulateTask:
    def test_matches_direct_simulate(self, gemm_node):
        direct = simulate(gemm_node, processors=3)
        via_task = simulate_task(
            (gemm_node, 3, None, None, "account", False, "auto")
        )
        assert via_task.total_time_us == direct.total_time_us
        assert via_task.totals.remote == direct.totals.remote

    def test_node_program_is_picklable(self, gemm_node):
        import pickle

        clone = pickle.loads(pickle.dumps(gemm_node))
        assert simulate(clone, processors=2).total_time_us == pytest.approx(
            simulate(gemm_node, processors=2).total_time_us
        )


class TestRunGrid:
    def test_results_in_grid_order(self, gemm_node):
        cells = [SweepCell("g", gemm_node, p) for p in (4, 1, 2)]
        results = run_grid(cells, cache=SimulationCache())
        assert [r.processors for r in results] == [4, 1, 2]

    def test_duplicate_cells_simulated_once(self, gemm_node):
        metrics = Metrics()
        cells = [SweepCell("g", gemm_node, 2)] * 3
        results = run_grid(cells, cache=SimulationCache(), metrics=metrics)
        assert metrics.counter("simulate_calls") == 1
        assert metrics.counter("dedup_hits") == 2
        assert results[0] is results[1] is results[2]

    def test_parallel_equals_serial(self, gemm_node):
        cells = [SweepCell("g", gemm_node, p) for p in (1, 2, 3, 4)]
        serial = run_grid(cells, jobs=1, cache=SimulationCache())
        parallel = run_grid(cells, jobs=4, cache=SimulationCache())
        assert [r.total_time_us for r in serial] == [
            r.total_time_us for r in parallel
        ]
        assert [r.totals.remote for r in serial] == [
            r.totals.remote for r in parallel
        ]

    def test_pool_failure_falls_back_to_serial(self, gemm_node, monkeypatch):
        def broken_context():
            raise OSError("no fork for you")

        monkeypatch.setattr(executor_module, "_pool_context", broken_context)
        metrics = Metrics()
        cells = [SweepCell("g", gemm_node, p) for p in (1, 2)]
        results = run_grid(
            cells, jobs=4, cache=SimulationCache(), metrics=metrics
        )
        assert metrics.counter("pool_fallbacks") == 1
        assert len(results) == 2

    def test_on_error_keep_and_raise(self, gemm_node):
        bad = SweepCell("bad", gemm_node, 2, mode="definitely-not-a-mode")
        good = SweepCell("good", gemm_node, 2)
        with pytest.raises(SimulationError):
            run_grid([good, bad], cache=SimulationCache())
        results = run_grid(
            [good, bad], cache=SimulationCache(), on_error="keep"
        )
        assert results[0].processors == 2
        assert isinstance(results[1], ReproError)

    def test_rejects_bad_jobs_and_policy(self, gemm_node):
        with pytest.raises(ReproError):
            run_grid([], on_error="explode")
        with pytest.raises(ReproError):
            resolve_jobs(-2)
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(3) == 3


class TestSweepDeterminism:
    def test_fig4_parallel_equals_serial(self):
        procs = [1, 2, 4]
        _, serial = fig4_series(
            16, procs, jobs=1, cache=SimulationCache()
        )
        _, parallel = fig4_series(
            16, procs, jobs=4, cache=SimulationCache()
        )
        assert serial == parallel

    def test_fig5_parallel_equals_serial(self):
        procs = [1, 2, 4]
        _, serial = fig5_series(24, 4, procs, jobs=1, cache=SimulationCache())
        _, parallel = fig5_series(24, 4, procs, jobs=4, cache=SimulationCache())
        assert serial == parallel

    def test_sweep_warm_cache_skips_all_cells(self):
        nodes = gemm_variants(8)
        cache = SimulationCache()
        cold = Metrics()
        first = run_speedup_sweep(
            nodes, [1, 2], machine=figure_machine(), baseline="gemmB",
            cache=cache, metrics=cold,
        )
        warm = Metrics()
        second = run_speedup_sweep(
            nodes, [1, 2], machine=figure_machine(), baseline="gemmB",
            cache=cache, metrics=warm,
        )
        assert first == second
        assert cold.counter("simulate_calls") == 6
        assert warm.counter("simulate_calls") == 0
        assert warm.counter("cache_hits") == 7


class TestAutodistOnEngine:
    def test_parallel_search_matches_serial(self):
        program = gemm_program(6)
        serial = search_distributions(
            program, processors=4, max_candidates=8, jobs=1,
            cache=SimulationCache(),
        )
        parallel = search_distributions(
            program, processors=4, max_candidates=8, jobs=4,
            cache=SimulationCache(),
        )
        assert serial.evaluated == parallel.evaluated
        assert [c.describe() for c in serial.ranking] == [
            c.describe() for c in parallel.ranking
        ]
        assert [c.time_us for c in serial.ranking] == [
            c.time_us for c in parallel.ranking
        ]

    def test_search_records_pipeline_stages(self):
        metrics = Metrics()
        search_distributions(
            gemm_program(6), processors=2, max_candidates=4,
            cache=SimulationCache(), metrics=metrics,
        )
        # The search is a preset of the tuner: its stages are recorded
        # under the tune.* names, and the four admitted candidates all
        # reach scoring.
        assert metrics.timers["tune.enumerate"] > 0.0
        assert metrics.timers["tune.materialize"] > 0.0
        assert metrics.timers["tune.score"] > 0.0
        assert metrics.counter("tune.admitted") == 4
        assert metrics.counter("simulate_calls") == 4
