"""The benchmark's own tests, at smoke size (a few ops per pass).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import normclock  # noqa: E402
from tracer import Tracer  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_json(script, *args):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def bench(workload, *args, max_ops=8):
    return run_json(
        "run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
        "--max-ops", str(max_ops), *args,
    )


def units(document):
    return {name: metric["unit"] for name, metric in document["metrics"].items()}


@pytest.fixture(scope="module")
def traced_tune():
    """Two traced smoke runs of the same seed (one tune_program call)."""
    return [bench("tune", "--trace", "1", max_ops=1) for _ in range(2)]


@pytest.mark.parametrize("workload", ["figures", "serve"])
def test_end_to_end_metric_names_and_units_match_benchmark_json(workload):
    document = bench(workload, "--trace", "0")
    expected = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert units(document) == expected
    assert document["correct"] and document["failed"] == 0
    assert all(m["value"] > 0 for m in document["metrics"].values())


def test_per_layer_metric_names_and_units_match_benchmark_json(traced_tune):
    expected = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    for document in traced_tune:
        assert units(document) == expected


def test_counters_repeat_exactly_for_the_same_seed(traced_tune):
    first, second = (
        {name: m["value"] for name, m in doc["metrics"].items() if m["unit"] == "count"}
        for doc in traced_tune
    )
    assert first == second
    assert first["tune.scored"] > 0 and first["numa.symbolic.derive.calls"] > 0
    assert first["runtime.grid.cells"] > 0


@pytest.mark.parametrize("workload", ["figures", "nests", "serve"])
def test_injected_wrong_count_gives_nonzero_error_rate(workload):
    document = bench(workload, "--trace", "0", "--inject-wrong-count", max_ops=4)
    assert document["failed"] > 0
    assert document["correct"] is False


def test_speed_factor_depends_only_on_reference_ticks():
    clock = normclock.NormClock()
    clock.ticks = [normclock.NOMINAL_TICK_S * 2] * 5
    assert clock.speed_factor() == pytest.approx(0.5)
    clock.ticks = [0.001, 0.003]
    assert clock.speed_factor() == pytest.approx(normclock.NOMINAL_TICK_S / 0.002)
    assert normclock.speed_factor([]) == 1.0


def test_normalised_time_uses_the_ticks_around_the_work():
    nominal = normclock.NOMINAL_TICK_S
    clock = normclock.NormClock()
    clock.tick_starts = [float(j) for j in range(30)]
    clock.ticks = [nominal] * 15 + [2 * nominal] * 15  # the host halves its speed
    # Each interval spans one tick, whose time is left out.
    assert clock.normalised(2.5, 3.5) == pytest.approx(1.0 - nominal)
    assert clock.normalised(27.5, 28.5) == pytest.approx(0.5 * (1.0 - 2 * nominal))


def test_ledger_records_the_reference_kernel_constants():
    with open(os.path.join(BENCH, "ledger.json"), "r", encoding="utf-8") as handle:
        kernel = json.load(handle)["reference_kernel"]
    assert kernel["nominal_tick_s"] == normclock.NOMINAL_TICK_S
    assert kernel["tick_interval_s"] == normclock.TICK_INTERVAL_S
    assert kernel["entries"] == normclock.REFERENCE_ENTRIES
    assert kernel["local_ticks"] == normclock.LOCAL_TICKS


def test_work_clock_excludes_kernel_ticks():
    clock = normclock.NormClock()
    before = clock.now()
    clock.kernel_s += 5.0  # as if a tick had run for five seconds
    assert clock.now() - before < 1.0


def test_real_ticks_run_and_are_excluded():
    with normclock.NormClock(interval_s=0.01) as clock:
        start = clock.now()
        deadline = clock.now() + 0.3
        while clock.now() < deadline:
            pass
    assert len(clock.ticks) >= 3
    assert clock.kernel_s == pytest.approx(sum(clock.ticks))
    assert clock.now() - start >= 0.3


def test_tracer_self_times_exclude_children():
    now = [0.0]
    tracer = Tracer(lambda: now[0])

    def child():
        now[0] += 2.0

    def parent():
        now[0] += 1.0
        tracer.call("child", child)
        now[0] += 1.0

    tracer.call("parent", parent)
    snapshot = tracer.snapshot()
    assert snapshot["self_s"] == {"parent": 2.0, "child": 2.0}
    assert snapshot["calls"] == {"parent": 1, "child": 1}


def test_traced_self_times_sum_to_traced_wall():
    document = run_json(
        "child.py", "--workload", "figures", "--seed", "1", "--role", "measure",
        "--trace", "--max-ops", "30",
    )
    total_self = sum(document["layers"]["trace"]["self_s"].values())
    assert total_self == pytest.approx(document["work_s"], rel=0.02)
    assert document["failed"] == 0
