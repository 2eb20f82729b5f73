"""ABL1 — the contention argument of Sections 1 and 8.

Agarwal's analysis says long messages can *increase* network latency; the
paper argues that on real machines the startup-amortization benefit
dominates.  This ablation sweeps the contention coefficient and shows that
``gemmB`` keeps beating ``gemmT`` even under heavy contention — i.e. block
transfers remain the right call, reproducing the paper's Section 8 claim.
"""

from repro.bench import fig4_series, format_table, gemm_variants
from repro.numa import butterfly_gp1000, simulate

COEFFICIENTS = (0.0, 0.05, 0.1, 0.2, 0.4)


def sweep(n=400, processors=28):
    rows = []
    for coefficient in COEFFICIENTS:
        machine = butterfly_gp1000(contention_coefficient=coefficient)
        _, series = fig4_series(n, [processors], machine)
        speed_t, speed_b = series["gemmT"][0], series["gemmB"][0]
        rows.append(
            (
                coefficient,
                f"{speed_t:.2f}",
                f"{speed_b:.2f}",
                f"{speed_b / speed_t:.2f}x",
            )
        )
    return rows


def test_block_transfers_survive_contention(benchmark, show):
    rows = benchmark(sweep)
    show(
        "ABL1: contention sweep (GEMM, N=400, P=28)",
        format_table(["coeff", "gemmT", "gemmB", "B advantage"], rows),
    )
    # Block transfers must win at every contention level tested...
    for _, speed_t, speed_b, _ in rows:
        assert float(speed_b) > float(speed_t)
    # ...and contention must actually hurt (monotone decreasing speedups).
    speed_bs = [float(row[2]) for row in rows]
    assert speed_bs == sorted(speed_bs, reverse=True)


def test_contention_hits_remote_heavy_code_harder(benchmark):
    """The naive variant (most remote traffic) degrades fastest."""

    def run():
        quiet = butterfly_gp1000()
        noisy = butterfly_gp1000(contention_coefficient=0.2)
        degradation = {}
        for variant, node in gemm_variants(400).items():
            base = simulate(node, processors=28, machine=quiet).total_time_us
            loud = simulate(node, processors=28, machine=noisy).total_time_us
            degradation[variant] = loud / base
        return degradation

    degradation = benchmark(run)
    assert degradation["gemm"] > degradation["gemmT"] > degradation["gemmB"]
