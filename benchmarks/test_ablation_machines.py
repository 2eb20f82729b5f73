"""ABL6 — machine-model sensitivity.

Access normalization targets NUMA machines; its benefit should *grow* with
memory-access non-uniformity and *vanish* on a uniform-memory machine.
This ablation runs the same three GEMM compilations on the Butterfly
GP-1000, the Intel iPSC/i860 (much larger startup costs — Section 1's
motivating numbers) and a uniform-memory control.
"""

from repro.bench import fig4_series, format_table
from repro.numa import butterfly_gp1000, ipsc860, uniform_memory

MACHINES = (butterfly_gp1000, ipsc860, uniform_memory)


def sweep(n=400, processors=16):
    rows = []
    ratios = {}
    for factory in MACHINES:
        machine = factory()
        _, series = fig4_series(n, [processors], machine)
        speeds = {variant: values[0] for variant, values in series.items()}
        ratios[machine.name] = speeds
        rows.append(
            (
                machine.name,
                f"{speeds['gemm']:.2f}",
                f"{speeds['gemmT']:.2f}",
                f"{speeds['gemmB']:.2f}",
                f"{speeds['gemmB'] / speeds['gemm']:.2f}x",
            )
        )
    return rows, ratios


def test_benefit_tracks_nonuniformity(benchmark, show):
    rows, ratios = benchmark(sweep)
    show(
        "ABL6: machine sensitivity (GEMM N=400, P=16)",
        format_table(
            ["machine", "gemm", "gemmT", "gemmB", "normalization win"], rows
        ),
    )
    butterfly = ratios["BBN Butterfly GP-1000"]
    ipsc = ratios["Intel iPSC/i860"]
    uniform = ratios["uniform memory"]
    # On a UMA control the transformation must be (near) irrelevant.
    assert abs(uniform["gemmB"] - uniform["gemm"]) / uniform["gemm"] < 0.25
    # The more non-uniform the machine, the bigger the win.
    win_butterfly = butterfly["gemmB"] / butterfly["gemm"]
    win_ipsc = ipsc["gemmB"] / ipsc["gemm"]
    win_uniform = uniform["gemmB"] / uniform["gemm"]
    assert win_ipsc > win_butterfly > win_uniform


def test_ipsc_block_transfers_essential(benchmark):
    """On the iPSC the startup-dominated remote path makes gemmT nearly
    useless while gemmB still scales — block transfers are not optional on
    message-passing machines."""

    def run(n=400, processors=16):
        _, series = fig4_series(n, [processors], ipsc860())
        return series["gemmT"][0], series["gemmB"][0]

    speed_t, speed_b = benchmark(run)
    assert speed_b > 3 * speed_t
