"""ABL3 — the startup-amortization argument of Section 1.

On the iPSC/i860, communication startup is 70 us but a double moves in
1 us once the pipeline is up; on the Butterfly, startup is 8 us against a
6.6 us remote access.  This ablation regenerates the breakeven analysis:
from how many elements onward does one block transfer beat per-element
remote access?
"""

from repro.bench import format_table
from repro.numa import butterfly_gp1000, ipsc860

SIZES = (1, 2, 4, 8, 16, 64, 256, 1024)


def breakeven_rows(machine):
    rows = []
    for elements in SIZES:
        block = machine.block_transfer_us(elements * 8)
        scalar = elements * machine.remote_access_us
        rows.append((elements, f"{block:.1f}", f"{scalar:.1f}",
                     "block" if block < scalar else "scalar"))
    return rows


def test_butterfly_breakeven(benchmark, show):
    machine = butterfly_gp1000()
    rows = benchmark(breakeven_rows, machine)
    show("ABL3: block vs scalar remote (Butterfly GP-1000)",
         format_table(["elements", "block us", "scalar us", "winner"], rows))
    # Paper constants: breakeven just under 2 elements.
    assert 1.0 < machine.block_breakeven_elements(8) < 2.0
    assert rows[0][3] == "scalar"   # a single element: scalar wins
    assert rows[2][3] == "block"    # four elements: block wins


def test_ipsc860_breakeven(benchmark, show):
    machine = ipsc860()
    rows = benchmark(breakeven_rows, machine)
    show("ABL3: block vs scalar remote (iPSC/i860)",
         format_table(["elements", "block us", "scalar us", "winner"], rows))
    # With a 70 us startup equal to one remote message, block transfers of
    # two or more doubles already win.
    assert rows[0][3] == "scalar"
    assert rows[1][3] == "block"


def test_breakeven_drives_gemm_gap(benchmark):
    """The gemmB-over-gemmT advantage is exactly the per-column saving."""
    from repro.bench import gemm_variants
    from repro.numa import simulate

    def run(n=400, processors=28):
        machine = butterfly_gp1000()
        nodes = gemm_variants(n)
        point_t, point_b = (
            simulate(nodes[variant], processors=processors, machine=machine)
            for variant in ("gemmT", "gemmB")
        )
        saving = point_t.total_time_us - point_b.total_time_us
        worst = max(point_b.per_proc, key=lambda result: result.time_us)
        columns = worst.counts.block_transfers
        per_column = (
            n * machine.remote_access_us
            - machine.block_transfer_us(n * 8)
            + n * machine.local_access_us * 0  # consumption stays local
        )
        # gemmT pays remote for each element but no local for them; gemmB
        # pays the transfer plus local consumption.
        per_column -= n * machine.local_access_us
        return saving, columns * per_column

    saving, predicted = benchmark(run)
    assert abs(saving - predicted) / predicted < 1e-9
