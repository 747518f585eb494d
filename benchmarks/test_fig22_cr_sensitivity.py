"""Fig. 22: sensitivity of MEGA's speedup (over HyGCN) to the
compression ratio on Cora, GCN and GIN (paper: scales well, e.g.
21.3x -> 43.0x for GCN as CR grows 5.9x -> 18.8x)."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def test_fig22_compression_sensitivity(benchmark):
    out = once(benchmark, run_experiment, "cr_sensitivity", dataset="cora",
               models=("gcn", "gin")).value
    rows = []
    for model, series in out.items():
        for cr, speedup in series.items():
            rows.append([model, cr, speedup])
    print_table(rows, ["model", "compression_ratio", "speedup_vs_hygcn"],
                title="Fig. 22 — speedup vs compression ratio")

    for model, series in out.items():
        speedups = [series[cr] for cr in sorted(series)]
        # Monotone non-decreasing in CR and a meaningful dynamic range.
        assert all(b >= a * 0.98 for a, b in zip(speedups, speedups[1:])), model
        assert speedups[-1] > 1.2 * speedups[0], model
