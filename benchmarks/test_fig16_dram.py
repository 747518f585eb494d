"""Fig. 16: DRAM access reduction of MEGA over the baselines
(paper geomeans: 108.1x / 10.5x / 8.4x / 7.3x)."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def test_fig16_dram_reduction(benchmark, workloads):
    accelerators = ("hygcn", "gcnax", "grow", "sgcn")
    table = once(benchmark, run_experiment, "dram_table",
                 workloads=workloads, accelerators=accelerators).value

    rows = [[key] + [row[a] for a in accelerators] for key, row in table.items()]
    print_table(rows, ["workload"] + list(accelerators),
                title="Fig. 16 — DRAM access reduction (x, higher = MEGA better)")

    gm = table["geomean"]
    for name in accelerators:
        assert gm[name] > 1.0
    # HyGCN suffers by far the most DRAM traffic.
    assert gm["hygcn"] > 3 * gm["gcnax"]
    assert gm["gcnax"] >= gm["grow"] * 0.8
