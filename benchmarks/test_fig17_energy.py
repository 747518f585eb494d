"""Fig. 17: energy savings of MEGA over the baselines
(paper geomeans: 47.6x / 7.2x / 5.4x / 4.5x)."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def test_fig17_energy_savings(benchmark, workloads):
    accelerators = ("hygcn", "gcnax", "grow", "sgcn")
    table = once(benchmark, run_experiment, "energy_table",
                 workloads=workloads, accelerators=accelerators).value

    rows = [[key] + [row[a] for a in accelerators] for key, row in table.items()]
    print_table(rows, ["workload"] + list(accelerators),
                title="Fig. 17 — energy savings (x, higher = MEGA better)")

    gm = table["geomean"]
    for name in accelerators:
        assert gm[name] > 1.0
    assert gm["hygcn"] == max(gm.values())
