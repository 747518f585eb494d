"""Fig. 18: energy-consumption breakdown (DRAM/SRAM/PU/leakage) of
HyGCN normalized to MEGA on GCN (paper: MEGA saves on all four parts,
most on DRAM, e.g. 98.0x DRAM on Cora)."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def test_fig18_energy_breakdown(benchmark, quick):
    datasets = ("cora", "citeseer", "pubmed") if quick else \
        ("cora", "citeseer", "pubmed", "nell", "reddit")
    out = once(benchmark, run_experiment, "energy_breakdown_fig18",
               datasets=datasets).value
    rows = []
    for dataset, accels in out.items():
        h = accels["hygcn"]
        rows.append([dataset, h["dram"], h["sram"], h["pu"], h["leakage"]])
    print_table(rows, ["dataset", "dram", "sram", "pu", "leakage"],
                title="Fig. 18 — HyGCN energy normalized to MEGA (GCN)",
                float_format="{:.1f}")

    for dataset, accels in out.items():
        h = accels["hygcn"]
        # MEGA saves on every component; DRAM saving is the largest.
        assert min(h.values()) > 1.0, dataset
        assert h["dram"] >= h["sram"] * 0.5
        assert h["dram"] > 10.0
