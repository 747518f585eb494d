"""Fig. 15 / Table VII: MEGA vs GCNAX and GROW in their original
configurations (paper: 4.68x and 2.53x average, normalized to GCNAX)."""

from conftest import once

from repro.eval import print_table
from repro.eval.reporting import geomean
from repro.report import run_experiment


def test_fig15_original_configurations(benchmark, quick):
    datasets = ("cora", "citeseer", "pubmed") if quick else \
        ("cora", "citeseer", "pubmed", "nell", "reddit")
    out = once(benchmark, run_experiment, "original_config_comparison",
               datasets=datasets).value
    rows = [[ds, row["gcnax"], row["grow"], row["mega"]]
            for ds, row in out.items()]
    print_table(rows, ["dataset", "gcnax", "grow", "mega"],
                title="Fig. 15 — original configs, normalized to GCNAX")

    mega_gm = geomean(row["mega"] for row in out.values())
    grow_gm = geomean(row["grow"] for row in out.values())
    assert mega_gm > grow_gm >= 0.8
    assert mega_gm > 1.5  # paper: 4.68x over GCNAX
