"""Fig. 20(a): pipeline stall comparison, and Fig. 20(b): DRAM access of
Naive / METIS / GCoD / Condense locality strategies."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def test_fig20a_pipeline_stall(benchmark):
    table = once(benchmark, run_experiment, "stall_table",
                 datasets=("cora", "citeseer", "pubmed")).value
    rows = [[ds] + [row[a] for a in ("hygcn", "gcnax", "mega")]
            for ds, row in table.items()]
    print_table(rows, ["dataset", "hygcn", "gcnax", "mega"],
                title="Fig. 20(a) — DRAM stall fraction of total cycles",
                float_format="{:.3f}")
    for ds, row in table.items():
        assert row["mega"] <= row["hygcn"], ds
        assert row["mega"] <= row["gcnax"] + 1e-9, ds


def test_fig20b_locality_strategies(benchmark):
    out = once(benchmark, run_experiment, "locality_study",
               dataset="cora").value
    rows = [[s, v["cross_mb"], v["total_mb"]] for s, v in out.items()]
    print_table(rows, ["strategy", "sparse_connections_MB", "total_MB"],
                title="Fig. 20(b) — DRAM by locality strategy",
                float_format="{:.3f}")
    assert out["condense"]["cross_mb"] <= out["gcod"]["cross_mb"]
    assert out["gcod"]["cross_mb"] <= out["metis"]["cross_mb"]
    assert out["metis"]["cross_mb"] <= out["naive"]["cross_mb"] + 1e-9
