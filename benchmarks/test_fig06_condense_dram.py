"""Fig. 6: DRAM access of Naive / METIS / Condense-Edge on the citation
graphs, split into in-subgraph and sparse-connection traffic."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def _study(datasets):
    rows = []
    for dataset in datasets:
        out = run_experiment("locality_study", dataset=dataset,
                             strategies=("naive", "metis", "condense")).value
        for strategy, vals in out.items():
            rows.append([dataset, strategy, vals["internal_mb"],
                         vals["cross_mb"], vals["total_mb"]])
    return rows


def test_fig06_condense_dram(benchmark):
    rows = once(benchmark, _study, ("cora", "citeseer", "pubmed"))
    print_table(rows, ["dataset", "strategy", "in_subgraphs_MB",
                       "sparse_connections_MB", "total_MB"],
                title="Fig. 6 — aggregation DRAM by scheduling strategy",
                float_format="{:.3f}")

    by_ds = {}
    for dataset, strategy, internal, cross, total in rows:
        by_ds.setdefault(dataset, {})[strategy] = (internal, cross)
    for dataset, strat in by_ds.items():
        # Sparse-connection traffic: naive >= metis > condense.
        assert strat["naive"][1] >= strat["metis"][1]
        assert strat["metis"][1] > strat["condense"][1], dataset
        # In-subgraph traffic is roughly equal across strategies.
        internals = [v[0] for v in strat.values()]
        assert max(internals) <= 2.5 * min(internals) + 1e-9
    # On the hub-concentrated graphs the reduction is a multiple
    # (paper: 13.1 MB -> 0.9 MB on Cora; the exact factor depends on
    # partition quality — a lower edge cut shrinks the METIS traffic
    # too, compressing the ratio).
    assert by_ds["cora"]["metis"][1] > 1.5 * by_ds["cora"]["condense"][1]
