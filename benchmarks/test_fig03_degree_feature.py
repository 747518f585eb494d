"""Fig. 3: average node-feature magnitude after aggregation grows with
in-degree (the observation motivating Degree-Aware quantization)."""

from conftest import once

from repro.eval import print_table
from repro.graphs.statistics import DEGREE_GROUPS
from repro.report import run_experiment


def test_fig03_feature_magnitude_by_degree(benchmark, quick):
    out = once(benchmark, run_experiment, "degree_feature_magnitudes",
               dataset="cora", models=("gcn", "gin"), quick=quick).value
    labels = [f"[{lo},{min(hi, 168)}]" for lo, hi in DEGREE_GROUPS]
    rows = [[model] + vals for model, vals in out.items()]
    print_table(rows, ["model"] + labels,
                title="Fig. 3 — mean |feature| after aggregation by in-degree",
                float_format="{:.3f}")

    for model, values in out.items():
        present = [v for v in values if v > 0]
        assert len(present) >= 2
        # Highest-degree group exceeds the lowest-degree group.
        assert present[-1] > present[0], model
    # GIN's add-aggregation magnifies high-degree features more than
    # GCN's symmetric normalization (Fig. 3's two curves).
    gin_ratio = out["gin"][-1] / max(out["gin"][0], 1e-9)
    gcn_ratio = out["gcn"][-1] / max(out["gcn"][0], 1e-9)
    assert gin_ratio > gcn_ratio
