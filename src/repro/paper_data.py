"""Numerical constants transcribed from the MEGA paper (HPCA 2024).

Single home for every table/figure value the reproduction hard-codes,
with provenance, so a number is never copied into two modules that can
drift apart.  Consumers:

- :mod:`repro.graphs.datasets` — Table II's node, edge, feature-length,
  class and average-degree columns, which size the paper graphs'
  synthetic stand-ins;
- :mod:`repro.nn.models`, :mod:`repro.quant.flows` and
  :mod:`repro.sim.workload` — Table III's hidden widths, neighbor
  sample and aggregation kinds;
- :class:`repro.registry.DatasetEntry` — the Fig. 5 hidden-feature
  densities and the Table VI average bitwidths that parameterize
  synthesized workloads (:mod:`repro.sim.workload` reads Fig. 5 for
  trained workloads too);
- :mod:`repro.baselines.generic` — the Table V matched configurations
  and Table VII original configurations of the baseline accelerators;
- :mod:`repro.mega.performance` — MEGA's Table IV total power.

The module imports nothing but :mod:`typing`, so the registries and
the job engine read it without loading numpy.

Values are transcribed measurements/settings from the paper, not knobs:
edit only to fix a transcription error against the published tables.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "TABLE_II",
    "TABLE_III",
    "FIG5_HIDDEN_DENSITY",
    "PAPER_AVERAGE_BITS",
    "TABLE_V_BASELINES",
    "TABLE_VII_ORIGINAL",
    "MEGA_TOTAL_POWER_MW",
]

# Paper Table II: the five evaluated graphs' node and edge counts,
# input feature length and class count, with the average degree as the
# table prints it (two decimals).  The stand-ins generate from these
# degrees as printed: recomputing edges / nodes would change every
# graph.
TABLE_II: Dict[str, Dict[str, float]] = {
    "cora": dict(nodes=2708, edges=10556, feature_dim=1433,
                 num_classes=7, average_degree=3.90),
    "citeseer": dict(nodes=3327, edges=9104, feature_dim=3703,
                     num_classes=6, average_degree=2.74),
    "pubmed": dict(nodes=19717, edges=88648, feature_dim=500,
                   num_classes=3, average_degree=4.50),
    "nell": dict(nodes=65755, edges=251550, feature_dim=61278,
                 num_classes=32, average_degree=3.83),
    "reddit": dict(nodes=232965, edges=114615892, feature_dim=602,
                   num_classes=41, average_degree=491.99),
}

# Paper Table III: the evaluated two-layer models' hidden width, the
# aggregation operator (a :meth:`repro.graphs.Graph.normalized_adjacency`
# kind) and GraphSAGE's 25-neighbor sample (None: every neighbor).
# GAT's row is the Sec. VII Discussion model.
TABLE_III: Dict[str, Dict[str, object]] = {
    "gcn": {"hidden": 128, "aggregation": "gcn", "sample": None},
    "gin": {"hidden": 128, "aggregation": "add", "sample": None},
    "graphsage": {"hidden": 256, "aggregation": "mean", "sample": 25},
    "gat": {"hidden": 128, "aggregation": "raw", "sample": None},
}

# Paper Fig. 5: density (non-zero fraction) of the hidden node-feature
# maps per (model, dataset), read off the reported bar chart.  Drives
# the second-layer sparsity of synthesized simulator workloads.
FIG5_HIDDEN_DENSITY: Dict[str, Dict[str, float]] = {
    "gcn": {"cora": 0.44, "citeseer": 0.55, "pubmed": 0.41, "nell": 0.12, "reddit": 0.54},
    "gin": {"cora": 0.63, "citeseer": 0.79, "pubmed": 0.84, "nell": 0.33, "reddit": 0.19},
    "graphsage": {"cora": 0.79, "citeseer": 0.88, "pubmed": 0.71, "nell": 0.56, "reddit": 0.51},
    "gat": {"cora": 0.50, "citeseer": 0.60, "pubmed": 0.50, "nell": 0.20, "reddit": 0.50},
}

# Paper Table VI: average feature bitwidths the trained Degree-Aware
# quantizer achieves per (model, dataset).  Used as the synthesis
# target for paper-scale workloads where training is infeasible.
PAPER_AVERAGE_BITS: Dict[str, Dict[str, float]] = {
    "gcn": {"cora": 1.70, "citeseer": 1.87, "pubmed": 2.50, "nell": 2.2, "reddit": 2.5},
    "gin": {"cora": 2.37, "citeseer": 2.54, "pubmed": 2.6, "nell": 2.6, "reddit": 2.8},
    "graphsage": {"cora": 3.40, "citeseer": 3.2, "pubmed": 3.0, "nell": 3.0, "reddit": 2.74},
    "gat": {"cora": 2.5, "citeseer": 1.94, "pubmed": 2.5, "nell": 2.5, "reddit": 2.7},
}

# Paper Table V: the matched configurations used for the controlled
# comparison (same DRAM bandwidth, same 392 KB buffer budget, OPS
# matched via BitOP equivalence).  Keys are keyword arguments of
# :class:`repro.baselines.generic.BaselineConfig`; structural values
# (execution order, sparsity support, storage format, locality
# strategy) come from Table V's feature rows, power from its last row.
TABLE_V_BASELINES: Dict[str, Dict[str, object]] = {
    "hygcn": dict(
        execution_order="AXW", combination_lanes=512, aggregation_lanes=64,
        sparsity_combination=False, sparsity_aggregation=False,
        storage="dense", locality="naive", dram_overlap=0.3,
        total_power_mw=250.0),
    "gcnax": dict(
        combination_lanes=32, aggregation_lanes=32, storage="dense",
        locality="naive", dram_overlap=0.7, total_power_mw=220.0),
    "grow": dict(
        combination_lanes=32, aggregation_lanes=32, storage="csr",
        locality="metis", dram_overlap=0.7, total_power_mw=230.0),
    # SGCN streams compressed-sparse features straight into the compute
    # array (zero features skipped) but its systolic dataflow leaves
    # bubbles (Sec. II-C criticism) — modeled as 50% utilization.
    "sgcn": dict(
        combination_lanes=64, aggregation_lanes=64,
        sparsity_combination=True, combination_utilization=0.5,
        storage="sgcn", locality="naive", dram_overlap=0.8,
        total_power_mw=235.0),
}

# Paper Table VII: GCNAX / GROW evaluated in their original published
# configurations (Fig. 15).  Applied on top of the Table V entries.
TABLE_VII_ORIGINAL: Dict[str, Dict[str, object]] = {
    "gcnax-original": dict(
        combination_lanes=16, aggregation_lanes=16, total_buffer_kb=580.0,
        aggregation_buffer_kb=192.0, total_power_mw=223.18),
    "grow-original": dict(
        combination_lanes=16, aggregation_lanes=16, total_buffer_kb=538.0,
        aggregation_buffer_kb=176.0, total_power_mw=242.44),
}

# Paper Table IV: MEGA's total power at 1 GHz in 40 nm (mW).
MEGA_TOTAL_POWER_MW: float = 194.98
