"""Dataset registry mirroring the paper's Table II.

Real downloads are unavailable offline, so each named dataset maps to a
synthetic generator matched on the statistics MEGA's mechanisms depend
on.  Two scales are exposed:

- ``scale="train"``: a trainable :class:`~repro.graphs.Graph` with dense
  features, reduced for NELL/Reddit so full-batch numpy training fits.
- ``scale="sim"``: the accelerator-simulation graph.  Cora, CiteSeer and
  PubMed keep paper-exact node/edge counts; NELL keeps its node and edge
  counts with the 61278-d feature length tracked as a statistic; Reddit
  is reduced 10x in nodes (with average degree 100) so scipy holds it.

``paper_stats`` returns the Table II numbers verbatim so benchmarks can
report paper-vs-built scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..paper_data import FIG5_HIDDEN_DENSITY, PAPER_AVERAGE_BITS
from ..registry import DATASETS as DATASET_REGISTRY
from ..registry import DatasetEntry

if TYPE_CHECKING:
    from .graph import Graph

__all__ = ["DatasetStats", "DATASETS", "ScenarioSpec", "SCENARIO_SPECS",
           "paper_stats", "load_dataset", "sim_feature_stats"]


@dataclass(frozen=True)
class DatasetStats:
    """Statistics of one of the paper's datasets (Table II + feature facts)."""

    name: str
    nodes: int
    edges: int
    feature_dim: int
    num_classes: int
    average_degree: float
    feature_density: float
    homophily: float
    binary_features: bool
    power_law_exponent: float


DATASETS: Dict[str, DatasetStats] = {
    "cora": DatasetStats("cora", 2708, 10556, 1433, 7, 3.90, 0.0127, 0.81, True, 2.2),
    "citeseer": DatasetStats("citeseer", 3327, 9104, 3703, 6, 2.74, 0.0085, 0.74, True, 2.3),
    "pubmed": DatasetStats("pubmed", 19717, 88648, 500, 3, 4.50, 0.10, 0.80, False, 2.2),
    "nell": DatasetStats("nell", 65755, 251550, 61278, 32, 3.83, 0.00013, 0.60, True, 2.4),
    "reddit": DatasetStats("reddit", 232965, 114615892, 602, 41, 491.99, 0.516, 0.70, False, 1.9),
}

# Reduced-scale knobs: (train_nodes, train_feature_dim, sim_nodes, sim_avg_degree)
_SCALES: Dict[str, Tuple[int, int, int, float]] = {
    "cora": (2708, 1433, 2708, 3.90),
    "citeseer": (3327, 3703, 3327, 2.74),
    "pubmed": (19717, 500, 19717, 4.50),
    "nell": (4096, 1024, 65755, 3.83),
    "reddit": (2330, 602, 23297, 100.0),
}


def paper_stats(name: str) -> DatasetStats:
    """Table II statistics for ``name`` (KeyError on unknown names)."""
    return DATASETS[name.lower()]


def load_dataset(name: str, scale: str = "train", seed: int = 0) -> Graph:
    """Build the synthetic stand-in for dataset ``name`` at ``scale``.

    Parameters
    ----------
    name:
        One of ``cora``, ``citeseer``, ``pubmed``, ``nell``, ``reddit``.
    scale:
        ``"train"`` for a dense-feature trainable graph, ``"sim"`` for
        the (larger) accelerator-simulation graph, or ``"tiny"`` for a
        fast test-sized graph preserving the statistics' shape.
    """
    from .generators import synthetic_graph

    stats = paper_stats(name)
    train_nodes, train_fdim, sim_nodes, sim_avg_deg = _SCALES[stats.name]

    if scale == "train":
        nodes, fdim = train_nodes, train_fdim
        avg_deg = min(stats.average_degree, 30.0) if stats.name == "reddit" else stats.average_degree
        density = _rescaled_density(stats, fdim)
    elif scale == "sim":
        nodes, avg_deg = sim_nodes, sim_avg_deg
        # Simulation graphs carry thin placeholder features; the true
        # feature length is tracked via ``sim_feature_stats``.
        fdim = min(stats.feature_dim, 512)
        density = max(stats.feature_density, 4.0 / fdim)
    elif scale == "tiny":
        nodes, fdim = 256, 64
        avg_deg = min(stats.average_degree, 8.0)
        density = max(stats.feature_density, 0.05)
    else:
        raise ValueError(f"unknown scale {scale!r}; use 'train', 'sim' or 'tiny'")

    edges = int(round(nodes * avg_deg))
    return synthetic_graph(
        num_nodes=nodes,
        num_edges=edges,
        feature_dim=fdim,
        num_classes=stats.num_classes,
        feature_density=density,
        homophily=stats.homophily,
        exponent=stats.power_law_exponent,
        binary_features=stats.binary_features,
        train_fraction=0.1 if nodes < 50000 else 0.05,
        name=f"{stats.name}-{scale}",
        seed=seed + _name_seed(stats.name),
    )


def sim_feature_stats(
    name: str, rng: Optional[np.random.Generator] = None
) -> Tuple[int, np.ndarray]:
    """Paper-scale feature length + per-node non-zero counts for ``name``.

    Used by the storage-format and DRAM models at simulation scale where
    dense feature matrices (e.g. NELL's 65755 x 61278) cannot be
    materialized.  Non-zero counts follow a log-normal spread around the
    dataset's mean density, matching the diverse sparsity the paper's
    Fig. 4/5 highlights.
    """
    stats = paper_stats(name)
    rng = rng or np.random.default_rng(_name_seed(stats.name))
    sim_nodes = _SCALES[stats.name][2]
    mean_nnz = max(stats.feature_density * stats.feature_dim, 1.0)
    spread = rng.lognormal(mean=0.0, sigma=0.6, size=sim_nodes)
    nnz = np.clip(np.round(mean_nnz * spread), 1, stats.feature_dim).astype(np.int64)
    return stats.feature_dim, nnz


def _rescaled_density(stats: DatasetStats, feature_dim: int) -> float:
    """Keep the per-node non-zero count when the feature dim is reduced."""
    nnz = stats.feature_density * stats.feature_dim
    return float(np.clip(nnz / feature_dim, 0.004, 0.9))


def _name_seed(name: str) -> int:
    return sum(ord(c) for c in name)


# ----------------------------------------------------------------------
# Registry entries: the five paper graphs + parameterized scale scenarios
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic scale-sweep scenario.

    Unlike the paper stand-ins (whose statistics are pinned to Table II),
    scenarios are free knobs: node count, degree structure (power-law
    exponent, hub cap) and community strength.  They run through exactly
    the same :class:`~repro.eval.engine.SimJob` path as the paper graphs.
    """

    name: str
    nodes: int
    average_degree: float
    feature_dim: int
    num_classes: int
    feature_density: float
    homophily: float
    exponent: float
    max_degree: Optional[int] = None
    # Simulator-workload defaults when no trained model supplies them.
    hidden_density: float = 0.5
    average_bits: float = 2.5


def _scenario_loader(spec: ScenarioSpec):
    def load(scale: str = "train", seed: int = 0) -> Graph:
        from .generators import synthetic_graph

        if scale == "sim":
            nodes, fdim = spec.nodes, min(spec.feature_dim, 512)
        elif scale == "train":
            nodes, fdim = min(spec.nodes, 4096), min(spec.feature_dim, 512)
        elif scale == "tiny":
            nodes, fdim = 256, 64
        else:
            raise ValueError(
                f"unknown scale {scale!r}; use 'train', 'sim' or 'tiny'")
        return synthetic_graph(
            num_nodes=nodes,
            num_edges=int(round(nodes * spec.average_degree)),
            feature_dim=fdim,
            num_classes=spec.num_classes,
            feature_density=max(spec.feature_density, 4.0 / fdim),
            homophily=spec.homophily,
            exponent=spec.exponent,
            max_degree=spec.max_degree,
            train_fraction=0.1 if nodes < 50000 else 0.05,
            name=f"{spec.name}-{scale}",
            seed=seed + _name_seed(spec.name),
        )
    return load


def _scenario_feature_stats(spec: ScenarioSpec):
    def feature_stats(rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(_name_seed(spec.name))
        mean_nnz = max(spec.feature_density * spec.feature_dim, 1.0)
        spread = rng.lognormal(mean=0.0, sigma=0.6, size=spec.nodes)
        nnz = np.clip(np.round(mean_nnz * spread), 1,
                      spec.feature_dim).astype(np.int64)
        return spec.feature_dim, nnz
    return feature_stats


def scenario_entry(spec: ScenarioSpec) -> DatasetEntry:
    """Build (not register) a :class:`DatasetEntry` for ``spec`` — the
    ~10-line path for user-defined scenarios shown in the README."""
    return DatasetEntry(
        name=spec.name,
        loader=_scenario_loader(spec),
        num_classes=spec.num_classes,
        feature_stats=_scenario_feature_stats(spec),
        hidden_density=lambda model: spec.hidden_density,
        average_bits=lambda model: spec.average_bits,
        description=(f"synthetic scenario: {spec.nodes} nodes, "
                     f"avg degree {spec.average_degree:g}, "
                     f"exponent {spec.exponent:g}, "
                     f"homophily {spec.homophily:g}"),
        # Any spec edit invalidates cached results built from it (the
        # adjacency fingerprint alone misses feature/workload params).
        version=repr(spec),
        size_hint=spec.nodes,
    )


def _paper_entry(stats: DatasetStats) -> DatasetEntry:
    name = stats.name
    return DatasetEntry(
        name=name,
        loader=lambda scale="train", seed=0: load_dataset(name, scale=scale,
                                                          seed=seed),
        num_classes=stats.num_classes,
        feature_stats=lambda rng=None: sim_feature_stats(name, rng=rng),
        hidden_density=lambda model: FIG5_HIDDEN_DENSITY[model][name],
        average_bits=lambda model: PAPER_AVERAGE_BITS[model][name],
        description=(f"paper dataset (Table II): {stats.nodes} nodes, "
                     f"{stats.edges} edges, {stats.feature_dim}-d features"),
        size_hint=_SCALES[name][2],
    )


# Power-law scenarios stress the hub tail (MEGA's degree-aware bit
# allocation); community scenarios stress partition locality
# (Condense-Edge).  10k-500k nodes, all through the same SimJob path.
SCENARIO_SPECS: Dict[str, ScenarioSpec] = {}
for _size, _label in ((10_000, "10k"), (50_000, "50k"),
                      (100_000, "100k"), (500_000, "500k")):
    for _spec in (
        ScenarioSpec(name=f"powerlaw-{_label}", nodes=_size,
                     average_degree=8.0, feature_dim=256, num_classes=16,
                     feature_density=0.05, homophily=0.5, exponent=2.1),
        ScenarioSpec(name=f"community-{_label}", nodes=_size,
                     average_degree=12.0, feature_dim=256, num_classes=32,
                     feature_density=0.05, homophily=0.85, exponent=2.6,
                     max_degree=512),
    ):
        SCENARIO_SPECS[_spec.name] = _spec

for _stats in DATASETS.values():
    DATASET_REGISTRY.add(_stats.name, _paper_entry(_stats))
for _spec in SCENARIO_SPECS.values():
    DATASET_REGISTRY.add(_spec.name, scenario_entry(_spec))
