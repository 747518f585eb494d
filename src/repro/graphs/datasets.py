"""The registered datasets: one recipe type, one loader.

Real downloads are unavailable offline, so every registered dataset is
a :class:`~repro.registry.DatasetEntry` recipe — node count, degree,
feature length and density, classes, homophily, power-law exponent —
from which :func:`load_dataset` generates a synthetic graph at one of
three scales:

- ``scale="train"``: a trainable graph with dense features at the
  recipe's train-scale sizes (by default ``min(nodes, 4096)`` nodes and
  ``min(feature_dim, 512)`` features), keeping the per-node non-zero
  count of the full feature length;
- ``scale="sim"``: the accelerator-simulation graph at ``nodes`` and
  ``average_degree``, carrying thin placeholder features; the full
  feature length is a statistic (:func:`sim_feature_stats`);
- ``scale="tiny"``: 256 nodes and 64 features, for tests.

The five paper stand-ins take their sizes from Table II
(:data:`repro.paper_data.TABLE_II`).  Cora, CiteSeer and PubMed train
and simulate at paper scale, so their train and sim graphs share one
adjacency; NELL trains at 4,096 nodes and 1,024 features; Reddit
simulates at 23,297 nodes (a tenth) with average degree 100 so scipy
holds it, and trains at 2,330 nodes with degree 30.  The scale-sweep
scenarios (power-law and community graphs of 10k-500k nodes) are
recipes of the same type, and so is any dataset a user registers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from ..paper_data import TABLE_II
from ..registry import DATASETS, DatasetEntry, get_dataset

if TYPE_CHECKING:
    from .graph import Graph

__all__ = ["load_dataset", "sim_feature_stats"]


def load_dataset(name: Union[str, DatasetEntry], scale: str = "train",
                 seed: int = 0) -> Graph:
    """Build the synthetic graph of dataset ``name`` at ``scale``.

    Parameters
    ----------
    name:
        A registered dataset name (``cora`` … ``reddit``, a scale
        scenario such as ``powerlaw-10k``), or a
        :class:`~repro.registry.DatasetEntry` itself (what
        :meth:`DatasetEntry.load` passes, so a recipe loads whether or
        not it is registered).
    scale:
        ``"train"`` for a dense-feature trainable graph, ``"sim"`` for
        the (larger) accelerator-simulation graph, or ``"tiny"`` for a
        fast test-sized graph preserving the statistics' shape.
    """
    from .generators import synthetic_graph

    entry = _entry(name)
    if scale == "train":
        nodes = entry.train_nodes or min(entry.nodes, 4096)
        fdim = entry.train_feature_dim or min(entry.feature_dim, 512)
        degree = entry.train_average_degree or entry.average_degree
        # Keep the per-node non-zero count at the reduced feature length.
        density = float(np.clip(
            entry.feature_density * entry.feature_dim / fdim, 0.004, 0.9))
    elif scale == "sim":
        nodes, degree = entry.nodes, entry.average_degree
        fdim = min(entry.feature_dim, 512)
        density = max(entry.feature_density, 4.0 / fdim)
    elif scale == "tiny":
        nodes, fdim = 256, 64
        degree = min(entry.train_average_degree or entry.average_degree, 8.0)
        density = max(entry.feature_density, 0.05)
    else:
        raise ValueError(f"unknown scale {scale!r}; use 'train', 'sim' or 'tiny'")

    return synthetic_graph(
        num_nodes=nodes,
        num_edges=int(round(nodes * degree)),
        feature_dim=fdim,
        num_classes=entry.num_classes,
        feature_density=density,
        homophily=entry.homophily,
        exponent=entry.exponent,
        binary_features=entry.binary_features,
        max_degree=entry.max_degree,
        train_fraction=0.1 if nodes < 50000 else 0.05,
        name=f"{entry.name}-{scale}",
        seed=seed + _name_seed(entry.name),
    )


def sim_feature_stats(
    name: Union[str, DatasetEntry], rng: Optional[np.random.Generator] = None
) -> Tuple[int, np.ndarray]:
    """Full feature length + per-node non-zero counts for ``name`` at
    sim scale (``name`` as in :func:`load_dataset`).

    Used by the storage-format and DRAM models at simulation scale where
    dense feature matrices (e.g. NELL's 65755 x 61278) cannot be
    materialized.  Non-zero counts follow a log-normal spread around the
    dataset's mean density, matching the diverse sparsity the paper's
    Fig. 4/5 highlights.
    """
    entry = _entry(name)
    rng = rng or np.random.default_rng(_name_seed(entry.name))
    mean_nnz = max(entry.feature_density * entry.feature_dim, 1.0)
    spread = rng.lognormal(mean=0.0, sigma=0.6, size=entry.nodes)
    nnz = np.clip(np.round(mean_nnz * spread), 1,
                  entry.feature_dim).astype(np.int64)
    return entry.feature_dim, nnz


def _entry(name: Union[str, DatasetEntry]) -> DatasetEntry:
    return name if isinstance(name, DatasetEntry) else get_dataset(name)


def _name_seed(name: str) -> int:
    return sum(ord(c) for c in name)


# ----------------------------------------------------------------------
# Built-in recipes: the five paper graphs + the scale-sweep scenarios
# ----------------------------------------------------------------------

# What a paper stand-in adds to Table II: mean input-feature density,
# label homophily, binary (bag-of-words) features, power-law exponent.
_PAPER_FEATURES = {
    "cora": (0.0127, 0.81, True, 2.2),
    "citeseer": (0.0085, 0.74, True, 2.3),
    "pubmed": (0.10, 0.80, False, 2.2),
    "nell": (0.00013, 0.60, True, 2.4),
    "reddit": (0.516, 0.70, False, 1.9),
}
# Where a stand-in leaves paper scale (the rest train and simulate at
# Table II's sizes): full-batch numpy training and scipy must hold it.
_PAPER_RESCALED = {
    "nell": dict(train_nodes=4096, train_feature_dim=1024),
    "reddit": dict(nodes=23_297, average_degree=100.0, train_nodes=2330,
                   train_average_degree=30.0),
}

for _name, _table in TABLE_II.items():
    _density, _homophily, _binary, _exponent = _PAPER_FEATURES[_name]
    _sizes = dict(nodes=_table["nodes"], average_degree=_table["average_degree"],
                  train_nodes=_table["nodes"],
                  train_feature_dim=_table["feature_dim"])
    _sizes.update(_PAPER_RESCALED.get(_name, {}))
    DATASETS.add(_name, DatasetEntry(
        name=_name, feature_dim=_table["feature_dim"],
        feature_density=_density, num_classes=_table["num_classes"],
        homophily=_homophily, exponent=_exponent, binary_features=_binary,
        description=(f"paper dataset (Table II): {_table['nodes']} nodes, "
                     f"{_table['edges']} edges, "
                     f"{_table['feature_dim']}-d features"),
        **_sizes))

# Power-law scenarios stress the hub tail (MEGA's degree-aware bit
# allocation); community scenarios stress partition locality
# (Condense-Edge).  10k-500k nodes, all through the same SimJob path.
for _size, _label in ((10_000, "10k"), (50_000, "50k"),
                      (100_000, "100k"), (500_000, "500k")):
    for _recipe in (
        dict(name=f"powerlaw-{_label}", average_degree=8.0, num_classes=16,
             homophily=0.5, exponent=2.1),
        dict(name=f"community-{_label}", average_degree=12.0,
             num_classes=32, homophily=0.85, exponent=2.6, max_degree=512),
    ):
        DATASETS.add(_recipe["name"], DatasetEntry(
            nodes=_size, feature_dim=256, feature_density=0.05,
            description=(f"synthetic scenario: {_size} nodes, avg degree "
                         f"{_recipe['average_degree']:g}, exponent "
                         f"{_recipe['exponent']:g}, homophily "
                         f"{_recipe['homophily']:g}"),
            **_recipe))
