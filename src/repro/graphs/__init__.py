"""Graph substrate: containers, synthetic datasets, partitioning, statistics.

Submodules and the names below load on first attribute access, so
``import repro.graphs.datasets`` does not pull in the partitioner or
the sparse stack.  :func:`load_dataset` builds any registered dataset
(:data:`repro.registry.DATASETS`, whose built-in recipes
:mod:`~repro.graphs.datasets` registers) at a scale.
"""

from .. import _lazy_attributes

# Re-exported name -> the submodule defining it.
_EXPORTS = {
    "Graph": "graph",
    "load_dataset": "datasets",
    "sim_feature_stats": "datasets",
    "synthetic_graph": "generators",
    "community_graph": "generators",
    "power_law_degrees": "generators",
    "sparse_features": "generators",
    "partition_graph": "partition",
    "PartitionResult": "partition",
    "edge_cut": "partition",
    "coo_view": "sparse_utils",
    "cross_edge_mask": "sparse_utils",
    "sample_adjacency": "sparse_utils",
}
_SUBMODULES = ("datasets", "generators", "graph", "partition", "sparse_utils",
               "statistics")

__all__ = [*_EXPORTS, *_SUBMODULES]
__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS, _SUBMODULES)
