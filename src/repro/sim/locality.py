"""Aggregation-phase DRAM locality models (Sec. III-B, V-E, Fig. 6/12).

During aggregation every destination node needs the combined features of
its sources.  How much DRAM traffic that causes depends on the
scheduling strategy:

- ``naive``: no partition — destinations are processed in contiguous
  id tiles sized by the aggregation buffer; every edge whose source is
  not inside the currently-resident tile pays a granularity-padded read.
- ``metis``: the graph is partitioned (METIS-style); edges internal to a
  subgraph enjoy full reuse, but each *sparse connection* (inter-
  subgraph edge) pays an irregular read, half-wasted when the feature
  vector is smaller than a DRAM transaction — GROW/GCoD's pitfall.
- ``gcod``: like ``metis`` but the sparse-region edges are deduplicated
  per (subgraph, source) as GCoD's dedicated sparse engine does.
- ``condense``: the paper's Condense-Edge — sources needed by a
  subgraph were previously reordered into a contiguous region, so they
  are read once each, back to back, at full transaction utilization
  (plus the one-time write traffic of the reordering itself).

The expensive part of the model depends only on a graph and how it is
tiled.  :func:`locality_structure` is the one place that tiles a graph
— by the content-cached partition, or in contiguous id tiles — and it
builds each (graph, tiling) :class:`LocalityStructure` once per
process, so every layer, job and batch that tiles one graph the same
way shares it.

The buffer capacities the per-job arithmetic reads (the combination
buffer and the Sparse Buffer) have no defaults here: each caller passes
them from its own config (``MegaConfig`` for MEGA and the locality
study, ``BaselineConfig`` for a baseline, whose Sparse Buffer is 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.sparse_utils import coo_view, cross_edge_mask
from ..perf.cache import LOCALITY_CACHE, cached_partition, graph_fingerprint
from .dram import DramModel, DramTraffic

__all__ = ["AggregationTraffic", "LocalityStructure", "aggregation_locality_traffic",
           "locality_structure", "traffic_from_structure", "cross_subgraph_pairs"]

STRATEGIES = ("naive", "metis", "gcod", "condense")


@dataclass
class AggregationTraffic:
    """DRAM traffic of one layer's aggregation phase."""

    internal: DramTraffic
    cross: DramTraffic
    reorder_writes: DramTraffic

    @property
    def total(self) -> DramTraffic:
        return self.internal + self.cross + self.reorder_writes


def cross_subgraph_pairs(adjacency: sp.csr_matrix, parts: np.ndarray,
                         cross: Optional[np.ndarray] = None):
    """Unique (destination-subgraph, source) pairs over sparse connections.

    Returns ``(num_unique_pairs, num_cross_edges, unique_sources)``.
    ``cross`` lets callers that already computed the cross-edge mask
    pass it in instead of recomputing the O(E) predicate.
    """
    coo = coo_view(adjacency)
    if cross is None:
        cross = cross_edge_mask(adjacency, parts)
    dst_part = parts[coo.row[cross]].astype(np.int64)
    src = coo.col[cross].astype(np.int64)
    if len(src) == 0:
        return 0, 0, 0
    keys = dst_part * adjacency.shape[0] + src
    unique_pairs = len(np.unique(keys))
    unique_sources = len(np.unique(src))
    return unique_pairs, int(cross.sum()), unique_sources


def _contiguous_tiles(num_nodes: int, tile_nodes: int) -> np.ndarray:
    tile_nodes = max(tile_nodes, 1)
    return (np.arange(num_nodes) // tile_nodes).astype(np.int64)


class LocalityStructure:
    """Strategy-independent structural statistics of (adjacency, tiles).

    Everything expensive about the locality model — the O(E) cross-edge
    predicate and the O(E log E) unique-pair dedups — depends only on
    the adjacency and the tile assignment, not on the per-job feature
    size, scheduling strategy, or buffer geometry.  Splitting it out
    lets :func:`locality_structure` compute it once per (graph, tiling)
    and share it across every layer and job; ``unique_pairs`` is lazy
    so a tiling only the naive/metis strategies read never pays it.
    """

    def __init__(self, adjacency: sp.csr_matrix, tiles: np.ndarray) -> None:
        self._adjacency = adjacency
        self._tiles = tiles
        self.num_nodes = adjacency.shape[0]
        coo = coo_view(adjacency)
        cross_mask = cross_edge_mask(adjacency, tiles)
        self._cross_mask = cross_mask
        self.num_cross_edges = int(cross_mask.sum())
        dst_part = tiles[coo.row[~cross_mask]]
        src_internal = coo.col[~cross_mask]
        if len(src_internal):
            keys = dst_part.astype(np.int64) * self.num_nodes + src_internal
            self.internal_unique = len(np.unique(keys))
        else:
            self.internal_unique = 0
        part_sizes = np.bincount(tiles)
        self.mean_part_size = float(part_sizes.mean()) if len(part_sizes) else 0.0
        self._unique_pairs: Optional[int] = None

    @property
    def unique_pairs(self) -> int:
        """Unique (destination-subgraph, source) sparse-connection pairs."""
        if self._unique_pairs is None:
            pairs, _, _ = cross_subgraph_pairs(self._adjacency, self._tiles,
                                               cross=self._cross_mask)
            self._unique_pairs = pairs
        return self._unique_pairs


def locality_structure(
    adjacency: sp.csr_matrix,
    num_parts: Optional[int] = None,
    buffer_nodes: Optional[int] = None,
) -> LocalityStructure:
    """The :class:`LocalityStructure` of ``adjacency`` under one tiling.

    An integer ``num_parts`` tiles by the content-cached partition
    (:func:`~repro.perf.cache.cached_partition`; 1 gives one tile).  ``None`` tiles contiguously in
    id tiles of ``buffer_nodes`` (the whole graph when that is
    ``None``).  Each structure is built once per process: it is
    memoized in ``repro.perf.cache``'s ``locality`` cache under the
    adjacency's content fingerprint and the tiling, so an equal-content
    adjacency shares it too.
    """
    n = adjacency.shape[0]
    if num_parts is None:
        tiling = ("contiguous", buffer_nodes or n)
    else:
        tiling = ("parts", num_parts)

    def build() -> LocalityStructure:
        if num_parts is None:
            tiles = _contiguous_tiles(n, buffer_nodes or n)
        else:
            tiles = cached_partition(adjacency, num_parts).parts
        return LocalityStructure(adjacency, tiles)

    return LOCALITY_CACHE.get_or_compute(
        (graph_fingerprint(adjacency), tiling), build)


def traffic_from_structure(
    structure: LocalityStructure,
    feature_bytes_per_node: float,
    dram: DramModel,
    strategy: str = "condense",
    *,
    combination_buffer_bytes: float,
    sparse_buffer_bytes: float,
) -> AggregationTraffic:
    """Per-job scalar arithmetic of the locality model.

    Consumes a shared :class:`LocalityStructure`; the
    strategy/feature/buffer-dependent part is a handful of scalar ops.
    The buffer sizes are the caller's (see
    :func:`aggregation_locality_traffic`).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    n = structure.num_nodes
    feat = float(feature_bytes_per_node)

    # Internal traffic: combined features are written once, and each
    # subgraph re-reads its internal unique sources only when they no
    # longer fit in the combination buffer.
    avg_part_bytes = structure.mean_part_size * feat
    write_all = dram.sequential_access(n * feat, purpose="agg_feature_write")
    if avg_part_bytes > combination_buffer_bytes:
        internal_reads = dram.sequential_access(structure.internal_unique * feat,
                                                purpose="agg_internal_read")
    else:
        internal_reads = DramTraffic()
    internal = write_all + internal_reads

    reorder_writes = DramTraffic()
    if strategy == "naive":
        cross = dram.random_access(structure.num_cross_edges, feat,
                                   purpose="agg_cross_read")
    elif strategy == "metis":
        # GROW: sparse connections stream per edge at transaction
        # granularity — no reuse across edges of the same source.
        cross = dram.random_access(structure.num_cross_edges, feat,
                                   purpose="agg_cross_read")
    elif strategy == "gcod":
        cross = dram.random_access(structure.unique_pairs, feat,
                                   purpose="agg_cross_read")
    else:  # condense
        useful = structure.unique_pairs * feat
        # The Condense Unit wrote these features contiguously per
        # subgraph while the first subgraph aggregated; reading them
        # back is fully sequential.  Regions that fit in the Sparse
        # Buffer never leave the chip — only the overflow is written
        # back to DRAM (Algorithm 1, line 16).
        spill = max(0.0, useful - sparse_buffer_bytes)
        cross = dram.sequential_access(spill, purpose="agg_cross_read")
        reorder_writes = dram.sequential_access(spill, purpose="condense_write")
    return AggregationTraffic(internal=internal, cross=cross,
                              reorder_writes=reorder_writes)


def aggregation_locality_traffic(
    adjacency: sp.csr_matrix,
    feature_bytes_per_node: float,
    dram: DramModel,
    strategy: str = "condense",
    num_parts: Optional[int] = None,
    buffer_nodes: Optional[int] = None,
    *,
    combination_buffer_bytes: float,
    sparse_buffer_bytes: float,
) -> AggregationTraffic:
    """Model the aggregation phase's feature-read traffic.

    Parameters
    ----------
    feature_bytes_per_node:
        Size of one node's *combined* feature vector in DRAM (already
        quantized/compressed as the accelerator stores it).
    num_parts:
        Subgraph count the partitioned strategies tile with (see
        :func:`locality_structure`); ``naive`` always tiles
        contiguously by ``buffer_nodes``.
    buffer_nodes:
        Aggregation-buffer capacity in nodes (partial-sum residency).
    combination_buffer_bytes:
        Combination-buffer capacity: a subgraph whose combined features
        outgrow it re-reads its internal sources from DRAM.
    sparse_buffer_bytes:
        Sparse Buffer capacity: Condense-Edge spills only the
        reordered features beyond it to DRAM (0 for a design without
        one; the other strategies never read it).
    """
    structure = locality_structure(
        adjacency, num_parts=None if strategy == "naive" else num_parts,
        buffer_nodes=buffer_nodes)
    return traffic_from_structure(
        structure, feature_bytes_per_node, dram, strategy=strategy,
        combination_buffer_bytes=combination_buffer_bytes,
        sparse_buffer_bytes=sparse_buffer_bytes)
