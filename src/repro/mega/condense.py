"""Condense-Edge scheduling strategy (Sec. V-E, Algorithm 1, Fig. 12/13).

Two implementations are provided and tested against each other:

- :class:`CondenseUnit` — a faithful step-by-step simulation of
  Algorithm 1: eID FIFOs holding each subgraph's sparse-connection
  source ids in ascending order, head-compare against every newly
  combined node, Sparse Buffer pointer bookkeeping;
- :func:`sparse_connection_sources` — the vectorized equivalent (per
  subgraph, the ascending unique cross sources): nodes finish
  combination in ascending id order and each eID FIFO is ascending, so
  subgraph ``p``'s reordered Sparse Buffer region holds exactly these
  sources in this order.

Plus trace-level DRAM access counters that the analytical traffic model
in :mod:`repro.sim.locality` is validated against.  The performance
model reads only :func:`choose_num_parts` from here; its aggregation
traffic comes from that analytical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.partition import partition_graph
from ..graphs.sparse_utils import coo_view, cross_edge_mask

__all__ = [
    "CondenseUnit",
    "sparse_connection_sources",
    "count_cross_accesses",
    "choose_num_parts",
]


def choose_num_parts(num_nodes: int, out_dim: int, aggregation_buffer_bytes: float,
                     psum_bits: int = 16) -> int:
    """Subgraph count so one subgraph's partial sums fit the buffer."""
    bytes_per_node = out_dim * psum_bits / 8.0
    nodes_per_part = max(int(aggregation_buffer_bytes / bytes_per_node), 1)
    return max(int(math.ceil(num_nodes / nodes_per_part)), 1)


def sparse_connection_sources(adjacency: sp.csr_matrix, parts: np.ndarray) -> Dict[int, np.ndarray]:
    """Per subgraph: ascending unique source ids of its sparse connections."""
    coo = coo_view(adjacency)
    cross = cross_edge_mask(adjacency, parts)
    dst_part = parts[coo.row[cross]]
    src = coo.col[cross]
    num_parts = int(parts.max()) + 1 if len(parts) else 0
    out: Dict[int, np.ndarray] = {p: np.zeros(0, dtype=np.int64)
                                  for p in range(num_parts)}
    if len(src):
        # One global sort over (part, source) replaces the per-part
        # boolean scan + unique: dedup adjacent pairs, then split.
        order = np.lexsort((src, dst_part))
        p_sorted = dst_part[order]
        s_sorted = src[order]
        keep = np.ones(len(s_sorted), dtype=bool)
        keep[1:] = (p_sorted[1:] != p_sorted[:-1]) | (s_sorted[1:] != s_sorted[:-1])
        p_kept = p_sorted[keep]
        s_kept = s_sorted[keep].astype(np.int64)
        counts = np.bincount(p_kept, minlength=num_parts)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for p in range(num_parts):
            out[p] = s_kept[bounds[p]:bounds[p + 1]]
    return out


@dataclass
class CondenseUnit:
    """Step-by-step simulation of Algorithm 1.

    ``eID FIFOs`` are seeded offline from the partition (as the paper
    does: "partition is performed offline, so we can obtain ... sparse
    connection IDs of each subgraph in advance").
    """

    adjacency: sp.csr_matrix
    parts: np.ndarray

    def __post_init__(self) -> None:
        self.num_parts = int(self.parts.max()) + 1 if len(self.parts) else 0
        sources = sparse_connection_sources(self.adjacency, self.parts)
        # eID FIFOs in ascending order (line 1 of Algorithm 1), stored as
        # immutable arrays plus a consumed-prefix pointer each — popping
        # a head is a pointer bump, not an O(n) list shift.
        self._eid_arrays: List[np.ndarray] = [sources[p]
                                              for p in range(self.num_parts)]
        self._eid_ptrs: List[int] = [0] * self.num_parts
        # Sparse Buffer layout: per subgraph, node ids in storage order.
        self.sparse_buffer: Dict[int, List[int]] = {p: [] for p in range(self.num_parts)}
        self.address_list: List[int] = [0] * self.num_parts
        self.matches = 0
        self.comparisons = 0

    def on_node_combined(self, node_id: int) -> List[int]:
        """Process one newly combined node (lines 6-17); returns the
        subgraphs whose Sparse Buffer region received the node."""
        stored_in: List[int] = []
        for sub_id in range(self.num_parts):
            eids, ptr = self._eid_arrays[sub_id], self._eid_ptrs[sub_id]
            self.comparisons += 1
            if ptr < len(eids) and eids[ptr] == node_id:
                self._eid_ptrs[sub_id] = ptr + 1  # line 9: invalidate matched eID
                self.sparse_buffer[sub_id].append(node_id)
                self.address_list[sub_id] += 1    # line 11: bump pointer
                self.matches += 1
                stored_in.append(sub_id)
        return stored_in

    def run(self) -> Dict[int, List[int]]:
        """Stream every node in combination (ascending id) order.

        Because nodes are combined in ascending id order and every eID
        FIFO is ascending over valid node ids, each FIFO drains
        completely and its pending entries land in the Sparse Buffer in
        FIFO order.  That closed form makes the full stream O(N + E)
        instead of the head-compare loop's O(N * P); the per-step
        hardware counters (one head compare per subgraph per combined
        node) are accounted in closed form to match.
        """
        for p in range(self.num_parts):
            pending = self._eid_arrays[p][self._eid_ptrs[p]:]
            self.sparse_buffer[p].extend(pending.tolist())
            self._eid_ptrs[p] += len(pending)
            self.address_list[p] += len(pending)
            self.matches += len(pending)
        self.comparisons += self.adjacency.shape[0] * self.num_parts
        return self.sparse_buffer

    def remaining_eids(self) -> int:
        return sum(len(eids) - ptr
                   for eids, ptr in zip(self._eid_arrays, self._eid_ptrs))


def count_cross_accesses(
    adjacency: sp.csr_matrix,
    parts: np.ndarray,
    feature_bytes: float,
    transaction_bytes: int = 128,
    condensed: bool = True,
) -> int:
    """Trace-level DRAM transaction count for sparse-connection reads.

    ``condensed=False`` walks every cross edge and charges the
    transactions of one isolated feature read (GROW's behavior);
    ``condensed=True`` reads each subgraph's contiguous Sparse Buffer
    region once.
    """
    cross = cross_edge_mask(adjacency, parts)
    if not condensed:
        per_read = max(int(math.ceil(feature_bytes / transaction_bytes)), 1)
        return int(cross.sum()) * per_read
    layout = sparse_connection_sources(adjacency, parts)
    total = 0
    for sources in layout.values():
        if len(sources):
            total += int(math.ceil(len(sources) * feature_bytes / transaction_bytes))
    return total
