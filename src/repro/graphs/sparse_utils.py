"""Shared sparse-matrix helpers for the partition/condense/locality paths.

Every consumer of the "sparse connection" concept (Sec. III-B) used to
re-derive the same two artifacts per call — a COO view of the adjacency
and the boolean mask of inter-part edges.  Both live here now:

- :func:`coo_view` returns a memoized COO view of a sparse matrix,
  keyed on object identity and evicted when the matrix is collected.
  Adjacency matrices in this codebase are immutable after
  :class:`~repro.graphs.Graph` construction, which is what makes the
  identity keying sound — do not use it on matrices you mutate in place.
- :func:`cross_edge_mask` is the canonical ``parts[row] != parts[col]``
  cross-edge (edge-cut) predicate over that view.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["coo_view", "cross_edge_mask", "sample_adjacency"]

# id(matrix) -> (weakref to the matrix, (shape, nnz), its COO view).
# The weakref both guards against id reuse after collection and (via its
# callback) evicts the entry so the cache cannot grow past the set of
# live matrices.  The (shape, nnz) stamp is a cheap staleness guard: it
# invalidates the entry on the common in-place mutations (inserting or
# removing entries), though a same-nnz structural rewrite still requires
# treating the matrix as immutable.
_COO_CACHE: Dict[int, Tuple[weakref.ref, Tuple, sp.coo_matrix]] = {}


def coo_view(matrix: sp.spmatrix) -> sp.coo_matrix:
    """Memoized ``matrix.tocoo()`` for matrices treated as immutable."""
    key = id(matrix)
    stamp = (matrix.shape, matrix.nnz)
    entry = _COO_CACHE.get(key)
    if entry is not None and entry[0]() is matrix and entry[1] == stamp:
        return entry[2]
    coo = matrix.tocoo()
    try:
        ref = weakref.ref(matrix, lambda _ref, _key=key: _COO_CACHE.pop(_key, None))
    except TypeError:  # matrix type does not support weak references
        return coo
    _COO_CACHE[key] = (ref, stamp, coo)
    return coo


def cross_edge_mask(adjacency: sp.spmatrix, parts: np.ndarray) -> np.ndarray:
    """Boolean mask (aligned with :func:`coo_view`'s entries) of edges
    whose endpoints lie in different parts."""
    coo = coo_view(adjacency)
    parts = np.asarray(parts)
    return parts[coo.row] != parts[coo.col]


def sample_adjacency(adjacency: sp.spmatrix, max_neighbors: int,
                     rng: Optional[np.random.Generator] = None) -> sp.csr_matrix:
    """Keep at most ``max_neighbors`` uniformly chosen entries per row.

    Fully vectorized: rows within the cap are block-copied; only the
    edges of oversized rows get random keys, ordered with one flat
    argsort on ``row + key`` (the integer row id dominates the
    fractional key, so a single float sort yields a per-row random
    order), and the surviving entries are scattered straight into the
    new CSR arrays.
    """
    rng = rng or np.random.default_rng(0)
    adj = adjacency.tocsr()
    indptr, indices = adj.indptr, adj.indices
    num_rows = adj.shape[0]
    degrees = np.diff(indptr)
    over = degrees > max_neighbors

    new_degrees = np.minimum(degrees, max_neighbors)
    new_indptr = np.concatenate([[0], np.cumsum(new_degrees)])
    if not over.any():
        return sp.csr_matrix(
            (np.ones(len(indices), dtype=np.float32), indices.copy(),
             indptr.copy()), shape=adj.shape)

    row_of = np.repeat(np.arange(num_rows), degrees)
    new_indices = np.empty(new_indptr[-1], dtype=indices.dtype)
    # How far each row's entries move left in the compacted layout.
    shift = indptr[:-1] - new_indptr[:-1]

    big_edges = np.flatnonzero(over[row_of])
    small_edges = np.flatnonzero(~over[row_of])
    new_indices[small_edges - shift[row_of[small_edges]]] = indices[small_edges]

    big_rows = row_of[big_edges]
    # Keys live in [0, 0.5) so row + key can never round up to the next
    # integer row, keeping the combined sort strictly row-major.
    order = np.argsort(big_rows + rng.random(len(big_edges)) * 0.5)
    big_deg = degrees[over]
    rank = np.arange(len(big_edges)) - np.repeat(
        np.concatenate([[0], np.cumsum(big_deg)])[:-1], big_deg)
    sel = rank < max_neighbors
    kept = big_edges[order[sel]]
    new_indices[new_indptr[big_rows[sel]] + rank[sel]] = indices[kept]

    sampled = sp.csr_matrix(
        (np.ones(len(new_indices), dtype=np.float32), new_indices, new_indptr),
        shape=adj.shape)
    sampled.sort_indices()
    return sampled
