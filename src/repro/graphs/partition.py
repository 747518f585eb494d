"""Multilevel graph partitioner (METIS-style) used by Condense-Edge.

The paper partitions graphs with METIS [28] before aggregation (as GROW
and GCoD do).  This module implements the same multilevel recipe from
scratch, fully vectorized so it scales to the 100k-500k-node simulation
scenarios:

1. **Coarsening** — repeated heavy-edge matching (mutual-best pairing)
   collapses the graph until it is small; the coarse graph is built by
   relabeling the COO arrays directly (one sorted CSR construction, no
   projector matmuls).
2. **Initial partitioning** — frontier-based balanced region growing:
   every region grows simultaneously, absorbing whole batched BFS
   levels at a time (a prefix of its frontier chosen by cumulative
   weight), so growth costs O(E) numpy work instead of one Python
   iteration per visited neighbor.  Seeds sit at the block centers of
   the node ordering, so orderings that carry locality (which the seed
   implementation exploited through a contiguous-blocks competitor
   partition) are recovered by the growth itself.
3. **Uncoarsening + refinement** — partitions are projected back and
   boundary rounds move nodes with positive edge-cut gain: per-node
   move gains for *all* boundary nodes are computed at once from a
   sparse node-to-part link matrix, a conflict filter keeps only
   non-adjacent movers (so every applied gain is exact), and the moves
   are applied in vectorized rounds under the balance constraint.
4. **Rebalancing** — a final vectorized pass on the finest level
   guarantees the returned partition respects ``balance_factor``
   (the seed implementation only avoided *worsening* balance).

The pre-vectorization implementation (per-neighbor growth loop,
per-mover refinement loop) is preserved verbatim in
:mod:`repro.perf.reference` as ``partition_graph_reference`` and friends;
``tests/test_partition.py`` asserts seed determinism, balance, and
edge-cut parity against it, and ``python -m repro bench`` times the two
side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .sparse_utils import cross_edge_mask

__all__ = [
    "partition_graph",
    "PartitionResult",
    "edge_cut",
]

# Vectorized refinement applies conflict-free move batches in rounds;
# each configured "pass" is worth this many rounds (a round only moves
# an independent subset of the movers one sequential pass would apply).
_ROUNDS_PER_PASS = 4


@dataclass
class PartitionResult:
    """Outcome of partitioning: assignment plus quality metrics."""

    parts: np.ndarray
    num_parts: int
    edge_cut: int
    balance: float


def partition_graph(
    adjacency: sp.spmatrix,
    num_parts: int,
    seed: int = 0,
    balance_factor: float = 1.1,
    refine_passes: int = 2,
) -> PartitionResult:
    """Partition a graph into ``num_parts`` balanced parts.

    Parameters
    ----------
    adjacency:
        Square sparse matrix; treated as undirected (symmetrized) for
        partitioning, which is how METIS consumes directed graphs.
    num_parts:
        Number of parts; 1 returns the trivial partition.
    balance_factor:
        Maximum allowed ratio of part weight to the ideal weight.  The
        returned partition satisfies it (up to the integer-granularity
        floor of ``ceil(n / num_parts)`` nodes per part).
    """
    n = adjacency.shape[0]
    if num_parts <= 1 or n <= num_parts:
        parts = np.zeros(n, dtype=np.int64) if num_parts <= 1 else np.arange(n) % num_parts
        cut = edge_cut(adjacency, parts)
        return PartitionResult(parts, max(num_parts, 1), cut, 1.0)

    rng = np.random.default_rng(seed)
    sym = _symmetrize(adjacency)
    # Coarsening consumes the RNG level by level and stops at this size,
    # so the hierarchy for any part count is a prefix of the deepest one.
    coarsen_to = max(num_parts * 24, 128)

    # ---- Coarsening phase -------------------------------------------------
    graphs: List[sp.csr_matrix] = [sym]
    weights: List[np.ndarray] = [np.ones(n, dtype=np.float64)]
    mappings: List[np.ndarray] = []
    while graphs[-1].shape[0] > coarsen_to:
        cmap, nc = _match(graphs[-1], rng)
        if nc >= graphs[-1].shape[0] * 0.95:
            break  # matching stalled (e.g. star graphs); stop coarsening
        coarse, cweights = _coarsen_graph(graphs[-1], weights[-1], cmap, nc)
        mappings.append(cmap)
        graphs.append(coarse)
        weights.append(cweights)

    # ---- Initial partition on the coarsest graph --------------------------
    parts = _region_growing(graphs[-1], weights[-1], num_parts, rng)

    # ---- Uncoarsen + refine ------------------------------------------------
    # Refinement rounds run to convergence (capped) at every level, so
    # the finest level is refined exactly once.
    for level in range(len(mappings) - 1, -1, -1):
        parts = parts[mappings[level]]
        parts = _refine(graphs[level], weights[level], parts, num_parts,
                        balance_factor, refine_passes)
    if not mappings:
        parts = _refine(graphs[0], weights[0], parts, num_parts,
                        balance_factor, refine_passes)

    # Multilevel result competes against the refined trivial
    # contiguous-blocks partition (real graph orderings often carry
    # locality); the better candidate wins, so partitioning never loses
    # to no partitioning.  Each candidate's cut is computed exactly once.
    blocks = np.minimum(np.arange(n) * num_parts // n, num_parts - 1)
    blocks = _refine(graphs[0], weights[0], blocks.astype(np.int64), num_parts,
                     balance_factor, refine_passes)
    cut_grown = edge_cut(adjacency, parts)
    cut_blocks = edge_cut(adjacency, blocks)
    if cut_blocks < cut_grown:
        parts, cut = blocks, cut_blocks
    else:
        cut = cut_grown

    rebalanced = _rebalance(sym, parts, num_parts, balance_factor)
    if rebalanced is not parts:
        parts = rebalanced
        cut = edge_cut(adjacency, parts)

    sizes = np.bincount(parts, minlength=num_parts).astype(float)
    balance = float(sizes.max() / (n / num_parts))
    return PartitionResult(parts.astype(np.int64), num_parts, cut, balance)


def edge_cut(adjacency: sp.spmatrix, parts: np.ndarray) -> int:
    """Number of edges whose endpoints lie in different parts."""
    return int(np.count_nonzero(cross_edge_mask(adjacency, parts)))


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _symmetrize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``A + A.T`` with the diagonal removed.

    The diagonal is stripped by filtering the CSR arrays directly —
    ``setdiag(0)`` + ``eliminate_zeros()`` cost more than the sparse add
    itself on the 500k-node scenario graphs.
    """
    a = adjacency.tocsr().astype(np.float32)
    sym = (a + a.T).tocsr()
    n = sym.shape[0]
    row_of = np.repeat(np.arange(n), np.diff(sym.indptr))
    diagonal = sym.indices == row_of
    if diagonal.any():
        keep = ~diagonal
        indptr = np.zeros(n + 1, dtype=sym.indptr.dtype)
        np.cumsum(np.bincount(row_of[keep], minlength=n), out=indptr[1:])
        sym = sp.csr_matrix((sym.data[keep], sym.indices[keep], indptr),
                            shape=sym.shape)
    return sym


def _row_argmax(adj: sp.csr_matrix, noise: np.ndarray) -> np.ndarray:
    """Heaviest neighbor per row (with random tie-breaking); -1 if none."""
    n = adj.shape[0]
    best = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    nnz_rows = np.nonzero(np.diff(indptr) > 0)[0]
    if len(nnz_rows) == 0:
        return best
    jittered = data + noise[indices] * 1e-9
    # Per-row max via reduceat, then locate the first entry achieving it.
    starts = indptr[nnz_rows]
    maxima = np.maximum.reduceat(jittered, starts)
    # Build a row id per nnz to compare against the row max.
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    row_max = np.empty(n)
    row_max[nnz_rows] = maxima
    is_max = jittered >= row_max[row_of] - 1e-15
    # First max position per row: positions of is_max, keep first per row.
    pos = np.nonzero(is_max)[0]
    rows = row_of[pos]
    first = np.unique(rows, return_index=True)[1]
    best[rows[first]] = indices[pos[first]]
    return best


def _match(adj: sp.csr_matrix,
           rng: np.random.Generator) -> Tuple[np.ndarray, int]:
    """Heavy-edge mutual-best matching: node -> coarse id, coarse count.

    The coarse graph is only materialized by the caller once the match
    is known not to have stalled, so a stalled level costs one argmax
    instead of a full sparse rebuild.
    """
    n = adj.shape[0]
    noise = rng.random(n)
    best = _row_argmax(adj, noise)
    ids = np.arange(n)
    valid = best >= 0
    mutual = valid & (best[np.clip(best, 0, n - 1)] == ids) & (best != ids)
    partner = np.where(mutual, best, ids)
    # Canonical representative: the smaller id of each matched pair.
    rep = np.minimum(ids, partner)
    uniq, cmap = np.unique(rep, return_inverse=True)
    return cmap, len(uniq)


def _coarsen_graph(
    adj: sp.csr_matrix, node_weights: np.ndarray, cmap: np.ndarray, nc: int
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Collapse matched pairs: relabel the COO arrays and let the CSR
    construction sum duplicate edges (cheaper than two projector
    matmuls plus ``setdiag``/``eliminate_zeros``)."""
    coo = adj.tocoo()
    crow, ccol = cmap[coo.row], cmap[coo.col]
    off_diag = crow != ccol
    coarse = sp.csr_matrix(
        (coo.data[off_diag], (crow[off_diag], ccol[off_diag])), shape=(nc, nc))
    cweights = np.bincount(cmap, weights=node_weights, minlength=nc)
    return coarse, cweights


def _gather_neighbors(indptr: np.ndarray, indices: np.ndarray,
                      nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``nodes`` (CSR gather, no loop)."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.cumsum(counts)
    flat = np.arange(total) + np.repeat(indptr[nodes] - (offsets - counts),
                                        counts)
    return indices[flat]


def _region_growing(
    adj: sp.csr_matrix,
    node_weights: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Balanced frontier growth, one batched BFS level at a time.

    Each region absorbs a cumulative-weight prefix of its current BFS
    frontier (crossing the target weight by at most one node, like the
    seed's sequential growth), then expands the frontier with one CSR
    gather — sparse frontier expansion instead of a per-neighbor loop.
    """
    n = adj.shape[0]
    parts = np.full(n, -1, dtype=np.int64)
    target = node_weights.sum() / num_parts
    order = rng.permutation(n)
    indptr, indices = adj.indptr, adj.indices
    cursor = 0
    sizes = np.zeros(num_parts, dtype=np.float64)
    # Initial seeds sit at the block centers of the node ordering: when
    # the ordering carries locality (real graph orderings often do, and
    # the seed implementation exploited it through a contiguous-blocks
    # competitor partition) the grown regions recover it, and on an
    # arbitrary ordering the centers are as good as random seeds.
    f_parts = np.arange(num_parts, dtype=np.int64)
    f_nodes = (f_parts * n + n // 2) // num_parts
    reseeds = np.zeros(num_parts, dtype=np.int64)

    def next_seeds(count: int) -> np.ndarray:
        # The next ``count`` unassigned nodes in the random order,
        # scanning in chunks so the skip itself stays vectorized.
        nonlocal cursor
        seeds: List[np.ndarray] = []
        found = 0
        while cursor < n and found < count:
            chunk = order[cursor:cursor + 4096]
            open_at = np.flatnonzero(parts[chunk] < 0)[:count - found]
            if len(open_at):
                seeds.append(chunk[open_at])
                found += len(open_at)
                if open_at[-1] + 1 < len(chunk):
                    cursor += int(open_at[-1]) + 1
                    continue
            cursor += len(chunk)
        return (np.concatenate(seeds) if seeds
                else np.empty(0, dtype=np.int64))

    first_round = True
    while True:
        # Reseed every growing-but-dead region (its reachable component
        # is exhausted) from fresh unassigned nodes, all in one scan.
        # Seed counts escalate geometrically per region, so the scattered
        # tail of a graph fills in O(log target) rounds instead of one
        # seed at a time.
        hungry = sizes < target
        if not first_round:
            dead = hungry.copy()
            dead[f_parts] = False
            dead_parts = np.flatnonzero(dead)
            if dead_parts.size:
                batch = 1 << np.minimum(reseeds[dead_parts], 12)
                reseeds[dead_parts] += 1
                wanted = np.repeat(dead_parts, batch)
                seeds = next_seeds(len(wanted))
                f_nodes = np.concatenate([f_nodes, seeds])
                f_parts = np.concatenate([f_parts, wanted[:len(seeds)]])
        else:
            first_round = False
            dead_parts = f_parts  # every region is freshly seeded
        if f_nodes.size == 0:
            break
        # One node goes to one region (lowest part id wins a contested
        # node); regions absorb a weight-prefix of their frontier, every
        # region in the same vectorized round.
        claim = np.lexsort((f_parts, f_nodes))
        f_nodes, f_parts = f_nodes[claim], f_parts[claim]
        first = np.concatenate([[True], f_nodes[1:] != f_nodes[:-1]])
        f_nodes, f_parts = f_nodes[first], f_parts[first]
        # (_segmented_prefix groups by part internally; each region's
        # prefix runs in ascending node id, the frontier's order here.)
        w = node_weights[f_nodes]
        before = _segmented_prefix(f_parts, w) - w
        taken = hungry[f_parts] & (before < target - sizes[f_parts])
        taken_nodes, taken_parts = f_nodes[taken], f_parts[taken]
        if taken_nodes.size == 0 and not dead_parts.size:
            break
        parts[taken_nodes] = taken_parts
        sizes += np.bincount(taken_parts, weights=w[taken],
                             minlength=num_parts)
        # Expand the still-hungry regions' new members by one BFS level
        # (one CSR gather); nodes rejected by a full region stay open
        # for its neighbors.
        expand = sizes[taken_parts] < target
        exp_nodes, exp_parts = taken_nodes[expand], taken_parts[expand]
        counts = indptr[exp_nodes + 1] - indptr[exp_nodes]
        neighbors = _gather_neighbors(indptr, indices, exp_nodes)
        neighbor_parts = np.repeat(exp_parts, counts)
        open_neighbor = parts[neighbors] < 0
        f_nodes = neighbors[open_neighbor]
        f_parts = neighbor_parts[open_neighbor]
    parts[parts < 0] = num_parts - 1
    return parts


def _segmented_prefix(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inclusive per-group running sum of ``values`` grouped by ``keys``,
    accumulated in the caller's element order within each group."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.float64)
    grouped = np.argsort(keys, kind="stable")
    ordered_values = values[grouped]
    running = np.cumsum(ordered_values)
    k = keys[grouped]
    group_start = np.concatenate([[True], k[1:] != k[:-1]])
    starts = np.flatnonzero(group_start)
    lengths = np.diff(np.concatenate([starts, [len(k)]]))
    before_group = running[starts] - ordered_values[starts]
    segmented = running - np.repeat(before_group, lengths)
    out = np.empty_like(segmented)
    out[grouped] = segmented
    return out


def _refine(
    adj: sp.csr_matrix,
    node_weights: np.ndarray,
    parts: np.ndarray,
    num_parts: int,
    balance_factor: float,
    passes: int,
) -> np.ndarray:
    """Boundary refinement in vectorized, incrementally-updated rounds.

    The first round computes every node's link weight to each adjacent
    part with one sparse matmul and derives the best positive-gain move
    for *all* boundary nodes at once (per-row ``maximum.reduceat`` over
    the link arrays).  Each round then keeps a conflict-free subset of
    the movers (so every applied gain is exact and the cut strictly
    decreases), bounds the accepted moves per part by the balance limit
    via gain-ordered segmented prefix sums, and applies the whole batch
    at once.  Later rounds recompute gains only for the rows whose
    neighborhood changed (the accepted movers and their neighbors);
    everything else keeps its cached gain, which is still exact.  Rounds
    stop when no positive-gain move survives or after
    ``passes * _ROUNDS_PER_PASS`` rounds.
    """
    n = adj.shape[0]
    target = node_weights.sum() / num_parts
    limit = target * balance_factor
    parts = parts.copy()
    indptr, indices = adj.indptr, adj.indices
    ones = np.ones(n, dtype=np.float32)
    arange_n = np.arange(n)
    sizes = np.bincount(parts, weights=node_weights, minlength=num_parts)
    best_gain = np.zeros(n, dtype=np.float32)
    best_part = np.full(n, num_parts, dtype=np.int64)
    rows: Optional[np.ndarray] = None  # None = recompute every row
    first_gain: Optional[float] = None
    for _ in range(max(passes, 1) * _ROUNDS_PER_PASS):
        if rows is not None and rows.size == 0:
            break
        # Link weight of each (re)computed row to every adjacent part,
        # in one sparse (sub)matmul; gains fall out of its CSR arrays.
        onehot = sp.csr_matrix((ones, (arange_n, parts)),
                               shape=(n, num_parts))
        rows_idx = arange_n if rows is None else rows
        link = ((adj if rows is None else adj[rows]) @ onehot).tocsr()
        nrows = len(rows_idx)
        deg = np.diff(link.indptr)
        lrow_local = np.repeat(np.arange(nrows), deg)
        lcol, lval = link.indices, link.data
        row_parts = parts[rows_idx]
        at_current = lcol == row_parts[lrow_local]
        current = np.zeros(nrows, dtype=lval.dtype)
        current[lrow_local[at_current]] = lval[at_current]
        gains = np.where(at_current, 0.0, lval - current[lrow_local])
        # Per-row best gain via reduceat (rows with no entries keep 0).
        row_best = np.zeros(nrows, dtype=lval.dtype)
        nonempty = np.flatnonzero(deg > 0)
        if len(nonempty):
            row_best[nonempty] = np.maximum.reduceat(
                gains, link.indptr[:-1][nonempty])
        np.maximum(row_best, 0.0, out=row_best)
        best_gain[rows_idx] = row_best
        # Smallest part id among the achievers of a positive best gain
        # (the seed argmax picked the first/lowest column too).
        positive = (gains > 0) & (gains >= row_best[lrow_local])
        row_bp = np.full(nrows, num_parts, dtype=np.int64)
        np.minimum.at(row_bp, lrow_local[positive],
                      lcol[positive].astype(np.int64))
        row_bp[row_best <= 0] = num_parts
        best_part[rows_idx] = row_bp
        movers = np.flatnonzero(best_part < num_parts)
        # Movers whose destination cannot admit even them alone are
        # stale capacity-blocked entries; drop them before the sort.
        movers = movers[sizes[best_part[movers]]
                        + node_weights[movers] <= limit]
        if len(movers) == 0:
            break

        # Walk movers in (gain desc, id asc) order throughout; first
        # truncate to the moves the balance constraint could possibly
        # admit (within each destination's slack / source's remaining
        # weight), so the conflict filter only touches plausible movers.
        rank = np.lexsort((movers, -best_gain[movers]))
        ordered = movers[rank]
        w = node_weights[ordered]
        dst, src = best_part[ordered], parts[ordered]
        feasible = ((sizes[dst] + _segmented_prefix(dst, w) <= limit)
                    & (sizes[src] - _segmented_prefix(src, w) > 0))
        ordered = ordered[feasible]
        if len(ordered) == 0:
            break

        # Conflict filter: on every edge between two movers headed to
        # *different* parts, the lower (gain, -id) priority endpoint
        # stays put.  Adjacent movers sharing a destination are safe —
        # their shared edge ends up internal, so the realized cut drop
        # is at least the sum of the estimated gains — and for the
        # surviving conflicting pairs the kept mover's gain is exact.
        is_mover = np.zeros(n, dtype=bool)
        is_mover[ordered] = True
        counts = indptr[ordered + 1] - indptr[ordered]
        eu = np.repeat(ordered, counts)
        ev = _gather_neighbors(indptr, indices, ordered)
        both = is_mover[ev] & (best_part[eu] != best_part[ev])
        eu, ev = eu[both], ev[both]
        loses = (best_gain[eu] < best_gain[ev]) | (
            (best_gain[eu] == best_gain[ev]) & (eu > ev))
        blocked = np.zeros(n, dtype=bool)
        blocked[eu[loses]] = True
        ordered = ordered[~blocked[ordered]]
        if len(ordered) == 0:
            break

        # Final balance check over the survivors (their per-part running
        # weights only shrank, so any accepted subset stays feasible).
        w = node_weights[ordered]
        dst, src = best_part[ordered], parts[ordered]
        accepted = ordered[(sizes[dst] + _segmented_prefix(dst, w) <= limit)
                           & (sizes[src] - _segmented_prefix(src, w) > 0)]
        if len(accepted) == 0:
            break
        moved_w = node_weights[accepted]
        sizes += np.bincount(best_part[accepted], weights=moved_w,
                             minlength=num_parts)
        sizes -= np.bincount(parts[accepted], weights=moved_w,
                             minlength=num_parts)
        round_gain = float(best_gain[accepted].sum())
        parts[accepted] = best_part[accepted]
        # Only the accepted movers and their neighbors saw their
        # neighborhood change; everyone else's cached gain stays exact.
        rows = np.unique(np.concatenate(
            [accepted, _gather_neighbors(indptr, indices, accepted)]))
        # Diminishing returns: once a round recovers less than 10% of
        # the first round's gain, the remaining tail is noise-level.
        if first_gain is None:
            first_gain = round_gain
        elif round_gain < 0.1 * first_gain:
            break
    return parts


def _rebalance(
    sym: sp.csr_matrix,
    parts: np.ndarray,
    num_parts: int,
    balance_factor: float,
) -> np.ndarray:
    """Enforce the balance limit on the finest (unit-weight) level.

    Overweight parts shed their excess nodes into parts with spare
    capacity, preferring the moves that damage the edge cut least
    (vectorized rounds over the overloaded parts' link rows); a final
    forced pass guarantees the limit even on adversarial graphs.
    Returns ``parts`` unchanged (same object) when already balanced.
    """
    n = sym.shape[0]
    target = n / num_parts
    limit = max(int(np.floor(target * balance_factor)),
                int(np.ceil(target)))
    sizes = np.bincount(parts, minlength=num_parts)
    if sizes.max() <= limit:
        return parts
    parts = parts.copy()
    ones = np.ones(n)
    for _ in range(32):
        overloaded = sizes > limit
        if not overloaded.any():
            return parts
        nodes = np.flatnonzero(overloaded[parts])
        spare = np.maximum(limit - sizes, 0)
        onehot = sp.csr_matrix((ones, (np.arange(n), parts)),
                               shape=(n, num_parts))
        link = (sym[nodes] @ onehot).tocsr()
        lrow = np.repeat(np.arange(len(nodes)), np.diff(link.indptr))
        lcol, lval = link.indices, link.data
        at_current = lcol == parts[nodes[lrow]]
        current = np.zeros(len(nodes))
        current[lrow[at_current]] = lval[at_current]
        # Best destination with spare capacity; nodes with no link into
        # a spare part fall back to the roomiest part overall.
        usable = ~at_current & (spare[lcol] > 0)
        best_gain = np.full(len(nodes), -np.inf)
        np.maximum.at(best_gain, lrow[usable], lval[usable] - current[lrow[usable]])
        best_dst = np.full(len(nodes), num_parts, dtype=np.int64)
        achieves = usable & (lval - current[lrow] >= best_gain[lrow])
        np.minimum.at(best_dst, lrow[achieves], lcol[achieves].astype(np.int64))
        best_dst[best_dst == num_parts] = int(np.argmax(spare))
        best_gain = np.where(np.isfinite(best_gain), best_gain, -current)

        order = np.lexsort((nodes, -best_gain))
        src = parts[nodes[order]]
        dst = best_dst[order]
        unit = np.ones(len(order))
        # Shed only each source's excess; fill only each target's spare.
        src_rank = _segmented_prefix(src, unit)
        dst_rank = _segmented_prefix(dst, unit)
        excess = sizes - limit
        take = (src_rank <= excess[src]) & (dst_rank <= spare[dst])
        accepted = nodes[order[take]]
        if len(accepted) == 0:
            break
        sizes += np.bincount(dst[take], minlength=num_parts)
        sizes -= np.bincount(parts[accepted], minlength=num_parts)
        parts[accepted] = dst[take]

    overloaded = np.flatnonzero(sizes > limit)
    if len(overloaded):
        # Forced, cut-agnostic fallback: reassign the trailing excess
        # nodes of each overloaded part into the spare slots in part-id
        # order.  Deterministic and always feasible (k * limit >= n).
        surplus = np.concatenate([
            np.flatnonzero(parts == p)[limit:] for p in overloaded])
        spare = np.maximum(limit - sizes, 0)
        spare[overloaded] = 0
        slots = np.repeat(np.arange(num_parts), spare)[:len(surplus)]
        parts[surplus[:len(slots)]] = slots
    return parts
