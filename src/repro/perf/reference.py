"""Seed (pre-vectorization) implementations of the hot kernels.

These are the original pure-Python loops that
:class:`~repro.formats.AdaptivePackageFormat.encode`,
:class:`~repro.mega.CondenseUnit`, :meth:`~repro.graphs.Graph.sample_neighbors`
and :meth:`~repro.formats.CsrFormat.decode` shipped with, and the Eq. 2
fake-quantization kernels of :mod:`repro.quant.fake_quant` as they were
before the rounding, the clip level and the column fake-quantizer were
each written once.  The scalar Degree-Aware bit synthesizer and the DQ
quantizer as a uniform-quantizer subclass sit beside them.  They are
kept verbatim so that

- the property-based equivalence tests can assert the vectorized
  kernels (and the rank-based synthesizer and the folded DQ quantizer)
  produce bit-identical outputs, and
- the benchmark runner (``python -m repro.perf.bench``) can report the
  speedup of each vectorized kernel over its seed baseline.

They are *not* used on any production code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..formats.adaptive_package import (
    AdaptivePackageEncoded,
    Package,
    PackageConfig,
)
from ..mega.condense import sparse_connection_sources
from ..nn.layers import QuantHooks
from ..quant.fake_quant import FakeQuantSTE
from ..quant.observers import EmaColumnObserver, EmaMaxObserver
from ..tensor import Function, Tensor

if TYPE_CHECKING:
    from ..graphs import Graph
    from ..quant.config import DegreeQuantConfig

__all__ = [
    "encode_adaptive_package_reference",
    "CondenseUnitReference",
    "sample_neighbors_reference",
    "csr_decode_reference",
    "region_growing_reference",
    "refine_reference",
    "partition_graph_reference",
    "AdamReference",
    "SGDReference",
    "clip_grad_norm_reference",
    "train_reference",
    "measure_adaptive_package_reference",
    "average_feature_bits_reference",
    "synthesize_degree_aware_bits_reference",
    "quantize_integer_reference",
    "FakeQuantSTEReference",
    "FakeQuantPerColumnReference",
    "FakeQuantPerGroupReference",
    "UniformQuantizerReference",
    "DegreeQuantizerReference",
]


def encode_adaptive_package_reference(
    values: np.ndarray,
    bits_per_node: np.ndarray,
    config: Optional[PackageConfig] = None,
) -> AdaptivePackageEncoded:
    """Seed greedy encoder: one Python-level append per non-zero."""
    values = np.asarray(values, dtype=np.int64)
    bits = np.asarray(bits_per_node, dtype=np.int64)
    bitmap = values != 0
    cfg = config or PackageConfig()

    packages: List[Package] = []
    register: List[int] = []
    current_bits = None

    def flush() -> None:
        if not register:
            return
        mode = cfg.smallest_mode_for(len(register), current_bits)
        packages.append(Package(mode, int(current_bits),
                                np.asarray(register, dtype=np.int64)))
        register.clear()

    for node in range(values.shape[0]):
        b = int(bits[node])
        if current_bits is not None and b != current_bits:
            flush()
        current_bits = b
        nonzeros = values[node][bitmap[node]]
        long_cap = cfg.capacity(2, b)
        for value in nonzeros:
            register.append(int(value))
            if len(register) >= long_cap:
                packages.append(Package(2, b, np.asarray(register, dtype=np.int64)))
                register.clear()
    flush()

    negatives = values < 0
    signs = negatives[bitmap] if negatives.any() else None
    return AdaptivePackageEncoded(packages, bitmap, bits.copy(), cfg, signs=signs)


@dataclass
class CondenseUnitReference:
    """Seed step-by-step Condense-Edge simulation with O(n) ``pop(0)``
    list FIFOs and a full FIFO scan per combined node."""

    adjacency: sp.csr_matrix
    parts: np.ndarray
    fifo_capacity: int = 8

    def __post_init__(self) -> None:
        self.num_parts = int(self.parts.max()) + 1 if len(self.parts) else 0
        sources = sparse_connection_sources(self.adjacency, self.parts)
        self._eid_fifos: List[List[int]] = [sources[p].tolist()
                                            for p in range(self.num_parts)]
        self.sparse_buffer: Dict[int, List[int]] = {p: [] for p in range(self.num_parts)}
        self.address_list: List[int] = [0] * self.num_parts
        self.matches = 0
        self.comparisons = 0

    def on_node_combined(self, node_id: int) -> List[int]:
        stored_in: List[int] = []
        for sub_id in range(self.num_parts):
            fifo = self._eid_fifos[sub_id]
            self.comparisons += 1
            if fifo and fifo[0] == node_id:
                fifo.pop(0)
                self.sparse_buffer[sub_id].append(node_id)
                self.address_list[sub_id] += 1
                self.matches += 1
                stored_in.append(sub_id)
        return stored_in

    def run(self) -> Dict[int, List[int]]:
        for node in range(self.adjacency.shape[0]):
            self.on_node_combined(node)
        return self.sparse_buffer

    def remaining_eids(self) -> int:
        return sum(len(f) for f in self._eid_fifos)


def sample_neighbors_reference(
    adjacency: sp.spmatrix,
    max_neighbors: int,
    rng: Optional[np.random.Generator] = None,
) -> sp.csr_matrix:
    """Seed per-destination sampling loop (adjacency part only)."""
    rng = rng or np.random.default_rng(0)
    adj = adjacency.tocsr()
    indptr, indices = adj.indptr, adj.indices
    rows, cols = [], []
    for dst in range(adj.shape[0]):
        neigh = indices[indptr[dst]:indptr[dst + 1]]
        if len(neigh) > max_neighbors:
            neigh = rng.choice(neigh, size=max_neighbors, replace=False)
        rows.extend([dst] * len(neigh))
        cols.extend(neigh.tolist())
    data = np.ones(len(rows), dtype=np.float32)
    return sp.csr_matrix((data, (rows, cols)), shape=adj.shape)


def csr_decode_reference(encoded) -> np.ndarray:
    """Seed per-row CSR decode loop."""
    out = np.zeros(encoded.shape, dtype=np.int64)
    for row in range(encoded.shape[0]):
        start, stop = encoded.indptr[row], encoded.indptr[row + 1]
        out[row, encoded.indices[start:stop]] = encoded.data[start:stop]
    return out


# ----------------------------------------------------------------------
# Seed multilevel partitioner (pre-vectorization region growing / refine)
# ----------------------------------------------------------------------
#
# The helpers below are the partitioner exactly as it shipped before the
# batched-BFS / vectorized-move rewrite in :mod:`repro.graphs.partition`:
# a per-neighbor Python loop grows each region and a per-mover Python
# loop applies refinement moves.  They are kept verbatim (including the
# coarsening internals, so a future change to the production coarsening
# cannot silently drift this baseline) for the partition property tests
# and the ``partition_graph`` benchmark entry.


def _symmetrize_seed(adjacency: sp.spmatrix) -> sp.csr_matrix:
    a = adjacency.tocsr().astype(np.float64)
    sym = a + a.T
    sym.setdiag(0)
    sym.eliminate_zeros()
    return sym.tocsr()


def _row_argmax_seed(adj: sp.csr_matrix, noise: np.ndarray) -> np.ndarray:
    """Heaviest neighbor per row (with random tie-breaking); -1 if none."""
    n = adj.shape[0]
    best = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    nnz_rows = np.nonzero(np.diff(indptr) > 0)[0]
    if len(nnz_rows) == 0:
        return best
    jittered = data + noise[indices] * 1e-9
    starts = indptr[nnz_rows]
    maxima = np.maximum.reduceat(jittered, starts)
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    row_max = np.empty(n)
    row_max[nnz_rows] = maxima
    is_max = jittered >= row_max[row_of] - 1e-15
    pos = np.nonzero(is_max)[0]
    rows = row_of[pos]
    first = np.unique(rows, return_index=True)[1]
    best[rows[first]] = indices[pos[first]]
    return best


def _coarsen_seed(adj, node_weights, rng):
    """One level of heavy-edge-matching coarsening (seed version)."""
    n = adj.shape[0]
    noise = rng.random(n)
    best = _row_argmax_seed(adj, noise)
    ids = np.arange(n)
    valid = best >= 0
    mutual = valid & (best[np.clip(best, 0, n - 1)] == ids) & (best != ids)
    partner = np.where(mutual, best, ids)
    rep = np.minimum(ids, partner)
    uniq, cmap = np.unique(rep, return_inverse=True)
    nc = len(uniq)

    projector = sp.csr_matrix(
        (np.ones(n), (ids, cmap)), shape=(n, nc)
    )
    coarse = (projector.T @ adj @ projector).tocsr()
    coarse.setdiag(0)
    coarse.eliminate_zeros()
    cweights = np.zeros(nc)
    np.add.at(cweights, cmap, node_weights)
    return cmap, coarse, cweights


def region_growing_reference(
    adj: sp.csr_matrix,
    node_weights: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Seed greedy region growing: one Python iteration per visited
    neighbor (the stack-based growth the vectorized batched-BFS levels
    replaced)."""
    n = adj.shape[0]
    parts = np.full(n, -1, dtype=np.int64)
    target = node_weights.sum() / num_parts
    order = rng.permutation(n)
    indptr, indices = adj.indptr, adj.indices
    cursor = 0
    for part in range(num_parts - 1):
        while cursor < n and parts[order[cursor]] >= 0:
            cursor += 1
        if cursor >= n:
            break
        frontier = [order[cursor]]
        weight = 0.0
        while frontier and weight < target:
            node = frontier.pop()
            if parts[node] >= 0:
                continue
            parts[node] = part
            weight += node_weights[node]
            for nb in indices[indptr[node]:indptr[node + 1]]:
                if parts[nb] < 0:
                    frontier.append(int(nb))
    parts[parts < 0] = num_parts - 1
    return parts


def refine_reference(
    adj: sp.csr_matrix,
    node_weights: np.ndarray,
    parts: np.ndarray,
    num_parts: int,
    balance_factor: float,
    passes: int,
) -> np.ndarray:
    """Seed boundary refinement: gains are vectorized but every accepted
    move is applied by a per-node Python loop."""
    n = adj.shape[0]
    target = node_weights.sum() / num_parts
    limit = target * balance_factor
    parts = parts.copy()
    for _ in range(passes):
        onehot = sp.csr_matrix(
            (np.ones(n), (np.arange(n), parts)), shape=(n, num_parts)
        )
        link = np.asarray((adj @ onehot).todense())
        current = link[np.arange(n), parts]
        link[np.arange(n), parts] = -np.inf
        best_part = link.argmax(axis=1)
        best_gain = link[np.arange(n), best_part] - current
        movers = np.nonzero(best_gain > 0)[0]
        if len(movers) == 0:
            break
        movers = movers[np.argsort(-best_gain[movers])]
        sizes = np.zeros(num_parts)
        np.add.at(sizes, parts, node_weights)
        moved = 0
        for node in movers:
            dst = best_part[node]
            src = parts[node]
            w = node_weights[node]
            if sizes[dst] + w <= limit and sizes[src] - w > 0:
                parts[node] = dst
                sizes[dst] += w
                sizes[src] -= w
                moved += 1
        if moved == 0:
            break
    return parts


def partition_graph_reference(
    adjacency: sp.spmatrix,
    num_parts: int,
    seed: int = 0,
    balance_factor: float = 1.1,
    coarsen_to=None,
    refine_passes: int = 2,
):
    """The seed multilevel partitioner, end to end.

    Identical orchestration to the pre-vectorization
    :func:`repro.graphs.partition.partition_graph` — used as the timing
    baseline and the edge-cut parity reference in the partition property
    tests.  Returns a :class:`~repro.graphs.partition.PartitionResult`.
    """
    from ..graphs.partition import PartitionResult, edge_cut

    n = adjacency.shape[0]
    if num_parts <= 1 or n <= num_parts:
        parts = (np.zeros(n, dtype=np.int64) if num_parts <= 1
                 else np.arange(n) % num_parts)
        cut = edge_cut(adjacency, parts)
        return PartitionResult(parts, max(num_parts, 1), cut, 1.0)

    rng = np.random.default_rng(seed)
    sym = _symmetrize_seed(adjacency)
    coarsen_to = coarsen_to or max(num_parts * 24, 128)

    graphs = [sym]
    weights = [np.ones(n, dtype=np.float64)]
    mappings = []
    while graphs[-1].shape[0] > coarsen_to:
        cmap, coarse, cweights = _coarsen_seed(graphs[-1], weights[-1], rng)
        if coarse.shape[0] >= graphs[-1].shape[0] * 0.95:
            break
        mappings.append(cmap)
        graphs.append(coarse)
        weights.append(cweights)

    parts = region_growing_reference(graphs[-1], weights[-1], num_parts, rng)

    for level in range(len(mappings) - 1, -1, -1):
        parts = parts[mappings[level]]
        parts = refine_reference(graphs[level], weights[level], parts,
                                 num_parts, balance_factor, refine_passes)
    parts = refine_reference(graphs[0], weights[0], parts, num_parts,
                             balance_factor, refine_passes)

    blocks = np.minimum(np.arange(n) * num_parts // n, num_parts - 1)
    blocks = refine_reference(graphs[0], weights[0], blocks.astype(np.int64),
                              num_parts, balance_factor, refine_passes)
    if edge_cut(adjacency, blocks) < edge_cut(adjacency, parts):
        parts = blocks

    cut = edge_cut(adjacency, parts)
    sizes = np.bincount(parts, minlength=num_parts).astype(float)
    balance = float(sizes.max() / (n / num_parts))
    return PartitionResult(parts.astype(np.int64), num_parts, cut, balance)


# ----------------------------------------------------------------------
# Seed training hot loop (pre in-place optimizers / shared eval forward)
# ----------------------------------------------------------------------

class AdamReference:
    """The original (allocating) Adam step, kept verbatim.

    Every step allocates ``m_hat``/``v_hat`` and the weight-decayed
    gradient; the in-place :class:`repro.tensor.optim.Adam` must stay
    bit-identical to this.
    """

    def __init__(self, params, lr: float = 0.01, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SGDReference:
    """The original (allocating) SGD step, kept verbatim."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


def clip_grad_norm_reference(params, max_norm: float) -> float:
    """The original clip: per-parameter ``grad ** 2`` temporaries and
    out-of-place ``p.grad * scale`` copies."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


def train_reference(model, graph, config=None, extra_loss=None,
                    extra_optimizers=None, select_when=None):
    """The seed training loop: allocating optimizer steps and separate
    ``evaluate`` forwards for the validation and (on best epochs) test
    masks.  Used by the benchmark runner as the per-epoch baseline; the
    production :func:`repro.nn.training.train` must produce bit-identical
    accuracies from the same seed.  ``extra_optimizers`` (a quantization
    flow's optimizers) are stepped exactly as ``train`` steps them.
    """
    import time

    from ..nn.training import TrainConfig, TrainResult, evaluate
    from ..tensor import functional as F
    from ..tensor.tensor import Tensor

    config = config or TrainConfig()
    optimizer = AdamReference(model.parameters(), lr=config.lr,
                              weight_decay=config.weight_decay)
    quant_optimizers = list(extra_optimizers or [])
    features = Tensor(graph.features)
    best_val, best_state, best_test = -1.0, None, 0.0
    since_best = 0
    history = []
    start = time.perf_counter()

    epoch = 0
    for epoch in range(1, config.epochs + 1):
        model.train()
        optimizer.zero_grad()
        for qopt in quant_optimizers:
            qopt.zero_grad()
        logits = model(features, graph)
        loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
        if extra_loss is not None:
            penalty = extra_loss()
            if penalty is not None:
                loss = loss + penalty
        loss.backward()
        if config.grad_clip:
            clip_grad_norm_reference(model.parameters(), config.grad_clip)
        optimizer.step()
        for qopt in quant_optimizers:
            qopt.step()

        val_acc = evaluate(model, graph, graph.val_mask)
        history.append({"epoch": epoch, "loss": float(loss.data),
                        "val_acc": val_acc})

        eligible = select_when is None or select_when()
        if eligible and val_acc > best_val:
            best_val = val_acc
            best_state = model.state_dict()
            best_test = evaluate(model, graph, graph.test_mask)
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience and (
                    select_when is None or best_state is not None):
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    return TrainResult(
        best_val_accuracy=best_val,
        test_accuracy=best_test,
        train_seconds=time.perf_counter() - start,
        epochs_run=epoch,
        history=history,
    )
def measure_adaptive_package_reference(
        nnz_per_node: np.ndarray, bits_per_node: np.ndarray,
        feature_dim: int, config: Optional[PackageConfig] = None):
    """Seed per-run Python loop behind ``AdaptivePackageFormat.measure``.

    Walks the maximal equal-bitwidth runs one by one with scalar
    ``divmod`` arithmetic, exactly as the original implementation did.
    The vectorized ``measure`` must be bit-identical to this.
    """
    from ..formats.adaptive_package import HEADER_BITS, node_index_bits
    from ..formats.base import FormatReport

    nnz = np.asarray(nnz_per_node, dtype=np.int64)
    bits = np.asarray(bits_per_node, dtype=np.int64)
    cfg = config or PackageConfig()

    package_bits = 0
    padding = 0
    num_packages = 0
    boundaries = np.nonzero(np.diff(bits))[0] + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(bits)]])
    for start, stop in zip(starts, stops):
        b = int(bits[start])
        total_values = int(nnz[start:stop].sum())
        if total_values == 0:
            continue
        long_cap = cfg.capacity(2, b)
        full_longs, remainder = divmod(total_values, long_cap)
        num_packages += full_longs
        package_bits += full_longs * cfg.lengths[2]
        padding += full_longs * (cfg.payload_bits(2) - long_cap * b)
        if remainder:
            mode = cfg.smallest_mode_for(remainder, b)
            num_packages += 1
            package_bits += cfg.lengths[mode]
            padding += cfg.payload_bits(mode) - remainder * b
    index_bits = int(node_index_bits(nnz, feature_dim).sum())
    return FormatReport(
        "adaptive-package",
        package_bits + index_bits,
        {
            "packages": package_bits,
            "bitmap": index_bits,
            "padding": padding,
            "headers": HEADER_BITS * num_packages,
            "num_packages": num_packages,
        },
    )


def average_feature_bits_reference(workload) -> float:
    """Seed per-layer loop behind ``Workload.average_feature_bits``."""
    total_bits, total_vals = 0.0, 0.0
    for layer in workload.layers:
        total_bits += float(layer.input_bits.sum()) * layer.in_dim
        total_vals += layer.num_nodes * layer.in_dim
    return total_bits / total_vals


def synthesize_degree_aware_bits_reference(
    degrees: np.ndarray,
    target_average: float,
    min_bits: int = 2,
    max_bits: int = 8,
) -> np.ndarray:
    """Per-node bitwidths with the Degree-Aware structure.

    Low-degree nodes (the power-law majority) sit at ``min_bits``;
    bitwidth rises with degree rank so that the average matches
    ``target_average`` — the allocation shape the trained quantizer
    produces (Sec. IV), synthesized for paper-scale graphs where
    training is not feasible.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    n = len(degrees)
    target_average = float(np.clip(target_average, min_bits, max_bits))
    ranks = degrees.argsort().argsort() / max(n - 1, 1)
    # Allocate extra bits to the top-degree tail: bits(r) = min_bits for
    # r < 1 - tail, rising linearly to max_bits at r = 1.  Solve the tail
    # fraction so the mean hits the target.
    extra_needed = target_average - min_bits
    span = max_bits - min_bits
    tail = float(np.clip(2.0 * extra_needed / span, 0.0, 1.0))
    if tail <= 0:
        return np.full(n, min_bits, dtype=np.int64)
    rise = (ranks - (1.0 - tail)) / tail
    bits = min_bits + np.clip(rise, 0.0, 1.0) * span
    return np.clip(np.round(bits), min_bits, max_bits).astype(np.int64)


# ----------------------------------------------------------------------
# Seed Eq. 2 fake-quantization kernels (one copy of the rounding each)
# ----------------------------------------------------------------------

_LN2 = float(np.log(2.0))


def _qmax_for_bits_seed(bits, unsigned: bool = False) -> np.ndarray:
    """The seed clip level, always in float64."""
    bits = np.asarray(bits)
    exponent = np.round(bits) if unsigned else np.round(bits) - 1
    return (2.0 ** exponent - 1).astype(np.float64)


def quantize_integer_reference(x: np.ndarray, scale: np.ndarray, bits,
                               unsigned: bool = None) -> np.ndarray:
    """Seed ``quantize_integer``: rounds ``|x| / scale``, then signs."""
    if unsigned is None:
        unsigned = bool(np.min(x) >= 0)
    qmax = _qmax_for_bits_seed(bits, unsigned=unsigned)
    v = np.abs(x) / scale
    q = np.minimum(np.floor(v + 0.5), qmax)
    return (np.sign(x) * q).astype(np.int64)


class FakeQuantSTEReference(Function):
    """Seed ``FakeQuantSTE``: fixed (observer) scale, floored at 1e-12."""

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, scale: np.ndarray, bits: np.ndarray) -> np.ndarray:
        b = round(float(np.max(bits)))
        qmax = float(2.0 ** b - 1) if np.min(x) >= 0 else float(2.0 ** (b - 1) - 1)
        s = np.maximum(scale, 1e-12)
        v = x / s
        q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
        ctx["in_range"] = np.abs(v) <= qmax
        return (q * s).astype(np.float32)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray):
        return grad * ctx["in_range"], None, None


class FakeQuantPerColumnReference(Function):
    """Seed ``FakeQuantPerColumn``: one learnable scale per column."""

    @staticmethod
    def forward(ctx: dict, w: np.ndarray, scales: np.ndarray, bits: float) -> np.ndarray:
        b = round(float(bits))
        qmax = float(2.0 ** b - 1) if np.min(w) >= 0 else float(2.0 ** (b - 1) - 1)
        s = np.maximum(scales, 1e-8)[None, :]
        v = w / s
        q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
        out = (q * s).astype(np.float32)
        ctx.update(v=v, q=q, qmax=qmax, n=w.shape[0])
        return out

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray):
        v, q, qmax = ctx["v"], ctx["q"], ctx["qmax"]
        in_range = np.abs(v) <= qmax
        grad_w = grad * in_range
        elem_s = grad * np.where(in_range, q - v, np.sign(v) * qmax)
        lsq = 1.0 / np.sqrt(max(ctx["n"] * qmax, 1.0))
        grad_s = elem_s.sum(axis=0) * lsq
        return grad_w, grad_s, None


class FakeQuantPerGroupReference(Function):
    """Seed ``FakeQuantPerGroup``: per-row-group scale and bitwidth,
    keeping ``v``, ``q``, ``qmax`` and ``s`` in ``ctx``."""

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, scales: np.ndarray, bits: np.ndarray,
                groups: np.ndarray, min_bits: np.ndarray, max_bits: np.ndarray) -> np.ndarray:
        groups = groups.astype(np.int64)
        unsigned = bool(np.min(x) >= 0)
        b_cont = np.clip(bits, min_bits, max_bits)
        b_int = np.round(b_cont)
        qmax_g = 2.0 ** b_int - 1 if unsigned else 2.0 ** (b_int - 1) - 1
        s_g = np.maximum(scales, 1e-8)

        s = s_g[groups][:, None]
        qmax = qmax_g[groups][:, None]
        v = x / s
        q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
        out = (q * s).astype(np.float32)

        ctx["v"] = v
        ctx["q"] = q
        ctx["qmax"] = qmax
        ctx["s"] = s
        ctx["groups"] = groups
        ctx["b_cont"] = b_cont
        ctx["num_groups"] = len(scales)
        ctx["clipped_at_min"] = scales <= 1e-8
        ctx["unsigned"] = unsigned
        ctx["bits_at_edge"] = (bits <= min_bits) | (bits >= max_bits)
        return out

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray):
        v, q, qmax, s = ctx["v"], ctx["q"], ctx["qmax"], ctx["s"]
        groups, num_groups = ctx["groups"], ctx["num_groups"]
        in_range = np.abs(v) <= qmax

        grad_x = grad * in_range

        # LSQ scale gradient with per-group gradient scaling.
        elem_s = grad * np.where(in_range, q - v, np.sign(v) * qmax)
        grad_s = np.zeros(num_groups)
        np.add.at(grad_s, groups, elem_s.sum(axis=1))
        counts = np.zeros(num_groups)
        np.add.at(counts, groups, v.shape[1])
        qmax_g = np.zeros(num_groups)
        np.maximum.at(qmax_g, groups, qmax[:, 0])
        lsq_scale = 1.0 / np.sqrt(np.maximum(counts * np.maximum(qmax_g, 1.0), 1.0))
        grad_s = grad_s * lsq_scale
        grad_s[ctx["clipped_at_min"]] = np.minimum(grad_s[ctx["clipped_at_min"]], 0.0)

        # Bitwidth gradient: clipped values sit at +/- s*qmax(b); the
        # clip level moves by s*ln2*2^b (unsigned) or s*ln2*2^(b-1).
        b_row = ctx["b_cont"][groups][:, None]
        exponent = b_row if ctx["unsigned"] else b_row - 1
        elem_b = grad * np.where(in_range, 0.0, np.sign(v) * s * _LN2 * 2.0 ** exponent)
        grad_b = np.zeros(num_groups)
        np.add.at(grad_b, groups, elem_b.sum(axis=1))
        grad_b = grad_b * lsq_scale

        return grad_x, grad_s, grad_b, None, None, None


# ----------------------------------------------------------------------
# Seed DQ quantizer (a uniform quantizer plus the protection mask)
# ----------------------------------------------------------------------

# ``DegreeQuantizer`` as it was, a subclass of a separate uniform
# quantizer; both read only ``bits``, ``num_layers``, ``p_min``,
# ``p_max`` and ``seed`` of a ``DegreeQuantConfig``.  The uniform base's
# ``node_scales`` and ``quantize_feature_matrix`` had no caller and are
# left out.


class UniformQuantizerReference(QuantHooks):
    """All nodes share a single observer scale at a fixed bitwidth."""

    def __init__(self, graph: Graph, config: DegreeQuantConfig) -> None:
        self.config = config
        self.num_nodes = graph.num_nodes
        self.training = True
        cfg = self.config
        self._feature_obs = [EmaMaxObserver() for _ in range(cfg.num_layers)]
        self._weight_obs: Dict[int, EmaColumnObserver] = {}

    def features(self, x: Tensor, layer: int) -> Tensor:
        obs = self._feature_obs[layer]
        if self.training or obs.value is None:
            obs.update(x.data)
        bits = self.config.bits
        return FakeQuantSTE.apply(x, obs.scale(bits), bits)

    def weight(self, w: Tensor, layer: int) -> Tensor:
        return self._per_column(self._weight_obs, w, layer)

    def _per_column(self, observers: Dict[int, EmaColumnObserver],
                    x: Tensor, layer: int) -> Tensor:
        """Fake-quantize ``x`` per column at ``config.bits``, with the
        column observer ``observers`` keeps for ``layer``."""
        obs = observers.setdefault(layer, EmaColumnObserver())
        if self.training or obs.value is None:
            obs.update(x.data)
        bits = self.config.bits
        return FakeQuantSTE.apply(x, obs.scale(bits), bits)

    def node_bitwidths(self, layer: int) -> np.ndarray:
        return np.full(self.num_nodes, self.config.bits, dtype=np.int64)

    def average_bits(self) -> float:
        return float(self.config.bits)

    def compression_ratio(self) -> float:
        return 32.0 / self.average_bits()


class DegreeQuantizerReference(UniformQuantizerReference):
    """Uniform-bitwidth QAT with stochastic high-degree protection."""

    def __init__(self, graph: Graph, config: DegreeQuantConfig) -> None:
        super().__init__(graph, config)
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        degrees = graph.in_degrees.astype(np.float64)
        ranks = degrees.argsort().argsort() / max(len(degrees) - 1, 1)
        self.protect_prob = cfg.p_min + (cfg.p_max - cfg.p_min) * ranks
        self._aggregated_obs: Dict[int, EmaColumnObserver] = {}

    def features(self, x: Tensor, layer: int) -> Tensor:
        quantized = super().features(x, layer)
        if not self.training:
            return quantized
        # Stochastic protection: masked nodes bypass quantization.
        mask = (self._rng.random(self.num_nodes) < self.protect_prob).astype(np.float32)
        mask_col = Tensor(mask[:, None])
        return x * mask_col + quantized * (1.0 - mask_col)

    def aggregated(self, x: Tensor, layer: int) -> Tensor:
        return self._per_column(self._aggregated_obs, x, layer)
