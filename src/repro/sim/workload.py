"""Workload descriptions consumed by the accelerator performance models.

A :class:`Workload` is everything a simulator needs about one
(dataset, model, quantization) triple: the adjacency structure, the
per-layer dimensions, per-node feature sparsity, and per-node
quantization bitwidths.  Workloads are built either from paper-scale
statistics (`build_workload`) or from an actually-trained quantized
model (`workload_from_quant_run`) — both drive the same simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..graphs import Graph
from ..nn.models import MODEL_SPECS
from ..paper_data import FIG5_HIDDEN_DENSITY
from ..registry import get_dataset

__all__ = [
    "LayerSpec",
    "Workload",
    "build_workload",
    "build_workload_batch",
    "workload_from_quant_run",
    "synthesize_degree_aware_bits_batch",
]


@dataclass
class LayerSpec:
    """One GNN layer's combination + aggregation workload."""

    in_dim: int
    out_dim: int
    input_nnz: np.ndarray        # per-node non-zeros in the input feature map
    input_bits: np.ndarray       # per-node quantization bitwidth (32 = FP32)
    weight_bits: int = 4

    @property
    def num_nodes(self) -> int:
        return len(self.input_nnz)

    @property
    def input_density(self) -> float:
        return float(self.input_nnz.mean() / max(self.in_dim, 1))

    def feature_bits_per_node(self) -> np.ndarray:
        """Dense storage cost of each node's input features, in bits."""
        return self.input_bits.astype(np.int64) * self.in_dim

    def average_bits(self) -> float:
        return float(self.input_bits.mean())


@dataclass
class Workload:
    """A full inference workload: graph structure + per-layer specs."""

    name: str
    model_name: str
    dataset: str
    adjacency: sp.csr_matrix
    layers: List[LayerSpec]
    precision: str = "degree-aware"
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.nnz)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.astype(bool).sum(axis=1)).reshape(-1)

    def average_feature_bits(self) -> float:
        """Mean storage bits per feature value over all layer inputs.

        One stacked computation over the (layer, node) bit matrix
        instead of the seed's per-layer Python accumulation (kept as
        :func:`repro.perf.reference.average_feature_bits_reference`).
        All intermediate products are integers exactly representable in
        float64, so the result is bit-identical to the seed loop.
        """
        if not self.layers:
            return 0.0 / 0.0  # seed behaviour: ZeroDivisionError
        if len({layer.num_nodes for layer in self.layers}) == 1:
            layer_sums = np.stack(
                [layer.input_bits for layer in self.layers]
            ).astype(np.int64).sum(axis=1)
        else:  # ragged layers: per-layer sums, still one stacked reduce
            layer_sums = np.array(
                [layer.input_bits.astype(np.int64).sum() for layer in self.layers],
                dtype=np.int64)
        in_dims = np.array([layer.in_dim for layer in self.layers], dtype=np.int64)
        nodes = np.array([layer.num_nodes for layer in self.layers], dtype=np.int64)
        total_bits = float((layer_sums.astype(np.float64) * in_dims).sum())
        total_vals = float((nodes * in_dims).sum())
        return total_bits / total_vals

    def compression_ratio(self) -> float:
        return 32.0 / self.average_feature_bits()


def synthesize_degree_aware_bits_batch(
    degrees: np.ndarray,
    target_averages,
    min_bits: int = 2,
    max_bits: int = 8,
) -> np.ndarray:
    """Per-node bitwidths with the Degree-Aware structure, one row per
    target average in ``target_averages``.

    Low-degree nodes (the power-law majority) sit at ``min_bits``;
    bitwidth rises with degree rank so that each row's average matches
    its target — the allocation shape the trained quantizer produces
    (Sec. IV), synthesized for paper-scale graphs where training is not
    feasible.  The O(n log n) degree ranking is computed once and the
    per-target allocation is one (T, n) broadcast; every row is
    bit-identical to the scalar
    :func:`~repro.perf.reference.synthesize_degree_aware_bits_reference`
    with the same target (the same float64 scalar ops elementwise, and
    ranking is deterministic).
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    n = len(degrees)
    targets = np.clip(np.asarray(list(target_averages), dtype=np.float64),
                      min_bits, max_bits)
    ranks = degrees.argsort().argsort() / max(n - 1, 1)
    span = max_bits - min_bits
    tail = np.clip(2.0 * (targets - min_bits) / span, 0.0, 1.0)

    out = np.full((len(targets), n), min_bits, dtype=np.int64)
    active = tail > 0
    if active.any():
        t = tail[active][:, None]
        rise = (ranks[None, :] - (1.0 - t)) / t
        bits = min_bits + np.clip(rise, 0.0, 1.0) * span
        out[active] = np.clip(np.round(bits), min_bits, max_bits).astype(np.int64)
    return out


def build_workload(
    dataset: str,
    model_name: str,
    precision: str = "degree-aware",
    seed: int = 0,
    graph: Optional[Graph] = None,
    target_average_bits: Optional[float] = None,
) -> Workload:
    """Construct a simulator workload from dataset/model statistics.

    Parameters
    ----------
    precision:
        ``"degree-aware"`` (mixed, synthesized per-degree), ``"int8"``
        (uniform 8-bit, for the 8-bit baseline variants), or ``"fp32"``.
    graph:
        Optional pre-built graph (defaults to the registered dataset's
        ``scale="sim"`` graph).

    ``dataset`` resolves through the dataset registry, so any registered
    scenario — a paper stand-in or a synthetic scale-sweep graph — feeds
    the same simulators.  This is a one-target
    :func:`build_workload_batch`.
    """
    return build_workload_batch(dataset, model_name, precision, seed=seed,
                                graph=graph,
                                targets=(target_average_bits,))[0]


def build_workload_batch(
    dataset: str,
    model_name: str,
    precision: str = "degree-aware",
    seed: int = 0,
    graph: Optional[Graph] = None,
    targets=(None,),
) -> List[Workload]:
    """N workloads over one dataset, sharing all structural precompute.

    ``targets`` is a sequence of ``target_average_bits`` values (each
    may be ``None`` to take the dataset's registered paper average).
    Graph loading, neighbour sampling, degree counting, and the
    rng-derived sparsity statistics are computed once; only the
    per-node bitwidth allocation varies per target, and that is
    synthesized as one stacked (T, n) pass.  Element ``i`` of the
    result depends on ``targets[i]`` alone, so it equals a one-target
    build.
    """
    model_key = model_name.lower()
    entry = get_dataset(dataset)
    spec = MODEL_SPECS[model_key]
    if graph is None:
        graph = entry.load(scale="sim", seed=seed)
    # The rng draws below do not depend on the quantization target, so
    # every target sees the same structure.
    rng = np.random.default_rng(seed + 17)

    adjacency = graph.adjacency
    if spec["sample"] is not None:
        adjacency = graph.sample_neighbors(spec["sample"],
                                           rng=np.random.default_rng(seed)).adjacency
    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.astype(bool).sum(axis=1)).reshape(-1)

    # Input layer: paper-scale feature length + per-node sparsity.
    feature_dim, input_nnz = entry.feature_stats(rng=rng)
    input_nnz = input_nnz[:n] if len(input_nnz) >= n else np.resize(input_nnz, n)

    hidden = spec["hidden"]
    hidden_density = entry.hidden_density(model_key)
    spread = rng.lognormal(0.0, 0.25, size=n)
    hidden_nnz = np.clip(
        np.round(hidden * hidden_density * spread), 1, hidden
    ).astype(np.int64)
    adjacency = adjacency.tocsr()

    if precision == "fp32":
        rows = [np.full(n, 32, dtype=np.int64)] * len(targets)
        weight_bits = 32
    elif precision in ("int8", "uniform-int8"):
        rows = [np.full(n, 8, dtype=np.int64)] * len(targets)
        weight_bits = 8
    elif precision == "degree-aware":
        # The Degree-Aware floor is 2 bits (Sec. V-C), so paper averages
        # below ~2.4 would degenerate to an all-2-bit allocation with no
        # high-precision tail; keep the tail the trained quantizer shows.
        resolved = [max(t or entry.average_bits(model_key), 2.4) for t in targets]
        rows = list(synthesize_degree_aware_bits_batch(degrees, resolved))
        weight_bits = 4
    else:
        raise ValueError(f"unknown precision {precision!r}")

    # Both layers carry the same per-node allocation.
    workloads = []
    for bits in rows:
        layers = [
            LayerSpec(feature_dim, hidden, input_nnz, bits,
                      weight_bits=weight_bits),
            LayerSpec(hidden, entry.num_classes, hidden_nnz, bits,
                      weight_bits=weight_bits),
        ]
        workloads.append(Workload(
            name=f"{entry.name}-{model_key}-{precision}",
            model_name=model_key,
            dataset=entry.name,
            adjacency=adjacency,
            layers=layers,
            precision=precision,
            metadata={"feature_dim": feature_dim, "hidden": hidden},
        ))
    return workloads


def workload_from_quant_run(graph: Graph, model_name: str, node_bitwidths: np.ndarray,
                            hidden_bitwidths: Optional[np.ndarray] = None,
                            precision: str = "degree-aware") -> Workload:
    """Build a workload from an actually trained quantization run."""
    model_key = model_name.lower()
    spec = MODEL_SPECS[model_key]
    hidden = spec["hidden"]
    n = graph.num_nodes
    input_nnz = (graph.features != 0).sum(axis=1).astype(np.int64)
    density = FIG5_HIDDEN_DENSITY[model_key].get(graph.name.split("-")[0], 0.5)
    hidden_nnz = np.full(n, max(int(hidden * density), 1), dtype=np.int64)
    bits0 = np.asarray(node_bitwidths, dtype=np.int64)
    bits1 = np.asarray(hidden_bitwidths if hidden_bitwidths is not None else node_bitwidths,
                       dtype=np.int64)
    weight_bits = 32 if precision == "fp32" else 4
    layers = [
        LayerSpec(graph.feature_dim, hidden, input_nnz, bits0, weight_bits=weight_bits),
        LayerSpec(hidden, graph.num_classes, hidden_nnz, bits1, weight_bits=weight_bits),
    ]
    return Workload(
        name=f"{graph.name}-{model_key}-{precision}",
        model_name=model_key,
        dataset=graph.name,
        adjacency=graph.adjacency,
        layers=layers,
        precision=precision,
    )
