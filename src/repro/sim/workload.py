"""Workload descriptions consumed by the accelerator performance models.

A :class:`Workload` is everything a simulator needs about one
(dataset, model, quantization) triple: the adjacency structure, the
per-layer dimensions, per-node feature sparsity, and per-node
quantization bitwidths.  Workloads are built either from paper-scale
statistics or from an actually-trained quantized model
(`workload_from_quant_run`) — both drive the same simulators.

The paper-scale build has two steps.  :func:`workload_structure` draws
what a (dataset, model, seed) recipe holds whatever the quantization
(the sampled adjacency, the degree ranking, the feature sparsity), and
:meth:`WorkloadStructure.workload` adds one precision and target's
bits.  :func:`build_workload` runs both; the sweep engine keeps each
recipe's structure and derives every target's workload from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..graphs import Graph
from ..paper_data import FIG5_HIDDEN_DENSITY, TABLE_III
from ..registry import DatasetEntry, get_dataset

__all__ = [
    "LayerSpec",
    "Workload",
    "WorkloadStructure",
    "build_workload",
    "degree_ranks",
    "synthesize_degree_aware_bits",
    "workload_from_quant_run",
    "workload_structure",
]


@dataclass
class LayerSpec:
    """One GNN layer's combination + aggregation workload."""

    in_dim: int
    out_dim: int
    input_nnz: np.ndarray        # per-node non-zeros in the input feature map
    input_bits: np.ndarray       # per-node quantization bitwidth (32 = FP32)
    weight_bits: int = 4
    # Statistics a simulator derives from this layer's rows, keyed by
    # the simulator configuration they depend on
    # (:meth:`repro.mega.MegaModel.layer_cost` fills it).  The arrays
    # above must not change once the layer is simulated.
    row_stats: Dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.input_nnz)

    @property
    def input_density(self) -> float:
        return float(self.input_nnz.mean() / max(self.in_dim, 1))


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

    def average_feature_bits(self) -> float:
        """Mean storage bits per feature value over all layer inputs.

        Each layer's bits are summed as integers and weighted by its
        input width in one reduce, instead of the seed's per-layer
        float accumulation (kept as
        :func:`repro.perf.reference.average_feature_bits_reference`).
        All intermediate products are integers exactly representable in
        float64, so the result is bit-identical to the seed loop.
        """
        if not self.layers:
            return 0.0 / 0.0  # seed behaviour: ZeroDivisionError
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


def degree_ranks(degrees: np.ndarray) -> np.ndarray:
    """Each node's degree rank scaled to [0, 1], as float64 (ties in
    ``argsort`` order): the ranking :func:`synthesize_degree_aware_bits`
    allocates bits by."""
    degrees = np.asarray(degrees, dtype=np.float64)
    return degrees.argsort().argsort() / max(len(degrees) - 1, 1)


def synthesize_degree_aware_bits(
    ranks: np.ndarray,
    target_average: float,
    min_bits: int = 2,
    max_bits: int = 8,
) -> np.ndarray:
    """Per-node bitwidths with the Degree-Aware structure.

    Low-degree nodes (the power-law majority) sit at ``min_bits``;
    bitwidth rises with the degree rank ``ranks`` (:func:`degree_ranks`)
    so that the average matches ``target_average`` — the allocation
    shape the trained quantizer produces (Sec. IV), synthesized for
    paper-scale graphs where training is not feasible.  Bit-identical to
    :func:`~repro.perf.reference.synthesize_degree_aware_bits_reference`
    on the degrees ``ranks`` came from.
    """
    target = float(np.clip(target_average, min_bits, max_bits))
    span = max_bits - min_bits
    tail = float(np.clip(2.0 * (target - min_bits) / span, 0.0, 1.0))
    if tail <= 0:
        return np.full(len(ranks), min_bits, dtype=np.int64)
    rise = (ranks - (1.0 - tail)) / tail
    bits = min_bits + np.clip(rise, 0.0, 1.0) * span
    return np.clip(np.round(bits), min_bits, max_bits).astype(np.int64)


@dataclass
class WorkloadStructure:
    """What one (dataset, model, seed) recipe draws, whatever the
    quantization: the sampled adjacency, the degree ranking and both
    per-node non-zero maps.  :meth:`workload` adds one precision and
    target's bits, so every workload of a recipe shares these arrays."""

    entry: DatasetEntry
    model_name: str
    adjacency: sp.csr_matrix
    degree_ranks: np.ndarray
    feature_dim: int
    input_nnz: np.ndarray        # per-node non-zeros of the input feature map
    hidden_nnz: np.ndarray       # per-node non-zeros of the hidden feature map

    def workload(self, precision: str = "degree-aware",
                 target_average_bits: Optional[float] = None) -> Workload:
        """The recipe's workload at one precision and quantization target.

        ``precision`` is ``"degree-aware"`` (mixed, synthesized per
        degree at ``target_average_bits``, or the dataset's registered
        paper average when that is ``None``), ``"int8"`` (uniform 8-bit,
        for the 8-bit baseline variants), or ``"fp32"``.
        """
        n = self.adjacency.shape[0]
        if precision == "fp32":
            bits, weight_bits = np.full(n, 32, dtype=np.int64), 32
        elif precision in ("int8", "uniform-int8"):
            bits, weight_bits = np.full(n, 8, dtype=np.int64), 8
        elif precision == "degree-aware":
            # The Degree-Aware floor is 2 bits (Sec. V-C), so paper
            # averages below ~2.4 would degenerate to an all-2-bit
            # allocation with no high-precision tail; keep the tail the
            # trained quantizer shows.
            target = max(target_average_bits
                         or self.entry.average_bits(self.model_name), 2.4)
            bits = synthesize_degree_aware_bits(self.degree_ranks, target)
            weight_bits = 4
        else:
            raise ValueError(f"unknown precision {precision!r}")

        # Both layers carry the same per-node allocation.
        hidden = TABLE_III[self.model_name]["hidden"]
        layers = [
            LayerSpec(self.feature_dim, hidden, self.input_nnz, bits,
                      weight_bits=weight_bits),
            LayerSpec(hidden, self.entry.num_classes, self.hidden_nnz, bits,
                      weight_bits=weight_bits),
        ]
        return Workload(
            name=f"{self.entry.name}-{self.model_name}-{precision}",
            model_name=self.model_name,
            dataset=self.entry.name,
            adjacency=self.adjacency,
            layers=layers,
            precision=precision,
            metadata={"feature_dim": self.feature_dim, "hidden": hidden},
        )


def workload_structure(
    dataset: str,
    model_name: str,
    seed: int = 0,
    graph: Optional[Graph] = None,
) -> WorkloadStructure:
    """Draw one recipe's :class:`WorkloadStructure`.

    ``graph`` defaults to the registered dataset's ``scale="sim"``
    graph.  ``dataset`` resolves through the dataset registry, so any
    registered scenario — a paper stand-in or a synthetic scale-sweep
    graph — feeds the same simulators.
    """
    model_key = model_name.lower()
    entry = get_dataset(dataset)
    spec = TABLE_III[model_key]
    if graph is None:
        graph = entry.load(scale="sim", seed=seed)
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
    return WorkloadStructure(
        entry=entry,
        model_name=model_key,
        adjacency=adjacency.tocsr(),
        degree_ranks=degree_ranks(degrees),
        feature_dim=feature_dim,
        input_nnz=input_nnz,
        hidden_nnz=hidden_nnz,
    )


def build_workload(
    dataset: str,
    model_name: str,
    precision: str = "degree-aware",
    seed: int = 0,
    graph: Optional[Graph] = None,
    target_average_bits: Optional[float] = None,
) -> Workload:
    """Construct a simulator workload from dataset/model statistics: a
    fresh :func:`workload_structure` at one precision and target (see
    :meth:`WorkloadStructure.workload`)."""
    return workload_structure(dataset, model_name, seed=seed,
                              graph=graph).workload(precision,
                                                    target_average_bits)


def workload_from_quant_run(graph: Graph, model_name: str, node_bitwidths: np.ndarray,
                            hidden_bitwidths: Optional[np.ndarray] = None,
                            precision: str = "degree-aware") -> Workload:
    """Build a workload from an actually trained quantization run."""
    model_key = model_name.lower()
    hidden = TABLE_III[model_key]["hidden"]
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
