"""Degree-Aware mixed-precision quantization (Sec. IV — the paper's core).

Every node is quantized with a scale and a bitwidth *learned per
in-degree* (``alpha_i = s_{d_i}``, ``b_i = b_{d_i}``): high-degree
nodes — whose aggregated features are larger (Fig. 3) — keep more bits,
while the power-law majority of low-degree nodes compresses to 2-3 bits.
A memory penalty (Eq. 4) pushes the bit allocation toward a target
feature-memory budget:

    L_memory = ((1/eta) * sum_l sum_i dim_l * b_i^l  -  M_target)^2
    L_total  = L_task + lambda * L_memory               (Eq. 5)

Weights and the combined features ``B = XW`` are quantized to 4 bits
with per-column learnable scales (Eq. 3).

Implementation notes: scales are parametrized in the log domain
(``alpha = exp(rho)``) so Adam's near-constant step size becomes a
multiplicative update — learning raw scales of magnitude ~1e-3 with
lr 0.01 diverges.  Bitwidths are continuous parameters rounded in the
forward pass with straight-through gradients (Uhlich et al. [48]).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graphs import Graph
from ..nn.layers import QuantHooks
from ..tensor import Tensor
from .config import DegreeAwareConfig
from .fake_quant import (FakeQuantPerGroup, FakeQuantSTE, qmax_for_bits,
                         quantize_integer)

__all__ = ["DegreeAwareConfig", "DegreeAwareQuantizer", "ETA"]

# Eq. 4 constant converting bit counts to KB.
ETA = 8 * 1024


class DegreeAwareQuantizer(QuantHooks):
    """Quantization hooks implementing the Degree-Aware method.

    One scale/bitwidth parameter pair exists per (layer, capped degree).
    Scales are initialized from the first observed feature map (max/qmax
    calibration); bitwidths start at ``init_bits`` and drift under the
    task loss + memory penalty.
    """

    def __init__(self, graph: Graph, layer_dims: List[int],
                 config: Optional[DegreeAwareConfig] = None) -> None:
        self.config = config or DegreeAwareConfig()
        self.training = True
        cfg = self.config
        degrees = graph.in_degrees
        self.node_degree_param = np.minimum(degrees, cfg.degree_cap - 1).astype(np.int64)
        self.num_groups = cfg.degree_cap
        self.num_nodes = graph.num_nodes
        self.layer_dims = list(layer_dims)
        num_layers = len(self.layer_dims)

        # Learnable per-(layer, degree) parameters; scales in log domain.
        self.log_scales = [
            Tensor(np.zeros(self.num_groups, dtype=np.float32), requires_grad=True)
            for _ in range(num_layers)
        ]
        self._scale_calibrated = [False] * num_layers
        self.bits = [
            Tensor(np.full(self.num_groups, cfg.init_bits, dtype=np.float32), requires_grad=True)
            for _ in range(num_layers)
        ]
        # Per-column weight/combined-feature log-scales, lazily sized.
        self._weight_log_scales: Dict[int, Tensor] = {}
        self._aggregated_log_scales: Dict[int, Tensor] = {}

        total_bits = sum(
            float(cfg.target_average_bits) * dim * self.num_nodes
            for dim in self.layer_dims
        )
        self.memory_target_kb = total_bits / ETA

        self._group_counts = np.bincount(self.node_degree_param,
                                         minlength=self.num_groups).astype(np.float64)

    # ------------------------------------------------------------------
    # QuantHooks interface
    # ------------------------------------------------------------------
    def features(self, x: Tensor, layer: int) -> Tensor:
        cfg = self.config
        self._calibrate_scale(layer, x.data)
        scales = self.log_scales[layer].exp()
        lo = np.full(self.num_groups, cfg.min_bits, dtype=np.float64)
        hi = np.full(self.num_groups, cfg.max_bits, dtype=np.float64)
        return FakeQuantPerGroup.apply(
            x, scales, self.bits[layer], self.node_degree_param, lo, hi,
        )

    def weight(self, w: Tensor, layer: int) -> Tensor:
        log_scales = self._column_scales(self._weight_log_scales, layer, w.data)
        return FakeQuantSTE.apply(w, log_scales.exp(), self.config.weight_bits)

    def aggregated(self, x: Tensor, layer: int) -> Tensor:
        log_scales = self._column_scales(self._aggregated_log_scales, layer, x.data)
        return FakeQuantSTE.apply(x, log_scales.exp(), self.config.weight_bits)

    def extra_loss(self) -> Optional[Tensor]:
        """lambda * L_memory / M_target^2 (Eq. 4/5) as a differentiable
        Tensor; dividing by the squared target makes ``penalty``
        independent of the graph's size."""
        cfg = self.config
        total_kb = None
        for layer, dim in enumerate(self.layer_dims):
            b = self.bits[layer].clamp(cfg.min_bits, cfg.max_bits)
            group_bits = b * Tensor(self._group_counts.astype(np.float32) * dim / ETA)
            layer_kb = group_bits.sum()
            total_kb = layer_kb if total_kb is None else total_kb + layer_kb
        diff = total_kb - self.memory_target_kb
        return (diff * diff) * cfg.penalty * (1.0 / self.memory_target_kb ** 2)

    # ------------------------------------------------------------------
    # Exported quantization outcome (consumed by the accelerator side)
    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        params = list(self.log_scales) + list(self.bits)
        params += list(self._weight_log_scales.values())
        params += list(self._aggregated_log_scales.values())
        return [p for p in params if p.requires_grad]

    def scale_parameters(self) -> List[Tensor]:
        params = list(self.log_scales)
        params += list(self._weight_log_scales.values())
        params += list(self._aggregated_log_scales.values())
        return [p for p in params if p.requires_grad]

    def bit_parameters(self) -> List[Tensor]:
        return [p for p in self.bits if p.requires_grad]

    def optimizers(self) -> List["Optimizer"]:
        """Optimizers for the quantization parameters.

        Scales use Adam in the log domain.  Bitwidths deliberately use
        plain SGD: the memory-penalty gradient of a degree group is
        proportional to its node count, so the power-law majority of
        low-degree nodes is compressed aggressively while rare
        high-degree groups keep precision — Adam's per-parameter
        normalization would erase exactly this degree-awareness.
        """
        from ..tensor.optim import Adam, SGD

        cfg = self.config
        return [
            Adam(self.scale_parameters(), lr=cfg.scale_lr, weight_decay=0.0),
            SGD(self.bit_parameters(), lr=cfg.bits_lr, momentum=0.0),
        ]

    def _group_bit_matrix(self) -> np.ndarray:
        """(num_layers, num_groups) rounded integer bitwidths, stacked."""
        cfg = self.config
        stacked = np.stack([t.data for t in self.bits])
        return np.round(np.clip(stacked, cfg.min_bits, cfg.max_bits))

    def node_bitwidths(self, layer: int) -> np.ndarray:
        """Integer bitwidth allocated to every node at ``layer``."""
        cfg = self.config
        b = np.clip(self.bits[layer].data, cfg.min_bits, cfg.max_bits)
        return np.round(b[self.node_degree_param]).astype(np.int64)

    def node_scales(self, layer: int) -> np.ndarray:
        """Quantization scale alpha_i for every node at ``layer``."""
        s = np.exp(self.log_scales[layer].data.astype(np.float64))
        return s[self.node_degree_param]

    def average_bits(self) -> float:
        """Dimension-weighted average feature bitwidth across layers.

        One stacked (layer, group) computation: summing rounded group
        bitwidths weighted by group node counts equals summing over every
        node, without materializing the per-node arrays per layer.
        """
        dims = np.asarray(self.layer_dims, dtype=np.float64)
        per_layer_bits = self._group_bit_matrix() @ self._group_counts
        total_bits = float(per_layer_bits @ dims)
        total_vals = float(self._group_counts.sum() * dims.sum())
        return total_bits / total_vals

    def compression_ratio(self) -> float:
        """CR = 32 / average feature bitwidth (paper Sec. VI-A2)."""
        return 32.0 / self.average_bits()

    def feature_memory_kb(self) -> float:
        """Current total feature memory under the learned allocation."""
        dims = np.asarray(self.layer_dims, dtype=np.float64)
        per_layer_bits = self._group_bit_matrix() @ self._group_counts
        return float((per_layer_bits * dims / ETA).sum())

    def quantize_feature_matrix(self, x: np.ndarray, layer: int) -> np.ndarray:
        """Integer codes of a feature map under the learned parameters.

        This is the tensor the accelerator stores in Adaptive-Package
        format: ``Xbar`` of Eq. 2 with per-node (scale, bitwidth).
        """
        scales = self.node_scales(layer)[:, None]
        bits = self.node_bitwidths(layer)[:, None]
        return quantize_integer(np.asarray(x, dtype=np.float64), scales, bits)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _calibrate_scale(self, layer: int, x: np.ndarray) -> None:
        """One-shot max-calibration of the per-group scales."""
        if self._scale_calibrated[layer]:
            return
        cfg = self.config
        bits = np.clip(self.bits[layer].data, cfg.min_bits, cfg.max_bits)
        qmax = np.maximum(qmax_for_bits(bits), 1.0)  # float32, like ``bits``
        # LSQ-style init: 2 * mean|nonzero| / sqrt(qmax) keeps the typical
        # value in the middle of the code range, which preserves the
        # many small values that max-calibration would round to zero at
        # very low bitwidths.
        absx = np.abs(x)
        row_sum = absx.sum(axis=1)
        row_nnz = np.maximum((absx > 0).sum(axis=1), 1)
        group_sum = np.zeros(self.num_groups)
        group_nnz = np.zeros(self.num_groups)
        np.add.at(group_sum, self.node_degree_param, row_sum)
        np.add.at(group_nnz, self.node_degree_param, row_nnz)
        mean_nz = np.divide(group_sum, group_nnz,
                            out=np.zeros(self.num_groups), where=group_nnz > 0)
        fallback = max(float(absx.sum() / max((absx > 0).sum(), 1)), 1e-6)
        mean_nz[mean_nz <= 0] = fallback
        init = np.maximum(2.0 * mean_nz / np.sqrt(qmax), 1e-8)
        self.log_scales[layer].data = np.log(init).astype(np.float32)
        self._scale_calibrated[layer] = True

    def _column_scales(self, store: Dict[int, Tensor], layer: int,
                       values: np.ndarray) -> Tensor:
        log_scales = store.get(layer)
        if log_scales is None or log_scales.shape[0] != values.shape[1]:
            qmax = float(qmax_for_bits(self.config.weight_bits))
            col_max = np.abs(values).max(axis=0)
            init = np.maximum(col_max / qmax, 1e-8)
            log_scales = Tensor(np.log(init).astype(np.float32), requires_grad=True)
            store[layer] = log_scales
        return log_scales
