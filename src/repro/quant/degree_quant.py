"""Degree-Quant (DQ) baseline — Tailor et al. [47], reimplemented.

DQ is the state-of-the-art the paper compares against (Tables I and
VI).  Its training strategy:

- every forward pass samples a *protection mask*: node ``i`` stays in
  full precision with probability ``p_i``, interpolated between
  ``p_min`` and ``p_max`` by the node's in-degree percentile (high
  degree -> more protection);
- unprotected tensors are fake-quantized with EMA min/max observer
  scales shared by **all** nodes at a **uniform** bitwidth — the
  data-independent scheme whose limitations motivate Degree-Aware
  quantization;
- at inference everything is quantized (no protection), which is why
  accuracy degrades as the bitwidth shrinks (Table I).

Node features get one observer scale per layer; weights and the
aggregation input (the combined features ``B = XW``) get one per
column.  All three are fake-quantized at ``config.bits``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graphs import Graph
from ..nn.layers import QuantHooks
from ..tensor import Tensor
from .config import DegreeQuantConfig
from .fake_quant import FakeQuantSTE
from .observers import EmaColumnObserver, EmaMaxObserver

__all__ = ["DegreeQuantConfig", "DegreeQuantizer"]


class DegreeQuantizer(QuantHooks):
    """Uniform-bitwidth QAT with stochastic high-degree protection."""

    def __init__(self, graph: Graph, config: Optional[DegreeQuantConfig] = None) -> None:
        self.config = cfg = config or DegreeQuantConfig()
        self.num_nodes = graph.num_nodes
        self.training = True
        self._feature_obs = [EmaMaxObserver() for _ in range(cfg.num_layers)]
        self._weight_obs: Dict[int, EmaColumnObserver] = {}
        self._aggregated_obs: Dict[int, EmaColumnObserver] = {}
        self._rng = np.random.default_rng(cfg.seed)
        degrees = graph.in_degrees.astype(np.float64)
        ranks = degrees.argsort().argsort() / max(len(degrees) - 1, 1)
        self.protect_prob = cfg.p_min + (cfg.p_max - cfg.p_min) * ranks

    def features(self, x: Tensor, layer: int) -> Tensor:
        obs = self._feature_obs[layer]
        if self.training or obs.value is None:
            obs.update(x.data)
        bits = self.config.bits
        quantized = FakeQuantSTE.apply(x, obs.scale(bits), bits)
        if not self.training:
            return quantized
        # Stochastic protection: masked nodes bypass quantization.
        mask = (self._rng.random(self.num_nodes) < self.protect_prob).astype(np.float32)
        mask_col = Tensor(mask[:, None])
        return x * mask_col + quantized * (1.0 - mask_col)

    def weight(self, w: Tensor, layer: int) -> Tensor:
        return self._per_column(self._weight_obs, w, layer)

    def aggregated(self, x: Tensor, layer: int) -> Tensor:
        return self._per_column(self._aggregated_obs, x, layer)

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
