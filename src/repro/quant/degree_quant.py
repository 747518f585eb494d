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
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graphs import Graph
from ..nn.layers import QuantHooks
from ..tensor import Tensor
from .config import DegreeQuantConfig
from .fake_quant import FakeQuantSTE, quantize_integer
from .observers import EmaColumnObserver, EmaMaxObserver

__all__ = ["DegreeQuantConfig", "DegreeQuantizer"]


class DegreeQuantizer(QuantHooks):
    """Uniform-bitwidth QAT with stochastic high-degree protection."""

    def __init__(self, graph: Graph, config: Optional[DegreeQuantConfig] = None) -> None:
        self.config = config or DegreeQuantConfig()
        cfg = self.config
        self.training = True
        self._rng = np.random.default_rng(cfg.seed)

        degrees = graph.in_degrees.astype(np.float64)
        ranks = degrees.argsort().argsort() / max(len(degrees) - 1, 1)
        self.protect_prob = cfg.p_min + (cfg.p_max - cfg.p_min) * ranks
        self.num_nodes = graph.num_nodes

        self._feature_obs = [EmaMaxObserver() for _ in range(cfg.num_layers)]
        self._weight_obs: Dict[int, EmaColumnObserver] = {}
        self._aggregated_obs: Dict[int, EmaColumnObserver] = {}

    @property
    def _wbits(self) -> int:
        return self.config.weight_bits or self.config.bits

    # ------------------------------------------------------------------
    def features(self, x: Tensor, layer: int) -> Tensor:
        cfg = self.config
        obs = self._feature_obs[layer]
        if self.training or obs.value is None:
            obs.update(x.data)
        scale = obs.scale(cfg.bits)
        quantized = FakeQuantSTE.apply(x, np.float64(scale), np.float64(cfg.bits))
        if not self.training:
            return quantized
        # Stochastic protection: masked nodes bypass quantization.
        mask = (self._rng.random(self.num_nodes) < self.protect_prob).astype(np.float32)
        mask_col = Tensor(mask[:, None])
        return x * mask_col + quantized * (1.0 - mask_col)

    def weight(self, w: Tensor, layer: int) -> Tensor:
        obs = self._weight_obs.setdefault(layer, EmaColumnObserver())
        if self.training or obs.value is None:
            obs.update(w.data)
        scale = obs.scale(self._wbits)
        return FakeQuantSTE.apply(w, scale[None, :], np.float64(self._wbits))

    def aggregated(self, x: Tensor, layer: int) -> Tensor:
        obs = self._aggregated_obs.setdefault(layer, EmaColumnObserver())
        if self.training or obs.value is None:
            obs.update(x.data)
        scale = obs.scale(self._wbits)
        return FakeQuantSTE.apply(x, scale[None, :], np.float64(self._wbits))

    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        return []  # observer-based: nothing to learn

    def node_bitwidths(self, layer: int) -> np.ndarray:
        return np.full(self.num_nodes, self.config.bits, dtype=np.int64)

    def average_bits(self) -> float:
        return float(self.config.bits)

    def compression_ratio(self) -> float:
        return 32.0 / self.average_bits()

    def node_scales(self, layer: int) -> np.ndarray:
        scale = self._feature_obs[layer].scale(self.config.bits)
        return np.full(self.num_nodes, scale, dtype=np.float64)

    def quantize_feature_matrix(self, x: np.ndarray, layer: int) -> np.ndarray:
        scale = self._feature_obs[layer].scale(self.config.bits)
        return quantize_integer(np.asarray(x, dtype=np.float64), scale, self.config.bits)
