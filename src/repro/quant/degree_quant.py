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

So DQ is :class:`~repro.quant.uniform.UniformQuantizer` plus the
protection mask on node features and a fake-quantized aggregation
input (the combined features ``B = XW``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graphs import Graph
from ..tensor import Tensor
from .config import DegreeQuantConfig
from .observers import EmaColumnObserver
from .uniform import UniformQuantizer

__all__ = ["DegreeQuantConfig", "DegreeQuantizer"]


class DegreeQuantizer(UniformQuantizer):
    """Uniform-bitwidth QAT with stochastic high-degree protection."""

    def __init__(self, graph: Graph, config: Optional[DegreeQuantConfig] = None) -> None:
        super().__init__(graph, config or DegreeQuantConfig())
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
