"""Uniform quantization: one observer scale, fixed bitwidth, all nodes.

The plain data-independent scheme: all nodes share one bitwidth, and
weights are quantized per column at that same bitwidth.  It is the
quantizer of post-training quantization (:mod:`repro.quant.ptq`), and
the DQ baseline (:class:`~repro.quant.degree_quant.DegreeQuantizer`) is
this scheme plus stochastic high-degree protection.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graphs import Graph
from ..nn.layers import QuantHooks
from ..tensor import Tensor
from .config import UniformQuantConfig
from .fake_quant import FakeQuantSTE, quantize_integer
from .observers import EmaColumnObserver, EmaMaxObserver

__all__ = ["UniformQuantConfig", "UniformQuantizer"]


class UniformQuantizer(QuantHooks):
    """All nodes share a single observer scale at a fixed bitwidth."""

    def __init__(self, graph: Graph, config: Optional[UniformQuantConfig] = None) -> None:
        self.config = config or UniformQuantConfig()
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

    def node_scales(self, layer: int) -> np.ndarray:
        scale = self._feature_obs[layer].scale(self.config.bits)
        return np.full(self.num_nodes, scale, dtype=np.float64)

    def quantize_feature_matrix(self, x: np.ndarray, layer: int) -> np.ndarray:
        scale = self._feature_obs[layer].scale(self.config.bits)
        return quantize_integer(np.asarray(x, dtype=np.float64), scale, self.config.bits)
