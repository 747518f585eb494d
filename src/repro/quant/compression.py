"""Compression-ratio and memory accounting helpers (Sec. VI-A2).

The paper reports the theoretical compression ratio CR = 32 / (average
feature bitwidth), where the average is weighted by the feature length
of every layer.  These helpers compute that plus the feature-memory
sizes the accelerator-side models consume.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "average_bitwidth",
    "compression_ratio",
    "feature_memory_bits",
    "feature_memory_kb",
]


def average_bitwidth(node_bits_per_layer: Sequence[np.ndarray],
                     layer_dims: Sequence[int]) -> float:
    """Dimension-weighted average bitwidth across layers."""
    if len(node_bits_per_layer) != len(layer_dims):
        raise ValueError("one bitwidth array per layer dim expected")
    total_bits = 0.0
    total_values = 0.0
    for bits, dim in zip(node_bits_per_layer, layer_dims):
        bits = np.asarray(bits, dtype=np.float64)
        total_bits += bits.sum() * dim
        total_values += len(bits) * dim
    return total_bits / total_values


def compression_ratio(node_bits_per_layer: Sequence[np.ndarray],
                      layer_dims: Sequence[int]) -> float:
    """CR relative to FP32 storage."""
    return 32.0 / average_bitwidth(node_bits_per_layer, layer_dims)


def feature_memory_bits(node_bits: np.ndarray, feature_dim: int) -> float:
    """Total bits needed for a (dense) feature map at mixed precision."""
    return float(np.asarray(node_bits, dtype=np.float64).sum() * feature_dim)


def feature_memory_kb(node_bits_per_layer: Sequence[np.ndarray],
                      layer_dims: Sequence[int]) -> float:
    """Eq. 4 memory term: total feature memory in KB (eta = 8*1024)."""
    total = sum(feature_memory_bits(bits, dim)
                for bits, dim in zip(node_bits_per_layer, layer_dims))
    return total / (8 * 1024)
