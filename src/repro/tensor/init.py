"""Parameter initialization schemes (Glorot/Kaiming), mirroring PyG defaults."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["glorot_uniform", "kaiming_uniform", "zeros"]


def glorot_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> Tensor:
    """Glorot/Xavier uniform initialization, the default for GCN weights."""
    rng = rng or np.random.default_rng()
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(np.float32), requires_grad=True)


def kaiming_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> Tensor:
    """Kaiming (He) uniform initialization for ReLU MLPs (GIN combination)."""
    rng = rng or np.random.default_rng()
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(np.float32), requires_grad=True)


def zeros(shape: Tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    return fan_in, shape[-1]
