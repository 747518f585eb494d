"""EMA min/max observers producing quantization scales.

DQ calibrates its scales with momentum-based absolute-max observers
(as the reference DQ implementation does) rather than learning them by
gradient — only the Degree-Aware method learns its scales (in the log
domain, see :mod:`repro.quant.degree_aware`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fake_quant import qmax_for_bits

__all__ = ["EmaMaxObserver", "EmaColumnObserver"]


class EmaMaxObserver:
    """Tracks an exponential moving average of the absolute maximum."""

    def __init__(self, momentum: float = 0.9) -> None:
        self.momentum = momentum
        self.value: Optional[float] = None

    def update(self, x: np.ndarray) -> None:
        current = float(np.abs(x).max()) if x.size else 0.0
        if self.value is None:
            self.value = current
        else:
            self.value = self.momentum * self.value + (1 - self.momentum) * current

    def scale(self, bits: int) -> float:
        """Quantization step so that the observed max maps to qmax."""
        return max((self.value or 0.0) / float(qmax_for_bits(bits)), 1e-8)


class EmaColumnObserver:
    """Per-column EMA absolute-max observer (weights, combined features)."""

    def __init__(self, momentum: float = 0.9) -> None:
        self.momentum = momentum
        self.value: Optional[np.ndarray] = None

    def update(self, x: np.ndarray) -> None:
        current = np.abs(x).max(axis=0)
        if self.value is None or self.value.shape != current.shape:
            self.value = current.astype(np.float64)
        else:
            self.value = self.momentum * self.value + (1 - self.momentum) * current

    def scale(self, bits: int) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("observer queried before any update")
        return np.maximum(self.value / float(qmax_for_bits(bits)), 1e-8)
