"""Common interface of the sparse feature-storage formats (Fig. 4).

Each format answers two questions:

- **functional**: ``encode``/``decode`` an integer feature matrix with
  per-node bitwidths, bit-exactly (the accelerator's Encoder/Decoder
  operate on these streams);
- **analytical**: ``measure`` the exact storage footprint from per-node
  non-zero counts alone, so paper-scale graphs (e.g. NELL's 65755 x
  61278 features) can be accounted without materializing the matrix.

Tests assert the two paths agree on every matrix they can both handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = ["FormatReport", "SparseFormat", "bits_needed"]


def bits_needed(n: int) -> int:
    """Bits required to index ``n`` distinct values (at least 1)."""
    return max(int(np.ceil(np.log2(max(n, 2)))), 1)


@dataclass
class FormatReport:
    """Storage accounting of one encoded feature map."""

    format_name: str
    total_bits: int
    breakdown: Dict[str, int] = field(default_factory=dict)


class SparseFormat:
    """Base class: subclasses implement encode/decode/measure."""

    name = "abstract"

    def encode(self, values: np.ndarray, bits_per_node: np.ndarray):
        """Encode an integer matrix ``(N, F)``; returns a format-specific
        encoded object exposing ``report() -> FormatReport``."""
        raise NotImplementedError

    def decode(self, encoded) -> np.ndarray:
        """Exact inverse of :meth:`encode`."""
        raise NotImplementedError

    def measure(self, nnz_per_node: np.ndarray, bits_per_node: np.ndarray,
                feature_dim: int) -> FormatReport:
        """Storage footprint from statistics only (no values needed)."""
        raise NotImplementedError

    @staticmethod
    def _validate(values: np.ndarray, bits_per_node: np.ndarray) -> None:
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if len(bits_per_node) != values.shape[0]:
            raise ValueError("one bitwidth per node required")
        bits = np.asarray(bits_per_node)
        if (bits < 1).any() or (bits > 8).any():
            raise ValueError("bitwidths must lie in [1, 8]")


def ideal_bits(nnz_per_node: np.ndarray, bits_per_node: np.ndarray) -> int:
    """The paper's Ideal reference: only quantized non-zeros stored."""
    return int((np.asarray(nnz_per_node, dtype=np.int64)
                * np.asarray(bits_per_node, dtype=np.int64)).sum())
