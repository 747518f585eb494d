"""Classic sparse representations compared in Fig. 4: Dense/COO/CSR/Bitmap.

None of them can exploit per-node bitwidths — as the paper observes,
"the highest quantization bitwidth among all nodes should be used when
storing the quantized features" — so every value slot is as wide as the
*maximum* bitwidth present in the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .base import FormatReport, SparseFormat, bits_needed

__all__ = ["DenseFormat", "CooFormat", "CsrFormat", "BitmapFormat"]


@dataclass
class _DenseEncoded:
    values: np.ndarray
    value_bits: int

    def report(self) -> FormatReport:
        n, f = self.values.shape
        total = n * f * self.value_bits
        return FormatReport("dense", total, {"values": total})


class DenseFormat(SparseFormat):
    """Store every entry (zero or not) at the maximum bitwidth."""

    name = "dense"

    def encode(self, values, bits_per_node):
        self._validate(values, bits_per_node)
        return _DenseEncoded(np.asarray(values).copy(),
                             int(np.max(bits_per_node)))

    def decode(self, encoded) -> np.ndarray:
        return encoded.values.copy()

    def measure(self, nnz_per_node, bits_per_node, feature_dim) -> FormatReport:
        n = len(nnz_per_node)
        total = n * feature_dim * int(np.max(bits_per_node))
        return FormatReport(self.name, total, {"values": total})


@dataclass
class _CooEncoded:
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]
    value_bits: int

    def report(self) -> FormatReport:
        n, f = self.shape
        row_bits = len(self.rows) * bits_needed(n)
        col_bits = len(self.cols) * bits_needed(f)
        val_bits = len(self.data) * self.value_bits
        return FormatReport(
            "coo", row_bits + col_bits + val_bits,
            {"row_index": row_bits, "col_index": col_bits, "values": val_bits},
        )


class CooFormat(SparseFormat):
    """Coordinate list: (row, col, value) per non-zero."""

    name = "coo"

    def encode(self, values, bits_per_node):
        self._validate(values, bits_per_node)
        values = np.asarray(values)
        rows, cols = np.nonzero(values)
        return _CooEncoded(rows, cols, values[rows, cols], values.shape,
                           int(np.max(bits_per_node)))

    def decode(self, encoded) -> np.ndarray:
        out = np.zeros(encoded.shape, dtype=np.int64)
        out[encoded.rows, encoded.cols] = encoded.data
        return out

    def measure(self, nnz_per_node, bits_per_node, feature_dim) -> FormatReport:
        n = len(nnz_per_node)
        nnz = int(np.sum(nnz_per_node))
        row_bits = nnz * bits_needed(n)
        col_bits = nnz * bits_needed(feature_dim)
        val_bits = nnz * int(np.max(bits_per_node))
        return FormatReport(
            self.name, row_bits + col_bits + val_bits,
            {"row_index": row_bits, "col_index": col_bits, "values": val_bits},
        )


@dataclass
class _CsrEncoded:
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]
    value_bits: int

    def report(self) -> FormatReport:
        _, f = self.shape
        nnz = len(self.data)
        ptr_bits = len(self.indptr) * bits_needed(nnz + 1)
        idx_bits = nnz * bits_needed(f)
        val_bits = nnz * self.value_bits
        return FormatReport(
            "csr", ptr_bits + idx_bits + val_bits,
            {"indptr": ptr_bits, "col_index": idx_bits, "values": val_bits},
        )


class CsrFormat(SparseFormat):
    """Compressed sparse rows: row pointers + column indices + values."""

    name = "csr"

    def encode(self, values, bits_per_node):
        self._validate(values, bits_per_node)
        values = np.asarray(values)
        rows, cols = np.nonzero(values)
        counts = np.bincount(rows, minlength=values.shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return _CsrEncoded(indptr, cols, values[rows, cols], values.shape,
                           int(np.max(bits_per_node)))

    def decode(self, encoded) -> np.ndarray:
        out = np.zeros(encoded.shape, dtype=np.int64)
        indptr = np.asarray(encoded.indptr)
        row_of = np.repeat(np.arange(encoded.shape[0]), np.diff(indptr))
        out[row_of, encoded.indices] = encoded.data
        return out

    def measure(self, nnz_per_node, bits_per_node, feature_dim) -> FormatReport:
        n = len(nnz_per_node)
        nnz = int(np.sum(nnz_per_node))
        ptr_bits = (n + 1) * bits_needed(nnz + 1)
        idx_bits = nnz * bits_needed(feature_dim)
        val_bits = nnz * int(np.max(bits_per_node))
        return FormatReport(
            self.name, ptr_bits + idx_bits + val_bits,
            {"indptr": ptr_bits, "col_index": idx_bits, "values": val_bits},
        )


@dataclass
class _BitmapEncoded:
    bitmap: np.ndarray          # (N, F) booleans
    data: np.ndarray            # non-zeros in row-major order
    value_bits: int

    def report(self) -> FormatReport:
        n, f = self.bitmap.shape
        map_bits = n * f
        val_bits = len(self.data) * self.value_bits
        return FormatReport("bitmap", map_bits + val_bits,
                            {"bitmap": map_bits, "values": val_bits})


class BitmapFormat(SparseFormat):
    """One presence bit per position plus packed non-zero values.

    This is the format the ablation (Fig. 19) uses as the strawman for
    storing mixed-precision features: values are still slotted at the
    maximum bitwidth.
    """

    name = "bitmap"

    def encode(self, values, bits_per_node):
        self._validate(values, bits_per_node)
        values = np.asarray(values)
        bitmap = values != 0
        return _BitmapEncoded(bitmap, values[bitmap], int(np.max(bits_per_node)))

    def decode(self, encoded) -> np.ndarray:
        out = np.zeros(encoded.bitmap.shape, dtype=np.int64)
        out[encoded.bitmap] = encoded.data
        return out

    def measure(self, nnz_per_node, bits_per_node, feature_dim) -> FormatReport:
        n = len(nnz_per_node)
        map_bits = n * feature_dim
        val_bits = int(np.sum(nnz_per_node)) * int(np.max(bits_per_node))
        return FormatReport(self.name, map_bits + val_bits,
                            {"bitmap": map_bits, "values": val_bits})
