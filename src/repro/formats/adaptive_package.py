"""The Adaptive-Package storage format (Sec. V-B, Fig. 9).

A *package* is the primitive storage unit:

- ``Mode`` (2 bits) selects the package length — short / medium / long,
  empirically (64, 128, 192) total bits (Fig. 21 explores this choice);
- ``Bitwidth`` (3 bits) gives the quantization bitwidth (1..8) shared by
  every value in the package;
- ``Val Array`` holds only non-zero values, packed back to back.

Non-zero locations live in a separate per-node index.  Each node uses
either a positional bitmap (``F`` bits) or a coordinate list
(``nnz * ceil(log2 F)`` bits), whichever is smaller, selected by a
one-bit flag — the bitmap wins at moderate sparsity (Cora-like), the
list wins at extreme sparsity (NELL's 61278-d one-hot features, where
a full bitmap would dwarf the values it indexes).  The encoder is the
greedy heuristic of Sec. V-D: the package register keeps accumulating
non-zeros of successive nodes until the maximum package length is
reached or the node bitwidth changes, then the smallest mode that fits
is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .base import FormatReport, SparseFormat, bits_needed

__all__ = ["PackageConfig", "Package", "AdaptivePackageEncoded",
           "AdaptivePackageFormat", "node_index_bits"]


def node_index_bits(nnz_per_node: np.ndarray, feature_dim: int) -> np.ndarray:
    """Per-node non-zero index cost: min(bitmap, coordinate list) + flag."""
    nnz = np.asarray(nnz_per_node, dtype=np.int64)
    coord = nnz * bits_needed(feature_dim)
    return np.minimum(coord, feature_dim) + 1

HEADER_BITS = 5  # Mode (2) + Bitwidth (3)


@dataclass(frozen=True)
class PackageConfig:
    """Package length levels in total bits (header included)."""

    short: int = 64
    medium: int = 128
    long: int = 192

    def __post_init__(self) -> None:
        for level, bits in zip(("short", "medium", "long"), self.lengths):
            if bits <= HEADER_BITS:
                raise ValueError(
                    f"package length {level}={bits} cannot hold the "
                    f"{HEADER_BITS}-bit header")

    @property
    def lengths(self) -> Tuple[int, int, int]:
        return (self.short, self.medium, self.long)

    def payload_bits(self, mode: int) -> int:
        return self.lengths[mode] - HEADER_BITS

    def capacity(self, mode: int, bitwidth: int) -> int:
        """Number of ``bitwidth``-bit values a package of ``mode`` holds."""
        return self.payload_bits(mode) // bitwidth

    def smallest_mode_for(self, num_values: int, bitwidth: int) -> int:
        """Smallest mode whose capacity fits ``num_values``."""
        for mode in range(3):
            if self.capacity(mode, bitwidth) >= num_values:
                return mode
        return 2


@dataclass
class Package:
    """One encoded package: header + packed non-zero values."""

    mode: int
    bitwidth: int
    values: np.ndarray


class AdaptivePackageEncoded:
    """Full encoded feature map: package stream + bitmap index.

    Two internal layouts are supported:

    - a materialized ``List[Package]`` (how the seed encoder built it);
    - a structure-of-arrays view (one contiguous non-zero value stream
      plus per-package mode/bitwidth/offset arrays) produced by the
      vectorized encoder via :meth:`from_stream`.

    The SoA layout keeps ``report()`` and decoding fully vectorized;
    ``packages`` materializes the equivalent ``Package`` objects lazily
    on first access, so consumers of the object-per-package API see no
    difference.
    """

    def __init__(self, packages: Optional[List[Package]], bitmap: np.ndarray,
                 bits_per_node: np.ndarray, config: PackageConfig,
                 signs: Optional[np.ndarray] = None) -> None:
        self._packages = packages
        self.bitmap = bitmap            # (N, F) bool non-zero locations
        self.bits_per_node = bits_per_node
        self.config = config
        self.signs = signs              # sign bitmap over non-zeros, if any negative
        self._stream: Optional[np.ndarray] = None
        self._pkg_modes: Optional[np.ndarray] = None
        self._pkg_bitwidths: Optional[np.ndarray] = None
        self._pkg_offsets: Optional[np.ndarray] = None

    @classmethod
    def from_stream(cls, stream: np.ndarray, pkg_modes: np.ndarray,
                    pkg_bitwidths: np.ndarray, pkg_offsets: np.ndarray,
                    bitmap: np.ndarray, bits_per_node: np.ndarray,
                    config: PackageConfig,
                    signs: Optional[np.ndarray] = None) -> "AdaptivePackageEncoded":
        """Build from the SoA layout: ``pkg_offsets`` has one more entry
        than there are packages; package ``i`` holds
        ``stream[pkg_offsets[i]:pkg_offsets[i + 1]]``."""
        obj = cls(None, bitmap, bits_per_node, config, signs=signs)
        obj._stream = stream
        obj._pkg_modes = pkg_modes
        obj._pkg_bitwidths = pkg_bitwidths
        obj._pkg_offsets = pkg_offsets
        return obj

    @property
    def packages(self) -> List[Package]:
        if self._packages is None:
            offsets = self._pkg_offsets
            self._packages = [
                Package(mode, bw, self._stream[start:stop])
                for mode, bw, start, stop in zip(
                    self._pkg_modes.tolist(), self._pkg_bitwidths.tolist(),
                    offsets[:-1].tolist(), offsets[1:].tolist())
            ]
        return self._packages

    def value_stream(self) -> np.ndarray:
        """All packed non-zero values, in package order."""
        if self._stream is not None:
            return self._stream
        if self._packages:
            return np.concatenate([p.values for p in self._packages])
        return np.zeros(0, dtype=np.int64)

    def _package_stats(self):
        """(modes, bitwidths, value counts) arrays of the packages."""
        if self._pkg_modes is not None:
            return (self._pkg_modes, self._pkg_bitwidths,
                    np.diff(self._pkg_offsets))
        modes = np.array([p.mode for p in self._packages], dtype=np.int64)
        bws = np.array([p.bitwidth for p in self._packages], dtype=np.int64)
        counts = np.array([len(p.values) for p in self._packages], dtype=np.int64)
        return modes, bws, counts

    def report(self) -> FormatReport:
        modes, bws, counts = self._package_stats()
        lengths = np.asarray(self.config.lengths, dtype=np.int64)
        package_bits = int(lengths[modes].sum()) if len(modes) else 0
        used_bits = HEADER_BITS * len(modes) + int((counts * bws).sum())
        padding = package_bits - used_bits
        headers = HEADER_BITS * len(modes)
        n, f = self.bitmap.shape
        index_bits = int(node_index_bits(self.bitmap.sum(axis=1), f).sum())
        return FormatReport(
            "adaptive-package",
            package_bits + index_bits,
            {
                "packages": package_bits,
                "bitmap": index_bits,
                "padding": padding,
                "headers": headers,
            },
        )

    @property
    def num_packages(self) -> int:
        if self._pkg_modes is not None:
            return len(self._pkg_modes)
        return len(self._packages)


class AdaptivePackageFormat(SparseFormat):
    """Encoder/decoder for the Adaptive-Package format."""

    name = "adaptive-package"

    def __init__(self, config: Optional[PackageConfig] = None) -> None:
        self.config = config or PackageConfig()

    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray, bits_per_node: np.ndarray) -> AdaptivePackageEncoded:
        """Vectorized run-length + cumsum encoder.

        The greedy register of Sec. V-D is deterministic: within each
        maximal run of consecutive nodes sharing a bitwidth ``b`` it
        emits a full long package every ``capacity(long, b)`` non-zeros
        and flushes the remainder (at the smallest fitting mode) when
        the bitwidth changes.  That lets the whole package stream be
        derived with array ops — one cumsum over per-node non-zero
        counts plus one slice per emitted package — instead of
        appending non-zeros to a Python list one at a time.  Output is
        bit-identical to the seed loop (kept as
        :func:`repro.perf.reference.encode_adaptive_package_reference`).
        """
        self._validate(values, bits_per_node)
        values = np.asarray(values, dtype=np.int64)
        bits = np.asarray(bits_per_node, dtype=np.int64)
        bitmap = values != 0
        cfg = self.config

        n = values.shape[0]
        # Row-major non-zero stream: the exact order the greedy register
        # consumes values in.  A flat 1-D gather beats 2-D np.nonzero.
        flat_idx = np.flatnonzero(bitmap)
        stream = values.ravel()[flat_idx]
        if len(flat_idx):
            nnz = np.bincount(flat_idx // values.shape[1],
                              minlength=n).astype(np.int64)
        else:
            nnz = np.zeros(n, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(nnz)])

        # Maximal runs of equal bitwidth == register lifetimes.
        run_starts = np.concatenate([[0], np.nonzero(np.diff(bits))[0] + 1]) \
            if n else np.zeros(0, dtype=np.int64)
        run_stops = np.concatenate([run_starts[1:], [n]]) if n else run_starts
        run_bits = bits[run_starts] if n else run_starts
        run_begin = offsets[run_starts] if n else run_starts
        run_total = (offsets[run_stops] - run_begin) if n else run_starts

        if n and len(stream):
            # A degenerate config whose long payload holds zero values
            # behaves like capacity 1 (the seed register emits after
            # every append); clamp so the arithmetic below matches.
            long_cap = np.maximum(cfg.payload_bits(2) // run_bits, 1)
            full_longs = run_total // long_cap
            remainder = run_total - full_longs * long_cap
            per_run = full_longs + (remainder > 0)

            pkg_run = np.repeat(np.arange(len(run_starts)), per_run)
            first_pkg = np.concatenate([[0], np.cumsum(per_run)])[:-1]
            ordinal = np.arange(len(pkg_run)) - first_pkg[pkg_run]
            pkg_start = run_begin[pkg_run] + ordinal * long_cap[pkg_run]
            pkg_len = np.minimum(pkg_start + long_cap[pkg_run],
                                 (run_begin + run_total)[pkg_run]) - pkg_start
            pkg_bits = run_bits[pkg_run]

            # Full registers always emit the long mode; remainders take
            # the smallest mode whose capacity fits.
            cap0 = cfg.payload_bits(0) // pkg_bits
            cap1 = cfg.payload_bits(1) // pkg_bits
            pkg_mode = np.where(pkg_len <= cap0, 0, np.where(pkg_len <= cap1, 1, 2))
            pkg_mode = np.where(pkg_len == long_cap[pkg_run], 2, pkg_mode)
            # Packages tile the stream contiguously, so starts + the
            # stream length form the offset array.
            pkg_offsets = np.concatenate([pkg_start, [len(stream)]])
        else:
            pkg_mode = pkg_bits = np.zeros(0, dtype=np.int64)
            pkg_offsets = np.zeros(1, dtype=np.int64)

        # Zeros are never negative, so the sign bitmap over non-zeros is
        # exactly the sign of the stream (one pass over nnz values
        # instead of the full matrix).
        neg_stream = stream < 0
        signs = neg_stream if neg_stream.any() else None
        return AdaptivePackageEncoded.from_stream(
            stream, pkg_mode, pkg_bits, pkg_offsets,
            bitmap, bits.copy(), cfg, signs=signs)

    def decode(self, encoded: AdaptivePackageEncoded) -> np.ndarray:
        out = np.zeros(encoded.bitmap.shape, dtype=np.int64)
        out[encoded.bitmap] = encoded.value_stream()
        return out

    # ------------------------------------------------------------------
    def _run_package_stats(self, run_bits: np.ndarray,
                           run_total: np.ndarray) -> Tuple[int, int, int]:
        """Package statistics of a row's bitwidth runs.

        ``run_bits[i]``/``run_total[i]`` describe one maximal run of
        consecutive equal-bitwidth nodes (its bitwidth and its total
        non-zero count).  Every quantity is integer arithmetic identical
        to the greedy register
        (:func:`repro.perf.reference.measure_adaptive_package_reference`),
        so the result is exact, not a float approximation.  Returns
        ``(num_packages, package_bits, padding)``.
        """
        cfg = self.config
        lengths = np.asarray(cfg.lengths, dtype=np.int64)
        payloads = lengths - HEADER_BITS

        keep = run_total > 0
        bits, total = run_bits[keep], run_total[keep]
        long_cap = payloads[2] // bits
        if (long_cap == 0).any():
            # The seed loop hits divmod(total, 0) here; keep the same
            # failure mode instead of numpy's warn-and-zero semantics.
            raise ZeroDivisionError("integer division or modulo by zero")
        full_longs = total // long_cap
        remainder = total - full_longs * long_cap

        # Full registers emit long packages; each remainder one package
        # at the smallest mode whose capacity fits it.
        rem = remainder > 0
        r_bits, r_vals = bits[rem], remainder[rem]
        mode = np.where(r_vals <= payloads[0] // r_bits, 0,
                        np.where(r_vals <= payloads[1] // r_bits, 1, 2))
        longs = int(full_longs.sum())
        num_packages = longs + len(r_vals)
        package_bits = longs * int(lengths[2]) + int(lengths[mode].sum())
        padding = (int((full_longs * (payloads[2] - long_cap * bits)).sum())
                   + int((payloads[mode] - r_vals * r_bits).sum()))
        return num_packages, package_bits, padding

    def measure(self, nnz_per_node: np.ndarray, bits_per_node: np.ndarray,
                feature_dim: int) -> FormatReport:
        """Exact footprint from statistics, mirroring the greedy encoder.

        Runs of consecutive nodes sharing a bitwidth map to one register
        run, exactly as the encoder behaves, so the report is
        bit-identical to the seed's per-run loop (kept as
        :func:`repro.perf.reference.measure_adaptive_package_reference`).
        """
        nnz = np.asarray(nnz_per_node, dtype=np.int64)
        bits = np.asarray(bits_per_node, dtype=np.int64)
        if bits.shape != nnz.shape:
            raise ValueError("one bitwidth per node required")
        starts = np.concatenate([[0], np.flatnonzero(bits[1:] != bits[:-1]) + 1])
        stops = np.concatenate([starts[1:], [len(bits)]])
        offsets = np.concatenate([[0], np.cumsum(nnz)])
        num_pkg, pkg_bits, padding = self._run_package_stats(
            bits[starts], offsets[stops] - offsets[starts])
        index_bits = int(node_index_bits(nnz, feature_dim).sum())
        return FormatReport(
            self.name,
            pkg_bits + index_bits,
            {
                "packages": pkg_bits,
                "bitmap": index_bits,
                "padding": padding,
                "headers": HEADER_BITS * num_pkg,
                "num_packages": num_pkg,
            },
        )
