"""Off-chip DRAM model: HBM 1.0 with 128-byte transactions (Sec. VI-A3).

Models the two properties the paper's evaluation hinges on:

- **bandwidth/latency**: 256 GB/s at 1 GHz means 256 bytes per core
  cycle; DRAM-bound phases stall the pipeline (Fig. 20a);
- **access granularity**: every access transfers a whole 128-byte
  transaction, so reading one 64-byte node feature from a random
  address wastes half of the burst — the inefficiency Condense-Edge
  removes (Sec. V-E).

It counts transactions and cycles only; the energy of the bytes it
moves is the accelerator model's (``AcceleratorModel.energy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["DramConfig", "DramTraffic", "DramModel"]


@dataclass(frozen=True)
class DramConfig:
    """HBM 1.0 per the paper's simulation setup."""

    bandwidth_gb_s: float = 256.0
    transaction_bytes: int = 128
    core_frequency_ghz: float = 1.0

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_gb_s / self.core_frequency_ghz


@dataclass
class DramTraffic:
    """Accumulated DRAM transactions, split by purpose."""

    transactions: int = 0
    transferred_bytes: float = 0.0
    useful_bytes: float = 0.0
    by_purpose: Dict[str, float] = field(default_factory=dict)

    @property
    def total_mb(self) -> float:
        return self.transferred_bytes / 2 ** 20

    @property
    def utilization(self) -> float:
        return self.useful_bytes / max(self.transferred_bytes, 1e-9)

    def __add__(self, other: "DramTraffic") -> "DramTraffic":
        merged = dict(self.by_purpose)
        for key, value in other.by_purpose.items():
            merged[key] = merged.get(key, 0.0) + value
        return DramTraffic(
            self.transactions + other.transactions,
            self.transferred_bytes + other.transferred_bytes,
            self.useful_bytes + other.useful_bytes,
            merged,
        )

    def accumulate(self, other: "DramTraffic") -> "DramTraffic":
        """In-place ``+=``: accumulation without per-layer dict churn.

        ``other`` is left untouched; only call this on a traffic object
        the caller owns (accumulators and freshly returned accesses),
        never on one handed out by a report.
        """
        self.transactions += other.transactions
        self.transferred_bytes += other.transferred_bytes
        self.useful_bytes += other.useful_bytes
        for key, value in other.by_purpose.items():
            self.by_purpose[key] = self.by_purpose.get(key, 0.0) + value
        return self


class DramModel:
    """Transaction-level DRAM access accounting."""

    def __init__(self, config: DramConfig = DramConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def sequential_access(self, useful_bytes: float, purpose: str = "") -> DramTraffic:
        """Contiguous streaming: only the trailing transaction is partial."""
        granule = self.config.transaction_bytes
        transactions = max(int(math.ceil(useful_bytes / granule)), 0)
        return self._traffic(transactions, useful_bytes, purpose)

    def random_access(self, num_accesses: int, bytes_per_access: float,
                      purpose: str = "") -> DramTraffic:
        """Scattered accesses: each pays whole-transaction granularity."""
        granule = self.config.transaction_bytes
        per_access = max(int(math.ceil(bytes_per_access / granule)), 1)
        transactions = num_accesses * per_access
        return self._traffic(transactions, num_accesses * bytes_per_access, purpose)

    def _traffic(self, transactions: int, useful_bytes: float, purpose: str) -> DramTraffic:
        transferred = transactions * self.config.transaction_bytes
        by_purpose = {purpose: float(transferred)} if purpose else {}
        return DramTraffic(transactions, float(transferred), float(useful_bytes), by_purpose)

    # ------------------------------------------------------------------
    def cycles(self, traffic: DramTraffic) -> float:
        """Core cycles to transfer ``traffic`` at full bandwidth."""
        return traffic.transferred_bytes / self.config.bytes_per_cycle
