"""Energy model constants and accounting (28 nm, paper Sec. VI-A3).

The paper synthesizes MEGA's RTL with Design Compiler (TSMC 28 nm),
models SRAM with CACTI-7 and DRAM energy per HyGCN's methodology.  We
use a consistent constant library at the same technology point; the
absolute joules are calibrated to public 28 nm numbers, and every
comparison in the benchmarks is relative (normalized), exactly like the
paper's figures.

:class:`EnergyConstants` is the one home of these constants:
:class:`~repro.sim.accelerator.AcceleratorModel` holds it as its
``energy`` attribute and computes all four terms of a report's
:class:`EnergyBreakdown` (DRAM, SRAM, PU and leakage) from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["EnergyConstants", "EnergyBreakdown", "DEFAULT_ENERGY"]


@dataclass(frozen=True)
class EnergyConstants:
    """Per-event energy costs in picojoules (28 nm class), and the share
    of a design's total power that leaks."""

    # DRAM (HBM 1.0): ~3.9 pJ/bit transferred.
    dram_pj_per_bit: float = 3.9
    # On-chip SRAM (CACTI-7, few-hundred-KB buffers): per-bit access;
    # a write costs slightly more than a read.
    sram_read_pj_per_bit: float = 0.08
    sram_write_pj_per_bit: float = 0.10
    # Compute: a 32-bit fixed-point MAC at 28 nm ~= 3.1 pJ, treated as
    # 1024 BitOPs (the paper's conversion), so ~0.003 pJ per BitOP.
    bitop_pj: float = 3.1 / 1024.0
    fp32_mac_pj: float = 4.6
    # Share of a design's total power that leaks.
    leakage_fraction: float = 0.10

    def int_mac_pj(self, bits_a: float, bits_b: float) -> float:
        """Energy of an integer MAC as BitOPs (bits_a x bits_b)."""
        return self.bitop_pj * bits_a * bits_b


@dataclass
class EnergyBreakdown:
    """Energy by category (paper Fig. 18): DRAM / SRAM / PU / leakage."""

    dram_pj: float = 0.0
    sram_pj: float = 0.0
    pu_pj: float = 0.0
    leakage_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return self.dram_pj + self.sram_pj + self.pu_pj + self.leakage_pj

    @property
    def total_mj(self) -> float:
        return self.total_pj / 1e9

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.dram_pj + other.dram_pj,
            self.sram_pj + other.sram_pj,
            self.pu_pj + other.pu_pj,
            self.leakage_pj + other.leakage_pj,
        )

    def fractions(self) -> Dict[str, float]:
        total = max(self.total_pj, 1e-12)
        return {
            "dram": self.dram_pj / total,
            "sram": self.sram_pj / total,
            "pu": self.pu_pj / total,
            "leakage": self.leakage_pj / total,
        }


DEFAULT_ENERGY = EnergyConstants()
