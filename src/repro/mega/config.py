"""MEGA accelerator configuration and area/power breakdown (Table IV).

The unit counts come straight from the paper: 4 Combination Tiles of
8 C-PEs x 32 BSEs, 256 Aggregation Units, a 32x8 (64-bit) crossbar,
16 eID FIFOs in the Condense Unit, 32 QN units in the Encoder, and
392 KB of SRAM split over six buffers.  The area/power numbers are the
paper's measured 28 nm values, used as the component library for the
energy/area reporting benchmarks (we have no Design Compiler here).

:class:`MegaModel <repro.mega.performance.MegaModel>` reads the
aggregation, combination and Sparse Buffer capacities from
:class:`MegaConfig`; the input, edge and weight buffers only complete
Table IV's 392 KB.  SRAM access costs live in
:class:`~repro.sim.energy.EnergyConstants`, and leakage is a share of
the total power there, not per-buffer shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..formats import PackageConfig

__all__ = ["MegaConfig", "AREA_POWER_TABLE", "area_power_breakdown"]

# Component -> (area mm^2, power mW), paper Table IV at 28 nm / 1 GHz.
AREA_POWER_TABLE: Dict[str, Tuple[float, float]] = {
    "bses": (0.053, 14.70),
    "aggregation_units": (0.100, 28.92),
    "crossbar": (0.027, 5.56),
    "condense_unit": (0.002, 1.19),
    "encoder": (0.010, 1.81),
    "decoder": (0.003, 0.75),
    "others": (0.004, 0.80),
    "aggregation_buffer": (0.540, 46.56),
    "combination_buffer": (0.452, 35.19),
    "input_buffer": (0.220, 22.88),
    "edge_buffer": (0.119, 9.44),
    "sparse_buffer": (0.154, 12.86),
    "weight_buffer": (0.190, 14.32),
}

_PROCESSING = ("bses", "aggregation_units", "crossbar", "condense_unit",
               "encoder", "decoder", "others")
_BUFFERS = ("aggregation_buffer", "combination_buffer", "input_buffer",
            "edge_buffer", "sparse_buffer", "weight_buffer")


@dataclass(frozen=True)
class MegaConfig:
    """Structural parameters of the MEGA accelerator."""

    combination_tiles: int = 4
    cpes_per_tile: int = 8
    bses_per_cpe: int = 32
    aggregation_units: int = 256
    qn_units: int = 32
    weight_bits: int = 4
    psum_bits: int = 16
    package: PackageConfig = field(default_factory=PackageConfig)

    # Buffer capacities in KB (Table IV).
    aggregation_buffer_kb: float = 128.0
    combination_buffer_kb: float = 96.0
    input_buffer_kb: float = 64.0
    edge_buffer_kb: float = 24.0
    sparse_buffer_kb: float = 32.0
    weight_buffer_kb: float = 48.0

    @property
    def total_bses(self) -> int:
        return self.combination_tiles * self.cpes_per_tile * self.bses_per_cpe

    @property
    def total_buffer_kb(self) -> float:
        return (self.aggregation_buffer_kb + self.combination_buffer_kb
                + self.input_buffer_kb + self.edge_buffer_kb
                + self.sparse_buffer_kb + self.weight_buffer_kb)


def area_power_breakdown() -> Dict[str, Dict[str, float]]:
    """Reproduce Table IV: per-component and per-section totals."""
    processing_area = sum(AREA_POWER_TABLE[c][0] for c in _PROCESSING)
    processing_power = sum(AREA_POWER_TABLE[c][1] for c in _PROCESSING)
    buffer_area = sum(AREA_POWER_TABLE[c][0] for c in _BUFFERS)
    buffer_power = sum(AREA_POWER_TABLE[c][1] for c in _BUFFERS)
    return {
        "components": {name: {"area_mm2": a, "power_mw": p}
                       for name, (a, p) in AREA_POWER_TABLE.items()},
        "processing_total": {"area_mm2": round(processing_area, 3),
                             "power_mw": round(processing_power, 2)},
        "buffer_total": {"area_mm2": round(buffer_area, 3),
                         "power_mw": round(buffer_power, 2)},
        "total": {"area_mm2": round(processing_area + buffer_area, 3),
                  "power_mw": round(processing_power + buffer_power, 2)},
    }
