"""On-chip SRAM buffer models (CACTI-7-style accounting, Table IV).

Buffers contribute capacity constraints (how big a subgraph's partial
sums can be), access energy, and leakage power.  All MEGA and baseline
configurations share this model so the 392 KB matched-buffer comparison
of Table V is apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .energy import DEFAULT_ENERGY, EnergyConstants

__all__ = ["BufferSpec", "BufferSet"]


@dataclass(frozen=True)
class BufferSpec:
    """One SRAM buffer: name, capacity and derived energy costs."""

    name: str
    capacity_kb: float
    # CACTI-like scaling: bigger arrays cost slightly more per bit.
    read_pj_per_bit: float = 0.08
    write_pj_per_bit: float = 0.10
    leakage_mw: float = 0.0

    @property
    def capacity_bytes(self) -> int:
        return int(self.capacity_kb * 1024)


class BufferSet:
    """A named collection of buffers with energy accounting."""

    def __init__(self, specs: List[BufferSpec],
                 energy: EnergyConstants = DEFAULT_ENERGY) -> None:
        self.specs: Dict[str, BufferSpec] = {s.name: s for s in specs}
        self.energy = energy

    def __getitem__(self, name: str) -> BufferSpec:
        return self.specs[name]

    @property
    def total_kb(self) -> float:
        return sum(s.capacity_kb for s in self.specs.values())

    def access_energy_pj(self, read_bytes: float, write_bytes: float) -> float:
        """Energy of moving data through SRAM (uniform per-bit costs)."""
        read_pj = read_bytes * 8.0 * 0.08
        write_pj = write_bytes * 8.0 * 0.10
        return read_pj + write_pj

    def nodes_fitting(self, name: str, bytes_per_node: float) -> int:
        """How many nodes' worth of state fits in buffer ``name``."""
        return max(int(self.specs[name].capacity_bytes / max(bytes_per_node, 1e-9)), 1)
