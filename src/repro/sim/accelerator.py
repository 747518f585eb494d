"""Shared accelerator performance-model scaffolding.

Every simulated accelerator (MEGA and the four baselines) subclasses
:class:`AcceleratorModel`: it supplies per-layer compute cycles and DRAM
traffic (:meth:`AcceleratorModel.layer_cost`), and the base class's
:meth:`AcceleratorModel.simulate` assembles the pipeline, the stall model
and the energy breakdown the same way for everyone — mirroring the paper's
matched-configuration methodology (Table V: same DRAM bandwidth, same
buffer capacity, OPS matched via BitOP equivalence).

Each cost-model setting has one home.  The per-event energy costs are
the model's ``energy`` (:class:`~repro.sim.energy.EnergyConstants`),
from which :meth:`AcceleratorModel.simulate` computes all four energy
terms; buffer capacities, the DRAM overlap and the total power come
from each model's own config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .dram import DramModel, DramTraffic
from .energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyConstants

if TYPE_CHECKING:
    from .workload import LayerSpec, Workload

__all__ = ["LayerCost", "SimReport", "AcceleratorModel"]


@dataclass
class LayerCost:
    """Per-layer outcome: compute cycles + DRAM traffic + PU energy."""

    combination_cycles: float
    aggregation_cycles: float
    traffic: DramTraffic
    pu_energy_pj: float
    sram_bytes_moved: float
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def compute_cycles(self) -> float:
        # Combination and aggregation engines are pipelined; the slower
        # one bounds throughput (heterogeneous designs), while unified
        # designs report their sum through ``aggregation_cycles = 0``.
        return max(self.combination_cycles, self.aggregation_cycles)


@dataclass
class SimReport:
    """Full simulation outcome for one workload on one accelerator."""

    accelerator: str
    workload: str
    compute_cycles: float
    dram_cycles: float
    total_cycles: float
    stall_cycles: float
    traffic: DramTraffic
    energy: EnergyBreakdown
    layer_costs: List[LayerCost] = field(default_factory=list)
    # Core clock the cycle counts were produced at (default matches the
    # paper's 1 GHz, so pre-existing reports are unchanged).
    clock_ghz: float = 1.0

    @property
    def dram_mb(self) -> float:
        return self.traffic.total_mb

    @property
    def stall_fraction(self) -> float:
        return self.stall_cycles / max(self.total_cycles, 1e-9)

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9)

    def speedup_over(self, other: "SimReport") -> float:
        return other.total_cycles / max(self.total_cycles, 1e-9)

    def energy_saving_over(self, other: "SimReport") -> float:
        return other.energy.total_pj / max(self.energy.total_pj, 1e-9)

    def dram_reduction_over(self, other: "SimReport") -> float:
        return other.traffic.transferred_bytes / max(self.traffic.transferred_bytes, 1e-9)


class AcceleratorModel:
    """Base class for cycle-approximate accelerator models.

    A subclass sets ``dram_overlap`` and ``total_power_mw`` from its
    own config.
    """

    name = "abstract"
    # Per-event energy costs: every energy term of ``simulate`` reads
    # them here.
    energy: EnergyConstants = DEFAULT_ENERGY
    # Fraction of DRAM time hidden under compute by the design's
    # prefetch/ping-pong machinery.  HyGCN's weak prefetching is what
    # Fig. 1 shows as 86% stalls; MEGA's ping-pong buffers overlap most.
    dram_overlap: float
    total_power_mw: float

    def __init__(self, dram: Optional[DramModel] = None) -> None:
        self.dram = dram or DramModel()
        # Core clock (GHz): the DRAM config's core frequency (1.0, the
        # paper's setting), so cycle counts and the DRAM cycles-per-byte
        # conversion stay on one clock.
        self.clock_ghz = self.dram.config.core_frequency_ghz

    # -- subclass interface ------------------------------------------------
    def layer_cost(self, workload: Workload, layer_index: int) -> LayerCost:
        raise NotImplementedError

    # -- assembly ----------------------------------------------------------
    def simulate(self, workload: Workload) -> SimReport:
        """Run the model over every layer and assemble the pipeline,
        stall and energy report."""
        layer_costs = [self.layer_cost(workload, i)
                       for i in range(len(workload.layers))]
        compute = sum(c.compute_cycles for c in layer_costs)
        traffic = DramTraffic()
        for c in layer_costs:
            traffic.accumulate(c.traffic)
        dram_cycles = self.dram.cycles(traffic)

        hidden = self.dram_overlap * compute
        stall = max(0.0, dram_cycles - hidden)
        total = compute + stall

        energy = self.energy
        dram_pj = traffic.transferred_bytes * 8.0 * energy.dram_pj_per_bit
        # SRAM traffic splits evenly into reads and writes.
        sram_bytes = sum(c.sram_bytes_moved for c in layer_costs)
        sram_pj = (sram_bytes * 0.5 * 8.0 * energy.sram_read_pj_per_bit
                   + sram_bytes * 0.5 * 8.0 * energy.sram_write_pj_per_bit)
        pu_pj = sum(c.pu_energy_pj for c in layer_costs)
        seconds = total / (self.clock_ghz * 1e9)
        leakage_pj = self.total_power_mw * energy.leakage_fraction * seconds * 1e9

        return SimReport(
            accelerator=self.name,
            workload=workload.name,
            compute_cycles=compute,
            dram_cycles=dram_cycles,
            total_cycles=total,
            stall_cycles=stall,
            traffic=traffic,
            energy=EnergyBreakdown(dram_pj, sram_pj, pu_pj, leakage_pj),
            layer_costs=layer_costs,
            clock_ghz=self.clock_ghz,
        )

    # -- shared helpers ------------------------------------------------------
    @staticmethod
    def weight_traffic_bytes(layer: LayerSpec, bits: float) -> float:
        return layer.in_dim * layer.out_dim * bits / 8.0
