"""Cycle-approximate performance model of the MEGA accelerator.

Maps a :class:`~repro.sim.workload.Workload` to cycles / DRAM traffic /
energy using the microarchitecture of Sec. V:

- **Combination Engine**: per node, ``ceil(nnz / (tiles * BSEs))``
  groups stream bit-serially for ``b`` cycles each, repeated for every
  group of ``m`` output columns; the Decoder sustains one package per
  tile per cycle.
- **Aggregation Engine**: outer-product over edges, 256 AUs wide, with
  free units packing multiple nodes (Sec. V-D).
- **DRAM**: input features in Adaptive-Package format (or Bitmap for
  the ablation), weights at 4 bits, and the aggregation locality model
  with the Condense-Edge strategy.

Ablation switches (`storage`, `condense`, `partition`) reproduce the
configurations of Fig. 19.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..formats import AdaptivePackageFormat, BitmapFormat, FormatReport
from ..paper_data import MEGA_TOTAL_POWER_MW
from ..registry import ACCELERATORS, AcceleratorEntry
from ..sim import DramModel, DramTraffic
from ..sim.accelerator import AcceleratorModel, LayerCost
from .config import MegaConfig, mega_buffers

if TYPE_CHECKING:
    from ..sim.workload import Workload

__all__ = ["MegaModel", "output_nnz", "stored_bits"]


def stored_bits(input_bits: np.ndarray) -> np.ndarray:
    """Per-node storage bitwidths: MEGA stores <= 8-bit codes."""
    return np.minimum(input_bits, 8)


def output_nnz(num_nodes: int, f_out: int) -> np.ndarray:
    """Per-node non-zeros of a layer's aggregated output feature map."""
    return np.full(num_nodes, min(max(int(f_out * 0.5), 1), f_out),
                   dtype=np.int64)


class MegaModel(AcceleratorModel):
    """MEGA with its three techniques individually switchable."""

    name = "mega"
    dram_overlap = 0.9
    total_power_mw = MEGA_TOTAL_POWER_MW  # Table IV

    def __init__(self, config: Optional[MegaConfig] = None,
                 storage: str = "adaptive-package",
                 condense: bool = True,
                 partition: bool = True,
                 dram: Optional[DramModel] = None) -> None:
        self.config = config or MegaConfig()
        super().__init__(mega_buffers(self.config), dram=dram)
        if storage not in ("adaptive-package", "bitmap"):
            raise ValueError(f"unknown storage {storage!r}")
        self.storage = storage
        self.condense = condense
        self.partition = partition

    # ------------------------------------------------------------------
    def layer_cost(self, workload: Workload, layer_index: int) -> LayerCost:
        """One layer's cost: one row's statistics through
        :meth:`cost_from_row_stats`."""
        layer = workload.layers[layer_index]
        bits = stored_bits(layer.input_bits)
        lane_groups = self.lane_groups(layer.input_nnz)
        fmt = self._format()
        out_nnz = output_nnz(workload.num_nodes, layer.out_dim)
        return self.cost_from_row_stats(
            workload, layer_index, lane_groups,
            lane_bits=float((lane_groups * bits).sum()),
            nnz_bits=float((layer.input_nnz * bits).sum()),
            bits=bits,
            input_report=fmt.measure(layer.input_nnz, bits, layer.in_dim),
            output_report=fmt.measure(out_nnz, bits, layer.out_dim))

    def lane_groups(self, nnz: np.ndarray) -> np.ndarray:
        """Per-node bit-serial lane groups of the Combination Engine."""
        cfg = self.config
        return np.ceil(nnz / (cfg.combination_tiles * cfg.bses_per_cpe))

    def cost_from_row_stats(self, workload: Workload, layer_index: int,
                            lane_groups: np.ndarray, *,
                            lane_bits: float, nnz_bits: float,
                            bits: np.ndarray, input_report: FormatReport,
                            output_report: FormatReport) -> LayerCost:
        """The layer's cost from the statistics of its bits row.

        ``lane_groups`` is the layer's :meth:`lane_groups` (it does not
        depend on the bits), ``bits`` the row's :func:`stored_bits`
        (Bitmap streams its maximum), ``lane_bits`` the sum of
        ``lane_groups`` times ``bits``, ``nnz_bits`` the sum of
        non-zeros times ``bits``, and the reports measure the input and
        output feature maps in this model's storage format.  Every MEGA
        formula lives here: :meth:`layer_cost` feeds it one row's
        statistics, and the batched evaluator feeds it statistics
        computed for many jobs in one stacked pass.  The aggregation
        locality comes from :func:`~repro.sim.locality.locality_structure`,
        built once per (graph, tiling) and process.
        """
        from ..sim.locality import aggregation_locality_traffic
        from .condense import choose_num_parts

        layer = workload.layers[layer_index]
        cfg = self.config
        adjacency = workload.adjacency
        n, edges = workload.num_nodes, workload.num_edges
        f_out = layer.out_dim

        # ---- Combination Engine cycles --------------------------------
        column_passes = math.ceil(f_out / cfg.cpes_per_tile)
        if self.storage == "adaptive-package":
            bit_serial_cycles = lane_bits * column_passes
            num_packages = input_report.breakdown["num_packages"]
        else:
            # Bitmap streams fixed-width values: decoder work scales with
            # the max bitwidth, not each node's own (Fig. 19 ablation).
            max_bits = int(bits.max()) if len(bits) else 0
            bit_serial_cycles = float((lane_groups * max_bits).sum()) * column_passes
            num_packages = math.ceil(input_report.total_bits / cfg.package.long)
        decode_cycles = num_packages / cfg.combination_tiles
        combination_cycles = max(bit_serial_cycles, decode_cycles)

        # ---- Aggregation Engine cycles ---------------------------------
        aggregation_cycles = edges * f_out / cfg.aggregation_units
        encode_cycles = n * f_out / cfg.qn_units
        aggregation_cycles = max(aggregation_cycles, encode_cycles)

        # ---- DRAM traffic ----------------------------------------------
        input_bytes = input_report.total_bits / 8.0
        traffic = self.dram.sequential_access(input_bytes, purpose="features_in")
        traffic.accumulate(self.dram.sequential_access(
            self.weight_traffic_bytes(layer, cfg.weight_bits), purpose="weights"))

        # Combined features B are ~dense 4-bit vectors (Sec. V-A).
        combined_bytes = f_out * cfg.weight_bits / 8.0
        agg_buffer = self.buffers["aggregation"].capacity_bytes
        num_parts = choose_num_parts(n, f_out, agg_buffer, cfg.psum_bits)
        partitioned = self.partition and num_parts > 1
        strategy = "condense" if self.condense else ("metis" if partitioned else "naive")
        buffer_nodes = max(int(agg_buffer / (f_out * cfg.psum_bits / 8.0)), 1)
        agg_traffic = aggregation_locality_traffic(
            adjacency, combined_bytes, self.dram, strategy=strategy,
            num_parts=num_parts if partitioned else None,
            buffer_nodes=buffer_nodes,
            combination_buffer_bytes=self.buffers["combination"].capacity_bytes,
        )
        traffic.accumulate(agg_traffic.total)

        # Aggregated output written back in packaged form (next layer's
        # input feature map, 8-bit codes at the learned bitwidths).
        traffic.accumulate(self.dram.sequential_access(
            output_report.total_bits / 8.0, purpose="features_out"))

        # ---- Energy -----------------------------------------------------
        bitops = nnz_bits * cfg.weight_bits * f_out
        pu_pj = bitops * self.energy.bitop_pj
        pu_pj += edges * f_out * self.energy.int_mac_pj(8, cfg.psum_bits)
        sram_bytes = (input_bytes + n * combined_bytes * 2.0
                      + edges * f_out * cfg.psum_bits / 8.0 * 2.0)

        return LayerCost(
            combination_cycles=combination_cycles,
            aggregation_cycles=aggregation_cycles,
            traffic=traffic,
            pu_energy_pj=pu_pj,
            sram_bytes_moved=sram_bytes,
            details={
                "num_parts": num_parts,
                "num_packages": float(num_packages),
                "input_mb": input_bytes / 2 ** 20,
                "agg_cross_mb": agg_traffic.cross.total_mb,
                "agg_internal_mb": agg_traffic.internal.total_mb,
            },
        )

    # ------------------------------------------------------------------
    def _format(self):
        if self.storage == "adaptive-package":
            return AdaptivePackageFormat(self.config.package)
        return BitmapFormat()


def _register_mega() -> None:
    """Register MEGA plus its Fig. 19 ablation steps.

    All entries share the :class:`MegaModel` factory with preset
    keyword defaults; user variant kwargs (``SimJob`` variants) override
    the preset, so ablation sweeps stay expressible either way.
    """
    entries = (
        ("mega", (), "full MEGA: quantization + Adaptive-Package + "
                     "Condense-Edge"),
        # Fig. 19 step 1: degree-aware quantization stored in Bitmap.
        ("mega-bitmap", (("storage", "bitmap"), ("condense", False)),
         "ablation: quantization in Bitmap storage, no Condense-Edge"),
        # Fig. 19 step 2: + Adaptive-Package (still no Condense-Edge).
        ("mega-no-condense", (("condense", False),),
         "ablation: Adaptive-Package storage, no Condense-Edge"),
    )
    for name, defaults, description in entries:
        ACCELERATORS.add(name, AcceleratorEntry(
            name=name,
            factory=MegaModel,
            precision="degree-aware",
            description=description,
            accepts_variants=True,
            defaults=defaults,
        ))


_register_mega()
