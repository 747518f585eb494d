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

A layer's bits-row statistics (the bit-serial lane sum, the BitOP sum
and both format measurements) are memoized on its ``LayerSpec`` per
storage format, package lengths and lane geometry, so every model that
agrees on those measures a shared workload's rows once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from ..formats import AdaptivePackageFormat, BitmapFormat, FormatReport
from ..paper_data import MEGA_TOTAL_POWER_MW
from ..registry import ACCELERATORS, AcceleratorEntry
from ..sim import DramModel
from ..sim.accelerator import AcceleratorModel, LayerCost
from .config import MegaConfig

if TYPE_CHECKING:
    from ..sim.workload import LayerSpec, Workload

__all__ = ["MegaModel"]


class _RowStats(NamedTuple):
    """What a layer's cost reads of its bits row (see ``_row_stats``)."""

    lane_bits: float               # sum of lane groups * streamed bits
    nnz_bits: float                # sum of input non-zeros * stored bits
    input_report: FormatReport     # the input feature map, stored
    output_report: FormatReport    # the aggregated output map, stored


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
        super().__init__(dram=dram)
        if storage not in ("adaptive-package", "bitmap"):
            raise ValueError(f"unknown storage {storage!r}")
        self.storage = storage
        self.condense = condense
        self.partition = partition

    # ------------------------------------------------------------------
    def layer_cost(self, workload: Workload, layer_index: int) -> LayerCost:
        """One layer's cost.

        Every MEGA formula is written once: those over the layer's bits
        row in :meth:`_row_stats`, the rest here.  The aggregation
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
        stats = self._row_stats(layer, n)

        # ---- Combination Engine cycles --------------------------------
        column_passes = math.ceil(f_out / cfg.cpes_per_tile)
        bit_serial_cycles = stats.lane_bits * column_passes
        if self.storage == "adaptive-package":
            num_packages = stats.input_report.breakdown["num_packages"]
        else:
            num_packages = math.ceil(stats.input_report.total_bits
                                     / cfg.package.long)
        decode_cycles = num_packages / cfg.combination_tiles
        combination_cycles = max(bit_serial_cycles, decode_cycles)

        # ---- Aggregation Engine cycles ---------------------------------
        aggregation_cycles = edges * f_out / cfg.aggregation_units
        encode_cycles = n * f_out / cfg.qn_units
        aggregation_cycles = max(aggregation_cycles, encode_cycles)

        # ---- DRAM traffic ----------------------------------------------
        input_bytes = stats.input_report.total_bits / 8.0
        traffic = self.dram.sequential_access(input_bytes, purpose="features_in")
        traffic.accumulate(self.dram.sequential_access(
            self.weight_traffic_bytes(layer, cfg.weight_bits), purpose="weights"))

        # Combined features B are ~dense 4-bit vectors (Sec. V-A).
        combined_bytes = f_out * cfg.weight_bits / 8.0
        agg_buffer = int(cfg.aggregation_buffer_kb * 1024)
        num_parts = choose_num_parts(n, f_out, agg_buffer, cfg.psum_bits)
        partitioned = self.partition and num_parts > 1
        strategy = "condense" if self.condense else ("metis" if partitioned else "naive")
        buffer_nodes = max(int(agg_buffer / (f_out * cfg.psum_bits / 8.0)), 1)
        agg_traffic = aggregation_locality_traffic(
            adjacency, combined_bytes, self.dram, strategy=strategy,
            num_parts=num_parts if partitioned else None,
            buffer_nodes=buffer_nodes,
            combination_buffer_bytes=int(cfg.combination_buffer_kb * 1024),
            sparse_buffer_bytes=int(cfg.sparse_buffer_kb * 1024),
        )
        traffic.accumulate(agg_traffic.total)

        # Aggregated output written back in packaged form (next layer's
        # input feature map, 8-bit codes at the learned bitwidths).
        traffic.accumulate(self.dram.sequential_access(
            stats.output_report.total_bits / 8.0, purpose="features_out"))

        # ---- Energy -----------------------------------------------------
        bitops = stats.nnz_bits * cfg.weight_bits * f_out
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

    def _row_stats(self, layer: LayerSpec, num_nodes: int) -> _RowStats:
        """The statistics of ``layer``'s bits row that :meth:`layer_cost`
        reads, memoized on the layer (``LayerSpec.row_stats``).

        The key is everything they depend on besides the layer: the
        storage format, the package lengths and the lane geometry.  So
        every model agreeing on those (``mega`` and ``mega-no-condense``)
        measures the rows of a shared workload once.
        """
        cfg = self.config
        key = (self.storage, cfg.package, cfg.combination_tiles,
               cfg.bses_per_cpe)
        stats = layer.row_stats.get(key)
        if stats is None:
            bits = np.minimum(layer.input_bits, 8)  # MEGA stores <= 8-bit codes
            lane_groups = np.ceil(layer.input_nnz / (cfg.combination_tiles
                                                     * cfg.bses_per_cpe))
            if self.storage == "adaptive-package":
                lane_bits = float((lane_groups * bits).sum())
            else:
                # Bitmap streams fixed-width values: decoder work scales
                # with the max bitwidth, not each node's own (Fig. 19
                # ablation).
                max_bits = int(bits.max()) if len(bits) else 0
                lane_bits = float((lane_groups * max_bits).sum())
            # Per-node non-zeros of the aggregated output feature map.
            out_nnz = np.full(num_nodes, min(max(int(layer.out_dim * 0.5), 1),
                                             layer.out_dim), dtype=np.int64)
            fmt = self._format()
            stats = layer.row_stats[key] = _RowStats(
                lane_bits=lane_bits,
                nnz_bits=float((layer.input_nnz * bits).sum()),
                input_report=fmt.measure(layer.input_nnz, bits, layer.in_dim),
                output_report=fmt.measure(out_nnz, bits, layer.out_dim))
        return stats

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
