"""Baseline GNN accelerator models: HyGCN, GCNAX, GROW, SGCN (Sec. VI-A2).

One parameterized cycle-approximate model covers all four designs plus
their 8-bit variants and HyGCN-C (the Fig. 19 ablation baseline).  The
parameters encode exactly the differences Table V lists:

===========  =========  ===========  =========  ==========  =========
accelerator  exec       sparsity     precision  locality    storage
===========  =========  ===========  =========  ==========  =========
HyGCN        (AX)W      none         32 bit     none        dense
GCNAX        A(XW)      both phases  32 bit     tiled       dense
GROW         A(XW)      both phases  32 bit     METIS       CSR
SGCN         A(XW)      aggregation  32 bit     tiled       SGCN fmt
MEGA         A(XW)      both phases  mixed      Condense    Adaptive
===========  =========  ===========  =========  ==========  =========

All share the DRAM model, the SRAM energy model and the matched 392 KB
buffer budget, so differences come only from dataflow and compression —
mirroring the paper's controlled comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from ..formats.base import bits_needed
from ..paper_data import TABLE_V_BASELINES, TABLE_VII_ORIGINAL
from ..registry import ACCELERATORS, AcceleratorEntry
from ..sim import DramModel
from ..sim.accelerator import AcceleratorModel, LayerCost

if TYPE_CHECKING:
    from ..sim.workload import Workload

__all__ = ["BaselineConfig", "GenericAcceleratorModel", "BASELINE_PRESETS",
           "build_baseline"]


@dataclass(frozen=True)
class BaselineConfig:
    """Structural knobs distinguishing the baseline accelerators."""

    name: str
    dram_overlap: float               # DRAM time hidden under compute
    total_power_mw: float
    execution_order: str = "A_XW"     # "AXW" (HyGCN) or "A_XW"
    combination_lanes: int = 32       # FP32 MAC lanes for combination
    aggregation_lanes: int = 64       # FP32 lanes for aggregation
    feature_bits: int = 32            # 32 (FP32) or 8 (the 8-bit variants)
    sparsity_combination: bool = True
    sparsity_aggregation: bool = True
    combination_utilization: float = 1.0  # systolic bubble factor
    storage: str = "dense"            # dense | csr | sgcn
    locality: str = "naive"           # naive | metis
    aggregation_buffer_kb: float = 128.0
    total_buffer_kb: float = 392.0


# Matched configurations (Table V, numbers in repro.paper_data) ...
BASELINE_PRESETS: Dict[str, BaselineConfig] = {
    name: BaselineConfig(name=name, **params)
    for name, params in TABLE_V_BASELINES.items()
}
# ... plus the derived variants:
# 8-bit variants: DQ-INT8 networks on BitOP-matched integer units.
BASELINE_PRESETS["hygcn-8bit"] = replace(
    BASELINE_PRESETS["hygcn"], name="hygcn-8bit", feature_bits=8)
BASELINE_PRESETS["gcnax-8bit"] = replace(
    BASELINE_PRESETS["gcnax"], name="gcnax-8bit", feature_bits=8)
# HyGCN-C: HyGCN with the A(XW) execution order (Fig. 19 baseline).
BASELINE_PRESETS["hygcn-c"] = replace(
    BASELINE_PRESETS["hygcn"], name="hygcn-c", execution_order="A_XW",
    combination_lanes=512)
# Original configurations (Table VII, numbers in repro.paper_data).
for _name, _params in TABLE_VII_ORIGINAL.items():
    _base = BASELINE_PRESETS[_name.split("-")[0]]
    BASELINE_PRESETS[_name] = replace(_base, name=_name, **_params)


def build_baseline(name: str, dram: Optional[DramModel] = None) -> "GenericAcceleratorModel":
    """Instantiate a preset baseline model by name."""
    key = name.lower()
    if key not in BASELINE_PRESETS:
        raise ValueError(f"unknown baseline {name!r}; "
                         f"expected one of {sorted(BASELINE_PRESETS)}")
    return GenericAcceleratorModel(BASELINE_PRESETS[key], dram=dram)


def _register_baselines() -> None:
    """Register every preset with the accelerator registry.

    The workload precision pairing is the paper's: the "naively replace
    the computation units" 8-bit variants consume uniform INT8 networks
    (Sec. VI-C1), everything else runs FP32.
    """
    for name, config in BASELINE_PRESETS.items():
        def factory(_name=name, **kwargs):
            return build_baseline(_name, **kwargs)
        ACCELERATORS.add(name, AcceleratorEntry(
            name=name,
            factory=factory,
            precision="int8" if name.endswith("-8bit") else "fp32",
            description=(f"{config.storage} storage, {config.locality} "
                         f"locality, {config.feature_bits}-bit features"),
        ))


_register_baselines()


class GenericAcceleratorModel(AcceleratorModel):
    """Cycle-approximate model parameterized by :class:`BaselineConfig`."""

    def __init__(self, config: BaselineConfig,
                 dram: Optional[DramModel] = None) -> None:
        self.config = config
        self.name = config.name
        self.dram_overlap = config.dram_overlap
        self.total_power_mw = config.total_power_mw
        super().__init__(dram=dram)

    # ------------------------------------------------------------------
    def layer_cost(self, workload: Workload, layer_index: int) -> LayerCost:
        """One layer's cost.  Its aggregation locality comes from
        :func:`~repro.sim.locality.locality_structure`, built once per
        (graph, tiling) and process."""
        cfg = self.config
        layer = workload.layers[layer_index]
        n, edges = workload.num_nodes, workload.num_edges
        f_in, f_out = layer.in_dim, layer.out_dim
        bits_f = cfg.feature_bits
        # The 8-bit variants "naively replace the computation units and
        # run 8-bit quantized models" (Sec. VI-C1): same lane count,
        # cheaper MACs — which is exactly why their improvement over the
        # 32-bit versions is marginal (DRAM-bound, not compute-bound).
        comb_lanes = cfg.combination_lanes * cfg.combination_utilization
        agg_lanes = cfg.aggregation_lanes

        total_nnz = float(layer.input_nnz.sum())
        dense_vals = float(n) * f_in

        if cfg.execution_order == "AXW":
            # Aggregate the raw features first, then combine the (dense)
            # aggregated map — the extra MACs HyGCN pays (Sec. VI-C1).
            aggregation_cycles = edges * f_in / agg_lanes
            combination_cycles = dense_vals * f_out / comb_lanes
        else:
            comb_vals = total_nnz if cfg.sparsity_combination else dense_vals
            combination_cycles = comb_vals * f_out / comb_lanes
            agg_edges = edges if cfg.sparsity_aggregation else edges
            aggregation_cycles = agg_edges * f_out / agg_lanes

        traffic = self._layer_traffic(workload, layer_index)

        macs = (edges * f_in + dense_vals * f_out if cfg.execution_order == "AXW"
                else (total_nnz if cfg.sparsity_combination else dense_vals) * f_out
                + edges * f_out)
        if bits_f == 32:
            pu_pj = macs * self.energy.fp32_mac_pj
        else:
            pu_pj = macs * self.energy.int_mac_pj(bits_f, bits_f)
        sram_bytes = traffic.transferred_bytes + edges * f_out * 4.0

        return LayerCost(
            combination_cycles=combination_cycles,
            aggregation_cycles=aggregation_cycles,
            traffic=traffic,
            pu_energy_pj=pu_pj,
            sram_bytes_moved=sram_bytes,
            details={"macs": macs},
        )

    # ------------------------------------------------------------------
    def _feature_storage_bytes(self, num_values: float, total_nnz: float,
                               num_nodes: int, dim: int) -> float:
        cfg = self.config
        bits_f = cfg.feature_bits
        if cfg.storage == "dense":
            return num_values * bits_f / 8.0
        if cfg.storage == "csr":
            index_bits = bits_needed(dim)
            return (total_nnz * (bits_f + index_bits) + (num_nodes + 1) * 32) / 8.0
        if cfg.storage == "sgcn":
            # SGCN's compressed-sparse features: bitmap + packed values.
            return (total_nnz * bits_f + num_nodes * dim) / 8.0
        raise ValueError(f"unknown storage {cfg.storage!r}")

    def _layer_traffic(self, workload: Workload, layer_index: int):
        cfg = self.config
        layer = workload.layers[layer_index]
        n, edges = workload.num_nodes, workload.num_edges
        f_in, f_out = layer.in_dim, layer.out_dim
        bits_f = cfg.feature_bits
        total_nnz = float(layer.input_nnz.sum())

        # Input features streamed once for the combination (or the
        # HyGCN aggregation) pass.
        input_bytes = self._feature_storage_bytes(float(n) * f_in, total_nnz, n, f_in)
        traffic = self.dram.sequential_access(input_bytes, purpose="features_in")
        weight_bits = 32 if bits_f == 32 else 8
        traffic.accumulate(self.dram.sequential_access(
            self.weight_traffic_bytes(layer, weight_bits), purpose="weights"))

        if cfg.execution_order == "AXW":
            # Per-edge gathers of full feature vectors (HyGCN's window
            # sliding cannot fix inter-window irregularity), plus the
            # dense AX intermediate spilled and re-read.
            feat_bytes = f_in * bits_f / 8.0
            traffic.accumulate(self.dram.random_access(edges, feat_bytes,
                                                       purpose="agg_gather"))
            ax_bytes = float(n) * f_in * bits_f / 8.0
            traffic.accumulate(self.dram.sequential_access(ax_bytes, purpose="ax_write"))
            traffic.accumulate(self.dram.sequential_access(ax_bytes, purpose="ax_read"))
        else:
            from ..sim.locality import aggregation_locality_traffic

            combined_bytes = f_out * bits_f / 8.0
            buffer_bytes = int(cfg.aggregation_buffer_kb * 1024)
            buffer_nodes = max(int(buffer_bytes / max(f_out * 4.0, 1.0)), 1)
            num_parts = max(int(math.ceil(n / buffer_nodes)), 1)
            partitioned = cfg.locality == "metis" and num_parts > 1
            # The unified buffer is what the aggregation buffer leaves of
            # the matched budget; no baseline has a Sparse Buffer, and
            # its naive and metis strategies never read one.
            agg = aggregation_locality_traffic(
                workload.adjacency, combined_bytes, self.dram,
                strategy="metis" if partitioned else "naive",
                num_parts=num_parts, buffer_nodes=buffer_nodes,
                combination_buffer_bytes=int(
                    (cfg.total_buffer_kb - cfg.aggregation_buffer_kb) * 1024),
                sparse_buffer_bytes=0,
            )
            traffic.accumulate(agg.total)

        out_bytes = self._feature_storage_bytes(float(n) * f_out,
                                                float(n) * f_out * 0.5, n, f_out)
        traffic.accumulate(self.dram.sequential_access(out_bytes, purpose="features_out"))
        # Adjacency structure (CSC edges) read once per layer.
        traffic.accumulate(self.dram.sequential_access(
            edges * (bits_needed(n) + 32) / 8.0, purpose="adjacency"))
        return traffic
