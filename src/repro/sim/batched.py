"""Batched cross-job simulation (ROADMAP item 5).

The DSE / ablation / sensitivity sweeps are hundreds of near-identical
``SimJob``s over one dataset, differing only in a few scalar knobs
(quantization targets, package geometry, condense/partition switches,
buffer presets).  The scalar path pays the full per-job cost every
time; this module evaluates a whole batch in one pass:

- **Stacked knob arrays** — the per-node bitwidth allocations of all J
  jobs form one (J, nodes) matrix per layer; bit-serial cycle and
  BitOP-energy reductions become row-sums of that stack, and the
  Adaptive-Package footprint of all jobs is measured by
  :meth:`~repro.formats.AdaptivePackageFormat.measure_batch` in a
  single flattened run-boundary pass.
- **Shared structural precompute** — the O(E log E) locality
  statistics (:class:`~repro.sim.locality.LocalityStructure`) depend
  only on (adjacency, tiling), so one memo serves every job and layer
  that tiles the graph the same way; graph partitions are already
  content-cached.
- **Scalar assembly, per job** — the final ``LayerCost`` →
  ``SimReport`` arithmetic runs through the *same* code as the scalar
  oracle (:meth:`~repro.sim.accelerator.AcceleratorModel.assemble_report`),
  with identical operand values and operation order.

The contract is **bit-identity**: for every job,
``simulate_batch(...)[i]`` equals ``models[i].simulate(workloads[i])``
field for field, float for float.  Integer intermediates are exact by
construction; the only float reductions that move into stacked form
are row-sums over the contiguous last axis, which numpy reduces
per-row exactly like the scalar 1-D sum (property-tested in
``tests/test_batched.py`` against the scalar path and the
``repro.perf.reference`` seed snapshots).

Models the evaluator does not understand (anything that is neither a
:class:`~repro.mega.performance.MegaModel` nor a
:class:`~repro.baselines.generic.GenericAcceleratorModel`), and jobs
whose workloads do not share the batch's adjacency/sparsity arrays,
fall through to ``model.simulate`` — the scalar oracle — so a batch
never changes results, only wall-clock.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.generic import GenericAcceleratorModel
from ..formats import AdaptivePackageFormat
from ..mega.condense import choose_num_parts
from ..mega.performance import MegaModel
from ..perf.cache import cached_partition
from .accelerator import AcceleratorModel, LayerCost, SimReport
from .locality import shared_locality_structure, traffic_from_structure
from .workload import Workload

__all__ = ["batchable_model", "simulate_batch"]


def batchable_model(model: AcceleratorModel) -> bool:
    """True if the batched evaluator understands this model type."""
    return isinstance(model, (MegaModel, GenericAcceleratorModel))


def _same_shape(a: Workload, b: Workload) -> bool:
    """Do two workloads share the structural arrays a batch stacks over?

    Identity (not content) checks: the engine's batched workload
    builder hands out shared adjacency/nnz arrays, which is exactly
    when stacking pays.  Independently-built equal workloads simply
    take the scalar path.
    """
    if a.adjacency is not b.adjacency or len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if (la.input_nnz is not lb.input_nnz or la.in_dim != lb.in_dim
                or la.out_dim != lb.out_dim):
            return False
    return True


def simulate_batch(models: Sequence[AcceleratorModel],
                   workloads: Sequence[Workload]) -> List[SimReport]:
    """Simulate N (model, workload) pairs, sharing work across them.

    Returns reports aligned with the inputs.  MEGA jobs whose
    workloads share structure evaluate through the stacked path;
    baseline jobs run the scalar formulas with the locality-structure
    memo; everything else falls back to ``model.simulate``.
    """
    if len(models) != len(workloads):
        raise ValueError("models and workloads must be parallel sequences")
    reports: List[Optional[SimReport]] = [None] * len(models)
    structures: Dict[tuple, object] = {}

    mega_groups: Dict[int, List[int]] = {}
    mega_rep: Dict[int, Workload] = {}
    for i, (model, workload) in enumerate(zip(models, workloads)):
        if isinstance(model, MegaModel):
            key = id(workload.adjacency)
            rep = mega_rep.get(key)
            if rep is None:
                mega_rep[key] = workload
                mega_groups[key] = [i]
            elif _same_shape(rep, workload):
                mega_groups[key].append(i)
            else:
                reports[i] = model.simulate(workload)
        elif isinstance(model, GenericAcceleratorModel):
            costs = [model.layer_cost(workload, li, structures=structures)
                     for li in range(len(workload.layers))]
            reports[i] = model.assemble_report(workload, costs)
        else:
            reports[i] = model.simulate(workload)

    for indices in mega_groups.values():
        group_models = [models[i] for i in indices]
        group_workloads = [workloads[i] for i in indices]
        for i, report in zip(indices, _simulate_mega_group(
                group_models, group_workloads, structures)):
            reports[i] = report
    return reports  # type: ignore[return-value]


# ----------------------------------------------------------------------
# MEGA stacked path.  The formulas here are the batch-axis transcription
# of MegaModel.layer_cost — every expression mirrors the scalar one with
# the same operand values and order; tests/test_batched.py pins the
# bit-identity against the scalar oracle.
# ----------------------------------------------------------------------

def _simulate_mega_group(models: List[MegaModel], workloads: List[Workload],
                         structures: dict) -> List[SimReport]:
    num_layers = len(workloads[0].layers)
    per_job: List[List[LayerCost]] = [[] for _ in models]
    for li in range(num_layers):
        for costs, cost in zip(per_job,
                               _mega_layer_costs(models, workloads, li,
                                                 structures)):
            costs.append(cost)
    return [model.assemble_report(workload, costs)
            for model, workload, costs in zip(models, workloads, per_job)]


def _mega_layer_costs(models: List[MegaModel], workloads: List[Workload],
                      li: int, structures: dict) -> List[LayerCost]:
    rep = workloads[0]
    layer0 = rep.layers[li]
    adjacency = rep.adjacency
    n, edges = rep.num_nodes, rep.num_edges
    in_dim, f_out = layer0.in_dim, layer0.out_dim
    nnz = layer0.input_nnz
    jobs = len(models)

    # Dedup identical bitwidth allocations before stacking: a DSE grid
    # sweeps (accelerator ablation x quantization target), so jobs that
    # differ only in the accelerator share one workload object — and
    # therefore one ``input_bits`` array (identity, courtesy of the
    # engine's workload memo).  Every row-keyed quantity below
    # (bit-serial sums, format measurements, BitOP sums) is computed
    # once per unique row and fanned back out per job; jobs with equal
    # inputs get equal outputs either way, so this cannot change
    # results, only skip repeats.
    row_index: Dict[int, int] = {}
    unique_bits: List[np.ndarray] = []
    job_row: List[int] = []
    for workload in workloads:
        arr = workload.layers[li].input_bits
        idx = row_index.get(id(arr))
        if idx is None:
            idx = row_index[id(arr)] = len(unique_bits)
            unique_bits.append(arr)
        job_row.append(idx)

    # (U, N) stack of the per-node storage bitwidths (<= 8-bit codes).
    bits_stack = np.stack([np.minimum(arr, 8) for arr in unique_bits])

    # Combination-lane grouping is a function of (nnz, tiles, bses)
    # only — share it across jobs with the same geometry.
    lane_groups_memo: Dict[Tuple[int, int], np.ndarray] = {}

    def lane_groups_for(cfg) -> np.ndarray:
        key = (cfg.combination_tiles, cfg.bses_per_cpe)
        lanes = lane_groups_memo.get(key)
        if lanes is None:
            lanes = lane_groups_memo[key] = np.ceil(nnz / (key[0] * key[1]))
        return lanes

    # Bit-serial row-sums: one stacked reduction over the unique rows
    # per lane geometry (each row sums independently, exactly like the
    # scalar 1-D sum).
    geometry_sums: Dict[Tuple[int, int], np.ndarray] = {}
    for model in models:
        key = (model.config.combination_tiles, model.config.bses_per_cpe)
        if key not in geometry_sums:
            lanes = lane_groups_for(model.config)
            geometry_sums[key] = (lanes[None, :] * bits_stack).sum(axis=1)

    # Format measurement: the unique rows of all adaptive-package jobs
    # sharing a package geometry are measured in one flattened pass
    # (input map and the packaged output map); bitmap-ablation jobs
    # measure once per unique row (their measure is a two-reduction
    # formula, there is nothing to stack).
    out_nnz = np.full(n, min(max(int(f_out * 0.5), 1), f_out), dtype=np.int64)
    in_reports: List[Optional[object]] = [None] * jobs
    out_reports: List[Optional[object]] = [None] * jobs
    package_rows: Dict[object, List[int]] = {}
    bitmap_memo: Dict[Tuple[str, int], tuple] = {}
    for j, model in enumerate(models):
        if model.storage == "adaptive-package":
            package_rows.setdefault(model.config.package, []).append(j)
        else:
            key = (model.storage, job_row[j])
            measured = bitmap_memo.get(key)
            if measured is None:
                fmt = model._format()
                bits_row = bits_stack[job_row[j]]
                measured = bitmap_memo[key] = (
                    fmt.measure(nnz, bits_row, in_dim),
                    fmt.measure(out_nnz, bits_row, f_out))
            in_reports[j], out_reports[j] = measured
    for package, members in package_rows.items():
        fmt = AdaptivePackageFormat(package)
        rows = list(dict.fromkeys(job_row[j] for j in members))
        position = {row: k for k, row in enumerate(rows)}
        in_batch = fmt.measure_batch(nnz, bits_stack[rows], in_dim)
        out_batch = fmt.measure_batch(out_nnz, bits_stack[rows], f_out)
        for j in members:
            in_reports[j] = in_batch[position[job_row[j]]]
            out_reports[j] = out_batch[position[job_row[j]]]

    # BitOP energy row-sums: integer products, exact in any order.
    bitop_sums = (nnz[None, :].astype(np.int64) * bits_stack).sum(axis=1)

    costs: List[LayerCost] = []
    for j, (model, workload) in enumerate(zip(models, workloads)):
        cfg = model.config
        layer = workload.layers[li]
        report, out_report = in_reports[j], out_reports[j]

        column_passes = math.ceil(f_out / cfg.cpes_per_tile)
        geometry = (cfg.combination_tiles, cfg.bses_per_cpe)
        if model.storage == "adaptive-package":
            bit_serial_cycles = (float(geometry_sums[geometry][job_row[j]])
                                 * column_passes)
            num_packages = report.breakdown["num_packages"]
        else:
            bits_row = bits_stack[job_row[j]]
            max_bits = int(bits_row.max()) if len(bits_row) else 0
            lanes = lane_groups_for(cfg)
            bit_serial_cycles = float((lanes * max_bits).sum()) * column_passes
            num_packages = math.ceil(report.total_bits / cfg.package.long)
        decode_cycles = num_packages / cfg.combination_tiles
        combination_cycles = max(bit_serial_cycles, decode_cycles)

        aggregation_cycles = edges * f_out / cfg.aggregation_units
        encode_cycles = n * f_out / cfg.qn_units
        aggregation_cycles = max(aggregation_cycles, encode_cycles)

        input_bytes = report.total_bits / 8.0
        traffic = model.dram.sequential_access(input_bytes,
                                               purpose="features_in")
        traffic.accumulate(model.dram.sequential_access(
            model.weight_traffic_bytes(layer, cfg.weight_bits),
            purpose="weights"))

        combined_bytes = f_out * cfg.weight_bits / 8.0
        agg_buffer = model.buffers["aggregation"].capacity_bytes
        num_parts = choose_num_parts(n, f_out, agg_buffer, cfg.psum_bits)
        parts = None
        if model.partition and num_parts > 1:
            parts = cached_partition(adjacency, num_parts, seed=0,
                                     refine_passes=1).parts
        strategy = ("condense" if model.condense
                    else ("metis" if parts is not None else "naive"))
        buffer_nodes = max(int(agg_buffer / (f_out * cfg.psum_bits / 8.0)), 1)
        structure = shared_locality_structure(
            adjacency, strategy=strategy, parts=parts,
            buffer_nodes=buffer_nodes, structures=structures)
        agg_traffic = traffic_from_structure(
            structure, combined_bytes, model.dram, strategy=strategy,
            combination_buffer_bytes=model.buffers["combination"].capacity_bytes,
        )
        traffic.accumulate(agg_traffic.total)
        traffic.accumulate(model.dram.sequential_access(
            out_report.total_bits / 8.0, purpose="features_out"))

        bitops = float(bitop_sums[job_row[j]]) * cfg.weight_bits * f_out
        pu_pj = bitops * model.energy.bitop_pj
        pu_pj += edges * f_out * model.energy.int_mac_pj(8, cfg.psum_bits)
        sram_bytes = (input_bytes + n * combined_bytes * 2.0
                      + edges * f_out * cfg.psum_bits / 8.0 * 2.0)

        costs.append(LayerCost(
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
        ))
    return costs
