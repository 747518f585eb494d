"""Batched cross-job simulation.

The DSE / ablation / sensitivity sweeps are hundreds of near-identical
``SimJob``s over one dataset, differing only in a few scalar knobs
(quantization targets, package geometry, condense/partition switches,
buffer presets).  The scalar path pays the full per-job cost every
time; this module evaluates a whole batch in one pass:

- **Stacked row statistics** — the per-node bitwidth allocations of all
  J jobs form one (J, nodes) matrix per layer; bit-serial lane sums and
  BitOP sums become row-sums of that stack, and the storage footprint
  of all jobs sharing a format is measured by one
  :meth:`~repro.formats.SparseFormat.measure_batch` call (a single
  flattened run-boundary pass for Adaptive-Package).
- **Scalar formulas, per job** — each job's ``LayerCost`` comes from
  :meth:`~repro.mega.performance.MegaModel.cost_from_row_stats`, the
  method the scalar ``layer_cost`` calls with one row's statistics, and
  the ``SimReport`` from
  :meth:`~repro.sim.accelerator.AcceleratorModel.assemble_report`.
  The O(E log E) locality statistics come from
  :func:`~repro.sim.locality.locality_structure`, which builds each
  (graph, tiling) structure once per process for this path and the
  scalar one alike.

The contract is **bit-identity**: for every job,
``simulate_batch(...)[i]`` equals ``models[i].simulate(workloads[i])``
field for field, float for float.  Integer statistics are exact by
construction; the only float reduction that moves into stacked form is
the lane row-sum over the contiguous last axis, which numpy reduces
per-row exactly like the scalar 1-D sum (property-tested in
``tests/test_batched.py`` against the scalar path and the
``repro.perf.reference`` seed snapshots).

Every other model (the baselines included), and MEGA jobs whose
workloads do not share the batch's adjacency/sparsity arrays, fall
through to ``model.simulate`` — the scalar oracle — so a batch never
changes results, only wall-clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..formats import FormatReport
from ..mega.performance import MegaModel, output_nnz, stored_bits
from .accelerator import AcceleratorModel, LayerCost, SimReport
from .workload import Workload

__all__ = ["simulate_batch"]


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
    everything else falls back to ``model.simulate``.
    """
    if len(models) != len(workloads):
        raise ValueError("models and workloads must be parallel sequences")
    reports: List[Optional[SimReport]] = [None] * len(models)

    mega_groups: Dict[int, List[int]] = {}
    mega_rep: Dict[int, Workload] = {}
    for i, (model, workload) in enumerate(zip(models, workloads)):
        if not isinstance(model, MegaModel):
            reports[i] = model.simulate(workload)
            continue
        key = id(workload.adjacency)
        rep = mega_rep.get(key)
        if rep is None:
            mega_rep[key] = workload
            mega_groups[key] = [i]
        elif _same_shape(rep, workload):
            mega_groups[key].append(i)
        else:
            reports[i] = model.simulate(workload)

    for indices in mega_groups.values():
        group_models = [models[i] for i in indices]
        group_workloads = [workloads[i] for i in indices]
        for i, report in zip(indices, _simulate_mega_group(
                group_models, group_workloads)):
            reports[i] = report
    return reports  # type: ignore[return-value]


# ----------------------------------------------------------------------
# MEGA stacked path.  Only the row statistics are stacked here; every
# formula that turns them into a LayerCost is MegaModel's own
# (cost_from_row_stats, which the scalar layer_cost calls too).
# ----------------------------------------------------------------------

def _simulate_mega_group(models: List[MegaModel],
                         workloads: List[Workload]) -> List[SimReport]:
    num_layers = len(workloads[0].layers)
    per_job: List[List[LayerCost]] = [[] for _ in models]
    for li in range(num_layers):
        for costs, cost in zip(per_job,
                               _mega_layer_costs(models, workloads, li)):
            costs.append(cost)
    return [model.assemble_report(workload, costs)
            for model, workload, costs in zip(models, workloads, per_job)]


def _mega_layer_costs(models: List[MegaModel], workloads: List[Workload],
                      li: int) -> List[LayerCost]:
    layer0 = workloads[0].layers[li]
    in_dim, f_out = layer0.in_dim, layer0.out_dim
    nnz = layer0.input_nnz

    # Dedup identical bitwidth allocations before stacking: a DSE grid
    # sweeps (accelerator ablation x quantization target), so jobs that
    # differ only in the accelerator share one workload object — and
    # therefore one ``input_bits`` array (identity, courtesy of the
    # engine's workload memo).  Every row statistic below is computed
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

    # (U, N) stack of the per-node storage bitwidths.
    bits_stack = np.stack([stored_bits(arr) for arr in unique_bits])

    # Format measurement: the unique rows of all jobs sharing a storage
    # format are measured in one call per feature map (input map and
    # the packaged output map).
    out_nnz = output_nnz(workloads[0].num_nodes, f_out)
    in_reports: List[Optional[FormatReport]] = [None] * len(models)
    out_reports: List[Optional[FormatReport]] = [None] * len(models)
    format_jobs: Dict[tuple, List[int]] = {}
    for j, model in enumerate(models):
        format_jobs.setdefault((model.storage, model.config.package),
                               []).append(j)
    for members in format_jobs.values():
        fmt = models[members[0]]._format()
        rows = list(dict.fromkeys(job_row[j] for j in members))
        position = {row: k for k, row in enumerate(rows)}
        in_batch = fmt.measure_batch(nnz, bits_stack[rows], in_dim)
        out_batch = fmt.measure_batch(out_nnz, bits_stack[rows], f_out)
        for j in members:
            in_reports[j] = in_batch[position[job_row[j]]]
            out_reports[j] = out_batch[position[job_row[j]]]

    # BitOP row-sums: integer products, exact in any order.
    nnz_bits = (nnz[None, :].astype(np.int64) * bits_stack).sum(axis=1)

    # Lane groups and bit-serial row-sums, once per lane geometry (each
    # row sums independently, exactly like the scalar 1-D sum).
    lanes: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
    costs: List[LayerCost] = []
    for j, (model, workload) in enumerate(zip(models, workloads)):
        geometry = (model.config.combination_tiles, model.config.bses_per_cpe)
        if geometry not in lanes:
            groups = model.lane_groups(nnz)
            lanes[geometry] = groups, (groups[None, :] * bits_stack).sum(axis=1)
        lane_groups, lane_bits = lanes[geometry]
        row = job_row[j]
        costs.append(model.cost_from_row_stats(
            workload, li, lane_groups,
            lane_bits=float(lane_bits[row]),
            nnz_bits=float(nnz_bits[row]),
            bits=bits_stack[row],
            input_report=in_reports[j],
            output_report=out_reports[j]))
    return costs
