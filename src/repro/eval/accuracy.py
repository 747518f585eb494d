"""Accuracy-experiment runners (Tables I and VI, Fig. 3).

These train real (scaled) models with the numpy stack, so they are the
slow experiments.  Every runner is declared as an
:class:`~repro.registry.ExperimentSpec` whose job builder emits a
deduplicated batch of :class:`~repro.eval.engine.TrainJob` — FP32
baselines shared between tables train exactly once, warm reruns replay
finished trainings from the on-disk cache (training zero models), and
cold grids fan out over the engine's worker processes (``workers``).
The legacy function names remain as shims returning the artifact's
value bit-identically.  ``quick=True`` shrinks epochs for CI-style runs
while preserving the orderings the paper reports; ``config`` overrides
the budget outright (tests and benchmarks use tiny budgets).

Because a single training run is minutes of work, these specs are the
main beneficiaries of the supervision layer: a worker killed or hung
mid-grid costs one training (retried under the engine's ``retries``), not
the grid, and every finished training is journaled/persisted as it
lands, so an interrupted table resumes instead of retraining.  The
chaos suite (``tests/test_chaos.py``) holds these specs to the same
bit-identical-under-faults bar as the simulation sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..registry import EXPERIMENTS, ExperimentSpec
from ..report import run_experiment
from .engine import TrainJob

if TYPE_CHECKING:
    from ..nn import TrainConfig
    from ..quant import DegreeAwareConfig

__all__ = [
    "train_config",
    "degree_aware_config",
    "dq_bitwidth_sweep",
    "accuracy_comparison",
    "accuracy_grid",
    "degree_feature_magnitudes",
]


def train_config(quick: bool = True) -> TrainConfig:
    """Training budget: quick for tests, full for the real tables."""
    from ..nn import TrainConfig

    if quick:
        return TrainConfig(epochs=120, patience=100)
    return TrainConfig(epochs=300, patience=200)


def degree_aware_config(quick: bool = True,
                        target_average_bits: float = 2.5) -> DegreeAwareConfig:
    """Quick mode uses a faster bitwidth learning rate so the memory
    target is reached within the reduced epoch budget."""
    from ..quant import DegreeAwareConfig

    return DegreeAwareConfig(
        target_average_bits=target_average_bits,
        bits_lr=0.25 if quick else 0.05,
    )


# ----------------------------------------------------------------------
# Spec builders/reducers
# ----------------------------------------------------------------------

def _dq_bitwidth_jobs(dataset, model, bitwidths, quick, seed, config):
    config = config or train_config(quick)
    jobs: Dict[str, TrainJob] = {
        "fp32": TrainJob.from_call(dataset, model, "fp32", config=config,
                                   seed=seed)}
    for bits in bitwidths:
        jobs[f"{bits}bit"] = TrainJob.from_call(
            dataset, model, "dq", {"bits": int(bits)}, config=config,
            seed=seed)
    return jobs


def _dq_bitwidth_reduce(results: Mapping, dataset, model, bitwidths, quick,
                        seed, config):
    out: Dict[str, Dict[str, float]] = {
        "fp32": {"accuracy": results["fp32"].test_accuracy, "cr": 1.0}}
    for bits in bitwidths:
        run = results[f"{bits}bit"]
        out[f"{bits}bit"] = {"accuracy": run.test_accuracy,
                             "cr": run.compression_ratio}
    return out


def _accuracy_comparison_jobs(cases, quick, seed, target_average_bits, config):
    config = config or train_config(quick)
    quant_config = degree_aware_config(quick, target_average_bits)
    jobs: Dict[tuple, TrainJob] = {}
    for dataset, model in cases:
        jobs[(dataset, model, "fp32")] = TrainJob.from_call(
            dataset, model, "fp32", config=config, seed=seed)
        jobs[(dataset, model, "dq-int4")] = TrainJob.from_call(
            dataset, model, "dq", {"bits": 4}, config=config, seed=seed)
        jobs[(dataset, model, "degree-aware")] = TrainJob.from_call(
            dataset, model, "degree-aware", {"quant_config": quant_config},
            config=config, seed=seed)
    return jobs


def _accuracy_comparison_reduce(results: Mapping, cases, quick, seed,
                                target_average_bits, config):
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset, model in cases:
        fp32 = results[(dataset, model, "fp32")]
        dq = results[(dataset, model, "dq-int4")]
        ours = results[(dataset, model, "degree-aware")]
        out[f"{dataset}-{model}"] = {
            "fp32": {"accuracy": fp32.test_accuracy, "avg_bits": 32.0,
                     "cr": 1.0},
            "dq-int4": {"accuracy": dq.test_accuracy, "avg_bits": 4.0,
                        "cr": dq.compression_ratio},
            "degree-aware": {"accuracy": ours.test_accuracy,
                             "avg_bits": ours.average_bits,
                             "cr": ours.compression_ratio},
        }
    return out


def _accuracy_grid_jobs(cases, flows, seeds, quick, target_average_bits,
                        config):
    config = config or train_config(quick)
    flow_kwargs: Dict[str, Dict[str, object]] = {
        "dq": {"bits": 4},
        "degree-aware": {
            "quant_config": degree_aware_config(quick, target_average_bits)},
    }
    jobs: Dict[tuple, TrainJob] = {}
    for dataset, model in cases:
        for flow in flows:
            for seed in seeds:
                jobs[(dataset, model, flow, seed)] = TrainJob.from_call(
                    dataset, model, flow, flow_kwargs.get(flow),
                    config=config, seed=seed)
    return jobs


def _accuracy_grid_reduce(results: Mapping, cases, flows, seeds, quick,
                          target_average_bits, config):
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset, model in cases:
        row: Dict[str, Dict[str, float]] = {}
        for flow in flows:
            runs = [results[(dataset, model, flow, seed)] for seed in seeds]
            accs = [run.test_accuracy for run in runs]
            row[flow] = {
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "mean_avg_bits": float(np.mean([run.average_bits
                                                for run in runs])),
                "mean_cr": float(np.mean([run.compression_ratio
                                          for run in runs])),
                "runs": len(runs),
            }
        out[f"{dataset}-{model}"] = row
    return out


def _magnitudes_jobs(dataset, models, quick, seed, config):
    from ..nn import TrainConfig

    config = config or TrainConfig(epochs=30 if quick else 120, patience=1000)
    return {model: TrainJob.from_call(dataset, model, "feature-magnitudes",
                                      config=config, seed=seed)
            for model in models}


def _magnitudes_reduce(results: Mapping, dataset, models, quick, seed, config):
    return {model: np.asarray(results[model]).tolist() for model in models}


EXPERIMENTS.add("dq_bitwidth_sweep", ExperimentSpec(
    name="dq_bitwidth_sweep",
    description="Table I: DQ accuracy/CR on CiteSeer GIN across bitwidths",
    build_jobs=_dq_bitwidth_jobs,
    reduce=_dq_bitwidth_reduce,
    defaults=(("dataset", "citeseer"), ("model", "gin"),
              ("bitwidths", (8, 7, 6, 5, 4)), ("quick", True), ("seed", 0),
              ("config", None)),
))

EXPERIMENTS.add("accuracy_comparison", ExperimentSpec(
    name="accuracy_comparison",
    description="Table VI: FP32 vs DQ-INT4 vs Degree-Aware per "
                "(dataset, model)",
    build_jobs=_accuracy_comparison_jobs,
    reduce=_accuracy_comparison_reduce,
    defaults=(("cases", (("cora", "gcn"),)), ("quick", True), ("seed", 0),
              ("target_average_bits", 2.5), ("config", None)),
    suite_param="cases",
))

EXPERIMENTS.add("accuracy_grid", ExperimentSpec(
    name="accuracy_grid",
    description="Paper-style mean±std accuracy grid over "
                "(case × flow × seed), GAT included",
    build_jobs=_accuracy_grid_jobs,
    reduce=_accuracy_grid_reduce,
    defaults=(("cases", (("cora", "gcn"), ("citeseer", "gcn"),
                         ("cora", "gat"))),
              ("flows", ("fp32", "dq", "degree-aware")),
              ("seeds", (0, 1, 2)), ("quick", True),
              ("target_average_bits", 2.5), ("config", None)),
    suite_param="cases",
))

EXPERIMENTS.add("degree_feature_magnitudes", ExperimentSpec(
    name="degree_feature_magnitudes",
    description="Fig. 3: mean aggregated-feature magnitude per in-degree "
                "group",
    build_jobs=_magnitudes_jobs,
    reduce=_magnitudes_reduce,
    defaults=(("dataset", "cora"), ("models", ("gcn", "gin")),
              ("quick", True), ("seed", 0), ("config", None)),
))


# ----------------------------------------------------------------------
# Legacy shims (same names, same signatures, bit-identical values)
# ----------------------------------------------------------------------

def dq_bitwidth_sweep(dataset: str = "citeseer", model: str = "gin",
                      bitwidths: Sequence[int] = (8, 7, 6, 5, 4),
                      quick: bool = True, seed: int = 0,
                      config: Optional[TrainConfig] = None,
                      ) -> Dict[str, Dict[str, float]]:
    """Table I: DQ accuracy/CR on CiteSeer GIN across bitwidths."""
    return run_experiment("dq_bitwidth_sweep", dataset=dataset, model=model,
                          bitwidths=tuple(bitwidths), quick=quick, seed=seed,
                          config=config).value


def accuracy_comparison(cases: Sequence[Tuple[str, str]] = (("cora", "gcn"),),
                        quick: bool = True, seed: int = 0,
                        target_average_bits: float = 2.5,
                        config: Optional[TrainConfig] = None,
                        ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Table VI: FP32 vs DQ-INT4 vs Degree-Aware per (dataset, model)."""
    return run_experiment("accuracy_comparison", cases=tuple(cases),
                          quick=quick, seed=seed,
                          target_average_bits=target_average_bits,
                          config=config).value


def accuracy_grid(cases: Sequence[Tuple[str, str]] = (("cora", "gcn"),
                                                      ("citeseer", "gcn"),
                                                      ("cora", "gat")),
                  flows: Sequence[str] = ("fp32", "dq", "degree-aware"),
                  seeds: Sequence[int] = (0, 1, 2),
                  quick: bool = True,
                  target_average_bits: float = 2.5,
                  config: Optional[TrainConfig] = None,
                  ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Paper-style mean ± std grid over (case × flow × seed).

    The full multi-seed protocol the paper reports (Tables I/VI footnote)
    — affordable now that the whole grid is one deduplicated job batch:
    warm cells replay from disk and cold cells fan out over the worker
    pool.  Includes GAT (Discussion, Sec. VII-3) by default.
    """
    return run_experiment("accuracy_grid", cases=tuple(cases),
                          flows=tuple(flows), seeds=tuple(seeds), quick=quick,
                          target_average_bits=target_average_bits,
                          config=config).value


def degree_feature_magnitudes(dataset: str = "cora", models=("gcn", "gin"),
                              quick: bool = True, seed: int = 0,
                              config: Optional[TrainConfig] = None,
                              ) -> Dict[str, List[float]]:
    """Fig. 3: mean aggregated-feature magnitude per in-degree group.

    Trains each model briefly (via the ``feature-magnitudes`` flow, so
    repeated figure runs replay from the cache), then measures
    |features| after the first aggregation, bucketed by the paper's
    in-degree groups.
    """
    return run_experiment("degree_feature_magnitudes", dataset=dataset,
                          models=tuple(models), quick=quick, seed=seed,
                          config=config).value
