"""End-to-end quantization-aware training flows.

One call trains a model under a chosen quantization method and returns
accuracy plus compression statistics — the software pipeline behind
Tables I and VI and the inputs the accelerator simulators consume
(per-node bitwidths, scales, quantized feature maps).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graphs import Graph
from ..nn import TrainConfig, build_model, train
from ..paper_data import TABLE_III
from ..tensor import Tensor, no_grad
from .config import DegreeAwareConfig, DegreeQuantConfig, QuantRunResult
from .degree_aware import DegreeAwareQuantizer
from .degree_quant import DegreeQuantizer

__all__ = ["QuantRunResult", "layer_dims_for", "run_fp32", "run_degree_quant",
           "run_degree_aware", "run_feature_magnitudes", "TRAIN_FLOWS"]


def layer_dims_for(model_name: str, graph: Graph) -> List[int]:
    """Input feature length of each layer (dim_l of Eq. 4) at Table
    III's hidden width."""
    return [graph.feature_dim, TABLE_III[model_name.lower()]["hidden"]]


def run_fp32(model_name: str, graph: Graph, config: Optional[TrainConfig] = None,
             seed: int = 0) -> QuantRunResult:
    """FP32 reference model (no quantization)."""
    model = build_model(model_name, graph.feature_dim, graph.num_classes, seed=seed)
    result = train(model, graph, config=config)
    return QuantRunResult(
        method="fp32", model_name=model_name, dataset=graph.name,
        test_accuracy=result.test_accuracy, average_bits=32.0,
        compression_ratio=1.0, train_seconds=result.train_seconds,
        node_bitwidths=np.full(graph.num_nodes, 32, dtype=np.int64),
        extras={"best_epoch": result.best_epoch,
                "epochs_run": result.epochs_run},
    )


def run_degree_quant(model_name: str, graph: Graph, bits: int = 4,
                     config: Optional[TrainConfig] = None, seed: int = 0) -> QuantRunResult:
    """DQ baseline at a uniform ``bits`` (DQ-INT4 when bits=4)."""
    hooks = DegreeQuantizer(graph, DegreeQuantConfig(bits=bits, seed=seed))
    model = build_model(model_name, graph.feature_dim, graph.num_classes,
                        hooks=hooks, seed=seed)
    result = train(model, graph, config=config)
    return QuantRunResult(
        method=f"dq-int{bits}", model_name=model_name, dataset=graph.name,
        test_accuracy=result.test_accuracy, average_bits=hooks.average_bits(),
        compression_ratio=hooks.compression_ratio(),
        train_seconds=result.train_seconds,
        node_bitwidths=hooks.node_bitwidths(0),
        extras={"best_epoch": result.best_epoch,
                "epochs_run": result.epochs_run},
    )


def run_degree_aware(model_name: str, graph: Graph,
                     quant_config: Optional[DegreeAwareConfig] = None,
                     config: Optional[TrainConfig] = None,
                     seed: int = 0) -> QuantRunResult:
    """The paper's Degree-Aware mixed-precision flow (Sec. IV)."""
    dims = layer_dims_for(model_name, graph)
    hooks = DegreeAwareQuantizer(graph, dims, quant_config)
    model = build_model(model_name, graph.feature_dim, graph.num_classes,
                        hooks=hooks, seed=seed)
    # Warm-up forward so the lazily created per-column scales exist
    # before the quantization optimizers capture their parameter lists.
    model.train()
    model(Tensor(graph.features), graph)
    result = train(
        model, graph, config=config,
        extra_loss=hooks.extra_loss,
        extra_optimizers=hooks.optimizers(),
        # Only credit accuracy once the learned allocation meets the
        # memory budget (within 15%), so the reported CR is honest.
        select_when=lambda: hooks.feature_memory_kb() <= hooks.memory_target_kb * 1.2,
    )
    run = QuantRunResult(
        method="degree-aware", model_name=model_name, dataset=graph.name,
        test_accuracy=result.test_accuracy, average_bits=hooks.average_bits(),
        compression_ratio=hooks.compression_ratio(),
        train_seconds=result.train_seconds,
        node_bitwidths=hooks.node_bitwidths(0),
        node_scales=hooks.node_scales(0),
        extras={"best_epoch": result.best_epoch,
                "epochs_run": result.epochs_run},
    )
    run.extras["memory_kb"] = hooks.feature_memory_kb()
    run.extras["memory_target_kb"] = hooks.memory_target_kb
    return run


def run_feature_magnitudes(model_name: str, graph: Graph,
                           config: Optional[TrainConfig] = None,
                           seed: int = 0) -> np.ndarray:
    """Fig. 3 measurement flow: train briefly, return the mean
    aggregated-feature magnitude per in-degree group.

    Registered in :data:`TRAIN_FLOWS` so the degree-magnitude study runs
    through the same cached/parallel job engine as the accuracy tables.
    """
    from ..graphs.statistics import average_feature_by_degree

    model = build_model(model_name, graph.feature_dim, graph.num_classes,
                        seed=seed)
    train(model, graph, config=config)
    model.eval()
    with no_grad():
        hidden = model.hidden_features(Tensor(graph.features), graph)
    return average_feature_by_degree(graph, hidden.data)


# Flows executable as declarative TrainJobs by the job engine
# (:mod:`repro.eval.engine`).  Every entry has the uniform signature
# ``flow(model_name, graph, config=..., seed=..., **flow_kwargs)`` and
# returns a picklable result.  The keys are
# :data:`repro.quant.config.TRAIN_FLOW_NAMES`, which jobs are declared
# against without importing this module.
TRAIN_FLOWS = {
    "fp32": run_fp32,
    "dq": run_degree_quant,
    "degree-aware": run_degree_aware,
    "feature-magnitudes": run_feature_magnitudes,
}

