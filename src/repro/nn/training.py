"""Full-batch semi-supervised training loop with early stopping.

Reproduces the paper's training protocol: Adam, cross-entropy on the
train mask, model selection on validation accuracy, results reported as
mean +/- std over multiple seeds (Tables I and VI).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Union)

import numpy as np

from ..tensor import Tensor, functional as F, no_grad
from ..tensor.optim import Adam, clip_grad_norm
from .config import TrainConfig
from .module import Module

if TYPE_CHECKING:
    from ..graphs import Graph

__all__ = ["TrainConfig", "TrainResult", "train", "evaluate",
           "evaluate_masks", "train_multiple_seeds"]


@dataclass
class TrainResult:
    """Outcome of one run: best model accuracy and the loss curve.

    ``best_epoch`` is the epoch whose weights were restored, and 0 when
    no epoch was eligible (``select_when`` never held): then
    ``test_accuracy`` is 0.0 and ``best_val_accuracy`` -1.0.
    """

    best_val_accuracy: float
    test_accuracy: float
    train_seconds: float
    epochs_run: int
    best_epoch: int = 0
    history: List[Dict[str, float]] = field(default_factory=list)


def evaluate(model: Module, graph: Graph, mask: np.ndarray) -> float:
    """Accuracy of ``model`` on the nodes selected by ``mask``."""
    return evaluate_masks(model, graph, (mask,))[0]


def evaluate_masks(model: Module, graph: Graph,
                   masks: Sequence[np.ndarray]) -> List[float]:
    """Accuracy on several node masks from a single no-grad forward.

    The forward pass dominates evaluation cost; scoring the validation
    and test splits against one shared ``logits`` halves the number of
    inference forwards in the training loop.  Inference is
    side-effect-free (dropout is the identity, quantization observers
    only update in training mode), so the result is bit-identical to
    separate :func:`evaluate` calls.
    """
    model.eval()
    with no_grad():
        logits = model(Tensor(graph.features), graph)
    return [F.accuracy(logits, graph.labels, mask) for mask in masks]


def train(
    model: Module,
    graph: Graph,
    config: Optional[TrainConfig] = None,
    extra_loss: Optional[Callable[[], Optional[Tensor]]] = None,
    extra_optimizers: Optional[List] = None,
    select_when: Optional[Callable[[], bool]] = None,
) -> TrainResult:
    """Train ``model`` on ``graph`` and restore the best-validation weights.

    ``extra_loss`` supplies a regularizer evaluated per step — the
    Degree-Aware flow passes ``lambda: hooks.extra_loss()`` so the
    memory penalty (Eq. 4/5) joins the task loss, and
    ``extra_optimizers`` steps the quantization parameters beside the
    model's (Degree-Aware's Adam-for-scales + SGD-for-bits split).
    ``select_when`` gates checkpoint selection: epochs where it returns
    False are not eligible as the "best" model (the Degree-Aware flow
    uses it to require the memory budget to be met before accuracy is
    credited).
    """
    config = config or TrainConfig()
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    quant_optimizers = list(extra_optimizers or [])
    features = Tensor(graph.features)
    best_val, best_state, best_test = -1.0, None, 0.0
    best_epoch = since_best = 0
    history: List[Dict[str, float]] = []
    start = time.perf_counter()

    epoch = 0
    for epoch in range(1, config.epochs + 1):
        model.train()
        optimizer.zero_grad()
        for qopt in quant_optimizers:
            qopt.zero_grad()
        logits = model(features, graph)
        loss = F.cross_entropy(logits, graph.labels, graph.train_mask)
        if extra_loss is not None:
            penalty = extra_loss()
            if penalty is not None:
                loss = loss + penalty
        loss.backward()
        if config.grad_clip:
            clip_grad_norm(model.parameters(), config.grad_clip)
        optimizer.step()
        for qopt in quant_optimizers:
            qopt.step()

        # One shared inference forward scores every mask; checkpointing a
        # best epoch no longer pays a second full forward for the test
        # split.
        val_acc, test_acc = evaluate_masks(
            model, graph, (graph.val_mask, graph.test_mask))
        history.append({"epoch": epoch, "loss": float(loss.data), "val_acc": val_acc})
        if config.verbose and epoch % 20 == 0:
            print(f"epoch {epoch:4d} loss {float(loss.data):.4f} val {val_acc:.4f}")

        eligible = select_when is None or select_when()
        if eligible and val_acc > best_val:
            best_val = val_acc
            best_state = model.state_dict()
            best_test = test_acc
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience and (select_when is None or best_state is not None):
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    return TrainResult(
        best_val_accuracy=best_val,
        test_accuracy=best_test,
        train_seconds=time.perf_counter() - start,
        epochs_run=epoch,
        best_epoch=best_epoch,
        history=history,
    )


def train_multiple_seeds(
    model_name: str,
    graph: Union[str, Graph],
    seeds: List[int],
    config: Optional[TrainConfig] = None,
    flow: str = "fp32",
    flow_kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, float]:
    """Run several model seeds on one dataset and report mean/std test
    accuracy (paper style).

    ``graph`` is a dataset name or a graph loaded by
    :func:`~repro.graphs.load_dataset`, whose ``name`` encodes
    ``dataset-scale``.  The per-seed runs are declared as one
    deduplicated :class:`~repro.eval.engine.TrainJob` batch through the
    shared job engine — cached seeds replay from disk, cold seeds fan
    out over the engine's ``workers`` processes, and ``flow`` selects
    the quantization flow (:data:`repro.quant.flows.TRAIN_FLOWS`).
    Every seed trains on the dataset generated with seed 0.
    """
    from ..eval.engine import TrainJob, get_engine
    from ..registry import DATASETS

    # ``name`` is either a registered dataset/scenario name (which may
    # itself contain hyphens, e.g. "powerlaw-10k") or a loaded graph's
    # "dataset-scale" name ("cora-train", "powerlaw-10k-sim") — try the
    # full name first, then split the scale suffix off the right.
    name = graph if isinstance(graph, str) else graph.name
    if name.lower() in DATASETS:
        dataset, scale = name, "train"
    else:
        head, _, tail = name.rpartition("-")
        if head.lower() in DATASETS:
            dataset, scale = head, tail
        else:
            # Unknown either way: keep the full name so the engine's
            # registry lookup reports it with the available listing.
            dataset, scale = name, "train"
    if not isinstance(graph, str):
        # The engine regenerates the dataset in its workers; make sure
        # that regeneration matches what the caller handed us (a graph
        # loaded with a non-default generation seed cannot be described
        # declaratively).
        from ..perf.cache import cached_load_dataset, graph_fingerprint

        regenerated = cached_load_dataset(dataset, scale=scale, seed=0)
        if (graph_fingerprint(regenerated.adjacency)
                != graph_fingerprint(graph.adjacency)):
            raise ValueError(
                f"graph {name!r} does not match load_dataset"
                f"({dataset!r}, scale={scale!r}, seed=0); train a custom "
                f"graph with repro.nn.train")
    # graph_seed pinned to 0: every model seed trains on the same graph.
    jobs = [TrainJob.from_call(dataset, model_name, flow, flow_kwargs,
                               config=config, seed=seed, scale=scale,
                               graph_seed=0)
            for seed in seeds]
    results = get_engine().run(jobs)
    accuracies = [results[job].test_accuracy for job in jobs]
    seconds = [results[job].train_seconds for job in jobs]
    return {
        "mean_accuracy": float(np.mean(accuracies)),
        "std_accuracy": float(np.std(accuracies)),
        "mean_seconds": float(np.mean(seconds)),
        "runs": len(seeds),
    }
