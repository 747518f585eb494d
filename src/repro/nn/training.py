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
    """Outcome of one run: best model accuracy and the loss curve."""

    best_val_accuracy: float
    test_accuracy: float
    train_seconds: float
    epochs_run: int
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
    extra_params: Optional[List[Tensor]] = None,
    extra_optimizers: Optional[List] = None,
    select_when: Optional[Callable[[], bool]] = None,
) -> TrainResult:
    """Train ``model`` on ``graph`` and restore the best-validation weights.

    ``extra_loss`` supplies a regularizer evaluated per step — the
    Degree-Aware flow passes ``lambda: hooks.extra_loss()`` so the
    memory penalty (Eq. 4/5) joins the task loss.  ``select_when``
    gates checkpoint selection: epochs where it returns False are not
    eligible as the "best" model (the Degree-Aware flow uses it to
    require the memory budget to be met before accuracy is credited).
    """
    config = config or TrainConfig()
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    extra_params = [p for p in (extra_params or []) if p.requires_grad]
    # Quantization parameters (scales/bitwidths) train without weight
    # decay and with their own learning rate for stability.  A flow may
    # instead hand over pre-built optimizers (e.g. Degree-Aware's
    # Adam-for-scales + SGD-for-bits split).
    if extra_optimizers is not None:
        quant_optimizers = list(extra_optimizers)
    elif extra_params:
        quant_optimizers = [Adam(extra_params, lr=config.quant_lr, weight_decay=0.0)]
    else:
        quant_optimizers = []
    features = Tensor(graph.features)
    best_val, best_state, best_test = -1.0, None, 0.0
    best_extra: List[np.ndarray] = []
    since_best = 0
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
            best_extra = [p.data.copy() for p in (extra_params or [])]
            best_test = test_acc
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience and (select_when is None or best_state is not None):
                break

    if best_state is not None:
        model.load_state_dict(best_state)
        for p, data in zip(extra_params or [], best_extra):
            p.data = data
    return TrainResult(
        best_val_accuracy=best_val,
        test_accuracy=best_test,
        train_seconds=time.perf_counter() - start,
        epochs_run=epoch,
        history=history,
    )


def train_multiple_seeds(
    model_factory: Union[str, Callable[[int], Module]],
    graph: Union[str, Graph],
    seeds: List[int],
    config: Optional[TrainConfig] = None,
    extra_loss_factory: Optional[Callable[[Module], Callable[[], Optional[Tensor]]]] = None,
    flow: str = "fp32",
    flow_kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, float]:
    """Run several seeds and report mean/std test accuracy (paper style).

    Two call styles:

    - **declarative** (preferred): ``model_factory`` is a model *name*
      and ``graph`` a dataset name (or a graph loaded by
      :func:`~repro.graphs.load_dataset`, whose ``name`` encodes
      ``dataset-scale``).  The per-seed runs are declared as one
      deduplicated :class:`~repro.eval.engine.TrainJob` batch through
      the shared job engine — cached seeds replay from disk, cold seeds
      fan out over the engine's ``workers`` processes, and ``flow``
      selects the quantization flow (:data:`repro.quant.flows.TRAIN_FLOWS`).
    - **legacy**: ``model_factory`` is a callable ``seed -> Module`` and
      each seed trains serially in-process (required when the factory
      closes over custom models the engine cannot reconstruct).
    """
    if isinstance(model_factory, str):
        if extra_loss_factory is not None:
            raise ValueError(
                "extra_loss_factory requires the legacy callable form; "
                "declarative flows attach their own losses")
        from ..eval.engine import TrainJob, get_engine
        from ..registry import DATASETS

        # ``name`` is either a registered dataset/scenario name (which
        # may itself contain hyphens, e.g. "powerlaw-10k") or a loaded
        # graph's "dataset-scale" name ("cora-train",
        # "powerlaw-10k-sim") — try the full name first, then split the
        # scale suffix off the right.
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
            # The engine regenerates the dataset in its workers; make
            # sure that regeneration matches what the caller handed us
            # (a graph loaded with a non-default generation seed cannot
            # be described declaratively).
            from ..perf.cache import cached_load_dataset, graph_fingerprint

            regenerated = cached_load_dataset(dataset, scale=scale, seed=0)
            if (graph_fingerprint(regenerated.adjacency)
                    != graph_fingerprint(graph.adjacency)):
                raise ValueError(
                    f"graph {name!r} does not match load_dataset"
                    f"({dataset!r}, scale={scale!r}, seed=0); use the "
                    f"legacy callable form for custom graphs")
        # graph_seed pinned to 0: every model seed trains on the same
        # graph, matching the legacy per-factory loop.
        jobs = [TrainJob.from_call(dataset, model_factory, flow,
                                   flow_kwargs, config=config, seed=seed,
                                   scale=scale, graph_seed=0)
                for seed in seeds]
        results = get_engine().run(jobs)
        accuracies = [results[job].test_accuracy for job in jobs]
        seconds = [results[job].train_seconds for job in jobs]
    else:
        accuracies, seconds = [], []
        for seed in seeds:
            model = model_factory(seed)
            extra = extra_loss_factory(model) if extra_loss_factory else None
            result = train(model, graph, config=config, extra_loss=extra)
            accuracies.append(result.test_accuracy)
            seconds.append(result.train_seconds)
    return {
        "mean_accuracy": float(np.mean(accuracies)),
        "std_accuracy": float(np.std(accuracies)),
        "mean_seconds": float(np.mean(seconds)),
        "runs": len(seeds),
    }
