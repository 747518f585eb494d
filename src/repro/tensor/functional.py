"""Neural-network functional operations built on :class:`~repro.tensor.Tensor`.

These mirror ``torch.nn.functional`` for the small subset of operations
the GNN stack needs: softmax family, losses, dropout, and segment
(scatter) reductions used by the attention aggregation in GAT.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "dropout",
    "segment_softmax",
    "segment_sum",
    "accuracy",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    max_const = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - max_const
    logsum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsum


def nll_loss(log_probs: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood over (optionally masked) rows.

    Parameters
    ----------
    log_probs:
        ``(N, C)`` log-probabilities.
    targets:
        ``(N,)`` integer class labels.
    mask:
        Optional boolean mask of rows to include (e.g. the train split).
    """
    targets = np.asarray(targets)
    if mask is not None:
        rows = np.nonzero(np.asarray(mask))[0]
    else:
        rows = np.arange(log_probs.shape[0])
    picked = log_probs[(rows, targets[rows])]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Cross-entropy from raw logits."""
    return nll_loss(log_softmax(logits, axis=-1), targets, mask=mask)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity at inference time."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(keep)


def segment_sum(values: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets given by ``segments``.

    Equivalent to ``scatter_add`` along dim 0; the gradient is a gather.
    """
    segments = np.asarray(segments)
    data = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(data, segments, values.data)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segments])

    return Tensor._make(data, (values,), backward)


def segment_softmax(scores: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of ``scores`` normalized within each segment.

    Used by GAT attention: edges pointing at the same destination node
    form one segment.
    """
    segments = np.asarray(segments)
    seg_max = np.full((num_segments,) + scores.shape[1:], -np.inf, dtype=scores.dtype)
    np.maximum.at(seg_max, segments, scores.data)
    shifted = scores - Tensor(seg_max[segments])
    exps = shifted.exp()
    denom = segment_sum(exps, segments, num_segments)
    return exps / denom[segments]


def accuracy(logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Classification accuracy on the (optionally masked) rows."""
    preds = logits.data.argmax(axis=-1)
    targets = np.asarray(targets)
    if mask is not None:
        rows = np.asarray(mask, dtype=bool)
        if rows.sum() == 0:
            return float("nan")
        return float((preds[rows] == targets[rows]).mean())
    return float((preds == targets).mean())
