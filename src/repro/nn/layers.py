"""GNN layers following the paper's unified formulation (Eq. 1).

Every model computes ``X^(l) = sigma(A_norm (X^(l-1) W))`` with the
``A(XW)`` execution order the accelerator uses.  Layers accept an
optional :class:`QuantHooks` so the quantization flows in
:mod:`repro.quant` can intercept feature maps and weights without
duplicating model code — the software side of the paper's co-design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..tensor import Tensor, functional as F, init
from .module import Module

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["QuantHooks", "Linear", "GraphConv", "GINConv", "SageConv", "GATConv"]


class QuantHooks:
    """Interception points used by quantization-aware training.

    The default implementation is the FP32 identity.  Subclasses in
    :mod:`repro.quant` quantize node features per degree group
    (Degree-Aware), per graph (DQ), and weights per output
    column (Sec. IV).
    """

    def features(self, x: Tensor, layer: int) -> Tensor:
        """Quantize a node feature map entering layer ``layer``."""
        return x

    def weight(self, w: Tensor, layer: int) -> Tensor:
        """Quantize the weight matrix of layer ``layer``."""
        return w

    def aggregated(self, x: Tensor, layer: int) -> Tensor:
        """Quantize the combined features entering aggregation (B = XW)."""
        return x

    def extra_loss(self) -> Optional[Tensor]:
        """Regularization term added to the task loss (e.g. L_memory)."""
        return None


class Linear(Module):
    """Affine projection ``x W + b``."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.weight = init.glorot_uniform((in_dim, out_dim), rng=rng)
        self.bias = init.zeros((out_dim,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class GraphConv(Module):
    """GCN layer: ``A_gcn (X W)`` with symmetric normalization."""

    def __init__(self, in_dim: int, out_dim: int, layer_index: int,
                 hooks: Optional[QuantHooks] = None, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.hooks = hooks or QuantHooks()
        self.weight = init.glorot_uniform((in_dim, out_dim), rng=rng)
        self.bias = init.zeros((out_dim,)) if bias else None

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        x = self.hooks.features(x, self.layer_index)
        w = self.hooks.weight(self.weight, self.layer_index)
        combined = x @ w                     # combination: B = X W
        combined = self.hooks.aggregated(combined, self.layer_index)
        out = combined.spmm(adjacency)       # aggregation: A B
        if self.bias is not None:
            out = out + self.bias
        return out


class GINConv(Module):
    """GIN layer: MLP applied after add-aggregation with self loop.

    The paper's unified Eq. 1 absorbs GIN's ``(1 + eps)`` into the
    self-loop of the add-normalized adjacency (eps = 0), with the MLP as
    the combination function, computed in ``A(XW)`` order by applying
    the first linear before aggregation.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, layer_index: int,
                 hooks: Optional[QuantHooks] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.hooks = hooks or QuantHooks()
        self.weight = init.kaiming_uniform((in_dim, hidden_dim), rng=rng)
        self.out = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        x = self.hooks.features(x, self.layer_index)
        w = self.hooks.weight(self.weight, self.layer_index)
        combined = x @ w
        combined = self.hooks.aggregated(combined, self.layer_index)
        aggregated = combined.spmm(adjacency)
        return self.out(aggregated.relu())


class SageConv(Module):
    """GraphSAGE layer: mean aggregation of neighbors + self projection."""

    def __init__(self, in_dim: int, out_dim: int, layer_index: int,
                 hooks: Optional[QuantHooks] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.hooks = hooks or QuantHooks()
        self.weight_neigh = init.glorot_uniform((in_dim, out_dim), rng=rng)
        self.weight_self = init.glorot_uniform((in_dim, out_dim), rng=rng)
        self.bias = init.zeros((out_dim,))

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        x = self.hooks.features(x, self.layer_index)
        wn = self.hooks.weight(self.weight_neigh, self.layer_index)
        ws = self.hooks.weight(self.weight_self, self.layer_index)
        combined = x @ wn
        combined = self.hooks.aggregated(combined, self.layer_index)
        neigh = combined.spmm(adjacency)     # mean-normalized adjacency
        return neigh + x @ ws + self.bias


class GATConv(Module):
    """Single-head graph attention layer (Velickovic et al.).

    Used only by the Discussion experiment (Sec. VII-3): same
    combination as GCN, attention-weighted aggregation with a segment
    softmax over incoming edges.
    """

    def __init__(self, in_dim: int, out_dim: int, layer_index: int,
                 hooks: Optional[QuantHooks] = None,
                 negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.hooks = hooks or QuantHooks()
        self.weight = init.glorot_uniform((in_dim, out_dim), rng=rng)
        self.att_src = init.glorot_uniform((out_dim, 1), rng=rng)
        self.att_dst = init.glorot_uniform((out_dim, 1), rng=rng)
        self.negative_slope = negative_slope

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        x = self.hooks.features(x, self.layer_index)
        w = self.hooks.weight(self.weight, self.layer_index)
        h = x @ w
        h = self.hooks.aggregated(h, self.layer_index)

        coo = adjacency.tocoo()
        dst, src = coo.row, coo.col
        num_nodes = adjacency.shape[0]
        alpha_src = (h @ self.att_src).reshape(-1)
        alpha_dst = (h @ self.att_dst).reshape(-1)
        scores = (alpha_src[src] + alpha_dst[dst]).leaky_relu(self.negative_slope)
        attn = F.segment_softmax(scores, dst, num_nodes)
        messages = h[src] * attn.reshape(-1, 1)
        return F.segment_sum(messages, dst, num_nodes)
