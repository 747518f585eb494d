"""The three evaluated GNN models (Table III) plus GAT (Discussion).

All models are two layers and expose the same
``forward(features, graph) -> logits`` interface.  Their hidden widths
(GCN/GIN: 128, GraphSAGE: 256 with 25-neighbor sampling, GAT: 128) and
aggregation kinds are Table III's, read from
:data:`repro.paper_data.TABLE_III`: :func:`build_model` passes the
widths and the sample, and each model reads its aggregation kind from
its row.  A shared :class:`~repro.nn.layers.QuantHooks` object threads
quantization through every layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs import Graph
from ..paper_data import TABLE_III
from ..tensor import Tensor, functional as F
from .layers import GATConv, GINConv, GraphConv, QuantHooks, SageConv
from .module import Module

__all__ = ["GCN", "GIN", "GraphSage", "GAT", "build_model"]


class _TwoLayerGNN(Module):
    """Shared scaffolding: dropout -> layer1 -> ReLU -> dropout -> layer2.

    ``table_row`` names the model's row of Table III, whose aggregation
    kind selects the operator; ``sample_neighbors`` (GraphSAGE's
    sample) builds it over a sampled neighborhood.
    """

    table_row = ""
    sample_neighbors: Optional[int] = None

    def __init__(self, dropout: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        self.dropout = dropout
        self._rng = np.random.default_rng(seed)

    def train(self):
        super().train()
        if hasattr(self, "hooks"):
            self.hooks.training = True
        return self

    def eval(self):
        super().eval()
        if hasattr(self, "hooks"):
            self.hooks.training = False
        return self

    def _adjacency(self, graph: Graph):
        # Memoized on the graph: one operator per (graph, model family),
        # shared across model instances, training seeds and flows.
        return graph.normalized_adjacency(
            TABLE_III[self.table_row]["aggregation"], self.sample_neighbors)

    def forward(self, features: Tensor, graph: Graph) -> Tensor:
        adjacency = self._adjacency(graph)
        x = F.dropout(features, self.dropout, self.training, rng=self._rng)
        x = self.layer1(x, adjacency).relu()
        x = F.dropout(x, self.dropout, self.training, rng=self._rng)
        return self.layer2(x, adjacency)

    def hidden_features(self, features: Tensor, graph: Graph) -> Tensor:
        """Post-ReLU hidden feature map (input to layer 2) — used by the
        density (Fig. 5) and degree-magnitude (Fig. 3) analyses."""
        adjacency = self._adjacency(graph)
        return self.layer1(features, adjacency).relu()


class GCN(_TwoLayerGNN):
    """Two-layer GCN (Kipf & Welling)."""

    table_row = "gcn"

    def __init__(self, in_dim: int, num_classes: int, hidden_dim: int,
                 hooks: Optional[QuantHooks] = None, dropout: float = 0.5,
                 seed: int = 0) -> None:
        super().__init__(dropout=dropout, seed=seed)
        rng = np.random.default_rng(seed)
        hooks = hooks or QuantHooks()
        self.hooks = hooks
        self.layer1 = GraphConv(in_dim, hidden_dim, 0, hooks=hooks, rng=rng)
        self.layer2 = GraphConv(hidden_dim, num_classes, 1, hooks=hooks, rng=rng)


class GIN(_TwoLayerGNN):
    """Two-layer GIN (Xu et al.), add aggregation, MLP combination."""

    table_row = "gin"

    def __init__(self, in_dim: int, num_classes: int, hidden_dim: int,
                 hooks: Optional[QuantHooks] = None, dropout: float = 0.5,
                 seed: int = 0) -> None:
        super().__init__(dropout=dropout, seed=seed)
        rng = np.random.default_rng(seed)
        hooks = hooks or QuantHooks()
        self.hooks = hooks
        self.layer1 = GINConv(in_dim, hidden_dim, hidden_dim, 0, hooks=hooks, rng=rng)
        self.layer2 = GINConv(hidden_dim, hidden_dim, num_classes, 1, hooks=hooks, rng=rng)


class GraphSage(_TwoLayerGNN):
    """Two-layer GraphSAGE, mean aggregation over sampled neighbors."""

    table_row = "graphsage"

    def __init__(self, in_dim: int, num_classes: int, hidden_dim: int,
                 sample_neighbors: Optional[int],
                 hooks: Optional[QuantHooks] = None, dropout: float = 0.5,
                 seed: int = 0) -> None:
        super().__init__(dropout=dropout, seed=seed)
        rng = np.random.default_rng(seed)
        hooks = hooks or QuantHooks()
        self.hooks = hooks
        self.sample_neighbors = sample_neighbors
        self.layer1 = SageConv(in_dim, hidden_dim, 0, hooks=hooks, rng=rng)
        self.layer2 = SageConv(hidden_dim, num_classes, 1, hooks=hooks, rng=rng)


class GAT(_TwoLayerGNN):
    """Two-layer single-head GAT for the Discussion experiment."""

    table_row = "gat"

    def __init__(self, in_dim: int, num_classes: int, hidden_dim: int,
                 hooks: Optional[QuantHooks] = None, dropout: float = 0.5,
                 seed: int = 0) -> None:
        super().__init__(dropout=dropout, seed=seed)
        rng = np.random.default_rng(seed)
        hooks = hooks or QuantHooks()
        self.hooks = hooks
        self.layer1 = GATConv(in_dim, hidden_dim, 0, hooks=hooks, rng=rng)
        self.layer2 = GATConv(hidden_dim, num_classes, 1, hooks=hooks, rng=rng)


def build_model(name: str, in_dim: int, num_classes: int,
                hooks: Optional[QuantHooks] = None, seed: int = 0,
                **overrides) -> _TwoLayerGNN:
    """Factory keyed by the paper's model names (case-insensitive), at
    Table III's hidden width and neighbor sample unless ``overrides``
    names ``hidden_dim`` or (GraphSAGE) ``sample_neighbors``."""
    key = name.lower()
    classes = {cls.table_row: cls for cls in (GCN, GIN, GraphSage, GAT)}
    if key not in classes:
        raise ValueError(f"unknown model {name!r}; expected one of {sorted(classes)}")
    kwargs = {"hidden_dim": TABLE_III[key]["hidden"]}
    if key == "graphsage":
        kwargs["sample_neighbors"] = TABLE_III[key]["sample"]
    kwargs.update(overrides)
    return classes[key](in_dim, num_classes, hooks=hooks, seed=seed, **kwargs)
