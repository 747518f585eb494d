"""Core graph container used across training, formats and simulators.

A :class:`Graph` stores a directed adjacency structure in CSR form plus
node features/labels and the train/val/test masks of a semi-supervised
node-classification task.  It exposes the three aggregation operators
the paper's models need (GCN symmetric normalization, GIN add, SAGE
mean) as scipy sparse matrices, and degree statistics that drive the
Degree-Aware quantizer and the accelerator simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from .sparse_utils import sample_adjacency

__all__ = ["Graph"]


@dataclass
class Graph:
    """A node-classification graph.

    Parameters
    ----------
    adjacency:
        ``(N, N)`` scipy sparse matrix, ``adjacency[dst, src] = 1`` when
        an edge ``src -> dst`` exists (row = destination, so that
        ``A @ X`` aggregates into each destination node, matching the
        paper's ``\\tilde{A} X W`` formulation).
    features:
        ``(N, F)`` float feature matrix ``X``.
    labels:
        ``(N,)`` integer class labels.
    """

    adjacency: sp.spmatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    _cache: Dict[str, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.adjacency = self.adjacency.tocsr().astype(np.float32)
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency must be square")
        if self.features.shape[0] != n:
            raise ValueError(
                f"features rows ({self.features.shape[0]}) != num nodes ({n})"
            )
        if self.train_mask is None:
            self.train_mask = np.zeros(n, dtype=bool)
        if self.val_mask is None:
            self.val_mask = np.zeros(n, dtype=bool)
        if self.test_mask is None:
            self.test_mask = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # Sizes and degrees
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.nnz)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if "num_classes" not in self._cache:
            self._cache["num_classes"] = int(self.labels.max()) + 1
        return self._cache["num_classes"]

    @property
    def in_degrees(self) -> np.ndarray:
        """Number of incoming edges per node (row sums)."""
        if "in_degrees" not in self._cache:
            deg = np.asarray(self.adjacency.astype(bool).sum(axis=1)).reshape(-1)
            self._cache["in_degrees"] = deg.astype(np.int64)
        return self._cache["in_degrees"]

    @property
    def average_degree(self) -> float:
        return self.num_edges / max(self.num_nodes, 1)

    def feature_density(self) -> float:
        """Fraction of non-zero entries in ``X`` (paper Fig. 5 input)."""
        if "feature_density" not in self._cache:
            self._cache["feature_density"] = (
                float(np.count_nonzero(self.features)) / self.features.size)
        return self._cache["feature_density"]

    # ------------------------------------------------------------------
    # Aggregation operators
    # ------------------------------------------------------------------
    def normalized_adjacency(self, kind: str = "gcn",
                             max_neighbors: Optional[int] = None
                             ) -> sp.csr_matrix:
        """Return the aggregation matrix used by a model family.

        ``kind`` is one of:

        - ``"gcn"``: symmetric normalization with self loops,
          ``D^{-1/2} (A + I) D^{-1/2}`` (Kipf & Welling).
        - ``"add"``: raw sum aggregation with self loops (GIN, eps = 0).
        - ``"mean"``: row-normalized mean over in-neighbors (GraphSAGE).
        - ``"raw"``: the adjacency itself.

        ``max_neighbors`` builds the operator over a GraphSAGE-style
        sample of at most that many in-neighbors per node, drawn from a
        fixed ``default_rng(0)`` stream, so it too is a pure function of
        the adjacency.  Every operator is memoized on the instance.
        """
        key = f"norm:{kind}:{max_neighbors}"
        if key in self._cache:
            return self._cache[key]
        if max_neighbors is not None:
            sampled = self.sample_neighbors(max_neighbors,
                                            rng=np.random.default_rng(0))
            out = self._cache[key] = sampled.normalized_adjacency(kind)
            return out
        a = self.adjacency.astype(bool).astype(np.float32)
        n = self.num_nodes
        if kind == "gcn":
            a_hat = (a + sp.identity(n, dtype=np.float32, format="csr")).tocsr()
            deg = np.asarray(a_hat.sum(axis=1)).reshape(-1)
            inv_sqrt = np.zeros_like(deg)
            np.power(deg, -0.5, where=deg > 0, out=inv_sqrt)
            d = sp.diags(inv_sqrt)
            out = (d @ a_hat @ d).tocsr()
        elif kind == "add":
            out = (a + sp.identity(n, dtype=np.float32, format="csr")).tocsr()
        elif kind == "mean":
            deg = np.asarray(a.sum(axis=1)).reshape(-1)
            inv = np.zeros_like(deg)
            np.divide(1.0, deg, where=deg > 0, out=inv)
            out = (sp.diags(inv) @ a).tocsr()
        elif kind == "raw":
            out = a.tocsr()
        else:
            raise ValueError(f"unknown aggregation kind: {kind!r}")
        out = out.astype(np.float32)
        self._cache[key] = out
        return out

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sample_neighbors(
        self, max_neighbors: int, rng: Optional[np.random.Generator] = None
    ) -> "Graph":
        """GraphSAGE-style neighbor sampling: keep at most ``max_neighbors``
        incoming edges per node (paper Table III samples 25)."""
        sampled = sample_adjacency(self.adjacency, max_neighbors, rng=rng)
        return Graph(
            adjacency=sampled,
            features=self.features,
            labels=self.labels,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            name=f"{self.name}:sampled{max_neighbors}",
        )

    def summary(self) -> Dict[str, float]:
        """Key statistics used in the paper's Table II."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "feature_length": self.feature_dim,
            "average_degree": round(self.average_degree, 2),
            "feature_density": round(self.feature_density(), 4),
        }
