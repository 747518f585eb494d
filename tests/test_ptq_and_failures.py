"""Failure injection across the public APIs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import AdaptivePackageFormat, PackageConfig
from repro.graphs import Graph, load_dataset
from repro.mega import MegaModel
from repro.sim.workload import build_workload
from repro.tensor import Tensor


class TestFailureInjection:
    def test_graph_rejects_bad_feature_rows(self):
        with pytest.raises(ValueError):
            Graph(sp.identity(4, format="csr"), np.zeros((3, 2)), np.zeros(4))

    def test_format_rejects_1d_matrix(self):
        with pytest.raises(ValueError):
            AdaptivePackageFormat().encode(np.zeros(5, dtype=np.int64),
                                           np.full(5, 4))

    def test_format_rejects_bitwidth_above_8(self):
        with pytest.raises(ValueError):
            AdaptivePackageFormat().encode(np.zeros((2, 2), dtype=np.int64),
                                           np.array([4, 9]))

    def test_format_rejects_wrong_bits_length(self):
        with pytest.raises(ValueError):
            AdaptivePackageFormat().encode(np.zeros((3, 2), dtype=np.int64),
                                           np.array([4, 4]))

    def test_mega_rejects_unknown_storage(self):
        with pytest.raises(ValueError):
            MegaModel(storage="rar")

    def test_workload_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            build_workload("cora", "gcn", "bf16",
                           graph=load_dataset("cora", scale="tiny"))

    def test_backward_twice_accumulates(self):
        # Documented behavior: re-running backward without zero_grad
        # keeps accumulating into .grad; users must zero_grad per step.
        t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        loss = (t * 2).sum()
        loss.backward()
        first = t.grad.copy()
        loss.backward()
        assert (t.grad > first).all()

    def test_package_config_zero_capacity_guard(self):
        cfg = PackageConfig(8, 16, 24)
        # 8-bit values cannot fit a 8-bit-total package (header is 5).
        assert cfg.capacity(0, 8) == 0
        assert cfg.smallest_mode_for(1, 8) > 0

    def test_empty_graph_statistics(self):
        g = Graph(sp.csr_matrix((1, 1)), np.zeros((1, 2)), np.zeros(1))
        assert g.num_edges == 0
        assert g.average_degree == 0.0
        assert g.in_degrees.tolist() == [0]

    def test_partition_isolated_nodes(self):
        from repro.graphs.partition import partition_graph

        adj = sp.csr_matrix((16, 16))  # no edges at all
        res = partition_graph(adj, 4, seed=0)
        assert len(res.parts) == 16
        assert res.edge_cut == 0
