"""Tests for the graph container, generators, datasets and statistics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import (
    Graph,
    load_dataset,
    power_law_degrees,
    sim_feature_stats,
    synthetic_graph,
)
from repro.graphs.generators import community_graph, sparse_features, split_masks
from repro.graphs.sparse_utils import coo_view
from repro.graphs.statistics import (
    DEGREE_GROUPS,
    average_feature_by_degree,
    degree_group_histogram,
    degree_group_index,
    density,
    power_law_fit,
)


@pytest.fixture(scope="module")
def tiny_graph():
    return load_dataset("cora", scale="tiny")


class TestGraphContainer:
    def test_basic_shapes(self, tiny_graph):
        g = tiny_graph
        assert g.adjacency.shape == (g.num_nodes, g.num_nodes)
        assert g.features.shape[0] == g.num_nodes
        assert len(g.labels) == g.num_nodes

    def test_degrees_match_nnz(self, tiny_graph):
        g = tiny_graph
        assert g.in_degrees.sum() == g.num_edges

    def test_gcn_normalization_symmetric(self, tiny_graph):
        a = tiny_graph.normalized_adjacency("gcn")
        # D^-1/2 (A+I) D^-1/2 is symmetric when A is symmetrized; ours is
        # directed so we only check the diagonal self-loops exist.
        assert (a.diagonal() > 0).all()

    def test_mean_normalization_rows_sum_to_one(self, tiny_graph):
        a = tiny_graph.normalized_adjacency("mean")
        sums = np.asarray(a.sum(axis=1)).reshape(-1)
        nonzero = sums > 0
        np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-5)

    def test_add_normalization_includes_self_loop(self, tiny_graph):
        a = tiny_graph.normalized_adjacency("add")
        assert (a.diagonal() == 1).all()

    def test_unknown_normalization_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.normalized_adjacency("bogus")

    def test_norm_cache_returns_same_object(self, tiny_graph):
        assert tiny_graph.normalized_adjacency("gcn") is \
            tiny_graph.normalized_adjacency("gcn")

    def test_sample_neighbors_caps_degree(self, tiny_graph):
        sampled = tiny_graph.sample_neighbors(2)
        assert sampled.in_degrees.max() <= 2
        assert sampled.num_nodes == tiny_graph.num_nodes

    def test_edge_list_matches_adjacency(self, tiny_graph):
        coo = coo_view(tiny_graph.adjacency)
        dst, src = coo.row, coo.col
        assert len(dst) == tiny_graph.num_edges
        rebuilt = sp.csr_matrix(
            (np.ones(len(dst)), (dst, src)),
            shape=tiny_graph.adjacency.shape)
        assert (rebuilt != tiny_graph.adjacency.astype(bool)).nnz == 0

    def test_summary_fields(self, tiny_graph):
        s = tiny_graph.summary()
        assert set(s) == {"nodes", "edges", "feature_length",
                          "average_degree", "feature_density"}

    def test_mismatched_features_raise(self):
        with pytest.raises(ValueError):
            Graph(sp.identity(3, format="csr"), np.zeros((2, 4)), np.zeros(3))

    def test_nonsquare_adjacency_raises(self):
        with pytest.raises(ValueError):
            Graph(sp.csr_matrix(np.ones((2, 3))), np.zeros((2, 4)), np.zeros(2))


class TestGenerators:
    def test_power_law_mean_close_to_target(self):
        deg = power_law_degrees(5000, 4.0, rng=np.random.default_rng(0))
        assert deg.mean() == pytest.approx(4.0, rel=0.3)
        assert deg.min() >= 1

    def test_power_law_has_heavy_tail(self):
        deg = power_law_degrees(5000, 4.0, rng=np.random.default_rng(0))
        assert deg.max() > 10 * deg.mean()

    def test_community_graph_homophily(self):
        adj, comm = community_graph(600, 3000, 4, homophily=0.9,
                                    rng=np.random.default_rng(0))
        coo = adj.tocoo()
        same = (comm[coo.row] == comm[coo.col]).mean()
        assert same > 0.6

    def test_community_graph_no_self_loops(self):
        adj, _ = community_graph(200, 800, 3, rng=np.random.default_rng(1))
        assert adj.diagonal().sum() == 0

    def test_sparse_features_density(self):
        comm = np.sort(np.random.default_rng(0).integers(0, 4, 500))
        feats = sparse_features(comm, 256, 0.05, 4, row_normalize=False,
                                rng=np.random.default_rng(0))
        d = np.count_nonzero(feats) / feats.size
        assert 0.02 < d < 0.12

    def test_row_normalized_rows_sum_to_one(self):
        comm = np.zeros(50, dtype=int)
        feats = sparse_features(comm, 64, 0.1, 1, row_normalize=True,
                                rng=np.random.default_rng(0))
        sums = feats.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0, atol=1e-5)

    def test_split_masks_disjoint_and_complete(self):
        train, val, test = split_masks(100, rng=np.random.default_rng(0))
        assert not (train & val).any()
        assert not (train & test).any()
        assert (train | val | test).all()

    def test_synthetic_graph_deterministic(self):
        g1 = synthetic_graph(100, 400, 32, 3, seed=7)
        g2 = synthetic_graph(100, 400, 32, 3, seed=7)
        np.testing.assert_array_equal(g1.features, g2.features)
        assert (g1.adjacency != g2.adjacency).nnz == 0

    def test_label_noise_flips_some(self):
        g_clean = synthetic_graph(300, 900, 32, 3, label_noise=0.0, seed=1)
        g_noisy = synthetic_graph(300, 900, 32, 3, label_noise=0.3, seed=1)
        assert (g_clean.labels != g_noisy.labels).mean() > 0.05


class TestDatasets:
    def test_registry_has_all_five(self):
        from repro.paper_data import TABLE_II
        from repro.registry import DATASETS

        assert set(TABLE_II) == {"cora", "citeseer", "pubmed", "nell", "reddit"}
        assert set(TABLE_II) <= set(DATASETS)

    def test_paper_stats_table2(self):
        from repro.paper_data import TABLE_II

        stats = TABLE_II["reddit"]
        assert stats["nodes"] == 232965
        assert stats["edges"] == 114615892
        assert stats["feature_dim"] == 602

    def test_train_scale_sizes(self):
        g = load_dataset("cora")
        assert g.num_nodes == 2708
        assert g.feature_dim == 1433

    def test_tiny_scale_is_small(self):
        g = load_dataset("pubmed", scale="tiny")
        assert g.num_nodes == 256

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            load_dataset("cora", scale="huge")

    def test_unknown_dataset_raises(self):
        with pytest.raises(LookupError, match="cora"):
            load_dataset("imagenet")

    def test_sim_feature_stats_nell_is_paper_width(self):
        dim, nnz = sim_feature_stats("nell")
        assert dim == 61278
        assert nnz.min() >= 1
        assert nnz.max() <= dim


class TestStatistics:
    def test_degree_group_index_buckets(self):
        idx = degree_group_index(np.array([1, 10, 11, 35, 200]))
        assert idx.tolist() == [0, 0, 1, 3, 4]

    def test_histogram_sums_to_one(self, tiny_graph):
        hist = degree_group_histogram(tiny_graph)
        assert hist.sum() == pytest.approx(1.0)
        assert len(hist) == len(DEGREE_GROUPS)

    def test_power_law_majority_low_degree(self):
        g = load_dataset("cora")
        hist = degree_group_histogram(g)
        assert hist[0] > 0.5  # low in-degree group dominates

    def test_average_feature_by_degree_monotone_for_add(self):
        """Fig. 3's observation: add-aggregated magnitude grows with
        in-degree."""
        g = load_dataset("cora")
        agg = g.normalized_adjacency("add") @ g.features
        magnitudes = average_feature_by_degree(g, agg)
        present = magnitudes[magnitudes > 0]
        assert present[-1] > present[0]

    def test_density(self):
        assert density(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.25

    def test_power_law_fit_range(self):
        deg = power_law_degrees(3000, 4.0, exponent=2.2,
                                rng=np.random.default_rng(0))
        fit = power_law_fit(deg)
        assert 1.3 < fit["alpha"] < 4.0
