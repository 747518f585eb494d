"""Tests for GNN layers, models, module system and the training loop."""

import numpy as np
import pytest

import scipy.sparse as sp

from repro.graphs import load_dataset
from repro.nn import (
    GAT,
    GCN,
    GIN,
    GINConv,
    GraphSage,
    Linear,
    Module,
    TrainConfig,
    build_model,
    evaluate,
    train,
    train_multiple_seeds,
)
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale="tiny")


class TestModule:
    def test_parameter_discovery(self):
        lin = Linear(4, 3)
        params = lin.parameters()
        assert len(params) == 2  # weight + bias

    def test_nested_discovery(self):
        gin = GINConv(4, 8, 2, layer_index=0)
        assert len(gin.parameters()) == 3  # weight, out.weight, out.bias

    def test_named_parameters_unique(self):
        gin = GINConv(4, 8, 2, layer_index=0)
        names = [n for n, _ in gin.named_parameters()]
        assert len(names) == len(set(names))

    def test_state_dict_roundtrip(self):
        a, b = (GINConv(4, 8, 2, 0, rng=np.random.default_rng(seed))
                for seed in (0, 1))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        adjacency = sp.identity(2, format="csr")
        np.testing.assert_allclose(a(x, adjacency).data, b(x, adjacency).data,
                                   atol=1e-6)

    def test_load_state_dict_missing_raises(self):
        gin = GINConv(4, 8, 2, layer_index=0)
        with pytest.raises(KeyError):
            gin.load_state_dict({})

    def test_train_eval_flags(self):
        gin = GINConv(2, 2, 2, layer_index=0)
        assert gin.training
        gin.eval()
        assert not gin.training and not gin.out.training
        gin.train()
        assert gin.out.training

    def test_zero_grad(self):
        lin = Linear(2, 2)
        lin(Tensor(np.ones((1, 2), dtype=np.float32))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestModels:
    @pytest.mark.parametrize("name,cls", [("gcn", GCN), ("gin", GIN),
                                          ("graphsage", GraphSage), ("gat", GAT)])
    def test_forward_shapes(self, graph, name, cls):
        model = build_model(name, graph.feature_dim, graph.num_classes, seed=0)
        assert isinstance(model, cls)
        logits = model(Tensor(graph.features), graph)
        assert logits.shape == (graph.num_nodes, graph.num_classes)

    def test_eval_deterministic(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        model.eval()
        a = model(Tensor(graph.features), graph).data
        b = model(Tensor(graph.features), graph).data
        np.testing.assert_allclose(a, b)

    def test_dropout_changes_train_forward(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        model.train()
        a = model(Tensor(graph.features), graph).data
        b = model(Tensor(graph.features), graph).data
        assert not np.allclose(a, b)

    def test_hidden_features_shape(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        hidden = model.hidden_features(Tensor(graph.features), graph)
        assert hidden.shape == (graph.num_nodes, 128)
        assert (hidden.data >= 0).all()  # post-ReLU

    def test_graphsage_samples_neighbors(self, graph):
        model = build_model("graphsage", graph.feature_dim, graph.num_classes,
                            seed=0, sample_neighbors=3)
        adj = model._adjacency(graph)
        row_nnz = np.diff(adj.indptr)
        assert row_nnz.max() <= 3

    def test_unknown_model_raises(self, graph):
        with pytest.raises(ValueError):
            build_model("transformer", 4, 2)

    def test_hidden_dim_override(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes,
                            hidden_dim=16, seed=0)
        assert model.layer1.weight.shape == (graph.feature_dim, 16)

    def test_gradients_reach_all_parameters(self, graph):
        model = build_model("gin", graph.feature_dim, graph.num_classes, seed=0)
        from repro.tensor import functional as F
        logits = model(Tensor(graph.features), graph)
        F.cross_entropy(logits, graph.labels, graph.train_mask).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no grad for {name}"


class TestTraining:
    def test_training_beats_random(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        result = train(model, graph, TrainConfig(epochs=30, patience=30))
        assert result.test_accuracy > 1.5 / graph.num_classes

    def test_early_stopping(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        result = train(model, graph, TrainConfig(epochs=500, patience=3))
        assert result.epochs_run < 500

    def test_history_recorded(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        result = train(model, graph, TrainConfig(epochs=5, patience=10))
        assert len(result.history) == result.epochs_run
        assert {"epoch", "loss", "val_acc"} <= set(result.history[0])

    def test_extra_loss_applied(self, graph):
        calls = []

        def extra():
            calls.append(1)
            return None

        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        train(model, graph, TrainConfig(epochs=3, patience=10), extra_loss=extra)
        assert len(calls) == 3

    def test_select_when_gates_best(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        result = train(model, graph, TrainConfig(epochs=3, patience=10),
                       select_when=lambda: False)
        assert result.test_accuracy == 0.0

    def test_best_epoch_is_zero_when_no_epoch_is_eligible(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        result = train(model, graph, TrainConfig(epochs=3, patience=10),
                       select_when=lambda: False)
        assert result.best_epoch == 0
        assert result.epochs_run == 3

    def test_best_epoch_is_the_restored_epoch(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        result = train(model, graph, TrainConfig(epochs=8, patience=10))
        assert 1 <= result.best_epoch <= result.epochs_run
        best = result.history[result.best_epoch - 1]
        assert best["epoch"] == result.best_epoch
        assert best["val_acc"] == result.best_val_accuracy

    def test_evaluate_range(self, graph):
        model = build_model("gcn", graph.feature_dim, graph.num_classes, seed=0)
        acc = evaluate(model, graph, graph.test_mask)
        assert 0.0 <= acc <= 1.0

    def test_multiple_seeds_stats(self, graph, sweep_engine):
        stats = train_multiple_seeds(
            "gcn", graph, seeds=[0, 1],
            config=TrainConfig(epochs=5, patience=10))
        assert stats["runs"] == 2
        assert 0 <= stats["mean_accuracy"] <= 1
        assert stats["std_accuracy"] >= 0
