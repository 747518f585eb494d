"""Integration tests across the full stack: training -> quantization ->
storage -> accelerator simulation, on small graphs."""

import numpy as np
import pytest

from repro.formats import AdaptivePackageFormat
from repro.graphs import load_dataset
from repro.mega import MegaModel, bit_serial_matmul
from repro.nn import TrainConfig
from repro.quant import (
    DegreeAwareConfig,
    DegreeAwareQuantizer,
    layer_dims_for,
    run_degree_aware,
    run_degree_quant,
    run_fp32,
)
from repro.sim.workload import workload_from_quant_run
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale="tiny")


@pytest.fixture(scope="module")
def quick_config():
    return TrainConfig(epochs=25, patience=40)


class TestQuantFlows:
    def test_fp32_flow(self, graph, quick_config):
        run = run_fp32("gcn", graph, config=quick_config)
        assert 0.0 <= run.test_accuracy <= 1.0
        assert run.compression_ratio == 1.0

    def test_dq_flow(self, graph, quick_config):
        run = run_degree_quant("gcn", graph, bits=4, config=quick_config)
        assert run.compression_ratio == pytest.approx(8.0)
        assert run.method == "dq-int4"

    def test_degree_aware_flow(self, graph, quick_config):
        run = run_degree_aware("gcn", graph, config=quick_config)
        assert run.average_bits <= 8.0
        assert run.node_bitwidths is not None
        assert len(run.node_bitwidths) == graph.num_nodes
        assert "memory_kb" in run.extras

    def test_degree_aware_compresses_over_training(self, graph):
        """The memory penalty reduces average bits from the 8-bit init."""
        config = TrainConfig(epochs=60, patience=100)
        run = run_degree_aware(
            "gcn", graph,
            quant_config=DegreeAwareConfig(target_average_bits=3.0, bits_lr=0.2),
            config=config)
        assert run.average_bits < 8.0

    def test_degree_aware_says_when_no_epoch_met_the_budget(self, graph):
        """Five epochs from the 8-bit init never reach the memory
        budget, so no epoch is selected and the flow says so."""
        run = run_degree_aware("gcn", graph, config=TrainConfig(epochs=5))
        assert run.extras["best_epoch"] == 0
        assert run.extras["epochs_run"] == 5
        assert run.test_accuracy == 0.0

    def test_flows_report_the_selected_epoch(self, graph):
        for flow in (run_fp32, run_degree_quant):
            run = flow("gcn", graph, config=TrainConfig(epochs=5))
            assert run.extras["epochs_run"] == 5
            assert 1 <= run.extras["best_epoch"] <= 5


class TestEndToEndAcceleratorPath:
    def test_trained_quantizer_feeds_simulator(self, graph, quick_config):
        run = run_degree_aware("gcn", graph, config=quick_config)
        workload = workload_from_quant_run(graph, "gcn", run.node_bitwidths)
        report = MegaModel().simulate(workload)
        assert report.total_cycles > 0
        assert report.traffic.transferred_bytes > 0

    def test_quantized_features_roundtrip_through_package(self, graph):
        """Trained quantized feature map survives Adaptive-Package
        encode/decode and bit-serial combination exactly."""
        hooks = DegreeAwareQuantizer(graph, layer_dims_for("gcn", graph))
        hooks.features(Tensor(graph.features), 0)  # calibrate
        codes = hooks.quantize_feature_matrix(graph.features, 0)
        bits = hooks.node_bitwidths(0)

        fmt = AdaptivePackageFormat()
        encoded = fmt.encode(codes, bits)
        decoded = fmt.decode(encoded)
        np.testing.assert_array_equal(decoded, codes)

        rng = np.random.default_rng(0)
        w = rng.integers(-7, 8, size=(graph.feature_dim, 4))
        np.testing.assert_array_equal(
            bit_serial_matmul(decoded, w, bits), codes @ w)

    def test_compression_translates_to_storage(self, graph):
        hooks = DegreeAwareQuantizer(
            graph, layer_dims_for("gcn", graph),
            DegreeAwareConfig(init_bits=3.0))
        hooks.features(Tensor(graph.features), 0)
        codes = hooks.quantize_feature_matrix(graph.features, 0)
        bits = hooks.node_bitwidths(0)
        fmt = AdaptivePackageFormat()
        mixed = fmt.measure((codes != 0).sum(axis=1), bits, graph.feature_dim)
        flat8 = fmt.measure((codes != 0).sum(axis=1),
                            np.full(graph.num_nodes, 8), graph.feature_dim)
        assert mixed.total_bits < flat8.total_bits


class TestAccuracyOrdering:
    @pytest.mark.slow
    def test_paper_ordering_on_train_scale(self):
        """Table VI shape: ours ≈ FP32 >> DQ-INT4 at higher CR.

        Uses the train-scale Cora and the full budget, so it is the
        slowest test in the suite (~2 min).
        """
        graph = load_dataset("cora")
        config = TrainConfig(epochs=250, patience=200)
        quick = TrainConfig(epochs=100, patience=60)
        fp32 = run_fp32("gcn", graph, config=quick)
        dq4 = run_degree_quant("gcn", graph, bits=4, config=quick)
        ours = run_degree_aware("gcn", graph, config=config)
        assert ours.test_accuracy > dq4.test_accuracy + 0.05
        assert ours.compression_ratio > dq4.compression_ratio
        assert fp32.test_accuracy - ours.test_accuracy < 0.10
