"""Tests for quantization primitives and the two quantizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import load_dataset
from repro.quant import (
    DegreeAwareConfig,
    DegreeAwareQuantizer,
    DegreeQuantConfig,
    DegreeQuantizer,
    FakeQuantPerGroup,
    FakeQuantSTE,
    qmax_for_bits,
    quantize_integer,
)
from repro.perf.reference import UniformQuantizerReference
from repro.quant.observers import EmaColumnObserver, EmaMaxObserver
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale="tiny")


class TestQuantizeInteger:
    def test_codes_within_signed_range(self):
        x = np.random.default_rng(0).normal(0, 3, size=(10, 10))
        q = quantize_integer(x, 0.1, 4)
        assert q.max() <= 7 and q.min() >= -7

    def test_codes_within_unsigned_range(self):
        x = np.abs(np.random.default_rng(0).normal(0, 3, size=(10, 10)))
        q = quantize_integer(x, 0.1, 4)
        assert q.max() <= 15 and q.min() >= 0

    def test_round_half_away_from_zero(self):
        q = quantize_integer(np.array([0.75, -0.75]), 0.5, 8, unsigned=False)
        assert q.tolist() == [2, -2]

    def test_zero_maps_to_zero(self):
        assert quantize_integer(np.zeros(3), 0.5, 4).tolist() == [0, 0, 0]

    @given(st.floats(0.01, 10.0), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_error_bounded(self, scale, bits):
        rng = np.random.default_rng(0)
        qmax = float(qmax_for_bits(bits, unsigned=True))
        x = rng.uniform(0, scale * qmax, size=50)
        q = quantize_integer(x, scale, bits)
        err = np.abs((q * scale).astype(np.float32) - x)
        assert err.max() <= scale / 2 + 1e-9

    def test_clipping_at_qmax(self):
        q = quantize_integer(np.array([100.0]), 0.1, 3)  # unsigned qmax=7
        assert q[0] == 7

    def test_qmax_keeps_the_float_dtype_of_bits(self):
        """A float32 caller (Degree-Aware's bitwidth parameters) gets a
        float32 level; integer bits give float64."""
        bits = np.array([2.0, 4.4, 7.6], dtype=np.float32)
        assert qmax_for_bits(bits).dtype == np.float32
        assert qmax_for_bits(bits).tolist() == [1.0, 7.0, 127.0]
        assert qmax_for_bits(bits, unsigned=True).tolist() == [3.0, 15.0, 255.0]
        assert qmax_for_bits(4).dtype == np.float64
        assert float(qmax_for_bits(4)) == 7.0


class TestFakeQuantSTE:
    def test_forward_matches_quantize_dequantize(self):
        x = np.abs(np.random.default_rng(1).normal(size=(5, 4))).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        out = FakeQuantSTE.apply(t, np.float64(0.1), np.float64(4.0))
        expected = (quantize_integer(x, 0.1, 4) * 0.1).astype(np.float32)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_gradient_passthrough_in_range(self):
        t = Tensor(np.array([0.3], dtype=np.float32), requires_grad=True)
        FakeQuantSTE.apply(t, np.float64(0.1), np.float64(8.0)).sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_gradient_zero_when_clipped(self):
        t = Tensor(np.array([1000.0], dtype=np.float32), requires_grad=True)
        FakeQuantSTE.apply(t, np.float64(0.1), np.float64(4.0)).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0])

    def test_fixed_scale_keeps_only_the_in_range_mask(self, monkeypatch):
        """An observer scale needs no gradient: forward saves the boolean
        mask, not the rounding temporaries a learned scale needs."""
        seen = {}
        original = FakeQuantSTE.forward

        def spy(ctx, *arrays):
            out = original(ctx, *arrays)
            seen[ctx["needs_grad"][1]] = sorted(set(ctx) - {"needs_grad"})
            return out

        monkeypatch.setattr(FakeQuantSTE, "forward", staticmethod(spy))
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32),
                   requires_grad=True)
        learned = Tensor(np.full(3, 0.05, dtype=np.float32), requires_grad=True)
        FakeQuantSTE.apply(x, np.full(3, 0.05), 4.0)
        FakeQuantSTE.apply(x, learned, 4.0)
        assert seen == {False: ["in_range"],
                        True: ["in_range", "q", "qmax", "v"]}


class TestFakeQuantPerGroup:
    def test_groups_use_own_scales(self):
        x = Tensor(np.array([[1.0], [1.0]], dtype=np.float32))
        scales = Tensor(np.array([1.0, 0.5], dtype=np.float32))
        bits = Tensor(np.array([8.0, 8.0], dtype=np.float32))
        out = FakeQuantPerGroup.apply(x, scales, bits, np.array([0, 1]),
                                      np.full(2, 2.0), np.full(2, 8.0))
        np.testing.assert_allclose(out.data, [[1.0], [1.0]], atol=1e-6)

    def test_bitwidth_gradient_only_from_clipped(self):
        # Group 0 has clipped values -> bits grad nonzero; group 1 none.
        x = Tensor(np.array([[100.0], [0.1]], dtype=np.float32), requires_grad=True)
        scales = Tensor(np.array([0.1, 0.1], dtype=np.float32), requires_grad=True)
        bits = Tensor(np.array([4.0, 4.0], dtype=np.float32), requires_grad=True)
        out = FakeQuantPerGroup.apply(x, scales, bits, np.array([0, 1]),
                                      np.full(2, 2.0), np.full(2, 8.0))
        out.sum().backward()
        assert bits.grad[0] != 0.0
        assert bits.grad[1] == 0.0

    def test_scale_gradient_shape(self):
        x = Tensor(np.abs(np.random.default_rng(0).normal(size=(6, 3))).astype(np.float32),
                   requires_grad=True)
        scales = Tensor(np.full(2, 0.2, dtype=np.float32), requires_grad=True)
        bits = Tensor(np.full(2, 4.0, dtype=np.float32), requires_grad=True)
        groups = np.array([0, 0, 0, 1, 1, 1])
        FakeQuantPerGroup.apply(x, scales, bits, groups,
                                np.full(2, 2.0), np.full(2, 8.0)).sum().backward()
        assert scales.grad.shape == (2,)
        assert bits.grad.shape == (2,)


class TestFakeQuantPerColumn:
    """``FakeQuantSTE`` with one learned scale per column."""

    def test_per_column_scales(self):
        w = Tensor(np.array([[1.0, 10.0]], dtype=np.float32), requires_grad=True)
        scales = Tensor(np.array([1.0, 10.0], dtype=np.float32) / 7, requires_grad=True)
        out = FakeQuantSTE.apply(w, scales, 4.0)
        np.testing.assert_allclose(out.data, [[1.0, 10.0]], atol=0.2)

    def test_gradients_flow_to_scales(self):
        w = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32),
                   requires_grad=True)
        scales = Tensor(np.full(3, 0.05, dtype=np.float32), requires_grad=True)
        FakeQuantSTE.apply(w, scales, 4.0).sum().backward()
        assert scales.grad.shape == (3,)
        assert w.grad is not None


class TestObservers:
    def test_ema_max_first_update_sets_value(self):
        obs = EmaMaxObserver()
        obs.update(np.array([1.0, -3.0]))
        assert obs.value == 3.0

    def test_ema_decays(self):
        obs = EmaMaxObserver(momentum=0.5)
        obs.update(np.array([4.0]))
        obs.update(np.array([0.0]))
        assert obs.value == pytest.approx(2.0)

    def test_scale_maps_max_to_qmax(self):
        obs = EmaMaxObserver()
        obs.update(np.array([12.7]))
        assert obs.scale(8) == pytest.approx(0.1)

    def test_column_observer_shape(self):
        obs = EmaColumnObserver()
        obs.update(np.random.default_rng(0).normal(size=(5, 3)))
        assert obs.scale(4).shape == (3,)

    def test_column_observer_unqueried_raises(self):
        with pytest.raises(RuntimeError):
            EmaColumnObserver().scale(4)


class TestDegreeAwareQuantizer:
    def make(self, graph, **kwargs):
        cfg = DegreeAwareConfig(**kwargs)
        return DegreeAwareQuantizer(graph, [graph.feature_dim, 16], cfg)

    def test_bitwidths_within_bounds(self, graph):
        q = self.make(graph)
        bits = q.node_bitwidths(0)
        assert bits.min() >= 2 and bits.max() <= 8

    def test_one_parameter_per_degree_group(self, graph):
        q = self.make(graph, degree_cap=16)
        assert q.log_scales[0].shape == (16,)
        assert q.bits[0].shape == (16,)

    def test_memory_target_from_average_bits(self, graph):
        q = self.make(graph, target_average_bits=4.0)
        total_vals = (graph.feature_dim + 16) * graph.num_nodes
        assert q.memory_target_kb == pytest.approx(4.0 * total_vals / (8 * 1024))

    def test_extra_loss_zero_at_target(self, graph):
        q = self.make(graph, init_bits=4.0, target_average_bits=4.0)
        assert float(q.extra_loss().data) == pytest.approx(0.0, abs=1e-6)

    def test_extra_loss_positive_off_target(self, graph):
        q = self.make(graph, init_bits=8.0, target_average_bits=2.0)
        assert float(q.extra_loss().data) > 0

    def test_features_hook_calibrates_once(self, graph):
        q = self.make(graph)
        x = Tensor(graph.features)
        q.features(x, 0)
        first = q.log_scales[0].data.copy()
        q.features(x, 0)
        np.testing.assert_array_equal(first, q.log_scales[0].data)

    def test_compression_ratio_consistency(self, graph):
        q = self.make(graph, init_bits=4.0)
        assert q.compression_ratio() == pytest.approx(32.0 / q.average_bits())

    def test_quantize_feature_matrix_codes_bounded(self, graph):
        q = self.make(graph)
        q.features(Tensor(graph.features), 0)
        codes = q.quantize_feature_matrix(graph.features, 0)
        qmax = 2 ** q.node_bitwidths(0)[:, None] - 1  # unsigned features
        assert (np.abs(codes) <= qmax).all()

    def test_optimizers_split(self, graph):
        q = self.make(graph)
        q.features(Tensor(graph.features), 0)
        opts = q.optimizers()
        assert len(opts) == 2

    def test_layer_count_follows_layer_dims(self, graph):
        q = DegreeAwareQuantizer(graph, [graph.feature_dim], DegreeAwareConfig())
        assert len(q.bits) == len(q.log_scales) == 1


class TestDegreeQuantizer:
    def test_protection_grows_with_degree(self, graph):
        q = DegreeQuantizer(graph, DegreeQuantConfig(p_min=0.0, p_max=0.5))
        degs = graph.in_degrees
        assert q.protect_prob[degs.argmax()] > q.protect_prob[degs.argmin()]

    def test_inference_fully_quantized(self, graph):
        q = DegreeQuantizer(graph, DegreeQuantConfig(bits=4))
        q.training = False
        x = Tensor(graph.features)
        out = q.features(x, 0)
        scale = q._feature_obs[0].scale(4)
        codes = out.data / scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-3)

    def test_training_mask_preserves_some_rows(self, graph):
        q = DegreeQuantizer(graph, DegreeQuantConfig(bits=2, p_min=1.0, p_max=1.0))
        q.training = True
        x = Tensor(graph.features)
        out = q.features(x, 0)
        # With every node protected, output == input.
        np.testing.assert_allclose(out.data, x.data, atol=1e-5)

    def test_average_bits(self, graph):
        q = DegreeQuantizer(graph, DegreeQuantConfig(bits=4))
        assert q.average_bits() == 4.0
        assert q.compression_ratio() == 8.0

    def test_weight_bits_default_to_bits(self, graph):
        """Weights are fake-quantized at the feature bitwidth."""
        q = DegreeQuantizer(graph, DegreeQuantConfig(bits=6))
        w = Tensor(np.random.default_rng(0).normal(size=(8, 5)).astype(np.float32))
        codes = q.weight(w, 0).data / q._weight_obs[0].scale(6)
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-3)
        assert np.abs(codes).max() == pytest.approx(31, abs=1e-3)

    def test_unprotected_dq_is_uniform_quantization(self, graph):
        """With no node protected, DQ quantizes features and weights
        exactly as the seed's uniform quantizer (its former base class)
        does; it adds only the aggregation-input hook."""
        dq = DegreeQuantizer(graph, DegreeQuantConfig(bits=4, p_max=0.0))
        uniform = UniformQuantizerReference(graph, DegreeQuantConfig(bits=4))
        x = Tensor(graph.features)
        w = Tensor(np.random.default_rng(0).normal(
            size=(graph.feature_dim, 16)).astype(np.float32))
        for hooks in (dq, uniform):
            hooks.training = True
        np.testing.assert_array_equal(dq.features(x, 0).data,
                                      uniform.features(x, 0).data)
        np.testing.assert_array_equal(dq.weight(w, 0).data,
                                      uniform.weight(w, 0).data)
        assert uniform.aggregated(w, 0) is w
        codes = dq.aggregated(w, 0).data / dq._aggregated_obs[0].scale(4)
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-3)


class TestUniformQuantizer:
    """DQ's uniform quantization, which the seed's separate uniform
    quantizer (:class:`~repro.perf.reference.UniformQuantizerReference`)
    implemented."""

    def test_node_bitwidths_uniform(self, graph):
        q = DegreeQuantizer(graph, DegreeQuantConfig(bits=8))
        assert (q.node_bitwidths(0) == 8).all()
        seed = UniformQuantizerReference(graph, DegreeQuantConfig(bits=8))
        np.testing.assert_array_equal(q.node_bitwidths(0),
                                      seed.node_bitwidths(0))

    def test_feature_roundtrip_accuracy_8bit(self, graph):
        q = DegreeQuantizer(graph, DegreeQuantConfig(bits=8))
        seed = UniformQuantizerReference(graph, DegreeQuantConfig(bits=8))
        q.training = seed.training = False
        x = Tensor(graph.features)
        out = q.features(x, 0)
        err = np.abs(out.data - x.data).max()
        assert err <= q._feature_obs[0].scale(8) / 2 + 1e-6
        np.testing.assert_array_equal(out.data, seed.features(x, 0).data)
