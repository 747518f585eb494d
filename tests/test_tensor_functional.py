"""Tests for repro.tensor.functional: softmax family, losses, segments."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_softmax_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 6)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-5)

    def test_log_softmax_gradient(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3)).astype(np.float32),
                   requires_grad=True)
        F.log_softmax(x)[(np.array([0, 1]), np.array([1, 2]))].sum().backward()
        # Gradient of log-softmax picked entries: one-hot minus softmax.
        probs = F.softmax(Tensor(x.data)).data
        expected = -probs.copy()
        expected[0, 1] += 1
        expected[1, 2] += 1
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)


class TestLosses:
    def test_nll_loss_value(self):
        logp = Tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]], dtype=np.float32)))
        loss = F.nll_loss(logp, np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert float(loss.data) == pytest.approx(expected, rel=1e-5)

    def test_nll_loss_mask(self):
        logp = Tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]], dtype=np.float32)))
        loss = F.nll_loss(logp, np.array([0, 1]), mask=np.array([True, False]))
        assert float(loss.data) == pytest.approx(-np.log(0.7), rel=1e-5)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 3), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(3), rel=1e-5)


class TestDropout:
    def test_identity_at_eval(self):
        x = Tensor(np.ones((10, 10), dtype=np.float32))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.4, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_rate_is_identity(self):
        x = Tensor(np.ones(5, dtype=np.float32))
        assert F.dropout(x, 0.0, training=True) is x


class TestSegments:
    def test_segment_sum_values(self):
        vals = Tensor(np.array([[1.0], [2.0], [3.0]], dtype=np.float32))
        out = F.segment_sum(vals, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_segment_sum_gradient_is_gather(self):
        vals = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        F.segment_sum(vals, np.array([1, 1, 0]), 2).sum().backward()
        np.testing.assert_allclose(vals.grad, np.ones((3, 2)))

    def test_segment_softmax_sums_to_one_per_segment(self):
        scores = Tensor(np.random.default_rng(3).normal(size=6).astype(np.float32))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = F.segment_softmax(scores, seg, 3)
        for s in range(3):
            assert out.data[seg == s].sum() == pytest.approx(1.0, abs=1e-5)


class TestMetrics:
    def test_accuracy_full(self):
        logits = Tensor(np.array([[2.0, 1.0], [0.0, 3.0]], dtype=np.float32))
        assert F.accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_masked(self):
        logits = Tensor(np.array([[2.0, 1.0], [5.0, 3.0]], dtype=np.float32))
        acc = F.accuracy(logits, np.array([0, 1]), mask=np.array([False, True]))
        assert acc == 0.0
