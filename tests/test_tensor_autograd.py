"""Unit tests for the autograd engine: gradient correctness via finite
differences, broadcasting, graph mechanics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import Function, Tensor, is_grad_enabled, no_grad, tensor


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn of one array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x.copy())
        flat[i] = orig - eps
        lo = fn(x.copy())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, shape, positive=False, seed=0, atol=1e-2):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=shape).astype(np.float64)
    if positive:
        x = np.abs(x) + 0.5
    t = Tensor(x.astype(np.float32), requires_grad=True)
    out = op(t)
    out.sum().backward()
    expected = numerical_grad(lambda a: float(op(Tensor(a)).sum().data), x)
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-2)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, (4, 3))

    def test_sub(self):
        check_gradient(lambda t: 5.0 - t, (4, 3))

    def test_mul(self):
        check_gradient(lambda t: t * t, (3, 3))

    def test_div(self):
        check_gradient(lambda t: 1.0 / t, (4,), positive=True)

    def test_neg(self):
        check_gradient(lambda t: -t, (5,))

    def test_pow(self):
        check_gradient(lambda t: t ** 3, (4,), positive=True)

    def test_exp(self):
        check_gradient(lambda t: t.exp(), (3, 2))

    def test_log(self):
        check_gradient(lambda t: t.log(), (6,), positive=True)

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt(), (5,), positive=True)

    def test_abs(self):
        check_gradient(lambda t: t.abs(), (8,))

    def test_relu(self):
        # Shift away from the kink for numerical stability.
        check_gradient(lambda t: (t + 0.3).relu(), (7,))

    def test_leaky_relu(self):
        check_gradient(lambda t: (t + 0.3).leaky_relu(0.1), (7,))

    def test_clamp(self):
        check_gradient(lambda t: t.clamp(-0.5, 0.5), (9,))


class TestMatmulGradients:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-5)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-5)

    def test_spmm_gradient_is_transpose(self):
        rng = np.random.default_rng(2)
        adj = sp.random(5, 5, density=0.4, random_state=3, format="csr")
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
        y = x.spmm(adj)
        np.testing.assert_allclose(y.data, adj @ x.data, atol=1e-5)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, adj.T @ np.ones((5, 3)), atol=1e-5)


class TestBroadcasting:
    def test_add_broadcast_rows(self):
        a = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((4,), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_mul_broadcast_column(self):
        a = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(2 * np.ones((3, 1), dtype=np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, 4 * np.ones((3, 1)))

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * np.ones((2, 2)))


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=0, keepdims=True)
        assert out.shape == (1, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean(self):
        a = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((4, 2), 1 / 8))

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [[0, 1, 0]])

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = a.T
        assert out.shape == (3, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_rows(self):
        a = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        a[np.array([0, 2])].sum().backward()
        expected = np.zeros((4, 3))
        expected[[0, 2]] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_getitem_duplicate_rows_accumulate(self):
        a = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        a[np.array([1, 1])].sum().backward()
        np.testing.assert_allclose(a.grad[1], [2.0, 2.0])


class TestGraphMechanics:
    def test_gradient_accumulation_over_two_uses(self):
        a = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (a * 3 + a * 4).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        b = a * 2
        c = a * 5
        (b + c).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_deep_chain(self):
        a = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        out = a
        for _ in range(50):
            out = out * 1.01
        out.backward()
        assert a.grad[0] == pytest.approx(1.01 ** 50, rel=1e-4)

    def test_zero_grad(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestCustomFunction:
    def test_function_forward_backward(self):
        class Double(Function):
            @staticmethod
            def forward(ctx, x):
                return x * 2

            @staticmethod
            def backward(ctx, grad):
                return (grad * 2,)

        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = Double.apply(a)
        np.testing.assert_allclose(out.data, 2 * np.ones(3))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones(3))

    def test_function_none_gradient_skipped(self):
        class PassFirst(Function):
            @staticmethod
            def forward(ctx, x, y):
                return x + y

            @staticmethod
            def backward(ctx, grad):
                return grad, None

        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        PassFirst.apply(a, b).sum().backward()
        assert a.grad is not None
        assert b.grad is None


class TestConstruction:
    def test_tensor_factory(self):
        t = tensor([1, 2, 3], requires_grad=True)
        assert t.requires_grad
        assert t.dtype == np.float32

    def test_float64_downcast(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_item_and_len(self):
        assert Tensor(np.array([4.0])).item() == 4.0
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.zeros(1), requires_grad=True))

    def test_comparison_returns_numpy(self):
        mask = Tensor(np.array([1.0, -1.0])) > 0
        assert isinstance(mask, np.ndarray)
        assert mask.tolist() == [True, False]
