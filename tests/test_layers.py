"""Numerical gradient checks for the numpy NN layers."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.networks import Adam, Dense, Parameter, ReLU, SharedMLP, softmax_cross_entropy
from repro.networks.layers import (
    forward_only,
    forward_only_active,
    max_pool,
    max_pool_backward,
)

#: Pooling inputs built from few values, so windows hold ties, both
#: signed zeros, NaNs of both signs and both infinities.
POOL_VALUES = st.sampled_from(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 2.5, 5e-324]
)


def argmax_gather(x, axis):
    """The pooling rule before forward-only serving: gather at argmax."""
    arg = np.expand_dims(np.argmax(x, axis=axis), axis)
    return np.take_along_axis(x, arg, axis=axis).squeeze(axis)


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 7, rng)
        out = layer.forward(rng.normal(size=(3, 5, 4)))
        assert out.shape == (3, 5, 7)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        out = layer.forward(x)
        grad_in = layer.backward(out - target)
        assert np.allclose(grad_in, numeric_grad(loss, x), atol=1e-5)

    def test_weight_gradient(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(out - target)
        assert np.allclose(layer.weight.grad, numeric_grad(loss, layer.weight.value), atol=1e-5)
        assert np.allclose(layer.bias.grad, numeric_grad(loss, layer.bias.value), atol=1e-5)

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError, match="forward"):
            Dense(2, 2, rng).backward(np.zeros((1, 2)))


class TestReLU:
    def test_gradient_mask(self, rng):
        relu = ReLU()
        x = rng.normal(size=(10,))
        out = relu.forward(x)
        grad = relu.backward(np.ones_like(x))
        assert np.array_equal(grad, (x > 0).astype(float))
        assert (out >= 0).all()


class TestSharedMLP:
    def test_gradient_through_stack(self, rng):
        mlp = SharedMLP([3, 8, 4], rng)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 4))

        def loss():
            return 0.5 * np.sum((mlp.forward(x) - target) ** 2)

        out = mlp.forward(x)
        grad_in = mlp.backward(out - target)
        assert np.allclose(grad_in, numeric_grad(loss, x), atol=1e-5)

    def test_parameter_gradients(self, rng):
        mlp = SharedMLP([3, 5, 2], rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return 0.5 * np.sum((mlp.forward(x) - target) ** 2)

        mlp.zero_grad()
        out = mlp.forward(x)
        mlp.backward(out - target)
        for p in mlp.parameters():
            assert np.allclose(p.grad, numeric_grad(loss, p.value), atol=1e-5)

    def test_final_relu_flag(self, rng):
        with_relu = SharedMLP([2, 2], rng, final_relu=True)
        no_relu = SharedMLP([2, 2], rng, final_relu=False)
        x = rng.normal(size=(100, 2)) * 10
        assert (with_relu.forward(x) >= 0).all()
        assert (no_relu.forward(x) < 0).any()

    def test_needs_two_widths(self, rng):
        with pytest.raises(ValueError, match="at least"):
            SharedMLP([4], rng)


class TestMaxPool:
    def test_pool_and_scatter(self, rng):
        x = rng.normal(size=(4, 6, 3))
        pooled, arg = max_pool(x, axis=1), np.argmax(x, axis=1)
        assert pooled.shape == (4, 3)
        assert np.allclose(pooled, x.max(axis=1))
        grad = rng.normal(size=(4, 3))
        scattered = max_pool_backward(grad, arg, x.shape, axis=1)
        assert scattered.shape == x.shape
        assert np.allclose(scattered.sum(axis=1), grad)

    def test_gradient_matches_numeric(self, rng):
        x = rng.normal(size=(3, 5, 2))
        target = rng.normal(size=(3, 2))

        def loss():
            return 0.5 * np.sum((max_pool(x, axis=1) - target) ** 2)

        pooled, arg = max_pool(x, axis=1), np.argmax(x, axis=1)
        grad = max_pool_backward(pooled - target, arg, x.shape, axis=1)
        assert np.allclose(grad, numeric_grad(loss, x), atol=1e-5)

    @settings(deadline=None, max_examples=300)
    @given(
        x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3),
                     elements=POOL_VALUES),
        data=st.data(),
    )
    def test_max_equals_argmax_gather(self, x, data):
        """``x.max`` reproduces the argmax gather on what pooling sees.

        Every pooled tensor in the models is a ReLU output, and there the
        bits are equal: ``np.where(x > 0, x, 0.0)`` leaves no -0.0 and no
        NaN.  On raw inputs the values agree, but a window mixing +0.0
        and -0.0 (or NaNs of both signs) may keep a different sign.
        """
        axis = data.draw(st.integers(0, x.ndim - 1))
        relu = ReLU().forward(x)
        assert np.array_equal(bits(max_pool(relu, axis)), bits(argmax_gather(relu, axis)))
        pooled, gathered = max_pool(x, axis), argmax_gather(x, axis)
        assert np.array_equal(pooled, gathered, equal_nan=True)
        differ = bits(pooled) != bits(gathered)
        assert ((pooled[differ] == 0) | np.isnan(pooled[differ])).all()


class TestForwardOnly:
    @pytest.mark.parametrize("rows", [1, 5])  # 1: the padded GEMM path
    def test_same_bits_and_no_cache(self, rng, rows):
        mlp = SharedMLP([3, 8, 4], rng)
        x = rng.normal(size=(rows, 3))

        def caches():
            return [l._x if isinstance(l, Dense) else l._mask for l in mlp.layers]

        ref = mlp.forward(x)
        assert all(c is not None for c in caches())
        with forward_only():
            out = mlp.forward(x)
        assert np.array_equal(bits(out), bits(ref))
        assert all(c is None for c in caches())
        with pytest.raises(RuntimeError, match="before forward"):
            mlp.backward(np.ones_like(out))

    def test_nests_and_is_per_thread(self):
        seen = []
        with forward_only():
            with forward_only():
                assert forward_only_active()
            assert forward_only_active()
            other = threading.Thread(target=lambda: seen.append(forward_only_active()))
            other.start()
            other.join()
        assert not forward_only_active()
        assert seen == [False]


class TestSoftmaxCE:
    def test_loss_value(self):
        logits = np.array([[10.0, 0.0, 0.0]])
        loss, _, probs = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-3
        assert probs[0, 0] > 0.99

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad, _ = softmax_cross_entropy(logits, labels)
        assert np.allclose(grad, numeric_grad(loss, logits), atol=1e-5)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        _, grad, _ = softmax_cross_entropy(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


class TestAdam:
    def test_minimises_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            p.grad[...] = 2 * p.value  # d/dx of x^2
            opt.step()
        assert np.allclose(p.value, 0.0, atol=1e-2)

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad[...] = 7.0
        Adam([p]).zero_grad()
        assert (p.grad == 0).all()
