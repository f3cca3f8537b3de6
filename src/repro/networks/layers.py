"""Numpy neural-network layers with manual backpropagation.

Just enough machinery to train the small PNN backbones used by the
accuracy experiments: dense layers, ReLU, shared (pointwise) MLPs,
neighbourhood max pooling, softmax cross-entropy, and Adam.  Every layer
follows the same contract — ``forward`` caches what ``backward`` needs,
except under :func:`forward_only`, ``backward`` accumulates parameter
gradients and returns the input gradient — and gradients are verified
against finite differences in ``tests/test_layers.py``.

:func:`forward_only` is for callers that will never run a backward pass
(served inference, :mod:`repro.infer`): inside it no layer or stage keeps
an input, a ReLU mask, a pooling argmax or neighbour indices, so a model
holds no activations between calls and any number of threads can run
forwards on one instance.  The forward's outputs are the same bits
either way.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "forward_only",
    "forward_only_active",
    "Parameter",
    "Module",
    "Dense",
    "ReLU",
    "SharedMLP",
    "max_pool",
    "max_pool_backward",
    "softmax_cross_entropy",
    "Adam",
]


_FORWARD_ONLY = threading.local()


@contextmanager
def forward_only():
    """Run forwards that keep no state for ``backward`` (this thread only).

    Layers inside the context clear their caches instead of filling
    them, so a ``backward`` after such a forward raises ``RuntimeError``.
    Re-entrant; the previous setting is restored on exit.
    """
    previous = forward_only_active()
    _FORWARD_ONLY.on = True
    try:
        yield
    finally:
        _FORWARD_ONLY.on = previous


def forward_only_active() -> bool:
    """Whether the calling thread is inside :func:`forward_only`."""
    return getattr(_FORWARD_ONLY, "on", False)


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Module:
    """Base class: parameter collection + gradient reset."""

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Module):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad[...] = 0.0


class Dense(Module):
    """Affine layer ``y = x @ W + b`` over the last axis.

    Accepts arbitrary leading dimensions, so the same layer implements
    both per-point (shared/1x1-conv) and fully-connected computation.

    Row-stability contract: every output row is a function of its input
    row alone, bit-identical no matter how rows are batched.  The fused
    serving path relies on it — the same point may be evaluated inside a
    ``(n, c)`` delayed-aggregation pass, an eager ``(m, k, c)`` gathered
    pass, or a one-row offline head call, and all three must agree to
    the last bit.  Two measures enforce it: inputs are flattened to one
    2-D GEMM (BLAS computes each row of a 2-D product independently at
    these widths, but a stack of small 3-D matmuls may not batch the
    same way), and single-row inputs are padded to two rows (one-row
    products take BLAS's gemv path, whose accumulation order differs
    from the gemm used for taller inputs).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_features)  # He init (ReLU nets)
        self.weight = Parameter(rng.normal(scale=scale, size=(in_features, out_features)))
        # Small positive bias keeps ReLUs alive even for degenerate
        # all-zero groups (a centre whose ball query found only itself).
        self.bias = Parameter(np.full(out_features, 0.01))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = None if forward_only_active() else x
        in_f, out_f = self.weight.shape
        x2 = x.reshape(-1, in_f)
        if len(x2) == 1:
            y2 = (np.concatenate([x2, x2]) @ self.weight.value)[:1]
        else:
            y2 = x2 @ self.weight.value
        y2 += self.bias.value
        return y2.reshape(x.shape[:-1] + (out_f,))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        in_f, out_f = self.weight.shape
        x2 = x.reshape(-1, in_f)
        g2 = grad.reshape(-1, out_f)
        self.weight.grad += x2.T @ g2
        self.bias.grad += g2.sum(axis=0)
        return grad @ self.weight.value.T


class ReLU(Module):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # ``np.where`` (not an in-place ``np.maximum``) maps -0.0 and NaN
        # to +0.0, so what max pooling sees has no signed zero or NaN.
        mask = x > 0
        self._mask = None if forward_only_active() else mask
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, 0.0)


class SharedMLP(Module):
    """Stack of Dense+ReLU applied pointwise (the PNN "MLP" block).

    Args:
        widths: channel sizes ``[c_in, c_1, ..., c_out]``.
        rng: initialiser RNG.
        final_relu: apply ReLU after the last layer too (True inside
            set-abstraction blocks, False for logits heads).
    """

    def __init__(self, widths: list[int], rng: np.random.Generator, final_relu: bool = True):
        if len(widths) < 2:
            raise ValueError("SharedMLP needs at least [c_in, c_out]")
        self.layers: list[Module] = []
        for i in range(len(widths) - 1):
            self.layers.append(Dense(widths[i], widths[i + 1], rng))
            if i < len(widths) - 2 or final_relu:
                self.layers.append(ReLU())
        self.widths = list(widths)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def max_pool(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Max over ``axis``.

    A stage that will run ``backward`` also keeps ``np.argmax(x, axis)``
    for :func:`max_pool_backward`.  On anything a :class:`ReLU` emits the
    pooled bits equal gathering ``x`` at that argmax; on raw inputs they
    can differ in the sign of a zero or a NaN (``tests/test_layers.py``).
    """
    return x.max(axis=axis)


def max_pool_backward(
    grad: np.ndarray, arg: np.ndarray, input_shape: tuple[int, ...], axis: int = 1
) -> np.ndarray:
    """Scatter pooled gradients back to the argmax positions."""
    out = np.zeros(input_shape, dtype=grad.dtype)
    np.put_along_axis(
        out, np.expand_dims(arg, axis), np.expand_dims(grad, axis), axis=axis
    )
    return out


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over rows.

    Returns:
        ``(loss, grad, probs)`` where ``grad`` is d(loss)/d(logits).
    """
    labels = np.asarray(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(labels)
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad, probs


class Adam:
    """Standard Adam over a parameter list."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            m[...] = b1 * m + (1 - b1) * p.grad
            v[...] = b2 * v + (1 - b2) * p.grad**2
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0.0
