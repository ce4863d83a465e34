"""Minimal reverse-mode automatic differentiation over numpy arrays.

This is not a general autodiff graph: it provides exactly the op set the patch
network needs (broadcast add, matmul, reshape/transpose, mean, ReLU, batch
norm over the last axis, same-size depthwise 2D convolution over channels-last
(B, H, W, C) planes lowered to per-channel dense maps over the sites, and fused
softmax cross-entropy).
Gradients accumulate in the dtype of the forward data, so running the graph in
float64 gives a high-precision checking mode.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from this (scalar or any-shape) tensor with seed gradient 1."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                # Free what the closure captured (saved activations, masks) as soon as it has run.
                node._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Op output over ``parents``; ``backward(g)`` pushes the output gradient ``g``
    to them and is kept only when some parent requires a gradient. Closures
    capture the parents, never the output, so a graph holds no reference cycle.
    """
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _node(np.matmul(a.data, b.data), (a, b), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), backward)


def mean(a, axes, keepdims: bool = True) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a._accumulate(np.broadcast_to(g / count, a.data.shape).copy())

    return _node(a.data.mean(axis=axes, keepdims=keepdims), (a,), backward)


def batch_norm(x, gamma, beta, eps: float, stats=None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``gamma · (x − mean) / sqrt(var + eps) + beta`` per channel (last axis).

    With ``stats`` None, mean and biased variance are the batch statistics
    over every leading axis and the gradient flows through them; otherwise
    ``stats`` is a constant (mean, var) pair of per-channel arrays. Returns
    the output with the mean and variance it used, shaped (C,).
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    dt = x.data.dtype
    axes = tuple(range(x.data.ndim - 1))
    batch_stats = stats is None
    if batch_stats:
        mu = x.data.mean(axis=axes)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes)
    else:
        mu, var = stats[0].astype(dt), stats[1].astype(dt)
        centered = x.data - mu
    inv = (var + np.asarray(eps, dtype=dt)) ** -0.5
    xhat = centered * inv

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            g_xhat = g * gamma.data
            if batch_stats:
                # Through the batch mean and variance: subtract the mean
                # gradient and its projection onto xhat.
                g_xhat = (g_xhat - g_xhat.mean(axis=axes)
                          - xhat * (g_xhat * xhat).mean(axis=axes))
            x._accumulate((g_xhat * inv).astype(dt, copy=False))

    out = xhat * gamma.data + beta.data
    return _node(out.astype(dt, copy=False), (x, gamma, beta), backward), mu, var


def conv_same_padding(k: int) -> tuple[int, int]:
    """Zero-padding (low, high) giving same-size output for kernel size k.

    Odd kernels pad floor(k/2) on both sides; even kernels pad one extra on
    the high side.
    """
    return (k - 1) // 2, k // 2


@functools.lru_cache(maxsize=64)
def _tap_index(h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """(H·W, H·W) kernel tap feeding each (output site, input site) pair.

    Entry [(i, j), (p, q)] is the flat tap ``u·kw + v`` with ``p = i + u − low_h``
    and ``q = j + v − low_w`` under :func:`conv_same_padding`, or ``kh·kw`` (a
    zero appended to the kernel) where no tap joins the two sites.
    """
    (low_h, _), (low_w, _) = conv_same_padding(kh), conv_same_padding(kw)
    rows, cols = np.arange(h), np.arange(w)
    u = rows[None, :] - rows[:, None] + low_h  # (i, p)
    v = cols[None, :] - cols[:, None] + low_w  # (j, q)
    inside = ((u >= 0) & (u < kh))[:, None, :, None] & ((v >= 0) & (v < kw))[None, :, None, :]
    taps = np.where(inside, u[:, None, :, None] * kw + v[None, :, None, :], kh * kw)
    taps = taps.reshape(h * w, h * w)
    taps.setflags(write=False)
    return taps


def depthwise_conv2d(x, kernel) -> Tensor:
    """Per-channel 2D correlation with same-size zero padding.

    ``x`` has shape (B, H, W, C) and ``kernel`` (C, kh, kw); each channel is
    correlated with its own kernel and the output keeps the input shape.
    With same padding, channel c is one dense (H·W × H·W) linear map over the
    sites, gathered from its kernel through :func:`_tap_index`, so the forward
    pass and both gradients are batched matmuls over a (C, B, H·W) view.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    B, H, W, C = x.data.shape
    kc, kh, kw = kernel.data.shape
    if kc != C:
        raise InvalidArgumentError(f"kernel has {kc} channels, input has {C}")
    if kh > 2 * H or kw > 2 * W:
        raise InvalidArgumentError("kernel larger than padded input")
    taps = _tap_index(H, W, kh, kw)
    K = kh * kw
    padded = np.concatenate([kernel.data.reshape(C, K), np.zeros((C, 1), kernel.data.dtype)], axis=1)
    maps = padded[:, taps]  # (C, out site, in site)
    sites = x.data.reshape(B, H * W, C).transpose(2, 0, 1)  # (C, B, H·W)
    out_data = np.matmul(sites, maps.transpose(0, 2, 1)).transpose(1, 2, 0).reshape(B, H, W, C)

    def backward(g):
        g_sites = g.reshape(B, H * W, C).transpose(2, 0, 1)
        if kernel.requires_grad:
            g_maps = np.matmul(g_sites.transpose(0, 2, 1), sites)  # (C, out site, in site)
            # Scatter-add every (out, in) entry onto its tap, channel by channel.
            flat = (np.arange(C)[:, None] * (K + 1) + taps.reshape(1, -1)).reshape(-1)
            g_taps = np.bincount(flat, weights=g_maps.reshape(-1), minlength=C * (K + 1))
            kernel._accumulate(g_taps.reshape(C, K + 1)[:, :K].reshape(C, kh, kw))
        if x.requires_grad:
            gx = np.matmul(g_sites, maps).transpose(1, 2, 0).reshape(B, H, W, C)
            x._accumulate(gx.astype(x.data.dtype, copy=False))

    return _node(out_data.astype(x.data.dtype, copy=False), (x, kernel), backward)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain numpy, no graph)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under softmax(``logits``).

    Returns a scalar tensor; raises on non-finite losses.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    B, C = logits.data.shape
    if labels.size != B:
        raise InvalidArgumentError(f"{labels.size} labels for batch of {B}")
    outside = labels[(labels < 0) | (labels >= C)]
    if outside.size:
        raise InvalidArgumentError(f"label {outside[0]} is outside the {C} classes [0, {C})")
    with np.errstate(invalid="ignore", over="ignore"):
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss_value = -log_probs[np.arange(B), labels].mean()
    if not np.isfinite(loss_value):
        raise NumericalFailureError(f"cross-entropy loss is {loss_value}")

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(log_probs)
            probs[np.arange(B), labels] -= 1.0
            logits._accumulate(g * probs / B)

    return _node(np.asarray(loss_value, dtype=logits.data.dtype), (logits,), backward)
