"""Minimal reverse-mode automatic differentiation over numpy arrays.

This is not a general autodiff graph. A :class:`Tensor` records its parents
and a closure that pushes its output gradient to them (:func:`_node`), and
``Tensor.backward`` replays those closures in reverse order: a tape. The
patch network's stages (``patchnet.embed_patches``, ``gsi_block``,
``lpi_block`` and ``pool_head``) each add one node with an analytic
backward; the fused softmax cross-entropy here ends the chain. The stages
run the convolution (:class:`_Conv`) and batch-norm (:class:`_Norm`)
arithmetic of this module, which the single ops ``depthwise_conv2d`` and
``batch_norm`` expose as graph nodes, kept as that arithmetic's test
references.
Every product is laid out so numpy hands it to BLAS, except the depthwise
kernel gradient's sum over each tap's (input site, output site) entries:
numpy's ``add.reduceat`` adds those in one fixed order (:func:`_tap_segments`),
because a BLAS product's summation order, and so its bits, follows the
thread count.
A convolution's dense per-channel maps are gathered once per kernel state
(:func:`_conv_maps`), so repeated readouts of an unchanged network pay only
for their products.
Gradients accumulate in the dtype of the forward data, so running the graph in
float64 gives a high-precision checking mode.
"""
from __future__ import annotations

import functools
import threading
import weakref

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


def _push(inputs: tuple[Tensor, ...], grads: tuple[np.ndarray, ...]) -> None:
    """Accumulate each gradient into its input where that input wants one."""
    for t, g in zip(inputs, grads):
        if t.requires_grad:
            t._accumulate(g)


class _Norm:
    """Batch-norm arithmetic over the rows of an (N, C) array: the forward
    values and the backward map, shared by :func:`batch_norm` and the patch
    network's stages. ``stats`` is as in :func:`batch_norm`.
    """

    def __init__(self, rows: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, stats):
        dt = rows.dtype
        self.batch_stats = stats is None
        if self.batch_stats:
            self.mean = rows.mean(axis=0)
            centered = rows - self.mean
            self.var = (centered * centered).mean(axis=0)
        else:
            self.mean, self.var = np.asarray(stats[0], dtype=dt), np.asarray(stats[1], dtype=dt)
            centered = rows - self.mean
        self.inv = (self.var + dt.type(eps)) ** -0.5
        centered *= self.inv
        self.xhat = centered
        self.gamma = gamma
        out = self.xhat * gamma
        out += beta
        self.out = out.astype(dt, copy=False)

    def grads(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients (input rows, gamma, beta) for the output gradient ``g``."""
        g_xhat = g * self.gamma
        if self.batch_stats:
            # Through the batch mean and variance: subtract the mean gradient
            # and its projection onto xhat.
            g_xhat = (g_xhat - g_xhat.mean(axis=0)
                      - self.xhat * (g_xhat * self.xhat).mean(axis=0))
        g_rows = (g_xhat * self.inv).astype(g.dtype, copy=False)
        return g_rows, (g * self.xhat).sum(axis=0), g.sum(axis=0)


def batch_norm(x, gamma, beta, eps: float, stats=None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``gamma · (x − mean) / sqrt(var + eps) + beta`` per channel (last axis).

    With ``stats`` None, mean and biased variance are the batch statistics
    over every leading axis and the gradient flows through them; otherwise
    ``stats`` is a constant (mean, var) pair of per-channel arrays. Returns
    the output with the mean and variance it used, shaped (C,).
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    shape = x.data.shape
    norm = _Norm(x.data.reshape(-1, shape[-1]), gamma.data, beta.data, eps, stats)

    def backward(g):
        g_rows, g_gamma, g_beta = norm.grads(g.reshape(norm.xhat.shape))
        _push((x, gamma, beta), (g_rows.reshape(shape), g_gamma, g_beta))

    return _node(norm.out.reshape(shape), (x, gamma, beta), backward), norm.mean, norm.var


def conv_same_padding(k: int) -> tuple[int, int]:
    """Zero-padding (low, high) giving same-size output for kernel size k.

    Odd kernels pad floor(k/2) on both sides; even kernels pad one extra on
    the high side.
    """
    return (k - 1) // 2, k // 2


@functools.lru_cache(maxsize=64)
def _tap_index(h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """(H·W, H·W) kernel tap joining each (input site, output site) pair.

    Entry [(p, q), (i, j)] is the flat tap ``u·kw + v`` with ``p = i + u − low_h``
    and ``q = j + v − low_w`` under :func:`conv_same_padding`, or ``kh·kw`` (a
    zero appended to the kernel) where no tap joins the two sites.
    """
    (low_h, _), (low_w, _) = conv_same_padding(kh), conv_same_padding(kw)
    rows, cols = np.arange(h), np.arange(w)
    u = rows[:, None] - rows[None, :] + low_h  # (p, i)
    v = cols[:, None] - cols[None, :] + low_w  # (q, j)
    inside = ((u >= 0) & (u < kh))[:, None, :, None] & ((v >= 0) & (v < kw))[None, :, None, :]
    taps = np.where(inside, u[:, None, :, None] * kw + v[None, :, None, :], kh * kw)
    taps = taps.reshape(h * w, h * w)
    taps.setflags(write=False)
    return taps


@functools.lru_cache(maxsize=64)
def _tap_segments(h: int, w: int, kh: int, kw: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat entries of :func:`_tap_index` grouped by tap, as read-only
    (order, starts, taps).

    ``order`` lists every (input site, output site) entry that some tap joins,
    sorted by tap and, within a tap, by entry; the entries of tap ``taps[k]``
    begin at ``order[starts[k]]`` and run to the next start or the end. Taps
    that join no pair are left out of ``taps``.
    """
    flat = _tap_index(h, w, kh, kw).reshape(-1)
    counts = np.bincount(flat, minlength=kh * kw + 1)[:-1]
    order = np.argsort(flat, kind="stable")[: counts.sum()]
    taps = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[taps]
    for table in (order, starts, taps):
        table.setflags(write=False)
    return order, starts, taps


_maps_lock = threading.Lock()
_maps_by_kernel: dict[int, tuple[tuple, bytes, np.ndarray]] = {}


def _conv_maps(kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """Read-only (C, H·W, H·W) dense maps of a (C, kh, kw) kernel over H×W
    planes: channel c's entry [input site, output site] is its tap joining
    the two sites (:func:`_tap_index`), or 0.

    Each live kernel array keeps at most one entry, valid while the kernel's
    bytes, shape and dtype and the plane size are unchanged: an in-place
    update (as ``adam_step`` makes) replaces it, and freeing the array drops
    it. Training and repeated readouts therefore share one set of maps.
    """
    key = (h, w, kernel.shape, kernel.dtype.str)
    data = kernel.tobytes()
    entry = _maps_by_kernel.get(id(kernel))
    if entry is not None and entry[0] == key and entry[1] == data:
        return entry[2]
    C, kh, kw = kernel.shape
    padded = np.concatenate([kernel.reshape(C, kh * kw), np.zeros((C, 1), kernel.dtype)], axis=1)
    maps = np.take(padded, _tap_index(h, w, kh, kw), axis=1)
    maps.setflags(write=False)
    with _maps_lock:
        if id(kernel) not in _maps_by_kernel:
            weakref.finalize(kernel, _maps_by_kernel.pop, id(kernel), None).atexit = False
        _maps_by_kernel[id(kernel)] = (key, data, maps)
    return maps


class _Conv:
    """Same-padding depthwise correlation of channels-last (B, H, W, C) planes
    with a (C, kh, kw) kernel, shared by :func:`depthwise_conv2d` and the
    patch network's spatial stage.

    Channel c is one dense (H·W × H·W) map over the sites, gathered from its
    kernel once per kernel state by :func:`_conv_maps`, and the planes are
    copied to contiguous (C, B, H·W) site rows, so the forward pass, the input
    gradient and the kernel gradient's per-map product are stacked products
    that numpy hands to BLAS. The kernel gradient then sums each tap's map
    entries with :func:`_tap_segments`.
    """

    def __init__(self, x: np.ndarray, kernel: np.ndarray):
        B, H, W, C = x.shape
        kc, kh, kw = kernel.shape
        if kc != C:
            raise InvalidArgumentError(f"kernel has {kc} channels, input has {C}")
        if kh > 2 * H or kw > 2 * W:
            raise InvalidArgumentError("kernel larger than padded input")
        self.maps = _conv_maps(kernel, H, W)  # (C, in site, out site)
        self.sites = self._rows(x)
        self.x_shape, self.kernel_shape = x.shape, kernel.shape
        self.out = self._planes(np.matmul(self.sites, self.maps))

    @staticmethod
    def _rows(planes: np.ndarray) -> np.ndarray:
        """(B, H, W, C) planes as contiguous (C, B, H·W) site rows."""
        B, H, W, C = planes.shape
        return np.ascontiguousarray(planes.reshape(B, H * W, C).transpose(2, 0, 1))

    def _planes(self, rows: np.ndarray) -> np.ndarray:
        """(C, B, H·W) site rows as contiguous (B, H, W, C) planes."""
        return np.ascontiguousarray(rows.transpose(1, 2, 0)).reshape(self.x_shape)

    def grad_input(self, g: np.ndarray) -> np.ndarray:
        return self._planes(np.matmul(self._rows(g), self.maps.transpose(0, 2, 1)))

    def grad_kernel(self, g: np.ndarray) -> np.ndarray:
        C, kh, kw = self.kernel_shape
        g_maps = np.matmul(self.sites.transpose(0, 2, 1), self._rows(g))  # (C, in site, out site)
        # Each tap sums its entries with numpy's own reduction, in a fixed order,
        # so the gradient's bits do not depend on how BLAS splits a product.
        order, starts, taps = _tap_segments(self.x_shape[1], self.x_shape[2], kh, kw)
        grad = np.zeros((C, kh * kw), dtype=g_maps.dtype)
        grad[:, taps] = np.add.reduceat(g_maps.reshape(C, -1)[:, order], starts, axis=1)
        return grad.reshape(self.kernel_shape)


def depthwise_conv2d(x, kernel) -> Tensor:
    """Per-channel 2D correlation with same-size zero padding.

    ``x`` has shape (B, H, W, C) and ``kernel`` (C, kh, kw); each channel is
    correlated with its own kernel and the output keeps the input shape.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    conv = _Conv(x.data, kernel.data)

    def backward(g):
        if kernel.requires_grad:
            kernel._accumulate(conv.grad_kernel(g))
        if x.requires_grad:
            x._accumulate(conv.grad_input(g).astype(x.data.dtype, copy=False))

    return _node(conv.out.astype(x.data.dtype, copy=False), (x, kernel), backward)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain numpy, no graph)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under softmax(``logits``).

    Returns a scalar tensor; rejects labels that are not one class index in
    [0, C) per row, and raises on non-finite losses.
    """
    logits = _as_tensor(logits)
    B, C = logits.data.shape
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
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
