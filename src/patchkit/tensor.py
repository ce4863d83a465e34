"""Array arithmetic of the patch network and the tape that differentiates it.

A training step runs the network's stages (``patchnet.embed_patches``,
``gsi_block``, ``lpi_block``, ``pool_head``) and the fused softmax
cross-entropy here over plain arrays, each appending one closure, its
analytic backward, to a plain list: the tape. :class:`Tensor` holds the loss
and that tape, and ``Tensor.backward`` replays the closures in reverse, as
reverse mode over a recorded tape does. The stages run the convolution
(:class:`_Conv`) and batch-norm (:class:`_Norm`) arithmetic of this module on
channels-first data, one contiguous row per channel. Every product is laid out
so numpy hands it to BLAS; no sum is a product: the batch-norm sums run
``np.add.reduce`` along each row, and the depthwise kernel gradient's sum over
each tap's (input site, output site) entries runs numpy's ``add.reduceat`` in
one fixed order (:func:`_tap_segments`), because a BLAS product's summation
order, and so its bits, follows the thread count.
A convolution's dense per-channel maps are gathered once per kernel state
(:func:`_conv_maps`), so repeated readouts of an unchanged network pay only
for their products.
Gradients come out in the dtype of the forward data, so a float64 step gives
a high-precision checking mode.
"""
from __future__ import annotations

import functools
import threading
import weakref

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError


class Tensor:
    """A training step's loss (``data``, a 0-d array) and its ``tape``: one
    closure per stage, in forward order, each mapping the gradient of its
    stage's output to its input gradient while writing its parameters'.

    The loss is the only ``Tensor``: activations and parameters are plain
    arrays. ``backward`` keeps its name because the benchmark's tracer times
    ``patchkit.tensor.Tensor.backward`` as ``patchnet.backward.s``.
    """

    __slots__ = ("data", "tape")

    def __init__(self, data: np.ndarray, tape: list):
        self.data = data
        self.tape = tape

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        """Replay the tape in reverse from d(loss) = 1, writing every
        parameter's gradient into its array in ``grads``. Each closure is
        dropped once it has run, which frees the activations it saved."""
        g = np.ones_like(self.data)
        while self.tape:
            g = self.tape.pop()(g, grads)


class _Norm:
    """Batch-norm arithmetic over (C, N) rows, one channel per row: the
    forward values ``((rows − mean) · inv) · gamma + beta``, with
    ``inv = (var + eps)^-½``, and the backward map.

    With ``stats`` None, ``mean`` and ``var`` are the batch mean and biased
    variance of each row and the backward map runs through them; otherwise
    ``stats`` is a constant (mean, var) pair of per-channel arrays.
    """

    def __init__(self, rows: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, stats):
        dt = rows.dtype
        self.batch_stats = stats is None
        if self.batch_stats:
            self.mean = np.add.reduce(rows, axis=1) / rows.shape[1]
            centered = rows - self.mean[:, None]
            self.var = np.add.reduce(centered * centered, axis=1) / rows.shape[1]
        else:
            self.mean, self.var = np.asarray(stats[0], dtype=dt), np.asarray(stats[1], dtype=dt)
            centered = rows - self.mean[:, None]
        self.inv = (self.var + dt.type(eps)) ** -0.5
        centered *= self.inv[:, None]
        self.xhat = centered
        self.gamma = gamma
        out = self.xhat * gamma[:, None]
        out += beta[:, None]
        self.out = out.astype(dt, copy=False)

    def grads(self, g: np.ndarray, g_gamma: np.ndarray, g_beta: np.ndarray) -> np.ndarray:
        """The rows' gradient for the output gradient ``g``, after writing
        Σ g·xhat and Σ g per channel into ``g_gamma`` and ``g_beta``. Through
        the batch statistics it reuses both sums: ``gamma·inv/N · (N·g − Σ g
        − xhat · Σ g·xhat)`` (Ioffe & Szegedy 2015, §3)."""
        np.add.reduce(g, axis=1, out=g_beta)
        gx = g * self.xhat
        np.add.reduce(gx, axis=1, out=g_gamma)
        scale = (self.gamma * self.inv).astype(g.dtype, copy=False)
        g_rows = g * scale[:, None]
        if self.batch_stats:
            n = g.shape[1]
            np.multiply(self.xhat, (scale * g_gamma / n)[:, None], out=gx)
            gx += (scale * g_beta / n)[:, None]
            g_rows -= gx
        return g_rows


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
    padded = np.zeros((C, kh * kw + 1), kernel.dtype)
    padded[:, :-1] = kernel.reshape(C, kh * kw)
    maps = np.take(padded, _tap_index(h, w, kh, kw), axis=1)
    maps.setflags(write=False)
    with _maps_lock:
        if id(kernel) not in _maps_by_kernel:
            weakref.finalize(kernel, _maps_by_kernel.pop, id(kernel), None).atexit = False
        _maps_by_kernel[id(kernel)] = (key, data, maps)
    return maps


class _Conv:
    """Same-padding depthwise correlation of channels-first (C, B, H, W) planes
    with a (C, kh, kw) kernel: the patch network's spatial stage. Each channel
    is correlated with its own kernel and the output keeps the input shape.

    Channel c is one dense (H·W × H·W) map over the sites, gathered from its
    kernel once per kernel state by :func:`_conv_maps`, and the planes are
    read as (C, B, H·W) site rows, so the forward pass, the input gradient
    and the kernel gradient's per-map product are stacked products that numpy
    hands to BLAS. The kernel gradient then sums each tap's map entries with
    :func:`_tap_segments`.
    """

    def __init__(self, x: np.ndarray, kernel: np.ndarray):
        if x.ndim != 4:
            raise InvalidArgumentError(f"activations must be (C, B, H, W), got an array of shape {x.shape}")
        C, B, H, W = x.shape
        kc, kh, kw = kernel.shape
        if kc != C:
            raise InvalidArgumentError(f"kernel has {kc} channels, input has {C}")
        if kh > 2 * H or kw > 2 * W:
            raise InvalidArgumentError("kernel larger than padded input")
        self.maps = _conv_maps(kernel, H, W)  # (C, in site, out site)
        self.sites = x.reshape(C, B, H * W)
        self.kernel_shape = kernel.shape
        self.out = np.matmul(self.sites, self.maps).reshape(x.shape)

    def grad_input(self, g: np.ndarray) -> np.ndarray:
        return np.matmul(g.reshape(self.sites.shape), self.maps.transpose(0, 2, 1)).reshape(g.shape)

    def grad_kernel(self, g: np.ndarray) -> np.ndarray:
        C, kh, kw = self.kernel_shape
        H, W = g.shape[2:]
        g_maps = np.matmul(self.sites.transpose(0, 2, 1), g.reshape(self.sites.shape))  # (C, in site, out site)
        # Each tap sums its entries with numpy's own reduction, in a fixed order,
        # so the gradient's bits do not depend on how BLAS splits a product.
        order, starts, taps = _tap_segments(H, W, kh, kw)
        grad = np.zeros((C, kh * kw), dtype=g_maps.dtype)
        grad[:, taps] = np.add.reduceat(g_maps.reshape(C, -1)[:, order], starts, axis=1)
        return grad.reshape(self.kernel_shape)


def depthwise_conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The forward values of :class:`_Conv` for channels-last (B, H, W, C)
    planes: each channel correlated with its own (kh, kw) kernel, same-size.

    The package's stages use :class:`_Conv` itself. This name stays a module
    attribute because the benchmark's tracer resolves
    ``patchkit.tensor.depthwise_conv2d`` among the functions it times.
    """
    return _Conv(x.transpose(3, 0, 1, 2), kernel).out.transpose(1, 2, 3, 0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels: np.ndarray, *, tape: list | None = None) -> np.ndarray:
    """Mean cross-entropy of integer ``labels`` under softmax(``logits``), as
    a 0-d array in the logits' dtype.

    Rejects labels that are not one class index in [0, C) per row, and raises
    on non-finite losses. With a ``tape`` it appends the closure that maps
    d(loss) to d(logits).
    """
    logits = np.asarray(logits)
    B, C = logits.shape
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size != B:
        raise InvalidArgumentError(f"{labels.size} labels for batch of {B}")
    outside = labels[(labels < 0) | (labels >= C)]
    if outside.size:
        raise InvalidArgumentError(f"label {outside[0]} is outside the {C} classes [0, {C})")
    with np.errstate(invalid="ignore", over="ignore"):
        z = logits - logits.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss_value = -log_probs[np.arange(B), labels].mean()
    if not np.isfinite(loss_value):
        raise NumericalFailureError(f"cross-entropy loss is {loss_value}")
    if tape is not None:
        def backward(g, grads):
            probs = np.exp(log_probs)
            probs[np.arange(B), labels] -= 1.0
            return g * probs / B

        tape.append(backward)
    return np.asarray(loss_value, dtype=logits.dtype)
