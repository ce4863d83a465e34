import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchkit import tensor as T
from patchkit.errors import InvalidArgumentError, NumericalFailureError
from patchkit.patchnet import gsi_block, lpi_block
from patchkit.tensor import Tensor, conv_same_padding

from conftest import nchw, nhwc


def numeric_grads(build_loss, arrays, eps=1e-6):
    """Central finite differences of a scalar-producing graph builder (float64)."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = build_loss(arrays)
            flat[i] = orig - eps
            lm = build_loss(arrays)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * eps)
        grads.append(g)
    return grads


def check_op(build, shapes, seed=0, eps=1e-6, tol=1e-7):
    """Compare backprop and finite differences for a graph builder.

    ``build(tensors)`` returns a scalar Tensor; inputs are float64.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1, s) for s in shapes]

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(tensors)
    loss.backward()

    def value(arrs):
        return float(build([Tensor(a) for a in arrs]).data)

    numeric = numeric_grads(value, arrays, eps=eps)
    for t, num in zip(tensors, numeric):
        got = t.grad if t.grad is not None else np.zeros_like(num)
        assert np.allclose(got, num, atol=tol, rtol=1e-5), (got, num)


def weighted_sum(out: Tensor, w: np.ndarray) -> Tensor:
    """Scalar ``sum(out * w)`` as one test-local graph node."""
    return T._node(np.asarray((out.data * w).sum()), (out,), lambda g: out._accumulate(g * w))


def scalarize(out: Tensor, seed=99) -> Tensor:
    """Reduce any output to a scalar via a fixed random weighting."""
    rng = np.random.default_rng(seed)
    return weighted_sum(out, rng.normal(0, 1, out.data.shape))


class TestDepthwiseConv:
    def test_same_padding_rule(self):
        assert conv_same_padding(3) == (1, 1)
        assert conv_same_padding(2) == (0, 1)  # even: extra on the high side
        assert conv_same_padding(6) == (2, 3)

    def test_zero_kernel_gives_zero(self):
        x = Tensor(nhwc(np.random.default_rng(0).normal(0, 1, (2, 3, 4, 4))))
        out = T.depthwise_conv2d(x, Tensor(np.zeros((3, 4, 4))))
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_delta_kernel_is_identity(self, k):
        rng = np.random.default_rng(2)
        x = nhwc(rng.normal(0, 1, (2, 3, k, k)))
        kernel = np.zeros((3, k, k))
        tap = (k - 1) // 2
        kernel[:, tap, tap] = 1.0
        out = T.depthwise_conv2d(Tensor(x), Tensor(kernel))
        assert np.allclose(out.data, x)

    def test_output_shape_matches_input(self):
        x = Tensor(np.zeros((1, 6, 6, 2)))
        out = T.depthwise_conv2d(x, Tensor(np.zeros((2, 6, 6))))
        assert out.data.shape == (1, 6, 6, 2)

    @pytest.mark.parametrize("hw,k", [((4, 4), 3), ((6, 6), 6), ((5, 4), 2)])
    def test_gradients(self, hw, k):
        def build(t):
            return scalarize(T.depthwise_conv2d(t[0], t[1]))

        check_op(build, [(2,) + hw + (3,), (3, k, k)])

    def test_channel_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            T.depthwise_conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3))))


def reference_conv(x, kernel, g):
    """Direct-loop same-padding correlation: (output, grad wrt x, grad wrt
    kernel) for output gradient ``g``, one kernel tap and output site at a time."""
    _, _, H, W = x.shape
    _, kh, kw = kernel.shape
    (low_h, _), (low_w, _) = conv_same_padding(kh), conv_same_padding(kw)
    out, gx, gk = np.zeros_like(x), np.zeros_like(x), np.zeros_like(kernel)
    for i in range(H):
        for j in range(W):
            for u in range(kh):
                for v in range(kw):
                    p, q = i + u - low_h, j + v - low_w
                    if 0 <= p < H and 0 <= q < W:
                        out[:, :, i, j] += kernel[:, u, v] * x[:, :, p, q]
                        gx[:, :, p, q] += kernel[:, u, v] * g[:, :, i, j]
                        gk[:, u, v] += (x[:, :, p, q] * g[:, :, i, j]).sum(axis=0)
    return out, gx, gk


class TestLoweredConv:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_direct_loop(self, data):
        B = data.draw(st.integers(1, 3), label="B")
        C = data.draw(st.integers(1, 3), label="C")
        H = data.draw(st.integers(1, 5), label="H")
        W = data.draw(st.integers(1, 5), label="W")
        kh = data.draw(st.integers(1, 2 * H), label="kh")
        kw = data.draw(st.integers(1, 2 * W), label="kw")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x, kernel, g = rng.normal(size=(B, C, H, W)), rng.normal(size=(C, kh, kw)), rng.normal(size=(B, C, H, W))
        want_out, want_gx, want_gk = reference_conv(x, kernel, g)

        xt, kt = Tensor(nhwc(x), requires_grad=True), Tensor(kernel, requires_grad=True)
        out = T.depthwise_conv2d(xt, kt)
        weighted_sum(out, nhwc(g)).backward()
        assert np.allclose(out.data, nhwc(want_out), rtol=0, atol=1e-12)
        assert np.allclose(xt.grad, nhwc(want_gx), rtol=0, atol=1e-12)
        assert np.allclose(kt.grad, want_gk, rtol=0, atol=1e-12)

        x32 = Tensor(nhwc(x).astype(np.float32), requires_grad=True)
        k32 = Tensor(kernel.astype(np.float32), requires_grad=True)
        out32 = T.depthwise_conv2d(x32, k32)
        weighted_sum(out32, nhwc(g).astype(np.float32)).backward()
        assert out32.data.dtype == x32.grad.dtype == k32.grad.dtype == np.float32
        assert np.allclose(out32.data, nhwc(want_out), rtol=0, atol=1e-4)

    def test_kernel_larger_than_twice_the_plane_rejected(self):
        with pytest.raises(InvalidArgumentError, match="larger than padded input"):
            T.depthwise_conv2d(Tensor(np.zeros((1, 2, 3, 1))), Tensor(np.zeros((1, 5, 2))))

    def test_tap_tables_are_cached_and_read_only(self):
        assert T._tap_index(4, 3, 2, 3) is T._tap_index(4, 3, 2, 3)
        assert T._tap_segments(4, 3, 2, 3) is T._tap_segments(4, 3, 2, 3)
        for first in (T._tap_index(4, 3, 2, 3), *T._tap_segments(4, 3, 2, 3)):
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[(0,) * first.ndim] = 0


class TestBlockOps:
    """The patch network's ``gsi_block`` (spatial) and ``lpi_block``
    (channel) over graph leaves: one graph node on batch statistics each,
    against finite differences."""

    SPATIAL = (gsi_block, "blocks.0.gsi_", "kernel", [(2, 3, 3, 3), (3, 3, 3), (3,), (3,), (3,)])
    CHANNEL = (lpi_block, "blocks.0.lpi_", "weight", [(2, 3, 2, 4), (3, 4), (3,), (3,), (3,)])
    CASES = pytest.mark.parametrize("block,prefix,weight,shapes", [SPATIAL, CHANNEL],
                                    ids=["spatial-batch", "channel-batch"])

    @staticmethod
    def run(block, prefix, weight, tensors):
        """``block`` as block 0 over (x, weight, bias, bn gamma, bn beta)."""
        x, w, bias, gamma, beta = tensors
        t = {prefix + weight: w, prefix + "bias": bias, prefix + "bn.gamma": gamma, prefix + "bn.beta": beta}
        return block(x, t, 0, "train")

    @CASES
    def test_gradients(self, block, prefix, weight, shapes):
        check_op(lambda t: scalarize(self.run(block, prefix, weight, t)), shapes, seed=5)

    @CASES
    def test_float32_stays_float32(self, block, prefix, weight, shapes):
        rng = np.random.default_rng(6)
        leaves = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
        out = self.run(block, prefix, weight, leaves)
        scalarize(out).backward()
        assert out.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in leaves)


class TestBatchNorm:
    SHAPES = [(4, 2, 2, 3), (3,), (3,)]

    def test_train_mode_gradients(self):
        check_op(lambda t: scalarize(T.batch_norm(t[0], t[1], t[2], 1e-5)[0]), self.SHAPES)

    def test_eval_mode_gradients(self):
        stats = (np.array([0.3, -1.0, 0.0]), np.array([0.5, 2.0, 1.0]))
        check_op(lambda t: scalarize(T.batch_norm(t[0], t[1], t[2], 1e-5, stats)[0]), self.SHAPES)

    def test_batch_statistics_are_the_biased_moments(self):
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 3.0, (5, 3, 2, 3))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        out, mu, var = T.batch_norm(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), 1e-5)
        assert np.allclose(mu, x.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        assert np.allclose(var, x.var(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        want = gamma[:, None, None] * (x - mu[:, None, None]) / np.sqrt(var[:, None, None] + 1e-5)
        assert np.allclose(nchw(out.data), want + beta[:, None, None], rtol=0, atol=1e-12)

    def test_float32_stays_float32(self):
        x = Tensor(np.ones((2, 2, 2, 3), np.float32), requires_grad=True)
        gamma = Tensor(np.ones(3, np.float32), requires_grad=True)
        out, _, _ = T.batch_norm(x, gamma, np.zeros(3, np.float32), 1e-5)
        scalarize(out).backward()
        assert out.data.dtype == x.grad.dtype == gamma.grad.dtype == np.float32


class TestSoftmaxCrossEntropy:
    def test_uniform_prediction_is_log2(self):
        logits = Tensor(np.zeros((3, 2)))
        loss = T.softmax_cross_entropy(logits, np.array([0, 1, 0]))
        assert abs(float(loss.data) - np.log(2.0)) < 1e-12

    def test_confident_correct_prediction(self):
        logits = Tensor(np.array([[12.0, 0.0]]))
        loss = T.softmax_cross_entropy(logits, np.array([0]))
        assert float(loss.data) < 1e-5

    def test_gradients(self):
        labels = np.array([0, 1, 1, 0])

        def build(t):
            return T.softmax_cross_entropy(t[0], labels)

        check_op(build, [(4, 2)], seed=3)

    def test_non_finite_loss_raises(self):
        logits = Tensor(np.array([[np.inf, 0.0]]))
        with pytest.raises(NumericalFailureError):
            T.softmax_cross_entropy(logits, np.array([1]))

    @pytest.mark.parametrize("labels", [[0, -1], [2, 0]])
    def test_labels_outside_the_classes_rejected(self, labels):
        with pytest.raises(InvalidArgumentError, match="outside the 2 classes"):
            T.softmax_cross_entropy(Tensor(np.zeros((2, 2))), np.array(labels))

    def test_softmax_normalization(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 10, (16, 2))
        p = T.softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p > 0)


def test_grad_accumulates_across_reuse():
    def dot(u, v):
        return T._node(np.asarray(u.data @ v.data), (u, v), lambda g: T._push((u, v), (g * v.data, g * u.data)))

    def plus(u, v):
        return T._node(u.data + v.data, (u, v), lambda g: T._push((u, v), (g, g)))

    a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    # f = a·a + sum(a) reuses a three times; df/da = 2a + 1
    plus(dot(a, a), dot(a, Tensor(np.ones(2)))).backward()
    assert np.allclose(a.grad, [5.0, 7.0])
