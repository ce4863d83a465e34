import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchkit import tensor as T
from patchkit.errors import InvalidArgumentError, NumericalFailureError
from patchkit.patchnet import PatchNetConfig, embed_patches, gsi_block, lpi_block, pool_head
from patchkit.tensor import conv_same_padding

from conftest import nchw, nhwc


def numeric_grads(value, arrays, eps=1e-6):
    """Central finite differences of the scalar ``value(arrays)`` with respect
    to each (contiguous, float64) array, which is perturbed in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = value(arrays)
            flat[i] = orig - eps
            lm = value(arrays)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * eps)
        grads.append(g)
    return grads


def assert_matches_differences(value, arrays, grads, eps=1e-6, tol=1e-7):
    """Each analytic gradient in ``grads`` (None skips its array) against
    central differences of ``value`` over ``arrays``."""
    for got, num in zip(grads, numeric_grads(value, arrays, eps=eps)):
        if got is not None:
            assert got.shape == num.shape
            assert np.allclose(got, num, atol=tol, rtol=1e-5), (got, num)


def weights_like(out: np.ndarray, seed=99) -> np.ndarray:
    """A fixed random weighting ``w``: the output gradient of the scalar
    ``sum(out · w)``, which reduces any output to one number."""
    return np.random.default_rng(seed).normal(0, 1, out.shape)


class TestDepthwiseConv:
    def test_same_padding_rule(self):
        assert conv_same_padding(3) == (1, 1)
        assert conv_same_padding(2) == (0, 1)  # even: extra on the high side
        assert conv_same_padding(6) == (2, 3)

    def test_zero_kernel_gives_zero(self):
        x = nhwc(np.random.default_rng(0).normal(0, 1, (2, 3, 4, 4)))
        assert np.all(T.depthwise_conv2d(x, np.zeros((3, 4, 4))) == 0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_delta_kernel_is_identity(self, k):
        rng = np.random.default_rng(2)
        x = nhwc(rng.normal(0, 1, (2, 3, k, k)))
        kernel = np.zeros((3, k, k))
        tap = (k - 1) // 2
        kernel[:, tap, tap] = 1.0
        assert np.allclose(T.depthwise_conv2d(x, kernel), x)

    def test_output_shape_matches_input(self):
        assert T.depthwise_conv2d(np.zeros((1, 6, 6, 2)), np.zeros((2, 6, 6))).shape == (1, 6, 6, 2)

    @pytest.mark.parametrize("hw,k", [((4, 4), 3), ((6, 6), 6), ((5, 4), 2)])
    def test_gradients(self, hw, k):
        # Input and kernel gradients of sum(conv(x, kernel) · w).
        rng = np.random.default_rng(0)
        arrays = [rng.normal(0, 1, (2,) + hw + (3,)), rng.normal(0, 1, (3, k, k))]
        op = T._Conv(*arrays)
        w = weights_like(op.out)
        assert_matches_differences(lambda a: float((T.depthwise_conv2d(*a) * w).sum()), arrays,
                                   [op.grad_input(w), op.grad_kernel(w)])

    def test_channel_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            T._Conv(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 3)))


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

        op = T._Conv(nhwc(x), kernel)
        assert np.allclose(op.out, nhwc(want_out), rtol=0, atol=1e-12)
        assert np.allclose(op.grad_input(nhwc(g)), nhwc(want_gx), rtol=0, atol=1e-12)
        assert np.allclose(op.grad_kernel(nhwc(g)), want_gk, rtol=0, atol=1e-12)

        op32 = T._Conv(nhwc(x).astype(np.float32), kernel.astype(np.float32))
        g32 = nhwc(g).astype(np.float32)
        assert op32.out.dtype == op32.grad_input(g32).dtype == op32.grad_kernel(g32).dtype == np.float32
        assert np.allclose(op32.out, nhwc(want_out), rtol=0, atol=1e-4)

    def test_kernel_larger_than_twice_the_plane_rejected(self):
        with pytest.raises(InvalidArgumentError, match="larger than padded input"):
            T._Conv(np.zeros((1, 2, 3, 1)), np.zeros((1, 5, 2)))

    def test_tap_tables_are_cached_and_read_only(self):
        assert T._tap_index(4, 3, 2, 3) is T._tap_index(4, 3, 2, 3)
        assert T._tap_segments(4, 3, 2, 3) is T._tap_segments(4, 3, 2, 3)
        for first in (T._tap_index(4, 3, 2, 3), *T._tap_segments(4, 3, 2, 3)):
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[(0,) * first.ndim] = 0


def _spatial(arrays, tape):
    x, kernel, bias, gamma, beta = arrays
    p = "blocks.0.gsi_"
    t = {p + "kernel": kernel, p + "bias": bias, p + "bn.gamma": gamma, p + "bn.beta": beta}
    return gsi_block(x, t, 0, "train", tape=tape)


def _channel(arrays, tape):
    x, weight, bias, gamma, beta = arrays
    p = "blocks.0.lpi_"
    t = {p + "weight": weight, p + "bias": bias, p + "bn.gamma": gamma, p + "bn.beta": beta}
    return lpi_block(x, t, 0, "train", tape=tape)


def _embed(arrays, tape):
    patches, projection, pos_embed = arrays
    cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=3, depth=0)
    return embed_patches(patches, cfg, {"projection": projection, "pos_embed": pos_embed}, tape=tape)


def _head(arrays, tape):
    x, weight, bias = arrays
    return pool_head(x, {"classifier_w": weight, "classifier_b": bias}, tape=tape)


class TestBlockOps:
    """Each PatchNet stage with a tape: it appends one closure, which maps
    its output gradient to (input gradient, {parameter name: gradient}) on
    batch statistics, against finite differences of the taped forward."""

    SPATIAL = (_spatial, [(2, 3, 3, 3), (3, 3, 3), (3,), (3,), (3,)],
               ["blocks.0.gsi_kernel", "blocks.0.gsi_bias", "blocks.0.gsi_bn.gamma", "blocks.0.gsi_bn.beta"])
    CHANNEL = (_channel, [(2, 3, 2, 4), (3, 4), (3,), (3,), (3,)],
               ["blocks.0.lpi_weight", "blocks.0.lpi_bias", "blocks.0.lpi_bn.gamma", "blocks.0.lpi_bn.beta"])
    EMBED = (_embed, [(2, 4, 8), (8, 3), (4, 3)], ["projection", "pos_embed"])
    HEAD = (_head, [(2, 3, 3, 4), (4, 2), (2,)], ["classifier_w", "classifier_b"])
    CASES = pytest.mark.parametrize("stage,shapes,names", [SPATIAL, CHANNEL, EMBED, HEAD],
                                    ids=["spatial-batch", "channel-batch", "embed", "head"])

    @CASES
    def test_gradients(self, stage, shapes, names):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(0, 1, s) for s in shapes]
        tape = []
        w = weights_like(stage(arrays, tape))
        assert len(tape) == 1
        g_in, named = tape[0](w)
        assert list(named) == names
        if stage is _embed:
            assert g_in is None  # the patches get no gradient
        assert_matches_differences(lambda a: float((stage(a, []) * w).sum()), arrays,
                                   [g_in] + [named[n] for n in names])

    @CASES
    def test_float32_stays_float32(self, stage, shapes, names):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
        tape = []
        out = stage(arrays, tape)
        g_in, named = tape[0](weights_like(out).astype(np.float32))
        assert out.dtype == np.float32
        assert all(g.dtype == np.float32 for g in [g_in, *named.values()] if g is not None)


class TestBatchNorm:
    """``tensor._Norm`` over (N, C) rows, with batch and with stored statistics."""

    SHAPES = [(16, 3), (3,), (3,)]
    STATS = (np.array([0.3, -1.0, 0.0]), np.array([0.5, 2.0, 1.0]))

    def check(self, stats):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(0, 1, s) for s in self.SHAPES]
        norm = T._Norm(*arrays, 1e-5, stats)
        w = weights_like(norm.out)
        assert_matches_differences(lambda a: float((T._Norm(*a, 1e-5, stats).out * w).sum()),
                                   arrays, norm.grads(w))

    def test_train_mode_gradients(self):
        self.check(None)

    def test_eval_mode_gradients(self):
        self.check(self.STATS)
        # Stored statistics are constants: the input gradient is γ·g/√(var + ε).
        rows, gamma, g = np.ones((2, 3)), np.array([1.0, 2.0, -1.0]), np.ones((2, 3))
        g_rows, _, _ = T._Norm(rows, gamma, np.zeros(3), 1e-5, self.STATS).grads(g)
        assert np.allclose(g_rows, gamma / np.sqrt(self.STATS[1] + 1e-5), rtol=0, atol=1e-12)

    def test_batch_statistics_are_the_biased_moments(self):
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 3.0, (5, 3, 2, 3))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        norm = T._Norm(nhwc(x).reshape(-1, 3), gamma, beta, 1e-5, None)
        mu, var = norm.mean, norm.var
        assert np.allclose(mu, x.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        assert np.allclose(var, x.var(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        want = gamma[:, None, None] * (x - mu[:, None, None]) / np.sqrt(var[:, None, None] + 1e-5)
        out = nchw(norm.out.reshape(5, 2, 3, 3))
        assert np.allclose(out, want + beta[:, None, None], rtol=0, atol=1e-12)

    def test_float32_stays_float32(self):
        rows, ones = np.ones((8, 3), np.float32), np.ones(3, np.float32)
        for stats in (None, self.STATS):  # batch, then stored statistics
            norm = T._Norm(rows, ones, np.zeros(3, np.float32), 1e-5, stats)
            grads = norm.grads(np.ones((8, 3), np.float32))
            assert norm.out.dtype == np.float32
            assert all(g.dtype == np.float32 for g in grads)


class TestSoftmaxCrossEntropy:
    def test_uniform_prediction_is_log2(self):
        loss = T.softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert loss.shape == () and loss.dtype == np.float64
        assert abs(float(loss) - np.log(2.0)) < 1e-12

    def test_confident_correct_prediction(self):
        assert float(T.softmax_cross_entropy(np.array([[12.0, 0.0]]), np.array([0]))) < 1e-5

    def test_gradients(self):
        labels = np.array([0, 1, 1, 0])
        logits = np.random.default_rng(3).normal(0, 1, (4, 2))
        tape = []
        loss = T.softmax_cross_entropy(logits, labels, tape=tape)
        assert len(tape) == 1
        g_logits, named = tape[0](np.ones_like(loss))
        assert named == {}
        assert_matches_differences(lambda a: float(T.softmax_cross_entropy(a[0], labels)),
                                   [logits], [g_logits])

    def test_non_finite_loss_raises(self):
        tape = []
        with pytest.raises(NumericalFailureError):
            T.softmax_cross_entropy(np.array([[np.inf, 0.0]]), np.array([1]), tape=tape)
        assert tape == []

    @pytest.mark.parametrize("labels", [[0, -1], [2, 0]])
    def test_labels_outside_the_classes_rejected(self, labels):
        with pytest.raises(InvalidArgumentError, match="outside the 2 classes"):
            T.softmax_cross_entropy(np.zeros((2, 2)), np.array(labels))

    def test_label_count_must_match_the_batch(self):
        with pytest.raises(InvalidArgumentError, match="3 labels for batch of 2"):
            T.softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 1, 0]))

    def test_softmax_normalization(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 10, (16, 2))
        p = T.softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p > 0)


def test_backward_replays_the_tape_in_reverse():
    # y = 3·x, loss = Σ y²/2 at x = (1, 2): the replay starts from d(loss) = 1,
    # hands each closure the input gradient the later one returned, collects
    # the named gradients and empties the tape.
    x = np.array([1.0, 2.0])
    y = 3.0 * x
    tape = [lambda g: (None, {"x": 3.0 * g}), lambda g: (g * y, {"y": g * y})]
    grads = T.Tensor(np.asarray(0.5 * (y * y).sum()), tape).backward()
    assert np.array_equal(grads["x"], 9.0 * x) and np.array_equal(grads["y"], y)
    assert tape == [] and T.Tensor.__slots__ == ("data", "tape")
