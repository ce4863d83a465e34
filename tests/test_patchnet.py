import gc
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchkit import tensor as T
from patchkit.errors import InvalidArgumentError, InvalidStateError
from patchkit.patchnet import (
    BN_EPS,
    CHECKPOINT_MAGIC,
    STATISTIC_TAGS,
    PatchNetConfig,
    PatchNetParams,
    embed_patches,
    forward,
    gsi_block,
    init_params,
    load_checkpoint,
    loss_and_grad,
    lpi_block,
    op_count_report,
    pool_head,
    save_checkpoint,
    tensor_layout,
    tensor_shapes,
)
from patchkit.tensor import Tensor
from patchkit.train import accuracy, class_scores

from conftest import bchw, cbhw

DATA = Path(__file__).parent / "data"


GSI_BN = "blocks.0.gsi_bn."


def make_block(d, m, *, gsi_kernel=None, lpi_weight=None, exact_bn=False):
    """Block 0's tensors by name: a zero spatial kernel, an identity pointwise
    weight and batch norms that are the identity map in eval mode.

    With ``exact_bn`` the running variance absorbs the epsilon so the scale
    factor is exactly 1.0 in float32.
    """
    t = init_params(PatchNetConfig(patch_edge=1, patch_count=m * m, embed_dim=d, depth=1)).named_arrays()
    t["blocks.0.gsi_kernel"][...] = 0.0 if gsi_kernel is None else gsi_kernel
    t["blocks.0.lpi_weight"][...] = np.eye(d) if lpi_weight is None else lpi_weight
    for stage in ("gsi", "lpi"):
        t[f"blocks.0.{stage}_bn.running_var"][...] = 1.0 - BN_EPS if exact_bn else 1.0
    return t


class TestEmbedPatches:
    def test_identity_projection_reproduces_patches(self):
        # d = p^3 = 8, E = I, E_pos = 0: row i lands verbatim at site (i//m, i%m).
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=8, depth=1, seed=0)
        t = init_params(cfg).named_arrays()
        t["projection"][...] = np.eye(8, dtype=np.float32)
        t["pos_embed"][...] = 0.0
        rng = np.random.default_rng(0)
        patches = rng.normal(0, 1, (4, 8)).astype(np.float32)
        out = embed_patches(patches[None], cfg, t)
        assert out.shape == (8, 1, 2, 2)
        for i in range(4):
            assert np.allclose(out[:, 0, i // 2, i % 2], patches[i])

    def test_zero_patches_give_position_embedding(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=1, seed=1)
        t = init_params(cfg).named_arrays()
        out = embed_patches(np.zeros((1, 4, 8), np.float32), cfg, t)
        for i in range(4):
            assert np.allclose(out[:, 0, i // 2, i % 2], t["pos_embed"][i])

    def test_shape_mismatch_rejected(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=1)
        t = init_params(cfg).named_arrays()
        with pytest.raises(InvalidArgumentError):
            embed_patches(np.zeros((4, 9), np.float32), cfg, t)

    def test_batched_matches_single(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=1, seed=2)
        t = init_params(cfg).named_arrays()
        rng = np.random.default_rng(3)
        batch = rng.normal(0, 1, (3, 4, 8)).astype(np.float32)
        stacked = embed_patches(batch, cfg, t)
        for b in range(3):
            assert np.allclose(stacked[:, b], embed_patches(batch[b:b + 1], cfg, t)[:, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("call", ["eval", "train", "loss_and_grad"])
    def test_non_finite_patches_rejected(self, call, bad):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=4)
        params = init_params(cfg)
        rng = np.random.default_rng(5)
        labels = np.array([0, 1, 0, 1])
        forward(rng.normal(0, 1, (4, 4, 8)), params, mode="train")
        before = {name: arr.copy() for name, arr in params.named_arrays().items()}
        patches = rng.normal(0, 1, (4, 4, 8)).astype(np.float32)
        patches[2, 1, 5] = bad
        with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
            if call == "loss_and_grad":
                loss_and_grad(patches, labels, params)
            else:
                forward(patches, params, mode=call)
        for name, arr in params.named_arrays().items():
            assert np.array_equal(arr, before[name])


class TestGsiBlock:
    def test_zero_kernel_identity_bn_is_exact_identity(self):
        d, m = 5, 3
        t = make_block(d, m)
        x = cbhw(np.random.default_rng(1).normal(0, 1, (2, d, m, m)).astype(np.float32))
        out = gsi_block(x, t, 0, mode="eval")
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("m", [2, 3])
    def test_centered_delta_kernel_doubles_input(self, m):
        d = 4
        kernel = np.zeros((d, m, m), np.float32)
        tap = (m - 1) // 2
        kernel[:, tap, tap] = 1.0
        t = make_block(d, m, gsi_kernel=kernel, exact_bn=True)
        x = cbhw(np.random.default_rng(2).normal(0, 1, (2, d, m, m)).astype(np.float32))
        out = gsi_block(x, t, 0, mode="eval")
        assert np.allclose(out, 2.0 * x, atol=1e-6)

    def test_train_mode_normalizes_branch_to_gamma_beta(self):
        d, m = 6, 4
        rng = np.random.default_rng(5)
        t = make_block(d, m, gsi_kernel=rng.normal(0, 0.5, (d, m, m)).astype(np.float32))
        t[GSI_BN + "gamma"][...] = 1.7
        t[GSI_BN + "beta"][...] = 0.3
        x = cbhw(rng.normal(0, 1, (16, d, m, m)).astype(np.float32))
        out = gsi_block(x, t, 0, mode="train")
        branch = bchw(out - x)
        mean = branch.mean(axis=(0, 2, 3))
        var = branch.var(axis=(0, 2, 3))
        assert np.allclose(mean, 0.3, atol=1e-3)
        assert np.allclose(var, 1.7**2, atol=1e-2)


class TestBatchNormLayer:
    def test_train_step_stores_the_batch_biased_moments(self):
        # Whatever the layer held before, one train-mode pass leaves exactly
        # the batch mean and biased (1/N) variance of the branch conv(x) +
        # bias: no trace of the old values.
        d = 4
        rng = np.random.default_rng(8)
        kernel = np.zeros((d, 3, 3), np.float32)
        kernel[:, 1, 1] = 1.0  # conv(x) = x
        t = make_block(d, 3, gsi_kernel=kernel)
        t["blocks.0.gsi_bias"][...] = rng.normal(0, 1, d)
        mean, var = t[GSI_BN + "running_mean"], t[GSI_BN + "running_var"]
        mean[:] = rng.normal(0, 1, d)
        var[:] = rng.uniform(0.5, 2.0, d)
        x = cbhw(rng.normal(1.0, 2.0, (6, d, 3, 3)).astype(np.float32))
        out = gsi_block(x, t, 0, "train")
        rows = (x.reshape(d, -1) + t["blocks.0.gsi_bias"][:, None]).astype(np.float64)
        np.testing.assert_allclose(mean, rows.mean(axis=1), rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(var, rows.var(axis=1, ddof=0), rtol=1e-6, atol=1e-6)
        assert not np.allclose(var, rows.var(axis=1, ddof=1), rtol=1e-3)
        assert mean.dtype == var.dtype == out.dtype == np.float32

    def test_eval_uses_running_stats(self):
        d = 3
        kernel = np.zeros((d, 3, 3), np.float32)
        kernel[:, 1, 1] = 1.0  # conv(x) = x
        t = make_block(d, 3, gsi_kernel=kernel)
        x = cbhw(np.random.default_rng(9).normal(0, 1, (2, d, 3, 3)).astype(np.float32))
        mean, var = t[GSI_BN + "running_mean"], t[GSI_BN + "running_var"]
        mean[:] = [0.5, -0.5, 0.0]
        var[:] = [4.0, 1.0, 0.25]
        out = bchw(gsi_block(x, t, 0, "eval") - x)
        want = (bchw(x) - mean[:, None, None]) / np.sqrt(var[:, None, None] + BN_EPS)
        assert np.allclose(out, want, rtol=1e-6, atol=1e-6)
        assert mean.tolist() == [0.5, -0.5, 0.0] and var.tolist() == [4.0, 1.0, 0.25]

    def test_unknown_mode_rejected(self):
        x = np.zeros((1, 2, 2, 2))
        for block in (gsi_block, lpi_block):
            with pytest.raises(InvalidArgumentError, match="mode"):
                block(x, make_block(2, 2), 0, "test")

    def test_tape_in_eval_mode_rejected(self):
        # A tape records a training step, which runs on batch statistics.
        t = make_block(2, 2)
        stats = {name: arr.copy() for name, arr in t.items()}
        x = np.zeros((1, 2, 2, 2))
        for block in (gsi_block, lpi_block):
            tape = []
            with pytest.raises(InvalidArgumentError, match="train mode only"):
                block(x, t, 0, "eval", tape=tape)
            assert tape == []
        assert all(np.array_equal(t[name], arr) for name, arr in stats.items())


class TestLpiBlock:
    def test_identity_weight_nonnegative_input_passthrough(self):
        d, m = 4, 3
        t = make_block(d, m, exact_bn=True)
        x = cbhw(np.abs(np.random.default_rng(3).normal(0, 1, (2, d, m, m))).astype(np.float32))
        out = lpi_block(x, t, 0, mode="eval")
        assert np.array_equal(out, x)

    def test_all_negative_input_maps_to_zero(self):
        d, m = 4, 2
        t = make_block(d, m)
        x = cbhw(-np.abs(np.random.default_rng(4).normal(1, 0.2, (2, d, m, m))).astype(np.float32))
        out = lpi_block(x, t, 0, mode="eval")
        assert np.all(out == 0.0)

    def test_locality_site_independence(self):
        d, m = 5, 3
        rng = np.random.default_rng(6)
        t = make_block(d, m, lpi_weight=rng.normal(0, 0.5, (d, d)).astype(np.float32))
        x = rng.normal(0, 1, (1, d, m, m)).astype(np.float32)
        base = bchw(lpi_block(cbhw(x), t, 0, mode="eval"))
        x2 = x.copy()
        x2[0, :, 1, 2] += 3.0
        bumped = bchw(lpi_block(cbhw(x2), t, 0, mode="eval"))
        changed = np.any(base != bumped, axis=(0, 1))
        assert changed[1, 2]
        changed[1, 2] = False
        assert not changed.any()


class TestForward:
    def test_symmetric_classifier_gives_half_half(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=9)
        params = init_params(cfg)
        t = params.named_arrays()
        t["classifier_w"][:, 1] = t["classifier_w"][:, 0]
        t["classifier_b"][...] = 0.0
        _, probs = forward(np.zeros((1, 4, 8), np.float32), params, mode="train")
        assert np.allclose(probs, [[0.5, 0.5]])

    def test_unknown_mode_rejected_without_batch_norm(self):
        # A depth-0 network has no batch norm to check the mode on the way.
        params = init_params(PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=3, depth=0))
        x = np.zeros((4, 4, 8))
        with pytest.raises(InvalidArgumentError, match="mode must be 'train' or 'eval'"):
            forward(x, params, mode="bogus")
        # The mode is checked before the patches reach the embedding.
        with pytest.raises(InvalidArgumentError, match="mode"):
            forward(np.full((4, 8), np.nan), params, mode="bogus")

    def test_probabilities_sum_to_one(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=10)
        params = init_params(cfg)
        rng = np.random.default_rng(11)
        _, probs = forward(rng.normal(0, 3, (5, 4, 8)), params, mode="train")
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all((probs > 0) & (probs < 1))

    def test_eval_mode_batch_independence(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=12)
        params = init_params(cfg)
        rng = np.random.default_rng(13)
        warm = rng.normal(0, 1, (8, 4, 8))
        forward(warm, params, mode="train")
        batch = rng.normal(0, 1, (8, 4, 8))
        _, batched = forward(batch, params, mode="eval")
        for i in range(8):
            _, single = forward(batch[i:i + 1], params, mode="eval")
            assert np.allclose(batched[i], single[0], atol=1e-6)

    def test_eval_mode_is_pure(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=1, seed=14)
        params = init_params(cfg)
        rng = np.random.default_rng(15)
        forward(rng.normal(0, 1, (4, 4, 8)), params, mode="train")
        stats_before = params.stats.copy()
        x = rng.normal(0, 1, (3, 4, 8))
        a = forward(x, params, mode="eval")[0]
        b = forward(x, params, mode="eval")[0]
        assert np.array_equal(a, b)
        assert np.array_equal(params.stats, stats_before)

    def test_eval_before_any_training_rejected(self):
        # One flag for the whole network: eval mode needs stored statistics
        # from a train-mode forward or a checkpoint. A network without batch
        # norms has no statistics to wait for.
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=3, depth=2, seed=24)
        params = init_params(cfg)
        x = np.random.default_rng(25).normal(0, 1, (4, 4, 8))
        with pytest.raises(InvalidStateError, match="train first"):
            forward(x, params, mode="eval")
        assert not params.ready
        forward(x, params, mode="train")
        assert params.ready
        forward(x, params, mode="eval")
        forward(x, init_params(PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=3, depth=0)))

    def test_forward_and_step_leave_no_cyclic_garbage(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=16)
        params = init_params(cfg)
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, (4, 4, 8))
        forward(x, params, mode="train")
        gc.collect()
        gc.disable()
        try:
            forward(x, params, mode="eval")
            eval_garbage = gc.collect()
            forward(x, params, mode="train")
            train_garbage = gc.collect()
            loss_and_grad(x, np.array([0, 1, 0, 1]), params)
            step_garbage = gc.collect()
        finally:
            gc.enable()
        assert (eval_garbage, train_garbage, step_garbage) == (0, 0, 0)


def random_params(cfg, rng, dtype):
    """Every tensor of ``cfg`` drawn at random in ``dtype``, ready for eval:
    gammas of both signs, variances in U(0.2, 3), the rest N(0, 0.5)."""
    params = init_params(cfg)
    t = params.named_arrays()
    for name, shape, init in tensor_layout(cfg):
        if init == "var":
            t[name][...] = rng.uniform(0.2, 3.0, shape)
        elif name.endswith("gamma"):
            t[name][...] = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 2.0, shape)
        else:  # weights, biases, beta and the stored means
            t[name][...] = rng.normal(0, 0.5, shape)
    return PatchNetParams(cfg, params.learnable.astype(dtype), params.stats.astype(dtype), ready=True)


@st.composite
def nets(draw):
    """A ``random_params`` network and a batch of N(0, 1) patches, both in
    one dtype: depth 0-3, 1, 4, 9 or 16 patches of 2^3 voxels, width 1-8,
    batch 1-4."""
    cfg = PatchNetConfig(patch_edge=2, patch_count=draw(st.sampled_from([1, 4, 9, 16]), label="patch_count"),
                         embed_dim=draw(st.integers(1, 8), label="embed_dim"),
                         depth=draw(st.integers(0, 3), label="depth"))
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    batch = draw(st.integers(1, 4), label="batch")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    params = random_params(cfg, rng, dtype)
    return params, rng.normal(0, 1, (batch, cfg.patch_count, cfg.patch_len)).astype(dtype)


def trained_net(depth=2, seed=30):
    """A small network whose stored statistics come from one train-mode batch."""
    params = init_params(PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=depth, seed=seed))
    forward(np.random.default_rng(seed).normal(0, 1, (4, 4, 8)), params, mode="train")
    return params


class TestEvalForward:
    @settings(max_examples=80, deadline=None)
    @given(net=nets())
    def test_reads_back_a_train_forward_bit_for_bit(self, net):
        # An eval forward on the statistics a train-mode forward stored from
        # the same batch normalises every layer exactly as that forward did.
        params, patches = net
        params.ready = False
        learnable = params.learnable.tobytes()
        trained, _ = forward(patches, params, mode="train")
        logits, probs = forward(patches, params, mode="eval")
        assert logits.dtype == patches.dtype
        assert logits.shape == (len(patches), params.config.class_count)
        assert logits.tobytes() == trained.tobytes()
        assert params.learnable.tobytes() == learnable
        np.testing.assert_allclose(probs, T.softmax(logits))

    def test_builds_no_tensor_and_leaves_params_unchanged(self, monkeypatch):
        params = trained_net()
        learnable, stats = params.learnable.tobytes(), params.stats.tobytes()
        x = np.random.default_rng(31).normal(0, 1, (3, 4, 8)).astype(np.float32)
        init, built = Tensor.__init__, []

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        forward(x, params, mode="eval")
        forward(x[:1], params)
        class_scores(params, x)
        accuracy(params, x, np.array([0, 1, 0]))
        assert built == []
        assert params.learnable.tobytes() == learnable
        assert params.stats.tobytes() == stats
        # The input checks of a training step hold here too, still without a Tensor.
        with pytest.raises(InvalidStateError, match="train first"):
            forward(x, init_params(params.config), mode="eval")
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = x.copy()
            poisoned[1, 2, 3] = bad
            with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
                forward(poisoned, params, mode="eval")
        assert built == []

    @pytest.mark.parametrize("shape", [(2, 2, 4, 8), (1, 1, 4, 8), (8,), ()])
    def test_patches_of_other_rank_rejected(self, shape):
        params = trained_net(depth=1)
        labels = np.zeros(2, dtype=np.int64)
        for mode in ("eval", "train"):
            with pytest.raises(InvalidArgumentError, match=re.escape(f"shape {shape}")):
                forward(np.zeros(shape), params, mode=mode)
        with pytest.raises(InvalidArgumentError, match=re.escape(f"shape {shape}")):
            loss_and_grad(np.zeros(shape), labels, params)


class TestTrainForward:
    @settings(max_examples=80, deadline=None)
    @given(net=nets(), label_seed=st.integers(0, 2**32 - 1))
    def test_logits_give_the_step_loss_bit_for_bit(self, net, label_seed):
        # A training step and a train-mode forward run the same stage code on
        # the same batch statistics.
        params, patches = net
        labels = np.random.default_rng(label_seed).integers(0, params.config.class_count, len(patches))
        loss, grads = loss_and_grad(patches, labels, params, dtype=patches.dtype)
        logits, _ = forward(patches, params, mode="train")
        assert loss == float(T.softmax_cross_entropy(logits, labels))
        assert all(g.dtype == patches.dtype for g in grads.values())

    def test_float32_batch_norm_keeps_float64_precision(self):
        # One patch and a batch of 4 leave each channel 4 rows, so a batch
        # variance can be near zero and its scale γ/√(σ² + ε) large: an
        # x·s + (β − μ·s) fold cancels there, (x − μ)·s + β does not.
        cfg = PatchNetConfig(patch_edge=2, patch_count=1, embed_dim=3, depth=3)
        rng = np.random.default_rng(1912)
        params = random_params(cfg, rng, np.float32)
        patches = rng.normal(0, 1, (4, 1, 8)).astype(np.float32)
        wide = PatchNetParams(cfg, params.learnable.astype(np.float64), params.stats.astype(np.float64), True)
        logits, _ = forward(patches, params, mode="train")
        want, _ = forward(patches.astype(np.float64), wide, mode="train")
        assert np.all(np.abs(logits - want) <= 1e-4 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("ready", [False, True], ids=["fresh", "trained"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_empty_batch_rejected_and_leaves_params_unchanged(self, mode, ready):
        params = trained_net() if ready else init_params(PatchNetConfig(
            patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=30))
        stats = params.stats.tobytes()
        with pytest.raises(InvalidArgumentError, match="batch must be nonempty"):
            forward(np.zeros((0, 4, 8)), params, mode=mode)
        assert params.stats.tobytes() == stats
        assert params.ready == ready

    def test_builds_no_tensor(self, monkeypatch):
        params = init_params(PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=32))
        x = np.random.default_rng(33).normal(0, 1, (3, 4, 8)).astype(np.float32)
        init, built = Tensor.__init__, []

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        forward(x, params, mode="train")
        forward(x[:1], params, mode="train")
        assert built == []
        assert params.ready

    def test_train_mode_updates_original_batch_norms_through_the_view(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=18)
        params = init_params(cfg)
        before = {name: arr.copy() for name, arr in params.named_arrays().items()}
        layout = tensor_layout(cfg)
        assert sum(init in STATISTIC_TAGS for _, _, init in layout) == 2 * 2 * cfg.depth
        assert not params.ready
        forward(np.random.default_rng(19).normal(0, 1, (4, 4, 8)), params, mode="train")
        assert params.ready
        after = params.named_arrays()
        for name, _, init in layout:  # every stored statistic moves, no learnable does
            assert np.array_equal(after[name], before[name]) != (init in STATISTIC_TAGS), name


class TestLossAndGrad:
    def test_empty_batch_rejected(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=1)
        params = init_params(cfg)
        with pytest.raises(InvalidArgumentError):
            loss_and_grad(np.zeros((0, 4, 8)), np.zeros(0, dtype=np.int64), params)

    @pytest.mark.parametrize("labels, match", [
        ([0, 1, 5, 1], r"label 5 is outside the 2 classes \[0, 2\)"),
        ([0, 1, -1, 1], r"label -1 is outside the 2 classes"),
        ([0, 1, 0], "3 labels for batch of 4"),
    ], ids=["above", "negative", "count"])
    def test_rejected_labels_leave_params_unchanged(self, labels, match):
        # A training step writes nothing to the network, so a rejected one
        # leaves it as it was too.
        params = init_params(PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=26))
        stats, learnable = params.stats.copy(), params.learnable.copy()
        x = np.random.default_rng(27).normal(0, 1, (4, 4, 8))
        with pytest.raises(InvalidArgumentError, match=match):
            loss_and_grad(x, np.array(labels), params)
        assert np.array_equal(params.stats, stats)
        assert np.array_equal(params.learnable, learnable)
        assert not params.ready

    def test_gradients_cover_every_learnable_tensor(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=16)
        params = init_params(cfg)
        rng = np.random.default_rng(17)
        _, grads = loss_and_grad(rng.normal(0, 1, (4, 4, 8)), np.array([0, 1, 1, 0]), params)
        assert set(grads) == set(params.learnable_arrays())
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_float32_stays_float32(self):
        params = trained_net()
        x = np.random.default_rng(18).normal(0, 1, (4, 4, 8))  # float64 patches
        _, grads = loss_and_grad(x, np.array([0, 1, 1, 0]), params)
        for name, arr in params.learnable_arrays().items():
            assert grads[name].dtype == np.float32 and grads[name].shape == arr.shape, name

    @settings(max_examples=40, deadline=None)
    @given(
        depth=st.integers(0, 3),
        patch_count=st.sampled_from([1, 4, 9, 16]),
        embed_dim=st.integers(1, 4),
        batch=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradients_match_central_differences(self, depth, patch_count, embed_dim, batch, seed):
        # Float64 ``random_params`` whose channel biases each put the ReLU
        # kink mid-way across the widest gap between the batch's inputs to
        # it, so every channel is partly active and no input is near a kink
        # (a batch of 2 or more gives each batch norm two rows or more).
        # Each learnable tensor is checked along one random direction v:
        # grad·v against (L(θ + hv) − L(θ − hv)) / 2h, within 1e-5 of
        # max(1, |fd|); sampling found 7.9e-8 at worst over 800 draws.
        cfg = PatchNetConfig(patch_edge=2, patch_count=patch_count, embed_dim=embed_dim, depth=depth)
        rng = np.random.default_rng(seed)
        params = random_params(cfg, rng, np.float64)
        patches = rng.normal(0, 1, (batch, patch_count, cfg.patch_len))
        t, columns = params.named_arrays(), np.arange(embed_dim)
        x = embed_patches(patches, cfg, t)
        for i in range(depth):
            x = gsi_block(x, t, i, "train")
            pre = np.sort((t[f"blocks.{i}.lpi_weight"] @ x.reshape(embed_dim, -1)).T, axis=0)
            widest = np.diff(pre, axis=0).argmax(axis=0)
            t[f"blocks.{i}.lpi_bias"][...] = -0.5 * (pre[widest, columns] + pre[widest + 1, columns])
            x = lpi_block(x, t, i, "train")
        labels = rng.integers(0, cfg.class_count, batch)
        _, grads = loss_and_grad(patches, labels, params, dtype=np.float64)
        h = 1e-6
        for name, arr in params.learnable_arrays().items():
            v, orig = rng.normal(0, 1, arr.shape), arr.copy()
            arr[...] = orig + h * v
            lp, _ = loss_and_grad(patches, labels, params, dtype=np.float64)
            arr[...] = orig - h * v
            lm, _ = loss_and_grad(patches, labels, params, dtype=np.float64)
            arr[...] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - np.vdot(grads[name], v)) <= 1e-5 * max(1.0, abs(fd)), (name, fd)

    @pytest.mark.parametrize("ready", [False, True], ids=["fresh", "trained"])
    def test_leaves_params_unchanged(self, ready):
        # A training step reads and writes no stored statistic: its batch
        # norms run on batch statistics, and no op writes into a leaf.
        params = trained_net() if ready else init_params(PatchNetConfig(
            patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=30))
        learnable, stats = params.learnable.tobytes(), params.stats.tobytes()
        x = np.random.default_rng(19).normal(0, 1, (4, 4, 8))
        for dtype in (np.float32, np.float64):
            loss_and_grad(x, np.array([0, 1, 1, 0]), params, dtype=dtype)
        assert params.learnable.tobytes() == learnable
        assert params.stats.tobytes() == stats
        assert params.ready == ready
        assert all(type(arr) is np.ndarray for arr in params.learnable_arrays().values())

    def test_depth_four_step_tapes_11_closures(self, monkeypatch):
        # One closure per stage: the embedding, 2 per block (spatial,
        # channel), the pooled head, then the loss: 2 * depth + 3. The loss
        # is the step's one Tensor, and its backward empties the tape.
        cfg = PatchNetConfig(patch_edge=2, patch_count=36, embed_dim=8, depth=4)
        params = init_params(cfg)
        init, backward, taped, left = Tensor.__init__, Tensor.backward, [], []

        def recording_init(self, data, tape):
            taped.append(len(tape))
            init(self, data, tape)

        def recording_backward(self, grads):
            backward(self, grads)
            left.append(len(self.tape))

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        monkeypatch.setattr(Tensor, "backward", recording_backward)
        rng = np.random.default_rng(23)
        loss_and_grad(rng.normal(0, 1, (8, 36, 8)), np.arange(8) % 2, params)
        assert taped == [2 * cfg.depth + 3] == [11]
        assert left == [0]


class TestWrongRank:
    """A single (M, p^3) stack, or activations that are not (d, B, m, m), get
    an InvalidArgumentError at every entry point: neither a raw ValueError
    nor a result read along the wrong axis."""

    def test_forward_rejects_a_single_stack(self):
        params = trained_net(depth=1)
        for mode in ("eval", "train"):
            with pytest.raises(InvalidArgumentError, match=re.escape("(B, M, p^3) batch")):
                forward(np.zeros((4, 8)), params, mode=mode)

    def test_loss_and_grad_rejects_a_single_stack(self):
        params = trained_net(depth=1)
        with pytest.raises(InvalidArgumentError, match=re.escape("(B, M, p^3) batch")):
            loss_and_grad(np.zeros((4, 8)), np.zeros(1, dtype=np.int64), params)

    def test_embed_patches_rejects_a_single_stack(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=1)
        t = init_params(cfg).named_arrays()
        for tape in (None, []):
            with pytest.raises(InvalidArgumentError, match=re.escape("(B, 4, 8) batch")):
                embed_patches(np.zeros((4, 8), np.float32), cfg, t, tape=tape)

    @pytest.mark.parametrize("shape", [(6, 2, 2), (6, 1, 1, 2, 2)])
    def test_conv_and_gsi_block_reject_activations_of_other_rank(self, shape):
        t = make_block(6, 2)
        x = np.zeros(shape, np.float32)
        with pytest.raises(InvalidArgumentError, match=re.escape(f"shape {shape}")):
            T._Conv(x, t["blocks.0.gsi_kernel"])
        for mode, tape in (("eval", None), ("train", None), ("train", [])):
            with pytest.raises(InvalidArgumentError, match=re.escape(f"shape {shape}")):
                gsi_block(x, t, 0, mode, tape=tape)

    @pytest.mark.parametrize("shape", [(6, 2, 2), (6, 1, 1, 2, 2)])
    def test_pool_head_rejects_activations_of_other_rank(self, shape):
        t = make_block(6, 2)
        with pytest.raises(InvalidArgumentError, match=re.escape(f"shape {shape}")):
            pool_head(np.zeros(shape, np.float32), t)


class TestParamsCopy:
    def test_copy_is_independent_of_the_original(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=22)
        params = init_params(cfg)
        dup = params.copy()
        assert dup.config == cfg
        for name, arr in params.named_arrays().items():
            assert np.array_equal(dup.named_arrays()[name], arr)
        t = dup.named_arrays()
        t["projection"][0, 0] += 1.0
        t["blocks.1.lpi_bias"][:] = 2.0
        t["blocks.0.gsi_bn.gamma"][:] = 3.0
        t["blocks.0.gsi_bn.running_mean"][:] = 4.0
        dup.ready = True
        fresh = init_params(cfg)
        for name, arr in params.named_arrays().items():
            assert np.array_equal(arr, fresh.named_arrays()[name]), name
        assert not params.ready


class TestParamsStorage:
    def test_every_tensor_is_a_view_into_its_vector(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=9, embed_dim=4, depth=2, class_count=3)
        params = init_params(cfg)
        tensors = params.named_arrays()
        for name, shape, init in tensor_layout(cfg):
            stat = init in STATISTIC_TAGS
            assert tensors[name].shape == shape
            assert np.shares_memory(tensors[name], params.stats if stat else params.learnable), name
            assert not np.shares_memory(tensors[name], params.learnable if stat else params.stats)
        assert params.named_arrays()["blocks.0.gsi_kernel"] is tensors["blocks.0.gsi_kernel"]
        dup = params.copy()
        for vector in (params.learnable, params.stats):
            assert not np.shares_memory(dup.learnable, vector)
            assert not np.shares_memory(dup.stats, vector)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_learnable_vector_holds_the_reported_parameter_count(self, depth):
        cfg = PatchNetConfig(patch_edge=2, patch_count=9, embed_dim=5, depth=depth, class_count=3)
        params = init_params(cfg)
        assert params.learnable.dtype == params.stats.dtype == np.float32
        assert params.learnable.size == op_count_report(cfg).total_params
        assert params.stats.size == 2 * 2 * cfg.embed_dim * depth

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0"):
            PatchNetConfig(patch_edge=2, patch_count=9, embed_dim=4, depth=2, seed=-1)

    def test_benchmark_scale_parameter_count(self):
        cfg = PatchNetConfig(patch_edge=8, patch_count=36, embed_dim=64, depth=4)
        assert init_params(cfg).learnable.size == op_count_report(cfg).total_params == 62_338


class TestCheckpoint:
    def _trained_params(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=20)
        params = init_params(cfg)
        rng = np.random.default_rng(21)
        forward(rng.normal(0, 1, (6, 4, 8)), params, mode="train")
        return cfg, params, rng

    def test_round_trip_forward_is_bit_identical(self, tmp_path):
        cfg, params, rng = self._trained_params()
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params, extra={"note": 1})
        x = rng.normal(0, 1, (3, 4, 8)).astype(np.float32)
        before = forward(x, params, mode="eval")[0]
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        assert loaded.config == cfg
        after = forward(x, loaded, mode="eval")[0]
        assert np.array_equal(before, after)
        for name, arr in params.named_arrays().items():
            assert np.array_equal(arr, loaded.named_arrays()[name])

    def test_channels_first_fixture_predicts_the_same(self):
        # pnc1_layout.pnc (patch edge 2, 9 patches, width 4, depth 2, 3 classes;
        # every tensor seeded N(0, 0.5), running variances U(0.5, 2)) and its
        # eval probabilities on the stored patches were written by the
        # channels-first (B, d, m, m) network that preceded the channels-last one.
        params, extra = load_checkpoint(DATA / "pnc1_layout.pnc")
        fixture = json.loads((DATA / "pnc1_layout_probs.json").read_text())
        assert extra == {"fixture": "layout"}
        assert params.config == PatchNetConfig(
            patch_edge=2, patch_count=9, embed_dim=4, depth=2, class_count=3, seed=5)
        _, probs = forward(np.array(fixture["patches"], dtype=np.float32), params, mode="eval")
        assert np.allclose(probs, fixture["probs"], rtol=0, atol=1e-6)

    def test_header_layout(self, tmp_path):
        _, params, _ = self._trained_params()
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC
        assert int.from_bytes(raw[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pnc"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(InvalidArgumentError):
            load_checkpoint(path)

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        _, params, _ = self._trained_params()
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params, extra={"note": 1})
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: checkpoint truncated")):
                load_checkpoint(path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(InvalidArgumentError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_wrong_shape_tensor_rejected(self, tmp_path):
        cfg = PatchNetConfig(patch_edge=4, patch_count=4, embed_dim=8, depth=1, seed=3)
        params = init_params(cfg)
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        # Rewrite the projection record (64, 8) as a (1,) record, which numpy
        # would otherwise broadcast into the whole matrix.
        record = b"projection"
        start = raw.index(record) + len(record)
        end = start + 4 + 2 * 4 + 4 * 64 * 8
        assert raw[start:start + 4] == (2).to_bytes(4, "little")
        path.write_bytes(
            raw[:start] + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
            + np.float32(0.5).tobytes() + raw[end:]
        )
        with pytest.raises(InvalidArgumentError, match=r"projection has shape \(1,\)"):
            load_checkpoint(path)

    def test_corrupt_blob_and_renamed_tensor_rejected(self, tmp_path):
        _, params, _ = self._trained_params()
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:12] + b"\xff" + raw[13:])  # first byte of the JSON blob
        with pytest.raises(InvalidArgumentError, match="unreadable config blob"):
            load_checkpoint(path)
        path.write_bytes(raw.replace(b"pos_embed", b"pos_embez"))
        with pytest.raises(InvalidArgumentError, match=r"missing \['pos_embed'\], unexpected \['pos_embez'\]"):
            load_checkpoint(path)
        blob_len = int.from_bytes(raw[8:12], "little")
        net = json.loads(raw[12:12 + blob_len])["net"]
        for blob in ({}, {"net": net | {"depth": "x"}, "extra": {}}, [1],
                     {"net": net | {"depth": True}, "extra": {}},
                     {"net": net | {"embed_dim": 6.7}, "extra": {}}):
            encoded = json.dumps(blob).encode()
            path.write_bytes(raw[:8] + len(encoded).to_bytes(4, "little") + encoded
                             + raw[12 + blob_len:])
            with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: config blob")):
                load_checkpoint(path)

    def test_tensor_stored_twice_rejected(self, tmp_path):
        _, params, _ = self._trained_params()
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        # Append a zeroed second classifier_b record and bump the tensor count.
        name = b"classifier_b"
        start = raw.index(name) - 4
        rank_at = start + 4 + len(name)
        rank = int.from_bytes(raw[rank_at:rank_at + 4], "little")
        dims = [int.from_bytes(raw[rank_at + 4 + 4 * k:rank_at + 8 + 4 * k], "little")
                for k in range(rank)]
        header_end = rank_at + 4 + 4 * rank
        copy = raw[start:header_end] + bytes(4 * int(np.prod(dims)))
        count_at = 12 + int.from_bytes(raw[8:12], "little")
        count = int.from_bytes(raw[count_at:count_at + 4], "little")
        path.write_bytes(raw[:count_at] + (count + 1).to_bytes(4, "little")
                         + raw[count_at + 4:] + copy)
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"{path}: tensor classifier_b is stored twice")):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [5, [], "note", None])
    def test_extra_that_is_not_an_object_rejected(self, tmp_path, extra):
        _, params, _ = self._trained_params()
        path = tmp_path / "model.pnc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        blob_len = int.from_bytes(raw[8:12], "little")
        blob = json.loads(raw[12:12 + blob_len]) | {"extra": extra}
        encoded = json.dumps(blob).encode()
        path.write_bytes(raw[:8] + len(encoded).to_bytes(4, "little") + encoded
                         + raw[12 + blob_len:])
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"{path}: config blob 'extra' must be a JSON object")):
            load_checkpoint(path)

    def test_config_blob_cannot_force_an_allocation(self, tmp_path):
        # Building this config allocates about 44 MB; its file has no tensors.
        net = PatchNetConfig(patch_edge=1, patch_count=36, embed_dim=100_000, depth=0).to_json()
        blob = json.dumps({"net": net, "extra": {}}, separators=(",", ":")).encode()
        path = tmp_path / "huge.pnc"
        path.write_bytes(CHECKPOINT_MAGIC + (1).to_bytes(4, "little") + len(blob).to_bytes(4, "little")
                         + blob + (0).to_bytes(4, "little"))
        assert len(path.read_bytes()) == 122
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError, match="missing"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_loads_or_is_rejected(self, tmp_path_factory, data):
        cfg = PatchNetConfig(
            patch_edge=data.draw(st.integers(1, 2), label="patch_edge"),
            patch_count=data.draw(st.sampled_from([1, 4]), label="patch_count"),
            embed_dim=data.draw(st.integers(1, 3), label="embed_dim"),
            depth=data.draw(st.integers(0, 2), label="depth"),
        )
        path = tmp_path_factory.mktemp("flip") / "model.pnc"
        save_checkpoint(path, init_params(cfg))
        raw = bytearray(path.read_bytes())
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except InvalidArgumentError as exc:
            assert str(path) in str(exc)

    def test_every_single_bit_flip_loads_or_is_rejected(self, tmp_path):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=3, depth=1)
        path = tmp_path / "model.pnc"
        save_checkpoint(path, init_params(cfg))
        raw = path.read_bytes()
        rejected = 0
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_checkpoint(path)
            except InvalidArgumentError as exc:
                assert str(path) in str(exc)
                rejected += 1
        assert 0 < rejected < 8 * len(raw)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_tensor_shapes_match_init_params(self, depth):
        cfg = PatchNetConfig(patch_edge=3, patch_count=9, embed_dim=5, depth=depth, class_count=3)
        built = init_params(cfg).named_arrays()
        assert list(tensor_shapes(cfg).items()) == [(n, a.shape) for n, a in built.items()]


class TestOpCountReport:
    def test_reference_scale_projection_parameters(self):
        cfg = PatchNetConfig(patch_edge=25, patch_count=36, embed_dim=1600, depth=12)
        report = op_count_report(cfg)
        rows = dict((name, (p, m)) for name, p, m in report.rows)
        assert rows["projection"][0] == 25**3 * 1600 == 25_000_000
        assert report.total_params == 56_587_202
        assert report.total_macs == 2_033_571_200
        assert report.reference_params == 34_530_000
        table = report.format_table()
        assert "34.53M" in table and "2.21 GMac" in table

    def test_zero_depth_degenerate(self):
        cfg = PatchNetConfig(patch_edge=4, patch_count=9, embed_dim=16, depth=0)
        report = op_count_report(cfg)
        expected = 64 * 16 + 9 * 16 + (16 * 2 + 2)
        assert report.total_params == expected

    def test_width_doubling_scales_macs(self):
        small = op_count_report(PatchNetConfig(patch_edge=4, patch_count=16, embed_dim=32, depth=1))
        big = op_count_report(PatchNetConfig(patch_edge=4, patch_count=16, embed_dim=64, depth=1))
        def macs(report, key):
            return {n: m for n, _, m in report.rows}[key]
        assert macs(big, "block0.pointwise") == 4 * macs(small, "block0.pointwise")
        assert macs(big, "block0.spatial_depthwise") == 2 * macs(small, "block0.spatial_depthwise")
