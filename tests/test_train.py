import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patchkit as pk
from patchkit.errors import InvalidArgumentError
from patchkit.optim import adam_init, adam_step
from patchkit.patchnet import PatchNetConfig, forward, save_checkpoint, tensor_shapes
from patchkit.shapley import ttest_select
from patchkit.train import (
    TrainSchedule,
    class_scores,
    cosine_lr,
    extract_selected_patches,
    stratified_split,
    train_patchnet,
)


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one named tensor at a time: the loop the vector update replaced,
    kept as its reference. ``state`` holds per-name ``m`` and ``v`` and ``t``."""
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float32)
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        values = np.array([1.0, -2.0], dtype=np.float32)
        state = adam_init(values)
        adam_step(values, np.zeros(2, dtype=np.float32), state, lr=0.1)
        assert np.array_equal(values, [1.0, -2.0])

    def test_first_step_magnitude_is_bias_corrected_lr(self):
        # After one step m_hat = g, v_hat = g^2, so the update is lr * sign(g)
        # up to the epsilon in the denominator.
        values = np.zeros(3, dtype=np.float32)
        state = adam_init(values)
        g = np.array([3.0, -0.5, 10.0], dtype=np.float32)
        adam_step(values, g, state, lr=1e-3)
        assert np.allclose(np.abs(values), 1e-3, rtol=1e-4)
        assert np.all(np.sign(values) == -np.sign(g))

    def test_quadratic_bowl_convergence(self):
        values = np.array([1.0], dtype=np.float32)
        state = adam_init(values)
        for _ in range(500):
            adam_step(values, 2.0 * values, state, lr=1e-2)
        assert abs(float(values[0])) < 1e-3

    def test_shape_mismatch_rejected(self):
        values = np.zeros(3, dtype=np.float32)
        state = adam_init(values)
        with pytest.raises(InvalidArgumentError, match="gradient shape"):
            adam_step(values, np.zeros(4, dtype=np.float32), state, lr=0.1)
        assert state.t == 0

    def test_vector_update_matches_the_per_tensor_loop_bit_for_bit(self):
        shapes = tensor_shapes(PatchNetConfig(patch_edge=8, patch_count=36, embed_dim=64, depth=4))
        rng = np.random.default_rng(0)
        tensors = {name: rng.normal(0, 0.1, shape).astype(np.float32) for name, shape in shapes.items()}
        values = np.concatenate([a.ravel() for a in tensors.values()])
        state = adam_init(values)
        reference = {"t": 0, "m": {n: np.zeros_like(a) for n, a in tensors.items()},
                     "v": {n: np.zeros_like(a) for n, a in tensors.items()}}
        steps = 50
        for step in range(steps):
            # Gradients over six decades, so the epsilon and the rounding of
            # small second moments both show.
            grads = {name: (rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 1, shape))
                     .astype(np.float32) for name, shape in shapes.items()}
            lr = cosine_lr(step, steps, 1e-3, 1e-6)
            reference_adam_step(tensors, grads, reference, lr)
            adam_step(values, np.concatenate([g.ravel() for g in grads.values()]), state, lr)
        flat = {key: np.concatenate([a.ravel() for a in part.values()])
                for key, part in (("values", tensors), ("m", reference["m"]), ("v", reference["v"]))}
        assert state.t == reference["t"] == steps
        assert values.tobytes() == flat["values"].tobytes()
        assert state.m.tobytes() == flat["m"].tobytes()
        assert state.v.tobytes() == flat["v"].tobytes()


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 1e-4, 1e-6) == pytest.approx(1e-4)
        assert cosine_lr(99, 100, 1e-4, 1e-6) == pytest.approx(1e-6)

    def test_monotone_decay(self):
        values = [cosine_lr(t, 50, 1e-4, 1e-6) for t in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_step_uses_start(self):
        assert cosine_lr(0, 1, 1e-4, 1e-6) == 1e-4


def separable_batch(n=24, m_patches=4, patch_len=8, seed=0):
    rng = np.random.default_rng(seed)
    y = np.tile([0, 1], n // 2)
    x = rng.normal(0.6, 0.02, (n, m_patches, patch_len)).astype(np.float32)
    x[y == 1, 0, :] *= 0.4
    return x.astype(np.float32), y.astype(np.int64)


class TestTrainLoop:
    def test_memorizes_single_sample(self):
        # With batch 1 the batch-norm/mean-pool combination leaves only the
        # shift parameters and classifier bias to carry the label, so this
        # needs a hotter learning rate than the full pipeline.
        x, y = separable_batch(n=2)
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=8, depth=1, seed=1)
        sched = TrainSchedule(epochs=100, batch_size=1, lr_start=1e-2, lr_end=1e-4)
        result = train_patchnet(x[:1], y[:1], x[:1], y[:1], cfg, sched, seed=5)
        assert result.log[-1]["train_acc"] == 1.0

    def test_same_seed_bitwise_identical_checkpoints(self, tmp_path):
        x, y = separable_batch()
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=8, depth=1, seed=2)
        sched = TrainSchedule(epochs=3, batch_size=4)
        paths = []
        for run in range(2):
            result = train_patchnet(x[:16], y[:16], x[16:], y[16:], cfg, sched, seed=7)
            path = tmp_path / f"run{run}.pnc"
            save_checkpoint(path, result.params)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_last_good_checkpoint(self):
        x, y = separable_batch()
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=8, depth=1, seed=3)
        sched = TrainSchedule(epochs=5, batch_size=4, lr_start=1e30, lr_end=1e29)
        result = train_patchnet(x[:16], y[:16], x[16:], y[16:], cfg, sched, seed=9)
        assert result.aborted
        assert result.log[-1]["event"] == "aborted"
        # The returned checkpoint still produces finite outputs.
        scores = class_scores(result.params, x[16:])
        assert np.all(np.isfinite(scores))

    def test_learns_separable_task(self):
        x, y = separable_batch(n=60, seed=4)
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=16, depth=2, seed=4)
        sched = TrainSchedule(epochs=25, batch_size=8, lr_start=5e-4, lr_end=1e-5)
        result = train_patchnet(x[:40], y[:40], x[40:50], y[40:50], cfg, sched, seed=11)
        scores = class_scores(result.params, x[50:])
        acc = float(((scores >= 0.5) == y[50:]).mean())
        assert acc >= 0.9

    @pytest.mark.parametrize("n_train, n_train_labels, n_val, n_val_labels, message", [
        (12, 11, 4, 4, "training set has 12 samples but 11 labels"),
        (12, 12, 6, 1, "validation set has 6 samples but 1 labels"),
    ], ids=["training", "validation"])
    def test_sample_and_label_counts_must_match(self, n_train, n_train_labels, n_val, n_val_labels, message):
        x, y = separable_batch(n=24)
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=4, depth=1, seed=6)
        with pytest.raises(InvalidArgumentError, match=message):
            train_patchnet(x[:n_train], y[:n_train_labels], x[12:12 + n_val], y[12:12 + n_val_labels],
                           cfg, TrainSchedule(epochs=1, batch_size=4), seed=1)

    def test_per_epoch_log_schema(self):
        x, y = separable_batch()
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=8, depth=1, seed=5)
        result = train_patchnet(
            x[:16], y[:16], x[16:], y[16:], cfg, TrainSchedule(epochs=2, batch_size=4), seed=3
        )
        assert len(result.log) == 2
        assert set(result.log[0]) == {"epoch", "lr", "loss", "train_acc", "val_acc"}
        json.dumps(result.log)  # JSONL-serializable


class TestGradientVector:
    def test_gradients_are_views_into_one_float32_vector_in_layout_order(self):
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, class_count=3, seed=4)
        params = pk.init_params(cfg)
        x, y = separable_batch(n=6, patch_len=8)
        for out in (None, np.full(params.learnable.shape, np.nan, np.float32)):
            _, grads = pk.loss_and_grad(x, y, params, out=out)
            vector = next(iter(grads.values())).base if out is None else out
            assert vector.dtype == np.float32 and vector.shape == params.learnable.shape
            assert list(grads) == list(params.learnable_arrays())
            offset = 0
            for name, arr in params.learnable_arrays().items():
                g = grads[name]
                assert g.base is vector and g.shape == arr.shape, name
                assert g.__array_interface__["data"][0] == vector.ctypes.data + 4 * offset, name
                offset += arr.size
            assert offset == vector.size and np.isfinite(vector).all()

    def test_a_fit_concatenates_and_copies_no_layout_per_step(self, monkeypatch):
        # Adam takes the step's gradient vector as written, and no stage
        # copies activations to another layout. (Seeding each epoch's
        # shuffle concatenates inside numpy, once per epoch: halving the
        # batch doubles the steps and must leave the count as it was.)
        x, y = separable_batch(n=24)
        cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=5)
        calls = []
        for name in ("concatenate", "ascontiguousarray"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k))
        counts = []
        for batch_size in (4, 2):
            calls.clear()
            result = train_patchnet(x[:16], y[:16], x[16:], y[16:], cfg,
                                    TrainSchedule(epochs=2, batch_size=batch_size), seed=1)
            assert len(result.log) == 2 and not result.aborted
            counts.append(calls.count("concatenate"))
            assert "ascontiguousarray" not in calls
        assert counts[0] == counts[1]


# One loss_and_grad at embed 64, depth 1, batch 8 over 36 8³ patches, then a
# 2-epoch fit; prints the SHA-256 of the gradient bytes and of the fitted
# learnable bytes. At this width the depthwise kernel gradient sums 1,296
# (input site, output site) entries per channel, enough for a BLAS product to
# split the sum by thread count.
BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from patchkit.patchnet import PatchNetConfig, init_params, loss_and_grad
from patchkit.train import TrainSchedule, train_patchnet
cfg = PatchNetConfig(patch_edge=8, patch_count=36, embed_dim=64, depth=1, seed=3)
rng = np.random.default_rng(0)
x = rng.normal(size=(24, 36, 512)).astype(np.float32)
y = np.arange(24) % 2
_, grads = loss_and_grad(x[:8], y[:8], init_params(cfg))
print(hashlib.sha256(b"".join(g.tobytes() for g in grads.values())).hexdigest())
fit = train_patchnet(x[:16], y[:16], x[16:], y[16:], cfg, TrainSchedule(epochs=2, batch_size=8), seed=1)
print(hashlib.sha256(fit.params.learnable.tobytes()).hexdigest())
"""


def test_training_bits_do_not_depend_on_blas_threads():
    src = str(Path(pk.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.split())
    (grads_1, fit_1), (grads_2, fit_2) = outputs
    assert grads_1 == grads_2
    assert fit_1 == fit_2


class TestDataPlumbing:
    def test_stratified_split_fractions(self):
        labels = np.array([0] * 40 + [1] * 40)
        test, val, train = stratified_split(labels, (0.25, 0.25), seed=1)
        assert len(test) == 20 and len(val) == 20 and len(train) == 40
        for part in (test, val, train):
            assert int(np.sum(labels[part] == 1)) == len(part) // 2
        together = np.concatenate([test, val, train])
        assert np.array_equal(np.sort(together), np.arange(80))

    def test_extract_selected_patches_order_and_labels(self, small_phantom):
        grid = pk.make_grid(small_phantom.spec.dims, 4)
        sel = pk.SelectionResult(chosen=[5, 2, 7, 1], method="shap", scores=np.zeros(4))
        feats, labels = extract_selected_patches(small_phantom, grid, sel)
        assert feats.shape == (len(small_phantom.entries), 4, 64)
        assert np.array_equal(labels, small_phantom.labels())
        vol = small_phantom.load_volume(3)
        assert np.array_equal(feats[3, 1], pk.extract_patch(vol, grid.regions[2]))


@pytest.fixture(scope="module")
def phantom_fit(tmp_path_factory):
    """A short fit on a 32³ phantom: the t-test top 16 of the 4³ patches of
    40 volumes, split 24 / 6 / 10, embed 64, depth 4, batch 8, 8 epochs from
    lr 2e-3. Its loss falls below 0.1 by epoch 2, yet with batch-norm
    statistics averaged over past batch-8 steps its eval-mode accuracies
    read 0.5 in most epochs."""
    spec = pk.PhantomSpec(dims=(32, 32, 32), n_per_class=20, lesion_regions=(pk.Region((11, 13, 10), (6, 6, 6)),),
                          lesion_delta=0.35, noise_sigma=0.05, smooth_radius=1, seed=5)
    manifest = pk.generate(spec, tmp_path_factory.mktemp("phantom32"))
    grid = pk.make_grid(spec.dims, 4)
    x, y = extract_selected_patches(manifest, grid, ttest_select(manifest, grid, 16))
    _, val_idx, train_idx = stratified_split(y, (0.25, 0.15), 3)
    cfg = PatchNetConfig(patch_edge=4, patch_count=16, embed_dim=64, depth=4, seed=3)
    schedule = TrainSchedule(epochs=8, batch_size=8, lr_start=2e-3)
    result = train_patchnet(x[train_idx], y[train_idx], x[val_idx], y[val_idx], cfg, schedule, seed=3)
    return result, x[train_idx]


class TestPreciseBatchNorm:
    def test_low_loss_epochs_classify_above_chance(self, phantom_fit):
        result, _ = phantom_fit
        low = [row for row in result.log if row["loss"] < 0.1]
        assert len(low) >= 5
        for row in low:
            assert row["train_acc"] > 0.5 and row["val_acc"] > 0.5, row

    def test_kept_statistics_reproduce_a_train_mode_forward(self, phantom_fit):
        # The kept checkpoint's stored statistics are its training set's
        # population statistics, so eval mode on that set is the train-mode
        # forward over it. Float32 tolerance: 1e-4 of the largest logit.
        result, x_train = phantom_fit
        eval_logits, _ = forward(x_train, result.params, mode="eval")
        params = result.params.copy()
        train_logits, _ = forward(x_train, params, mode="train")
        np.testing.assert_allclose(eval_logits, train_logits, rtol=0,
                                   atol=1e-4 * max(1.0, np.abs(train_logits).max()))
        np.testing.assert_allclose(params.stats, result.params.stats, rtol=1e-4, atol=1e-5)
