"""The dense convolution maps (``tensor._conv_maps``) a ``PatchNetParams``
keeps per block kernel: reuse while a kernel is unchanged, replacement after
an in-place update, maps freed with their parameters, none read or kept by a
training step, and concurrent forwards."""
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from patchkit import tensor as T
from patchkit.optim import adam_init, adam_step
from patchkit.patchnet import PatchNetConfig, forward, init_params, loss_and_grad
from patchkit.train import TrainSchedule, train_patchnet


def ready_params(seed=0, embed_dim=8, depth=2):
    """A small PatchNet whose batch norms can run in eval mode."""
    cfg = PatchNetConfig(patch_edge=2, patch_count=9, embed_dim=embed_dim, depth=depth, seed=seed)
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    t = params.named_arrays()
    for i in range(depth):
        kernel = t[f"blocks.{i}.gsi_kernel"]
        kernel += rng.standard_normal(kernel.shape).astype(np.float32)
    for name, arr in t.items():
        if name.endswith("running_mean"):
            arr += rng.standard_normal(arr.shape).astype(np.float32)
    params.ready = True
    return params


def patches(seed=1, batch=3):
    return np.random.default_rng(seed).standard_normal((batch, 9, 8)).astype(np.float32)


def forward_maps(monkeypatch, params, x) -> list[np.ndarray]:
    """The maps each block's convolution ran on in one eval forward."""
    seen, real = [], T._Conv

    def conv(x, kernel, maps=None):
        seen.append(maps)
        return real(x, kernel, maps)

    with monkeypatch.context() as patch:
        patch.setattr(T, "_Conv", conv)
        forward(x, params, mode="eval")
    return seen


class TestMapReuse:
    def test_unchanged_kernel_reuses_its_read_only_maps(self, monkeypatch):
        params, x = ready_params(), patches()
        first = forward_maps(monkeypatch, params, x)
        second = forward_maps(monkeypatch, params, x)
        assert len(first) == len(second) == params.config.depth
        for a, b in zip(first, second):
            assert b is a
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0
        copied = forward_maps(monkeypatch, params.copy(), x)
        for a, c in zip(first, copied):
            assert c is not a  # a copy gathers its own
            assert np.array_equal(c, a)
        kernel = params.named_arrays()["blocks.0.gsi_kernel"]
        assert np.array_equal(first[0], T._conv_maps(kernel, 3, 3))
        assert T._conv_maps(kernel, 4, 3).shape == (8, 12, 12)  # any plane size gathers

    def test_in_place_kernel_update_invalidates_the_maps(self):
        params, x = ready_params(), patches()
        forward(x, params, mode="eval")
        kernel = params.named_arrays()["blocks.0.gsi_kernel"]
        # The update adam_step makes: in place, same array, same shape and dtype.
        kernel -= (0.5 * np.sign(kernel) + 0.25).astype(kernel.dtype)
        logits, probs = forward(x, params, mode="eval")
        fresh_logits, fresh_probs = forward(x, params.copy(), mode="eval")
        assert np.array_equal(logits, fresh_logits)
        assert np.array_equal(probs, fresh_probs)

    def test_in_place_update_of_the_learnable_vector_invalidates_the_maps(self):
        params, x = ready_params(), patches()
        before = forward(x, params, mode="eval")[0]
        # The update training makes: one Adam step over the whole vector,
        # which moves every kernel view without replacing it.
        grad = np.random.default_rng(4).standard_normal(params.learnable.shape)
        adam_step(params.learnable, grad, adam_init(params.learnable), lr=0.5)
        logits, probs = forward(x, params, mode="eval")
        fresh_logits, fresh_probs = forward(x, params.copy(), mode="eval")
        assert not np.array_equal(logits, before)
        assert np.array_equal(logits, fresh_logits)
        assert np.array_equal(probs, fresh_probs)

    def test_reshaping_or_retyping_the_same_array_invalidates_the_maps(self):
        kernel = np.random.default_rng(2).standard_normal((2, 3, 3)).astype(np.float32)
        T._conv_maps(kernel, 3, 3)
        kernel.shape = (2, 9, 1)  # the same array and bytes, another kernel
        assert np.array_equal(T._conv_maps(kernel, 3, 3), T._conv_maps(kernel.copy(), 3, 3))
        kernel.dtype = np.int32
        maps = T._conv_maps(kernel, 3, 3)
        assert maps.dtype == np.int32
        assert np.array_equal(maps, T._conv_maps(kernel.copy(), 3, 3))


class TestMapMemory:
    def test_freed_parameters_leave_no_entry(self):
        x = patches(batch=12)
        y = np.arange(12) % 2
        cfg = PatchNetConfig(patch_edge=2, patch_count=9, embed_dim=8, depth=2, seed=3)
        result = train_patchnet(x, y, x[:4], y[:4], cfg, TrainSchedule(epochs=3, batch_size=4), 3)
        forward(x, result.params, mode="eval")
        refs = [weakref.ref(maps) for _, maps in result.params._maps.values()]
        assert len(refs) == cfg.depth
        del result
        gc.collect()
        assert [ref() for ref in refs] == [None] * cfg.depth

    def test_an_updated_kernel_keeps_one_entry(self):
        params, x = ready_params(), patches()
        t = params.named_arrays()
        kernels = {name: t[name] for name in t if name.endswith("gsi_kernel")}
        for _ in range(5):
            for kernel in kernels.values():
                kernel *= 0.5
            forward(x, params, mode="eval")
            assert sorted(params._maps) == sorted(kernels)
            for name, (data, maps) in params._maps.items():
                assert data == kernels[name].tobytes()
                assert np.array_equal(maps, T._conv_maps(kernels[name], 3, 3))

    def test_a_training_step_neither_reads_nor_keeps_maps(self):
        params, x = ready_params(), patches()
        y = np.arange(len(x)) % 2
        expected = loss_and_grad(x, y, params.copy())
        assert params._maps == {}
        loss_and_grad(x, y, params)
        assert params._maps == {}  # nothing written
        # Entries that match every kernel's bytes but hold wrong maps: a step
        # that read them would change its loss and gradients.
        wrong = {name: (kernel.tobytes(), np.zeros((8, 9, 9), np.float32))
                 for name, kernel in params.named_arrays().items() if name.endswith("gsi_kernel")}
        params._maps.update(wrong)
        loss, grads = loss_and_grad(x, y, params)
        assert loss == expected[0]
        for name, grad in grads.items():
            assert np.array_equal(grad, expected[1][name]), name
        assert params._maps == wrong


class TestMapThreads:
    def test_concurrent_forwards_match_the_single_thread_result(self):
        # More threads than cores and a short switch interval, so lookups,
        # insertions and the drops of freed copies interleave.
        bases = [ready_params(seed=s) for s in range(4)]
        x = patches(batch=2)
        expected = [forward(x, base.copy(), mode="eval")[0] for base in bases]
        barrier = threading.Barrier(len(bases))
        mismatches = [0] * len(bases)
        done = [0] * len(bases)

        def run(i):
            barrier.wait()
            for _ in range(25):
                # A fresh copy each time: new kernels to insert while the
                # other threads' freed copies drop theirs.
                for params in (bases[i].copy(), bases[i]):
                    if not np.array_equal(forward(x, params, mode="eval")[0], expected[i]):
                        mismatches[i] += 1
            done[i] = 1

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(bases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [1] * len(bases)
        assert mismatches == [0] * len(bases)
