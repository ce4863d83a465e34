"""The per-kernel cache of dense convolution maps (``tensor._conv_maps``):
reuse while a kernel is unchanged, replacement after an in-place update, no
entry left behind by a freed kernel, and thread-safe concurrent use."""
import gc
import sys
import threading

import numpy as np
import pytest

from patchkit import tensor as T
from patchkit.optim import adam_init, adam_step
from patchkit.patchnet import PatchNetConfig, forward, init_params
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


def cached_kernel_ids() -> set[int]:
    return set(T._maps_by_kernel)


class TestMapReuse:
    def test_unchanged_kernel_reuses_its_read_only_maps(self):
        kernel = np.random.default_rng(0).standard_normal((4, 3, 3)).astype(np.float32)
        first = T._conv_maps(kernel, 3, 3)
        assert T._conv_maps(kernel, 3, 3) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0
        assert T._conv_maps(kernel, 4, 3) is not first  # another plane size is another map
        assert T._conv_maps(kernel, 4, 3).shape == (4, 12, 12)

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
        gc.collect()
        before = cached_kernel_ids()
        result = train_patchnet(x, y, x[:4], y[:4], cfg, TrainSchedule(epochs=3, batch_size=4), 3)
        gc.collect()
        assert cached_kernel_ids() <= before  # the training arrays are gone with their entries
        forward(x, result.params, mode="eval")
        kernel_ids = {id(arr) for name, arr in result.params.named_arrays().items()
                      if name.endswith("gsi_kernel")}
        assert kernel_ids <= cached_kernel_ids()
        del result
        gc.collect()
        assert cached_kernel_ids() <= before

    def test_an_updated_kernel_keeps_one_entry(self):
        kernel = np.ones((2, 3, 3), dtype=np.float32)
        count = len(T._maps_by_kernel)
        for _ in range(5):
            kernel *= 0.5
            T._conv_maps(kernel, 3, 3)
            assert len(T._maps_by_kernel) == count + 1
        del kernel
        assert len(T._maps_by_kernel) == count


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
