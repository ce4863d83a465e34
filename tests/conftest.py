import json

import numpy as np
import pytest

import patchkit as pk


class RegionMeanProbe:
    """Additive test predictor: f(v) = sum_i w_i * mean(region_i) + bias.

    Region means are computed with direct array slicing, independent of the
    library's pooled-feature helpers, so this doubles as an oracle.
    """

    def __init__(self, regions, weights, bias=0.0):
        self.regions = list(regions)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)

    def region_means(self, v: pk.Volume) -> np.ndarray:
        arr = v.as_array()
        means = []
        for r in self.regions:
            (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
            means.append(float(arr[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx].mean()))
        return np.array(means)

    def readout(self, v: pk.Volume) -> float:
        return float(self.weights @ self.region_means(v) + self.bias)

    def predict(self, v: pk.Volume) -> np.ndarray:
        f = self.readout(v)
        return np.array([1.0 - f, f])


class LogisticRegionProbe(RegionMeanProbe):
    """Sigmoid of the additive readout: a smooth nonlinear test predictor."""

    def predict(self, v: pk.Volume) -> np.ndarray:
        z = self.readout(v)
        f = 1.0 / (1.0 + np.exp(-z))
        return np.array([1.0 - f, f])


class InteractionProbe(RegionMeanProbe):
    """Adds a pairwise product term so Shapley values are not purely additive."""

    def __init__(self, regions, weights, pair=(0, 1), pair_weight=0.5, bias=0.0):
        super().__init__(regions, weights, bias)
        self.pair = pair
        self.pair_weight = pair_weight

    def predict(self, v: pk.Volume) -> np.ndarray:
        m = self.region_means(v)
        a, b = self.pair
        f = float(self.weights @ m + self.pair_weight * m[a] * m[b] + self.bias)
        return np.array([1.0 - f, f])


class CountingPredictor:
    """Wraps a predictor and counts predict() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, v):
        self.calls += 1
        return self.inner.predict(v)


DELETE = object()


def break_artifact(path, dotted_key: str, value=DELETE) -> None:
    """Rewrite the JSON artifact at ``path`` with one key, given as a dotted
    path (list items by index), set to ``value`` or deleted."""
    obj = json.loads(path.read_text())
    keys = [int(k) if k.isdigit() else k for k in dotted_key.split(".")]
    node = obj
    for key in keys[:-1]:
        node = node[key]
    if value is DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    path.write_text(json.dumps(obj))


def cbhw(a: np.ndarray) -> np.ndarray:
    """Batch-first (B, C, ...) array as a contiguous channels-first (C, B, ...)
    copy, the layout of the network's activations."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def bchw(a: np.ndarray) -> np.ndarray:
    """Channels-first (C, B, ...) activations viewed batch-first (B, C, ...)."""
    return np.swapaxes(a, 0, 1)


def volume_with_region_means(dims, regions, means, background=0.0) -> pk.Volume:
    arr = np.full((dims[2], dims[1], dims[0]), background, dtype=np.float32)
    for r, m in zip(regions, means):
        (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
        arr[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] = m
    return pk.Volume(dims, arr.reshape(-1))


@pytest.fixture(scope="session")
def small_phantom(tmp_path_factory):
    """16^3 two-class phantom with one lesion, shared across tests."""
    out = tmp_path_factory.mktemp("phantom16")
    spec = pk.PhantomSpec(
        dims=(16, 16, 16),
        n_per_class=10,
        lesion_regions=(pk.Region((4, 4, 4), (6, 6, 6)),),
        lesion_delta=0.4,
        noise_sigma=0.02,
        smooth_radius=1,
        seed=4242,
    )
    return pk.generate(spec, out)
