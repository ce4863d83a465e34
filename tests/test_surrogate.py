import json
import re

import numpy as np
import pytest

import patchkit as pk
from patchkit import surrogate
from patchkit.cli import main
from patchkit.errors import InvalidArgumentError, NumericalFailureError
from patchkit.surrogate import SurrogateParams, SurrogatePredictor, surrogate_train

from conftest import DELETE, break_artifact


def test_separable_phantom_reaches_perfect_training_accuracy(small_phantom):
    grid = pk.make_grid(small_phantom.spec.dims, 4)
    predictor, info = surrogate_train(small_phantom, grid)
    assert info["train_acc"] == 1.0
    for i in range(len(small_phantom.entries)):
        p = predictor.predict(small_phantom.load_volume(i))
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p[1] >= 0.5) == (small_phantom.entries[i][1] == 1)


def test_identity_link_probe_is_the_additive_oracle():
    dims = (8, 8, 8)
    grid = pk.make_grid(dims, 4)
    rng = np.random.default_rng(0)
    weights = rng.normal(0, 0.2, len(grid))
    probe = pk.additive_probe(weights, 0.0, grid)
    v = pk.Volume(dims, rng.random(512, dtype=np.float32))
    values = pk.exact_shapley(probe, v, list(grid.regions))
    assert np.allclose(values, weights * pk.patch_means(v, grid), atol=1e-9)


def test_prediction_invariant_under_joint_permutation():
    dims = (8, 8, 8)
    grid = pk.make_grid(dims, 4)
    rng = np.random.default_rng(1)
    weights = rng.normal(0, 0.3, len(grid))
    v = pk.Volume(dims, rng.random(512, dtype=np.float32))
    x = pk.patch_means(v, grid)
    perm = rng.permutation(len(grid))
    assert np.isclose(weights @ x, weights[perm] @ x[perm])


def test_json_round_trip(tmp_path, small_phantom):
    grid = pk.make_grid(small_phantom.spec.dims, 4)
    predictor, _ = surrogate_train(small_phantom, grid)
    path = tmp_path / "surrogate.json"
    predictor.save(path)
    loaded = SurrogatePredictor.load(path)
    v = small_phantom.load_volume(0)
    assert np.array_equal(loaded.predict(v), predictor.predict(v))
    assert loaded.params.link == "logistic"


@pytest.mark.parametrize("key, value, named", [
    ("grid", DELETE, "'grid'"),
    ("grid", [8, 8, 8], "grid"),
    ("grid.counts", DELETE, "'counts'"),
    ("weights", DELETE, "'weights'"),
    ("weights", {"0": 1.0}, "weights"),
    ("weights.2", "0.5", r"weights\[2\]"),
    ("bias", DELETE, "'bias'"),
    ("bias", None, "bias"),
    ("link", DELETE, "'link'"),
    ("link", 0, "link"),
])
def test_load_names_file_and_key(tmp_path, key, value, named):
    grid = pk.make_grid((8, 8, 8), 4)
    path = tmp_path / "surrogate.json"
    pk.additive_probe(np.linspace(-1.0, 1.0, len(grid)), 0.1, grid).save(path)
    break_artifact(path, key, value)
    with pytest.raises(InvalidArgumentError, match=f"{re.escape(str(path))}: .*{named}"):
        SurrogatePredictor.load(path)


@pytest.mark.parametrize("edge", [4, 2])  # K = 64 and K = 512 > n = 20
def test_fit_is_a_stationary_point_of_the_ridge_objective(small_phantom, edge):
    grid = pk.make_grid(small_phantom.spec.dims, edge)
    predictor, info = surrogate_train(small_phantom, grid)
    w, b = predictor.params.weights, predictor.params.bias
    # The gradient of mean cross-entropy + RIDGE/2 |w|^2 (bias unpenalised) at
    # the returned model, on the uncentred features the fit saw.
    x, y = small_phantom.patch_means(grid), small_phantom.labels()
    z = x @ w + b
    p = 1.0 / (1.0 + np.exp(-z))
    grad = np.append(x.T @ (p - y) / len(y) + surrogate.RIDGE * w, np.mean(p - y))
    assert np.abs(grad).max() <= 1e-9
    assert sorted(info) == ["grad_norm", "iterations", "loss", "train_acc"]
    assert info["grad_norm"] <= 1e-10 and 1 <= info["iterations"] <= surrogate.NEWTON_STEPS
    assert info["loss"] == pytest.approx(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)), rel=1e-9)


def test_non_convergence_raises_numerical_failure(small_phantom, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(surrogate, "NEWTON_STEPS", 0)
    grid = pk.make_grid(small_phantom.spec.dims, 4)
    with pytest.raises(NumericalFailureError, match="surrogate fit did not converge"):
        surrogate_train(small_phantom, grid)
    # The CLI config describes the 16³ phantom: a stage refuses a
    # phantom.dims other than its dataset's.
    spec = small_phantom.spec
    regions = [r.to_json() for r in spec.lesion_regions]
    argv = ["surrogate", "--out", str(tmp_path), "--set", f"paths.data_dir={small_phantom.root}",
            "--set", f"phantom.dims={json.dumps(list(spec.dims))}",
            "--set", f"phantom.lesion_regions={json.dumps(regions)}", "--set", "grid.patch_edge=4"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "surrogate" in err and "Traceback" not in err
    assert not (tmp_path / "surrogate.json").exists()


def test_weight_grid_size_mismatch_rejected():
    grid = pk.make_grid((8, 8, 8), 4)
    with pytest.raises(InvalidArgumentError):
        SurrogatePredictor(SurrogateParams(np.zeros(3), 0.0, "logistic"), grid)


def test_requires_two_samples_per_class(tmp_path):
    spec = pk.PhantomSpec(
        dims=(8, 8, 8), n_per_class=1,
        lesion_regions=(pk.Region((2, 2, 2), (4, 4, 4)),),
        lesion_delta=0.3, noise_sigma=0.0, smooth_radius=0, seed=0,
    )
    manifest = pk.generate(spec, tmp_path)
    with pytest.raises(InvalidArgumentError):
        surrogate_train(manifest, pk.make_grid((8, 8, 8), 4))


def test_unknown_link_rejected():
    with pytest.raises(InvalidArgumentError):
        SurrogateParams(np.zeros(4), 0.0, "probit")
