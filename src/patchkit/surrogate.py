"""Pooled-feature surrogate classifiers used as the attribution black box.

The surrogate sees one feature per grid patch (the patch-mean intensity) and
is either a logistic regression trained by full-batch gradient descent, or an
identity-link additive model. The additive form is the analytic probe for the
Shapley oracle tests: with a zero-fill baseline its exact Shapley value for
patch i is simply weight_i * patch_mean_i.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .artifacts import load_artifact, typed, write_json
from .errors import InvalidArgumentError
from .phantom import DatasetManifest
from .volume import PatchGrid, Volume, patch_means

logger = logging.getLogger(__name__)

LINKS = ("identity", "logistic")


@dataclass
class SurrogateParams:
    weights: np.ndarray  # one weight per grid patch
    bias: float
    link: str = "logistic"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.link not in LINKS:
            raise InvalidArgumentError(f"link must be one of {LINKS}, got {self.link!r}")
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.bias):
            raise InvalidArgumentError("surrogate parameters must be finite")


class SurrogatePredictor:
    """Predictor over volumes: P(class 1) = link(w . patch_means(v) + b).

    The score is additive over patches: ``patch_terms`` gives each patch's
    term and ``predict_sums`` reads out score sums, so the attribution engines
    sum the terms of each coalition's patches and read a game out in one call.
    """

    def __init__(self, params: SurrogateParams, grid: PatchGrid):
        if params.weights.size != len(grid):
            raise InvalidArgumentError(
                f"{params.weights.size} weights for a grid of {len(grid)} patches"
            )
        self.params = params
        self.grid = grid

    def patch_terms(self, features: np.ndarray) -> np.ndarray:
        """Each patch's contribution to the score: (K,) patch means -> (K,)."""
        return self.params.weights * features

    def predict_sums(self, sums: np.ndarray) -> np.ndarray:
        """Class probabilities for each score sum: (B,) -> (B, 2)."""
        p1 = sums + self.params.bias
        if self.params.link == "logistic":
            p1 = 1.0 / (1.0 + np.exp(-p1))
        probs = np.empty((len(p1), 2))
        probs[:, 0], probs[:, 1] = 1.0 - p1, p1
        return probs

    def predict(self, v: Volume) -> np.ndarray:
        return self.predict_sums(self.patch_terms(patch_means(v, self.grid)).sum(keepdims=True))[0]

    def to_json(self) -> dict:
        return {
            "weights": self.params.weights.tolist(),
            "bias": self.params.bias,
            "link": self.params.link,
            "grid": self.grid.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SurrogatePredictor":
        grid = PatchGrid.from_json(typed(obj, "grid", dict))
        params = SurrogateParams(
            np.array(typed(obj, "weights", list[float]), dtype=np.float64),
            float(typed(obj, "bias", float)),
            typed(obj, "link", str),
        )
        return cls(params, grid)

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "SurrogatePredictor":
        return load_artifact(path, cls.from_json)


def additive_probe(weights, bias: float, grid: PatchGrid) -> SurrogatePredictor:
    """Identity-link surrogate with fixed weights (the analytic Shapley probe)."""
    return SurrogatePredictor(SurrogateParams(np.asarray(weights), bias, "identity"), grid)


def surrogate_train(
    manifest: DatasetManifest,
    grid: PatchGrid,
    *,
    max_iter: int = 2000,
) -> tuple[SurrogatePredictor, dict]:
    """Fit the surrogate by full-batch gradient descent on mean cross-entropy.

    Features are mean-centered while fitting (otherwise gradient descent leaks
    the intercept into bright-but-uninformative patches, which corrupts the
    attribution maps downstream); the centering is folded back into the bias,
    so the returned model is a plain sigma(w . x + b). Steps at rate 0.5 and
    stops when the gradient infinity-norm falls below 1e-6; otherwise warns and
    returns the best (lowest-loss) iterate seen.
    """
    lr, tol = 0.5, 1e-6
    x, y = manifest.patch_means(grid), manifest.labels()
    if np.sum(y == 0) < 2 or np.sum(y == 1) < 2:
        raise InvalidArgumentError("need >= 2 samples per class to train the surrogate")
    n, k = x.shape
    mu = x.mean(axis=0)
    xc = x - mu
    w = np.zeros(k, dtype=np.float64)
    b = 0.0
    best = (np.inf, w.copy(), b)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = xc @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        eps = 1e-12
        loss = -float(np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        if loss < best[0]:
            best = (loss, w.copy(), b)
        residual = p - y
        gw = xc.T @ residual / n
        gb = float(residual.mean())
        if max(np.abs(gw).max(), abs(gb)) < tol:
            converged = True
            break
        w -= lr * gw
        b -= lr * gb
    if not converged:
        logger.warning(
            "surrogate training hit max_iter=%d (best loss %.4g); returning best iterate",
            max_iter,
            best[0],
        )
        _, w, b = best
    bias = float(b - w @ mu)
    predictor = SurrogatePredictor(SurrogateParams(w, bias, "logistic"), grid)
    preds = (x @ w + bias) > 0
    info = {
        "iterations": iterations,
        "converged": converged,
        "loss": float(best[0]),
        "train_acc": float((preds == y).mean()),
    }
    return predictor, info
