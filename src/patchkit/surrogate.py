"""Pooled-feature surrogate classifiers used as the attribution black box.

The surrogate sees one feature per grid patch (the patch-mean intensity) and
is either a ridge-penalised logistic regression fitted to its optimum by
Newton steps, or an identity-link additive model. The additive form is the
analytic probe for the Shapley oracle tests: with a zero-fill baseline its
exact Shapley value for patch i is simply weight_i * patch_mean_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import load_artifact, typed, write_json
from .errors import InvalidArgumentError, NumericalFailureError
from .phantom import DatasetManifest
from .volume import PatchGrid, Volume, patch_means

LINKS = ("identity", "logistic")
# Ridge strength on the weights. The patch means separate the classes, so
# without a penalty the cross-entropy has no minimiser. A weaker penalty leaves
# noise patches more weight: AC-04's phantoms localise 20 of 20 at 1e-3 and
# 1e-2 but 18 of 20 at 1e-4, and 1e-3 is the weakest of these that holds.
RIDGE = 1e-3
NEWTON_STEPS = 50  # before a fit counts as failed; measured fits take at most 12


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
    sum the terms of each coalition's patches and read out a walk level's
    games in one call.
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


def _newton_direction(hess, g: np.ndarray) -> np.ndarray:
    """Solve hess(d) = -g by conjugate gradients to the inexact-Newton residual
    min(0.5, sqrt|g|) * |g| (Nocedal & Wright, Algorithm 7.1), or after one
    iteration per unknown."""
    gg = np.add.reduce(g * g)
    d, r, p, rr = np.zeros_like(g), -g, -g, gg
    for _ in range(g.size):
        if rr <= min(0.25, np.sqrt(gg)) * gg:  # the residual bound, squared
            break
        hp = hess(p)
        alpha = rr / np.add.reduce(p * hp)
        d, r = d + alpha * p, r - alpha * hp
        rr, rr_old = np.add.reduce(r * r), rr
        p = r + (rr / rr_old) * p
    return d


def surrogate_train(manifest: DatasetManifest, grid: PatchGrid) -> tuple[SurrogatePredictor, dict]:
    """Fit the surrogate: ridge-penalised logistic regression at its optimum.

    Minimises mean cross-entropy + RIDGE/2 * |w|^2, bias unpenalised, on the
    mean-centred patch means, and folds the centering back into the bias, so
    the model is a plain sigma(w . x + b). Newton steps, each direction by
    conjugate gradients on Hessian-vector products, run until the gradient's
    infinity-norm is at most 1e-10, or raise NumericalFailureError after
    NEWTON_STEPS. No LAPACK routine runs, so the bits do not depend on the
    BLAS thread count.
    """
    x, y = manifest.patch_means(grid), manifest.labels()
    if np.sum(y == 0) < 2 or np.sum(y == 1) < 2:
        raise InvalidArgumentError("need >= 2 samples per class to train the surrogate")
    (n, k), mu = x.shape, x.mean(axis=0)
    xc = x - mu

    def hess(v):  # the Hessian times v = (weights, bias), at the step's curvature
        s = curvature * (xc @ v[:k] + v[k])
        return np.append(xc.T @ s + RIDGE * v[:k], np.add.reduce(s))

    theta = np.zeros(k + 1)  # weights, then bias
    for steps in range(NEWTON_STEPS + 1):
        z = xc @ theta[:k] + theta[k]
        e = np.exp(-np.abs(z))  # sigma(z) and its derivative without overflow
        residual = np.where(z >= 0, 1.0, e) / (1.0 + e) - y
        grad = np.append(xc.T @ residual / n + RIDGE * theta[:k], residual.mean())
        if (grad_norm := float(np.abs(grad).max())) <= 1e-10:
            break
        if steps == NEWTON_STEPS:
            raise NumericalFailureError(f"surrogate fit did not converge: gradient inf-norm "
                                        f"{grad_norm:.3g} after {NEWTON_STEPS} Newton steps")
        curvature = e / (1.0 + e) ** 2 / n
        theta += _newton_direction(hess, grad)
    w, bias = theta[:k], float(theta[k] - theta[:k] @ mu)
    info = {"iterations": steps, "loss": float(np.mean(np.logaddexp(0.0, z) - y * z)),
            "train_acc": float((((x @ w + bias) > 0) == y).mean()), "grad_norm": grad_norm}
    return SurrogatePredictor(SurrogateParams(w, bias, "logistic"), grid), info
