"""Seeded mini-batch training loop for the patch network.

The learning rate follows a cosine decay between the configured endpoints,
batches are drawn from a per-epoch seeded shuffle, and the checkpoint kept is
the one with the best validation accuracy. A training step runs the
network's stages on its batch's statistics and neither reads nor writes the
stored ones. Each epoch ends with one train-mode forward over the whole
training set through the same stages, as plain array code with no tape:
its batch statistics become the stored batch-norm statistics (precise batch
norm) and its logits give the training accuracy.
A non-finite loss aborts training and returns the last good checkpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .optim import adam_init, adam_step
from .patchnet import PatchNetConfig, PatchNetParams, forward, init_params, loss_and_grad
from .phantom import DatasetManifest
from .shapley import SelectionResult
from .volume import PatchGrid, extract_patch


@dataclass(frozen=True)
class TrainSchedule:
    epochs: int = 30
    batch_size: int = 8
    lr_start: float = 1e-4
    lr_end: float = 1e-6

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidArgumentError("epochs and batch_size must be >= 1")
        if self.lr_start <= 0 or self.lr_end <= 0:
            raise InvalidArgumentError("learning rates must be positive")


@dataclass
class TrainResult:
    params: PatchNetParams  # best-validation checkpoint
    log: list[dict] = field(default_factory=list)
    best_val_acc: float = 0.0
    best_epoch: int = -1
    aborted: bool = False


def cosine_lr(step: int, total_steps: int, start: float, end: float) -> float:
    if total_steps <= 1:
        return start
    frac = step / (total_steps - 1)
    return end + 0.5 * (start - end) * (1.0 + math.cos(math.pi * frac))


def accuracy(params: PatchNetParams, x: np.ndarray, y: np.ndarray) -> float:
    _, probs = forward(x, params, mode="eval")
    return float((probs.argmax(axis=1) == y).mean())


def class_scores(params: PatchNetParams, x: np.ndarray) -> np.ndarray:
    """Predicted probability of class 1 per sample (eval mode)."""
    _, probs = forward(x, params, mode="eval")
    return probs[:, 1]


def train_patchnet(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: PatchNetConfig,
    schedule: TrainSchedule,
    seed: int,
) -> TrainResult:
    if len(x_train) == 0:
        raise InvalidArgumentError("training set is empty")
    for name, x, y in (("training", x_train, y_train), ("validation", x_val, y_val)):
        if len(x) != len(y):
            raise InvalidArgumentError(f"{name} set has {len(x)} samples but {len(y)} labels")
    params = init_params(cfg)
    state = adam_init(params.learnable)
    n = len(x_train)
    steps_per_epoch = max(1, math.ceil(n / schedule.batch_size))
    total_steps = schedule.epochs * steps_per_epoch
    result = TrainResult(params=params.copy())
    step = 0
    for epoch in range(schedule.epochs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, epoch))))
        order = rng.permutation(n)
        epoch_losses = []
        lr = schedule.lr_start
        try:
            for start in range(0, n, schedule.batch_size):
                idx = order[start : start + schedule.batch_size]
                lr = cosine_lr(step, total_steps, schedule.lr_start, schedule.lr_end)
                loss, grads = loss_and_grad(x_train[idx], y_train[idx], params)
                flat = np.concatenate([grads[name].ravel() for name in params.learnable_arrays()])
                adam_step(params.learnable, flat, state, lr)
                epoch_losses.append(loss)
                step += 1
        except NumericalFailureError:
            result.aborted = True
            result.log.append({"epoch": epoch, "event": "aborted", "reason": "non-finite loss"})
            if result.best_epoch < 0:
                # Diverged before any validation pass: serve the init-state
                # checkpoint, whose 0/1 stored stats are the identity map.
                result.params.ready = True
            return result
        logits, _ = forward(x_train, params, mode="train")
        train_acc = float((logits.argmax(axis=1) == y_train).mean())
        val_acc = accuracy(params, x_val, y_val) if len(x_val) else train_acc
        result.log.append({"epoch": epoch, "lr": lr, "loss": float(np.mean(epoch_losses)),
                           "train_acc": train_acc, "val_acc": val_acc})
        if val_acc > result.best_val_acc or result.best_epoch < 0:
            result.best_val_acc = val_acc
            result.best_epoch = epoch
            result.params = params.copy()
    return result


def extract_selected_patches(
    manifest: DatasetManifest,
    grid: PatchGrid,
    selection: SelectionResult,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature tensor (N, M, p^3) of the selected patches plus the label vector.

    Patch order follows the selection ranking, so position embedding slot i
    always corresponds to the i-th ranked patch.
    """
    outside = [i for i in selection.chosen if i >= len(grid)]
    if outside:
        raise InvalidArgumentError(
            f"selected patch {outside[0]} is outside the grid of {len(grid)} patches"
        )
    regions = [grid.regions[i] for i in selection.chosen]
    feats = []
    labels = []
    for i in range(len(manifest.entries)):
        vol = manifest.load_volume(i)
        feats.append(np.stack([extract_patch(vol, r) for r in regions]))
        labels.append(manifest.entries[i][1])
    return np.asarray(feats, dtype=np.float32), np.asarray(labels, dtype=np.int64)


def stratified_split(
    labels: np.ndarray, fractions: tuple[float, ...], seed: int
) -> list[np.ndarray]:
    """Deterministic stratified partition of sample indices into len(fractions)+1 parts.

    ``fractions`` are the sizes of the leading parts; the remainder forms the
    last part. Each class is shuffled and split independently.
    """
    labels = np.asarray(labels)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 723))))
    parts: list[list[int]] = [[] for _ in range(len(fractions) + 1)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        start = 0
        for j, frac in enumerate(fractions):
            take = int(round(frac * len(idx)))
            parts[j].extend(idx[start : start + take])
            start += take
        parts[-1].extend(idx[start:])
    return [np.array(sorted(p), dtype=np.int64) for p in parts]
