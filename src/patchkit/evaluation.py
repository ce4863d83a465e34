"""Binary classification metrics, ROC/AUC, and the repeated k-fold harness.

Conventions: label 1 is the positive class and a score >= 0.5 counts as a
positive prediction. Sensitivity (specificity) is NaN, never a silent 0, when
there are no positives (negatives) to score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .errors import InvalidArgumentError, UndefinedMetricError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class EvalReport:
    counts: ConfusionCounts
    acc: float
    sen: float
    spe: float
    roc: list[tuple[float, float]]
    auc: float
    folds: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "counts": {"tp": self.counts.tp, "tn": self.counts.tn,
                       "fp": self.counts.fp, "fn": self.counts.fn},
            "acc": self.acc,
            "sen": self.sen,
            "spe": self.spe,
            "roc": [[x, y] for x, y in self.roc],
            "auc": self.auc,
            "folds": self.folds,
            "summary": self.summary,
        }

    def save(self, path) -> None:
        write_json(path, self.to_json())


def _check_labels_scores(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.size == 0:
        raise InvalidArgumentError("labels/scores must be nonempty")
    if labels.size != scores.size:
        raise InvalidArgumentError(f"{labels.size} labels vs {scores.size} scores")
    if not np.all((labels == 0) | (labels == 1)):
        raise InvalidArgumentError("labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):
        raise InvalidArgumentError("scores must be finite")
    return labels, scores


def metrics(labels, scores) -> tuple[ConfusionCounts, float, float, float]:
    """Confusion counts plus ACC/SEN/SPE at score threshold 0.5."""
    labels, scores = _check_labels_scores(labels, scores)
    pred = scores >= 0.5
    pos = labels == 1
    counts = ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )
    acc = (counts.tp + counts.tn) / counts.total
    sen = counts.tp / (counts.tp + counts.fn) if (counts.tp + counts.fn) else math.nan
    spe = counts.tn / (counts.tn + counts.fp) if (counts.tn + counts.fp) else math.nan
    return counts, acc, sen, spe


def auc(labels, scores) -> float:
    """Area under the ROC via the rank (Mann-Whitney) formulation, ties at 0.5.

    Equivalent to trapezoidal integration over all distinct score thresholds.
    """
    labels, scores = _check_labels_scores(labels, scores)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    # 1-based average rank of each distinct score: a tie group ending at rank
    # ``end`` with ``count`` members spans ranks end - count + 1 .. end.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (0.5 * (2 * ends - counts + 1))[group]
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_points(labels, scores) -> list[tuple[float, float]]:
    """(FPR, TPR) at every distinct threshold, descending, ends pinned to (0,0)/(1,1)."""
    labels, scores = _check_labels_scores(labels, scores)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs both classes present")
    points = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tpr = float(np.sum(pred & (labels == 1))) / n_pos
        fpr = float(np.sum(pred & (labels == 0))) / n_neg
        points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def evaluate_scores(labels, scores) -> EvalReport:
    """Single-split report: threshold-0.5 metrics plus the full ROC and AUC."""
    counts, acc, sen, spe = metrics(labels, scores)
    return EvalReport(
        counts=counts, acc=acc, sen=sen, spe=spe,
        roc=roc_points(labels, scores), auc=auc(labels, scores),
    )


def kfold_indices(
    labels, k: int = 5, repeats: int = 10, seed: int = 0, stratified: bool = True
) -> list[list[np.ndarray]]:
    """Test-fold index arrays for ``repeats`` seeded shuffles of k folds.

    Each repeat shuffles every index group and deals it round-robin into the
    folds. Stratified folds use one group per class, which keeps class
    proportions within one sample; the plain variant uses one group of all
    samples.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if k < 2:
        raise InvalidArgumentError("k must be >= 2")
    if stratified:
        groups = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    else:
        groups = [np.arange(labels.size)]
    smallest = min((len(g) for g in groups), default=0)
    if k > smallest:
        what = "smallest class size" if stratified else "sample count"
        raise InvalidArgumentError(f"k={k} exceeds the {what} {smallest}")
    all_repeats = []
    for rep in range(repeats):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))
        dealt = [g[rng.permutation(len(g))] for g in groups]
        all_repeats.append(
            [np.sort(np.concatenate([idx[f::k] for idx in dealt])) for f in range(k)]
        )
    return all_repeats


def aggregate_folds(fold_reports: list[dict]) -> dict:
    """Mean and sample std (ddof=1) of each metric across fold reports."""
    if not fold_reports:
        raise InvalidArgumentError("no fold reports to aggregate")
    summary = {}
    for key in ("acc", "sen", "spe", "auc"):
        vals = np.array([r[key] for r in fold_reports], dtype=np.float64)
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            summary[key] = {"mean": math.nan, "std": math.nan}
        else:
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            summary[key] = {"mean": float(vals.mean()), "std": std}
    return summary


def write_roc_csv(path, roc: list[tuple[float, float]]) -> None:
    lines = ["fpr,tpr"] + [f"{x:.10g},{y:.10g}" for x, y in roc]
    Path(path).write_text("\n".join(lines) + "\n")
