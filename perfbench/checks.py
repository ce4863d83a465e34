"""Output checks for the benchmark's operations and the quality figures.

A map or fit that fails any check counts as a failed operation, exactly like
one that raised.
"""
from __future__ import annotations

import math

import numpy as np

from patchkit import volume as pk_volume

# Sum of leaf values against f(v) - f(v with the parent zero-filled); the
# parent commit met this to 3e-17 on both predictors.
EFFICIENCY_TOL = 1e-9
SIBLINGS = 8  # octree children per split


def expected_readouts(max_depth: int) -> int:
    """Predictor readouts for a map refined fully to ``max_depth`` levels.

    Level l plays 8^(l-1) sibling games of 2^8 coalitions each: 18,688 readouts
    for three levels (73 games), 2,304 for two (9 games).
    """
    games = sum(SIBLINGS**level for level in range(max_depth))
    return games * (1 << SIBLINGS)


def readout(predictor, volume) -> float:
    return float(np.asarray(predictor.predict(volume), dtype=np.float64).reshape(-1)[1])


def efficiency_gap(amap, predictor, volume) -> float:
    """Largest efficiency violation over the 2x2x2 blocks of sibling leaves.

    For each block, the leaf values of one sibling game must sum to
    f(v) - f(v with the block's parent region zero-filled). Costs one readout
    per block plus one for f(v).
    """
    grid = amap.grid
    nx, ny, nz = grid.counts
    if nx % 2 or ny % 2 or nz % 2:
        return math.inf
    edge = grid.patch_edge
    values = amap.values.reshape(nz, ny, nx)
    full = readout(predictor, volume)
    worst = 0.0
    for bz in range(0, nz, 2):
        for by in range(0, ny, 2):
            for bx in range(0, nx, 2):
                parent = pk_volume.Region((bx * edge, by * edge, bz * edge), (2 * edge,) * 3)
                empty = readout(predictor, pk_volume.perturb_zero(volume, [parent]))
                block = values[bz : bz + 2, by : by + 2, bx : bx + 2]
                worst = max(worst, abs(float(block.sum()) - (full - empty)))
    return worst


def check_map(amap, predictor, volume, max_depth: int) -> list[str]:
    """Problems with one fully refined attribution map; empty when it passes."""
    problems = []
    expected = expected_readouts(max_depth)
    if amap.evaluations != expected:
        problems.append(f"{amap.evaluations} readouts, expected {expected}")
    if not np.all(np.isfinite(amap.values)):
        problems.append("non-finite attribution values")
    if not np.all(amap.refined_mask):
        problems.append(f"{int((~amap.refined_mask).sum())} leaves not refined")
    gap = efficiency_gap(amap, predictor, volume)
    if not gap <= EFFICIENCY_TOL:
        problems.append(f"efficiency identity off by {gap:.3g}")
    return problems


def check_fit(result, test_auc: float, auc_floor: float) -> list[str]:
    """Problems with one training run; empty when it passes."""
    problems = []
    if result.aborted:
        problems.append("training aborted on a non-finite loss")
    losses = [r["loss"] for r in result.log if "loss" in r]
    if not losses or not math.isfinite(losses[-1]):
        problems.append("no finite final training loss")
    if not test_auc > auc_floor:
        problems.append(f"test AUC {test_auc:.3f} not above {auc_floor}")
    return problems


def lesion_recall(amap, lesions) -> float:
    """Share of lesion-intersecting leaves among the top-k |value| leaves.

    k is the number of lesion-intersecting leaves; ties go to the lower index,
    as in ``patchkit.shapley.select_top``.
    """
    hit = {i for r in lesions for i in amap.grid.indices_intersecting(r)}
    scores = np.abs(amap.values)
    top = sorted(range(scores.size), key=lambda i: (-scores[i], i))[: len(hit)]
    return len(hit.intersection(top)) / len(hit)
