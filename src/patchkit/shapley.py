"""Attribution engines: exact Shapley values, the recursive-partition estimator,
cohort averaging, and patch selection.

All engines use the same perturbation semantics: a coalition is the set of
regions left intact, and every region outside the coalition is zero-filled
before the predictor is queried. The designated scalar readout is the
predicted probability of class 1.

A predictor that reads out patch means over its own ``grid`` and whose class
defines ``predict_features`` (a batched readout over feature rows) is evaluated
in feature space when every region is a union of whole patches of that grid:
zero-filling a region zeroes exactly its patches' means, so a game's 2^n
coalitions become one feature matrix and one readout call. The volume's patch
means are computed once per map by ``recursive_attribution`` and handed to
every game; each game copies them into its 2^n rows and zeroes the absent
members' patches, keeping the rows one C-contiguous float64 array. Any other
predictor or region gets one zero-filled volume per coalition.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .artifacts import load_artifact, typed, write_json
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    EmptyCohortError,
    InvalidArgumentError,
)
from .phantom import DatasetManifest
from .surrogate import surrogate_features
from .volume import PatchGrid, Region, Volume, make_grid, octree_children, patch_means, perturb_zero

logger = logging.getLogger(__name__)

EXACT_SHAPLEY_MAX_REGIONS = 20
DEFAULT_CALL_BUDGET = 100_000

# Stand-in for an infinite t statistic when a patch has zero pooled variance
# but a nonzero mean difference.
T_STAT_SENTINEL = 1e30


@runtime_checkable
class Predictor(Protocol):
    """Black-box classifier over volumes: predict() returns a 2-class probability vector."""

    def predict(self, v: Volume) -> np.ndarray: ...


def _checked_readouts(p, count: int) -> np.ndarray:
    """P(class 1) from ``count`` 2-class probability vectors, validating them.

    Finiteness and sum-to-one are enforced; the [0, 1] range is not, because
    the additive probes used as analytic oracles legitimately produce readouts
    outside it.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size != 2 * count or p.shape[-1:] != (2,):
        raise ContractViolationError(
            f"predictor returned shape {p.shape}, expected {count} vector(s) of 2"
        )
    p = p.reshape(count, 2)
    if not np.all(np.isfinite(p)):
        raise ContractViolationError("predictor returned non-finite probabilities")
    sums = p.sum(axis=1)
    off = np.abs(sums - 1.0) > 1e-6
    if np.any(off):
        raise ContractViolationError(
            f"probabilities sum to {sums[off][0]}, expected 1 within 1e-6"
        )
    return p[:, 1]


@dataclass
class AttributionMap:
    """Per-leaf Shapley estimates over a patch grid, with recursion bookkeeping.

    ``refined_mask[i]`` is True when leaf i's value came from a computation at
    leaf size, False when it was inherited from a coarser node.
    """

    grid: PatchGrid
    values: np.ndarray
    evaluations: int
    refined_mask: np.ndarray
    tau: float
    rule: str
    levels: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        self.refined_mask = np.asarray(self.refined_mask, dtype=bool).reshape(-1)
        if self.values.size != len(self.grid) or self.refined_mask.size != len(self.grid):
            raise InvalidArgumentError("values/refined_mask length must equal grid leaf count")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("attribution values must be finite")

    def to_json(self) -> dict:
        return {
            "grid": self.grid.to_json(),
            "values": self.values.tolist(),
            "evaluations": self.evaluations,
            "refined_mask": [bool(b) for b in self.refined_mask],
            "tau": self.tau,
            "rule": self.rule,
            "levels": self.levels,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AttributionMap":
        return cls(
            grid=PatchGrid.from_json(typed(obj, "grid", dict)),
            values=np.array(typed(obj, "values", list[float]), dtype=np.float64),
            evaluations=typed(obj, "evaluations", int),
            refined_mask=np.array(typed(obj, "refined_mask", list[bool]), dtype=bool),
            tau=float(typed(obj, "tau", float)),
            rule=typed(obj, "rule", str),
            levels=typed(obj, "levels", int, 0),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "AttributionMap":
        return load_artifact(path, cls.from_json)


def is_perfect_square(m: int) -> bool:
    return m >= 1 and math.isqrt(m) ** 2 == m


@dataclass
class SelectionResult:
    """Ordered patch choice: ``chosen`` holds leaf indices, best first."""

    chosen: list[int]
    method: str
    scores: np.ndarray

    def __post_init__(self):
        self.chosen = [int(i) for i in self.chosen]
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(set(self.chosen)) != len(self.chosen):
            raise InvalidArgumentError("selected indices must be unique")
        for k, i in enumerate(self.chosen):
            if i < 0:
                raise InvalidArgumentError(f"chosen[{k}]: selected index must be non-negative, got {i}")
        if not is_perfect_square(len(self.chosen)):
            raise InvalidArgumentError(
                f"selection size must be a perfect square, got {len(self.chosen)}"
            )
        if self.scores.size != len(self.chosen):
            raise InvalidArgumentError("scores length must match chosen length")

    @property
    def side(self) -> int:
        return math.isqrt(len(self.chosen))

    def to_json(self) -> dict:
        return {"chosen": self.chosen, "method": self.method, "scores": self.scores.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "SelectionResult":
        return cls(
            typed(obj, "chosen", list[int]),
            typed(obj, "method", str),
            np.array(typed(obj, "scores", list[float]), dtype=np.float64),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "SelectionResult":
        return load_artifact(path, cls.from_json)


def _feature_grid(predictor: Predictor, volume: Volume) -> PatchGrid | None:
    """The grid of the predictor's feature readout when it covers ``volume``, else None.

    The readout is looked up on the predictor's class: a proxy that overrides
    ``predict`` and forwards other attributes from an inner predictor stays
    opaque, so its own ``predict`` is what gets queried.
    """
    if getattr(type(predictor), "predict_features", None) is None:
        return None
    grid = getattr(predictor, "grid", None)
    if not isinstance(grid, PatchGrid) or grid.vol_dims != volume.dims:
        return None
    return grid


def _patch_box(grid: PatchGrid, r: Region) -> tuple[slice, slice, slice] | None:
    """(z, y, x) slices of the grid patches tiling ``r``; None unless ``r`` is a
    union of whole patches."""
    p = grid.patch_edge
    if any(o % p or e % p or e > c * p for o, e, c in zip(r.origin, r.end, grid.counts)):
        return None
    (x0, y0, z0), (x1, y1, z1) = (tuple(c // p for c in corner) for corner in (r.origin, r.end))
    return slice(z0, z1), slice(y0, y1), slice(x0, x1)


def _feature_readouts(
    predictor: Predictor, volume: Volume, members: list[Region], *, features: np.ndarray | None = None
) -> np.ndarray | None:
    """Every coalition's readout from one ``predict_features`` call, or None.

    None means the per-volume path must run: the predictor has no feature
    readout over a grid of this volume (:func:`_feature_grid`), or some region
    is not a union of whole patches of that grid. ``features`` is the volume's
    ``patch_means`` over that grid, computed here when None;
    ``recursive_attribution`` computes it once per map and passes it to every
    game.

    Row ``mask`` of the feature matrix is ``features`` with the patches of the
    members whose bit is clear set to 0.0, which are the same bits
    ``patch_means`` gives for the zero-filled volume (a patch two absent
    members cover is zeroed twice). The rows are built as one C-contiguous
    float64 array filled from ``features``, then zeroed member by member
    through strided views, so the readout sees one memory layout whatever
    the game.
    """
    grid = _feature_grid(predictor, volume)
    if grid is None:
        return None
    if features is None:
        features = patch_means(volume, grid)
    elif np.shape(features) != (len(grid),):
        raise InvalidArgumentError(
            f"features has shape {np.shape(features)}, expected ({len(grid)},) for the predictor's grid"
        )
    boxes = [_patch_box(grid, r) for r in members]
    if any(b is None for b in boxes):
        return None
    n = len(members)
    nx, ny, nz = grid.counts
    rows = np.empty((1 << n, len(grid)), dtype=np.float64)
    rows[...] = features
    for i, (zs, ys, xs) in enumerate(boxes):
        # Coalition masks as (high bits, bit i, low bits): [:, 0] are those without member i.
        rows.reshape(-1, 2, 1 << i, nz, ny, nx)[:, 0, :, zs, ys, xs] = 0.0
    return _checked_readouts(type(predictor).predict_features(predictor, rows), 1 << n)


def _coalition_readouts(
    predictor: Predictor, volume: Volume, members: list[Region], *, features: np.ndarray | None = None
) -> np.ndarray:
    """Readout for every coalition bitmask over ``members`` (2^n entries).

    Bit i set means member i stays intact; the members whose bit is clear are
    zero-filled, and the rest of the volume is never touched. ``features`` is
    passed to :func:`_feature_readouts`.
    """
    batched = _feature_readouts(predictor, volume, members, features=features)
    if batched is not None:
        return batched
    n = len(members)

    def evaluate(mask: int) -> float:
        absent = [members[i] for i in range(n) if not (mask >> i) & 1]
        return _checked_readouts(predictor.predict(perturb_zero(volume, absent)), 1)[0]

    return np.array([evaluate(m) for m in range(1 << n)], dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _coalition_weights(n: int) -> np.ndarray:
    """Shapley weight |C|!(n-|C|-1)!/n! of each coalition bitmask C (0 for the grand coalition)."""
    by_size = [math.factorial(c) * math.factorial(n - c - 1) / math.factorial(n) for c in range(n)]
    by_size.append(0.0)
    weights = np.array([by_size[mask.bit_count()] for mask in range(1 << n)])
    weights.setflags(write=False)  # shared by every caller through the cache
    return weights


def _shapley_from_readouts(readouts: np.ndarray, n: int) -> np.ndarray:
    """Exact Shapley values from a full coalition-readout table.

    Viewing the table as (2^(n-1-i), 2, 2^i) puts every coalition without
    player i against the same coalition with i along the middle axis. Each
    marginal difference is taken before it is weighted, so a null player's
    value is exactly 0.0, and the weighted differences are summed in a fixed
    order, so the result is reproducible.
    """
    weights = _coalition_weights(n)
    values = np.empty(n, dtype=np.float64)
    for i in range(n):
        pairs = readouts.reshape(-1, 2, 1 << i)
        values[i] = (weights.reshape(-1, 2, 1 << i)[:, 0] * (pairs[:, 1] - pairs[:, 0])).sum()
    return values


def exact_shapley(
    predictor: Predictor, volume: Volume, regions: list[Region], *, features: np.ndarray | None = None
) -> np.ndarray:
    """Brute-force Shapley values over ``regions`` with a zero-fill baseline.

    Costs exactly 2^n predictor calls; refused above ``EXACT_SHAPLEY_MAX_REGIONS``.
    ``features`` optionally gives the volume's patch means over a feature
    predictor's grid, so a caller playing many games on one volume computes
    them once; a vector of the wrong length is rejected.
    """
    n = len(regions)
    if n == 0:
        raise InvalidArgumentError("at least one region is required")
    if n > EXACT_SHAPLEY_MAX_REGIONS:
        raise BudgetExceededError(
            f"exact Shapley over {n} regions needs 2^{n} predictor calls "
            f"(cap {EXACT_SHAPLEY_MAX_REGIONS})"
        )
    for r in regions:
        if not volume.contains(r):
            raise InvalidArgumentError(f"region {r} outside volume dims {volume.dims}")
    readouts = _coalition_readouts(predictor, volume, list(regions), features=features)
    return _shapley_from_readouts(readouts, n)


def sibling_shapley(
    predictor: Predictor, volume: Volume, siblings: list[Region], *, features: np.ndarray | None = None
) -> np.ndarray:
    """``exact_shapley`` over one octree node's 1..8 children: the sibling game
    ``recursive_attribution`` plays at each node it splits."""
    if not 1 <= len(siblings) <= 8:
        raise InvalidArgumentError(f"sibling games support 1..8 regions, got {len(siblings)}")
    return exact_shapley(predictor, volume, siblings, features=features)


def _rule_fires(rule: str, value: float, tau: float) -> bool:
    if rule == "refine_below":
        return value < tau
    if rule == "refine_at_or_above":
        return value >= tau
    raise InvalidArgumentError(f"unknown refinement rule {rule!r}")


def recursive_attribution(
    predictor: Predictor,
    volume: Volume,
    leaf_edge: int,
    tau: float,
    rule: str = "refine_below",
    *,
    max_depth: int = 3,
    budget: int = DEFAULT_CALL_BUDGET,
    threads: int = 1,
) -> AttributionMap:
    """Hierarchical perturbation attribution down to a uniform leaf grid.

    The octree splits the patch grid, not the voxels: a node is a block of
    leaf indices, halved per axis by ``octree_children``, and a sibling Shapley
    game is played among the voxel regions its children cover (level 1 splits
    the whole grid). A node is split further when it holds more than one leaf,
    the refinement rule fires on its value and its level is below
    ``max_depth``. Each leaf inherits the value of the deepest computed node
    containing it. A one-leaf grid plays a one-player game on that leaf.
    Remainder voxels past the last whole patch belong to no node and are never
    zero-filled.

    The tree is walked one level at a time, and a level's games are played in
    tree order on the calling thread. For a predictor with a feature readout
    over a grid of this volume, the volume's patch means are computed once,
    here, and every game builds its coalition rows from them. ``threads`` is
    accepted for existing callers, is rejected below 1 and otherwise has no
    effect.

    ``tau`` may be +/-inf (forcing one rule to always or never fire); NaN is
    rejected. A level whose games would take the map past ``budget`` predictor
    calls aborts the whole map before any of them is played.
    """
    if math.isnan(tau):
        raise InvalidArgumentError("tau must not be NaN")
    if max_depth < 1:
        raise InvalidArgumentError("max_depth must be >= 1")
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    _rule_fires(rule, 0.0, 0.0)  # validate rule name early
    grid = make_grid(volume.dims, leaf_edge)
    feature_grid = _feature_grid(predictor, volume)
    features = None if feature_grid is None else patch_means(volume, feature_grid)
    nx, ny, nz = grid.counts
    values = np.empty((nz, ny, nx), dtype=np.float64)
    refined = np.zeros((nz, ny, nx), dtype=bool)
    leaf = (1, 1, 1)
    evaluations = 0
    levels = 0
    # Nodes whose children play a game at the current level. Levels are
    # written in order, so a child's values overwrite its parent's.
    frontier = [Region((0, 0, 0), grid.counts)]
    while frontier:
        games = [octree_children(node) if node.size != leaf else [node] for node in frontier]
        cost = sum(1 << len(children) for children in games)
        if evaluations + cost > budget:
            raise BudgetExceededError(
                f"attribution would need more than {budget} predictor calls"
            )
        levels += 1
        frontier = []
        for children in games:
            siblings = [
                Region([o * leaf_edge for o in c.origin], [s * leaf_edge for s in c.size])
                for c in children
            ]
            game = sibling_shapley(predictor, volume, siblings, features=features)
            for child, value in zip(children, game):
                (x0, y0, z0), (x1, y1, z1) = child.origin, child.end
                is_leaf = child.size == leaf
                values[z0:z1, y0:y1, x0:x1] = value
                refined[z0:z1, y0:y1, x0:x1] = is_leaf
                if not is_leaf and levels < max_depth and _rule_fires(rule, value, tau):
                    frontier.append(child)
        evaluations += cost
    return AttributionMap(
        grid=grid,
        values=values,
        evaluations=evaluations,
        refined_mask=refined,
        tau=tau,
        rule=rule,
        levels=levels,
    )


def cohort_average(maps: list[AttributionMap]) -> AttributionMap:
    """Element-wise mean of the maps; evaluation counts are summed.

    A leaf stays flagged as leaf-level refined only if every map refined it.
    """
    if not maps:
        raise EmptyCohortError("no attribution maps to average")
    first = maps[0]
    for m in maps[1:]:
        if m.grid.to_json() != first.grid.to_json():
            raise InvalidArgumentError("cohort maps must share one grid")
    values = np.mean([m.values for m in maps], axis=0)
    refined = np.logical_and.reduce([m.refined_mask for m in maps])
    return AttributionMap(
        grid=first.grid,
        values=values,
        evaluations=sum(m.evaluations for m in maps),
        refined_mask=refined,
        tau=first.tau,
        rule=first.rule,
        levels=max(m.levels for m in maps),
    )


def _top(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of the ``m`` highest scores, best first. The stable sort breaks ties
    by ascending index, so a top-m is the first m entries of every larger top-M."""
    return np.argsort(-scores, kind="stable")[:m]


def select_top(attribution: AttributionMap, m_patches: int, *, key: str = "magnitude") -> SelectionResult:
    """Pick the ``m_patches`` highest-ranked leaves, ties broken by ascending index.

    ``key="magnitude"`` ranks by |value| (the default: with a zero-fill
    baseline the most discriminative patches can carry strongly negative
    attributions, and magnitude mirrors the |t| ranking of the t-test
    selector). ``key="value"`` ranks by the raw signed value.
    """
    if not is_perfect_square(m_patches):
        raise InvalidArgumentError(f"M must be a perfect square, got {m_patches}")
    if m_patches > len(attribution.grid):
        raise InvalidArgumentError(
            f"M={m_patches} exceeds leaf count {len(attribution.grid)}"
        )
    if key == "magnitude":
        scores = np.abs(attribution.values)
    elif key == "value":
        scores = attribution.values
    else:
        raise InvalidArgumentError(f"unknown ranking key {key!r}")
    chosen = _top(scores, m_patches)
    return SelectionResult(chosen=chosen, method="shap", scores=scores[chosen])


def ttest_select(manifest: DatasetManifest, grid: PatchGrid, m_patches: int) -> SelectionResult:
    """Two-sample pooled-variance t-test selection on per-patch mean intensities.

    Patches are ranked by |t| descending (monotone with ascending p at fixed
    df). Zero pooled variance with a zero mean difference yields t = 0; with a
    nonzero difference the statistic saturates at a large finite sentinel.
    """
    if not is_perfect_square(m_patches):
        raise InvalidArgumentError(f"M must be a perfect square, got {m_patches}")
    if m_patches > len(grid):
        raise InvalidArgumentError(f"M={m_patches} exceeds patch count {len(grid)}")
    features, labels = surrogate_features(manifest, grid)
    x1 = features[labels == 1]
    x0 = features[labels == 0]
    if len(x1) < 2 or len(x0) < 2:
        raise InvalidArgumentError("need >= 2 samples per class for the t-test")
    n1, n0 = len(x1), len(x0)
    diff = x1.mean(axis=0) - x0.mean(axis=0)
    pooled = ((n1 - 1) * x1.var(axis=0, ddof=1) + (n0 - 1) * x0.var(axis=0, ddof=1)) / (
        n1 + n0 - 2
    )
    denom = np.sqrt(pooled * (1.0 / n1 + 1.0 / n0))
    t = np.zeros(len(grid), dtype=np.float64)
    ok = denom > 0
    t[ok] = diff[ok] / denom[ok]
    degenerate = ~ok & (diff != 0)
    if np.any(~ok):
        logger.warning(
            "%d patches with zero pooled variance (%d clamped to sentinel)",
            int((~ok).sum()),
            int(degenerate.sum()),
        )
    t[degenerate] = np.sign(diff[degenerate]) * T_STAT_SENTINEL
    mag = np.abs(t)
    chosen = _top(mag, m_patches)
    return SelectionResult(chosen=chosen, method="ttest", scores=mag[chosen])
