"""Attribution engines: exact Shapley values, the recursive-partition estimator,
cohort averaging, and patch selection.

All engines use the same perturbation semantics: a coalition is the set of
regions left intact, and every region outside the coalition is zero-filled
before the predictor is queried. The designated scalar readout is the
predicted probability of class 1.

A predictor that reads out patch means over its own ``grid`` with a score
additive over patches declares it on its class as ``patch_terms`` (each
patch's term of the score) and ``predict_sums`` (the readout of score sums).
``recursive_attribution`` plays such a predictor on summed terms when that
grid's patches tile the leaves: zero-filling a node zeroes exactly its
patches' means, whose terms are 0, so a coalition's score is the sum of the
terms of the patches it keeps. One labelling of the patches per walk level
gives every child's term sum in one ``bincount``; the games of one player
count are then scored together, read out in one ``predict_sums`` call and
reduced together. Every other game, and every ``exact_shapley`` game,
queries one zero-filled volume per coalition and goes through the same
reduction.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .artifacts import load_artifact, typed, write_json
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    EmptyCohortError,
    InvalidArgumentError,
)
from .phantom import DatasetManifest
from .volume import PatchGrid, Region, Volume, _octree_split, make_grid, patch_means, perturb_zero

logger = logging.getLogger(__name__)

EXACT_SHAPLEY_MAX_REGIONS = 20
DEFAULT_CALL_BUDGET = 100_000

# Stand-in for an infinite t statistic when a patch has zero pooled variance
# but a nonzero mean difference.
T_STAT_SENTINEL = 1e30


class Predictor(Protocol):
    """Black-box classifier over volumes: predict() returns a 2-class probability vector."""

    def predict(self, v: Volume) -> np.ndarray: ...


def _checked_readouts(p, count: int) -> np.ndarray:
    """P(class 1) from ``count`` 2-class probability vectors, validating them.

    Finiteness and sum-to-one are enforced; the [0, 1] range is not, because
    the additive probes used as analytic oracles legitimately produce readouts
    outside it. A batch passes on one max of ``|p0 + p1 - 1|``, which any
    non-finite entry fails too; only a failing batch is searched for the cause.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size != 2 * count or p.shape[-1:] != (2,):
        raise ContractViolationError(
            f"predictor returned shape {p.shape}, expected {count} vector(s) of 2"
        )
    p0, p1 = p.reshape(count, 2).T
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, and fails
        off = np.abs(p0 + p1 - 1.0)
    if not off.max() <= 1e-6:
        if not np.all(np.isfinite(p)):
            raise ContractViolationError("predictor returned non-finite probabilities")
        raise ContractViolationError(
            f"probabilities sum to {(p0 + p1)[off > 1e-6][0]}, expected 1 within 1e-6"
        )
    return p1


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
    """The grid of the predictor's additive readout when it covers ``volume``, else None.

    The readout is looked up on the predictor's class: a proxy that overrides
    ``predict`` and forwards other attributes from an inner predictor stays
    opaque, so its own ``predict`` is what gets queried.
    """
    if not all(getattr(type(predictor), name, None) for name in ("patch_terms", "predict_sums")):
        return None
    grid = getattr(predictor, "grid", None)
    if not isinstance(grid, PatchGrid) or grid.vol_dims != volume.dims:
        return None
    return grid


def _patch_terms(predictor: Predictor, grid: PatchGrid, features: np.ndarray) -> np.ndarray:
    """The predictor's per-patch score terms of ``features``. Coalition scores
    leave zero-filled patches out, so the terms of all-zero means must be 0.0."""
    k = len(grid)
    zero, terms = (np.asarray(type(predictor).patch_terms(predictor, x), dtype=np.float64)
                   for x in (np.zeros(k), features))
    if zero.shape != (k,) or terms.shape != (k,) or np.any(zero != 0.0):
        raise ContractViolationError(
            f"patch_terms must map {k} patch means to {k} terms, each 0.0 where the mean is 0.0"
        )
    return terms


def _term_games(predictor: Predictor, base: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Shapley values (G, n) of G n-member games on summed terms.

    ``parts[g, i]`` is the term sum of game g's member i, the members being
    disjoint, and ``base[g]`` that of the patches no member covers. A
    coalition keeps its members' patches, so its score is ``base`` plus its
    members' parts: the scores are built one member at a time, each doubling
    the coalitions already scored, and the G 2^n scores are read out in one
    ``predict_sums`` call.
    """
    games, n = parts.shape
    scores = np.empty((games, 1 << n), dtype=np.float64)
    scores[:, 0] = base
    for i in range(n):
        np.add(scores[:, : 1 << i], parts[:, i, None], out=scores[:, 1 << i : 2 << i])
    readouts = _checked_readouts(type(predictor).predict_sums(predictor, scores.reshape(-1)), scores.size)
    return _shapley_from_readouts(readouts.reshape(games, 1 << n), n)


def _coalition_readouts(predictor: Predictor, volume: Volume, members: list[Region]) -> np.ndarray:
    """Readout of one zero-filled volume per coalition bitmask over ``members`` (2^n entries).

    Bit i set means member i stays intact; the members whose bit is clear are
    zero-filled, and the rest of the volume is never touched.
    """
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
    """Exact Shapley values (G, n) of G games from their (G, 2^n) coalition readouts.

    Player i's row lists each game's weighted marginal differences over the
    coalitions without i in ascending order. A game's readouts viewed as
    (2^(n-1-i), 2, 2^i) pair each coalition without i with the same
    coalition with i, so a row is one subtraction over all G games written
    into a C-contiguous (G, 2^(n-1)) buffer. Inserting a bit keeps the
    coalition size, so entry k's weight is that of mask k for every player:
    the row is weighted by one multiply with the first half of
    ``_coalition_weights``. Each difference is taken before it is weighted,
    so a null player's value is exactly 0.0, and each game's row is summed
    as one contiguous array, so its values do not depend on the games
    reduced beside it.
    """
    games, half = len(readouts), 1 << (n - 1)
    weights = _coalition_weights(n)[:half]
    row = np.empty((games, half), dtype=np.float64)
    values = np.empty((games, n), dtype=np.float64)
    for i in range(n):
        pairs = readouts.reshape(games, -1, 2, 1 << i)
        np.subtract(pairs[:, :, 1], pairs[:, :, 0], out=row.reshape(games, -1, 1 << i))
        row *= weights
        values[:, i] = row.sum(axis=1)
    return values


def exact_shapley(predictor: Predictor, volume: Volume, regions: list[Region]) -> np.ndarray:
    """Brute-force Shapley values over ``regions`` with a zero-fill baseline:
    the oracle the other engines are checked against.

    Costs exactly 2^n readouts, one zero-filled volume per coalition, for
    every predictor; refused above ``EXACT_SHAPLEY_MAX_REGIONS``.
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
    return _shapley_from_readouts(_coalition_readouts(predictor, volume, list(regions))[None], n)[0]


def sibling_shapley(predictor: Predictor, volume: Volume, siblings: list[Region]) -> np.ndarray:
    """``exact_shapley`` over one octree node's 1..8 children: the per-volume
    sibling game ``recursive_attribution`` plays at each node it splits."""
    if not 1 <= len(siblings) <= 8:
        raise InvalidArgumentError(f"sibling games support 1..8 regions, got {len(siblings)}")
    return exact_shapley(predictor, volume, siblings)


REFINE_RULES = ("refine_below", "refine_at_or_above")


def _rule_fires(rule: str, value: float, tau: float) -> bool:
    if rule == "refine_below":
        return value < tau
    if rule == "refine_at_or_above":
        return value >= tau
    raise InvalidArgumentError(f"unknown refinement rule {rule!r}")


@functools.lru_cache(maxsize=64)
def _owner_block(size: tuple[int, int, int]) -> np.ndarray:
    """(z, y, x) block over a node of ``size`` leaves: each leaf's child index."""
    owner = np.empty(size[::-1], dtype=np.intp)
    for c, ((x0, y0, z0), (cx, cy, cz)) in enumerate(_octree_split((0, 0, 0), size)):
        owner[z0 : z0 + cz, y0 : y0 + cy, x0 : x0 + cx] = c
    owner.setflags(write=False)  # shared by every caller through the cache
    return owner


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
    leaf indices, held as an ``(origin, size)`` tuple of ints and halved per
    axis as ``octree_children`` halves a region, and a sibling Shapley game is
    played among its children (level 1 splits the whole grid). A node is
    split further when it holds more than one leaf, the refinement rule fires
    on its value and its level is below ``max_depth``. Each leaf inherits the
    value of the deepest computed node containing it. A one-leaf grid plays a
    one-player game on that leaf. Remainder voxels past the last whole patch
    belong to no node and are never zero-filled.

    The tree is walked one level at a time on the calling thread. The nodes
    of one level are disjoint, so one labelling of the leaves carries every
    game of the level: ``8 g + c`` on child c of node g (one write of the
    cached :func:`_owner_block` per node), ``8 G`` on the leaves of no node.
    The level's values and leaf flags are written by one gather through it
    from a (G, 8) table. For a predictor with an additive readout over a grid
    of this volume whose patches tile the leaves, the volume's patch terms are
    computed once, here; the labelling, repeated onto that grid, sums them per
    child in one ``bincount``, and the games of one player count are played
    together on summed terms by :func:`_term_games`, with one ``predict_sums``
    call and no volume. Every other map plays a level's games in tree order,
    each with its children as voxel ``Region`` objects through
    :func:`sibling_shapley`: one zero-filled volume per coalition.
    ``threads`` is accepted for existing callers, is rejected below 1 and
    otherwise has no effect.

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
    scale = 0  # feature patches per leaf edge when they tile the leaves
    if feature_grid is not None and leaf_edge % feature_grid.patch_edge == 0:
        scale = leaf_edge // feature_grid.patch_edge
        terms = _patch_terms(predictor, feature_grid, patch_means(volume, feature_grid))
        total = terms.sum()
    nx, ny, nz = grid.counts
    values = np.empty((nz, ny, nx), dtype=np.float64)
    refined = np.zeros((nz, ny, nx), dtype=bool)
    evaluations = 0
    levels = 0
    # Nodes whose children play a game at the current level. Levels are
    # written in order, so a child's values overwrite its parent's.
    frontier = [((0, 0, 0), grid.counts)]
    while frontier:
        games = [_octree_split(origin, size) for origin, size in frontier]
        cost = sum(1 << len(children) for children in games)
        if evaluations + cost > budget:
            raise BudgetExceededError(
                f"attribution would need more than {budget} predictor calls"
            )
        levels += 1
        nodes, frontier = frontier, []
        unowned = 8 * len(nodes)
        owner = np.full((nz, ny, nx), unowned, dtype=np.intp)
        for g, ((x0, y0, z0), (sx, sy, sz)) in enumerate(nodes):
            owner[z0 : z0 + sz, y0 : y0 + sy, x0 : x0 + sx] = _owner_block((sx, sy, sz)) + 8 * g
        played = np.zeros((len(nodes), 8), dtype=np.float64)
        if scale:
            labels = np.full(feature_grid.counts[::-1], unowned, dtype=np.intp)
            labels[: nz * scale, : ny * scale, : nx * scale] = (
                owner.repeat(scale, 0).repeat(scale, 1).repeat(scale, 2))
            parts = np.bincount(labels.reshape(-1), weights=terms,
                                minlength=unowned + 1)[:unowned].reshape(-1, 8)
            sizes = np.array([len(children) for children in games])
            for n in np.unique(sizes).tolist():
                ids = np.flatnonzero(sizes == n)
                own = parts[ids, :n]
                played[ids, :n] = _term_games(predictor, total - own.sum(axis=1), own)
        else:
            for g, children in enumerate(games):
                played[g, : len(children)] = sibling_shapley(predictor, volume, [
                    Region((x * leaf_edge, y * leaf_edge, z * leaf_edge),
                           (cx * leaf_edge, cy * leaf_edge, cz * leaf_edge))
                    for (x, y, z), (cx, cy, cz) in children])
        leaf = np.zeros((len(nodes), 8), dtype=bool)
        for g, children in enumerate(games):
            leaf[g, : len(children)] = [size == (1, 1, 1) for _, size in children]
            if levels < max_depth:
                frontier += [child for child, value in zip(children, played[g].tolist())
                             if child[1] != (1, 1, 1) and _rule_fires(rule, value, tau)]
        written = owner < unowned
        child = owner[written]
        values[written], refined[written] = played.reshape(-1)[child], leaf.reshape(-1)[child]
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


SELECT_KEYS = ("magnitude", "value")


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
    features, labels = manifest.patch_means(grid), manifest.labels()
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
