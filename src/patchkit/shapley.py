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
terms of the patches it keeps. A game labels each patch with the bitmask of
the members covering it, and its 2^n coalition scores are subset sums of the
per-label term sums. The games of one walk level with one player count are
played together: one ``bincount`` over their labels, one subset-sum pass per
member, one ``predict_sums`` call, one readout check and one Shapley
reduction; then each node gets one write of its values and leaf flags. Every
other game, and every ``exact_shapley`` game, queries one zero-filled volume
per coalition and goes through the same reduction.
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
# Shapley terms held at once by the reduction.
_REDUCTION_BLOCK = 1 << 15
# Patch labels written at once by a walk level's summed-term games.
_LABEL_BLOCK = 1 << 14
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


def _term_games(predictor: Predictor, terms: np.ndarray, label_blocks, n: int) -> np.ndarray:
    """Shapley values (G, n) of G n-member games on summed ``terms``.

    ``label_blocks`` yields (g, K) blocks of patch labels, one row per game:
    each patch's label is the bitmask of the members covering it. A coalition
    keeps the patches whose label is a subset of it, so its score is the sum
    of the per-label term sums over those subsets. A block's rows are offset
    in place by ``g << n``, so one ``bincount`` sums the terms per (game,
    label); the subset sums are one zeta pass per member over all G games,
    and the G 2^n scores are read out in one ``predict_sums`` call.
    """
    scores = []
    for labels in label_blocks:
        labels += np.arange(len(labels))[:, None] << n
        scores.append(np.bincount(labels.reshape(-1), weights=np.tile(terms, len(labels)),
                                  minlength=len(labels) << n))
    scores = np.concatenate(scores)
    for i in range(n):
        pairs = scores.reshape(-1, 2, 1 << i)  # [:, 1] are the coalitions holding member i
        np.add(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    readouts = _checked_readouts(type(predictor).predict_sums(predictor, scores), len(scores))
    return _shapley_from_readouts(readouts.reshape(-1, 1 << n), n)


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

    Row (g, i) of the term table lists game g's player i's weighted marginal
    differences over the coalitions without i in ascending order. A game's
    readouts viewed as (2^(n-1-i), 2, 2^i) pair each coalition without i with
    the same coalition with i, so a row is one subtraction written into the
    table. Inserting a bit keeps the coalition size, so entry k's weight is
    that of mask k for every player: a block is weighted by one multiply with
    the first half of ``_coalition_weights``. Each difference is taken before
    it is weighted, so a null player's value is exactly 0.0, and each row is
    summed as one contiguous array, so a game's values do not depend on the
    games reduced beside it. A block holds at most ``_REDUCTION_BLOCK`` terms,
    or one row of a game of more than 16 players.
    """
    half = 1 << (n - 1)
    weights = _coalition_weights(n)[:half]
    rows = min(n, max(1, _REDUCTION_BLOCK // half))
    games = max(1, _REDUCTION_BLOCK // (rows * half))
    table = np.empty(min(games, len(readouts)) * rows * half, dtype=np.float64)
    values = np.empty((len(readouts), n), dtype=np.float64)
    for g in range(0, len(readouts), games):
        part = readouts[g : g + games]
        for first in range(0, n, rows):
            players = min(rows, n - first)
            # A C-contiguous prefix of the table, so each row sums as one array.
            block = table[: len(part) * players * half].reshape(len(part), players, half)
            for i in range(first, first + players):
                pairs = part.reshape(len(part), -1, 2, 1 << i)
                np.subtract(pairs[:, :, 1], pairs[:, :, 0],
                            out=block[:, i - first].reshape(len(part), -1, 1 << i))
            block *= weights
            values[g : g + len(part), first : first + players] = block.sum(axis=2)
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
def _owner_block(size: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(z, y, x) blocks over a node of ``size`` leaves: each leaf's child index and leaf flag."""
    children = _octree_split((0, 0, 0), size)
    owner = np.empty(size[::-1], dtype=np.intp)
    for c, ((x0, y0, z0), (cx, cy, cz)) in enumerate(children):
        owner[z0 : z0 + cz, y0 : y0 + cy, x0 : x0 + cx] = c
    flags = np.array([child == (1, 1, 1) for _, child in children])[owner]
    owner.setflags(write=False)  # shared by every caller through the cache
    flags.setflags(write=False)
    return owner, flags


@functools.lru_cache(maxsize=64)
def _label_block(size: tuple[int, int, int], scale: int) -> np.ndarray:
    """(z, y, x) block over a node of ``size`` leaves of ``scale``^3 patches
    each: every patch's label, 1 << its child index."""
    block = np.kron(1 << _owner_block(size)[0], np.ones((scale,) * 3, dtype=np.intp))
    block.setflags(write=False)  # shared by every caller through the cache
    return block


def _term_level(predictor: Predictor, terms: np.ndarray, counts: tuple[int, int, int], scale: int,
                nodes: list, games: list) -> list[np.ndarray]:
    """Each game's Shapley values, in tree order, for one walk level of
    ``nodes`` and their children's ``games`` on summed ``terms`` over a grid
    of (x, y, z) patch ``counts``, ``scale`` patches per leaf edge. The games
    of one player count are played together by :func:`_term_games`, their
    labels written ``_LABEL_BLOCK`` entries at a time: each node's patches
    take one write of a cached block (:func:`_label_block`), the rest stay 0."""
    by_size: dict[int, list[int]] = {}
    for g, children in enumerate(games):
        by_size.setdefault(len(children), []).append(g)
    step = max(1, _LABEL_BLOCK // len(terms))

    def label_blocks(ids):
        for start in range(0, len(ids), step):
            chunk = ids[start : start + step]
            labels = np.zeros((len(chunk), *counts[::-1]), dtype=np.intp)
            for block, g in zip(labels, chunk):
                (x0, y0, z0), (sx, sy, sz) = nodes[g]
                block[z0 * scale : (z0 + sz) * scale, y0 * scale : (y0 + sy) * scale,
                      x0 * scale : (x0 + sx) * scale] = _label_block((sx, sy, sz), scale)
            yield labels.reshape(len(labels), -1)

    played = [None] * len(games)
    for n, ids in by_size.items():
        for g, values in zip(ids, _term_games(predictor, terms, label_blocks(ids), n)):
            played[g] = values
    return played


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
    value of the deepest computed node containing it: a game writes its
    children's values and leaf flags over the node's box through a cached
    block of child indices (:func:`_owner_block`). A one-leaf grid plays a
    one-player game on that leaf. Remainder voxels past the last whole patch
    belong to no node and are never zero-filled.

    The tree is walked one level at a time on the calling thread. For a
    predictor with an additive readout over a grid of this volume whose
    patches tile the leaves, the volume's patch terms are computed once, here,
    and each level's games are played on summed terms by :func:`_term_level`:
    the games of one player count together, with one ``predict_sums`` call
    and no volume. Every other map, including one over a predictor whose grid
    does not tile the leaves, plays a level's games in tree order, each with
    its children as voxel ``Region`` objects through :func:`sibling_shapley`:
    one zero-filled volume per coalition.
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
        if scale:
            played = _term_level(predictor, terms, feature_grid.counts, scale, nodes, games)
        else:
            played = [sibling_shapley(predictor, volume, [
                Region((x * leaf_edge, y * leaf_edge, z * leaf_edge),
                       (cx * leaf_edge, cy * leaf_edge, cz * leaf_edge))
                for (x, y, z), (cx, cy, cz) in children]) for children in games]
        for ((x0, y0, z0), (sx, sy, sz)), children, game in zip(nodes, games, played):
            owner, flags = _owner_block((sx, sy, sz))
            box = slice(z0, z0 + sz), slice(y0, y0 + sy), slice(x0, x0 + sx)
            values[box], refined[box] = game[owner], flags
            if levels < max_depth:
                frontier += [child for child, value in zip(children, game.tolist())
                             if child[1] != (1, 1, 1) and _rule_fires(rule, value, tau)]
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
