import json
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import patchkit as pk
from patchkit import shapley
from patchkit.errors import (
    BudgetExceededError,
    ContractViolationError,
    EmptyCohortError,
    InvalidArgumentError,
)
from patchkit.shapley import T_STAT_SENTINEL, _shapley_from_readouts, _top
from patchkit.surrogate import SurrogateParams, SurrogatePredictor

from conftest import (
    DELETE,
    CountingPredictor,
    InteractionProbe,
    LogisticRegionProbe,
    RegionMeanProbe,
    break_artifact,
    volume_with_region_means,
)


# Score draws that tie often, including both signed zeros.
TIE_HEAVY_SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e30]) | st.floats(
    allow_nan=False, allow_infinity=False
)


class ConstantPredictor:
    def __init__(self, p1=0.7):
        self.p1 = p1

    def predict(self, v):
        return np.array([1.0 - self.p1, self.p1])


def three_region_setup():
    dims = (4, 4, 4)
    grid = pk.make_grid(dims, 2)
    regions = [grid.regions[0], grid.regions[1], grid.regions[2]]
    v = volume_with_region_means(dims, regions, [1.0, 1.0, 0.5])
    return v, regions


class TestExactShapley:
    def test_constant_predictor_is_null_everywhere(self):
        v, regions = three_region_setup()
        values = pk.exact_shapley(ConstantPredictor(), v, regions)
        assert np.all(values == 0.0)

    def test_additive_probe_matches_analytic_marginals(self):
        # Analytic oracle: for f = sum w_i * mean_i with zero baseline,
        # S_i = w_i * mean_i.
        v, regions = three_region_setup()
        probe = RegionMeanProbe(regions, [0.2, -0.1, 0.4])
        values = pk.exact_shapley(probe, v, regions)
        assert np.allclose(values, [0.2, -0.1, 0.2], atol=1e-6)

    def test_efficiency_axiom_n8(self):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        regions = list(grid.regions)
        rng = np.random.default_rng(11)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        probe = LogisticRegionProbe(regions, rng.normal(0, 0.5, 8), bias=0.2)
        values = pk.exact_shapley(probe, v, regions)
        full = probe.predict(v)[1]
        empty = probe.predict(pk.perturb_zero(v, regions))[1]
        assert abs(values.sum() - (full - empty)) < 1e-6

    def test_region_cap(self):
        dims = (32, 4, 4)
        regions = [pk.Region((i, 0, 0), (1, 4, 4)) for i in range(21)]
        v = pk.Volume(dims, np.ones(512, dtype=np.float32))
        with pytest.raises(BudgetExceededError):
            pk.exact_shapley(ConstantPredictor(), v, regions)

    def test_contract_violations(self):
        v, regions = three_region_setup()

        class BadSum:
            def predict(self, _):
                return np.array([0.5, 0.6])

        class BadLen:
            def predict(self, _):
                return np.array([1.0])

        class BadFinite:
            def predict(self, _):
                return np.array([np.nan, 1.0 - np.nan])

        for bad in (BadSum(), BadLen(), BadFinite()):
            with pytest.raises(ContractViolationError):
                pk.exact_shapley(bad, v, regions)


class TestAxioms:
    def test_null_player_is_exactly_zero(self):
        v, regions = three_region_setup()
        probe = RegionMeanProbe(regions, [0.3, 0.0, 0.25])
        values = pk.exact_shapley(probe, v, regions)
        assert values[1] == 0.0

    def test_symmetry(self):
        dims = (4, 4, 4)
        grid = pk.make_grid(dims, 2)
        regions = [grid.regions[0], grid.regions[3], grid.regions[5]]
        v = pk.Volume(dims, np.full(64, 0.8, dtype=np.float32))
        probe = LogisticRegionProbe(regions, [0.4, 0.4, -0.2], bias=0.1)
        values = pk.exact_shapley(probe, v, regions)
        assert abs(values[0] - values[1]) < 1e-6

    def test_linearity(self):
        v, regions = three_region_setup()
        f = InteractionProbe(regions, [0.2, -0.1, 0.3], pair=(0, 2), pair_weight=0.4)
        g = LogisticRegionProbe(regions, [0.5, 0.2, -0.3])
        alpha, beta = 0.7, -0.4

        class Combined:
            def predict(self, vol):
                h = alpha * f.predict(vol)[1] + beta * g.predict(vol)[1]
                return np.array([1.0 - h, h])

        s_f = pk.exact_shapley(f, v, regions)
        s_g = pk.exact_shapley(g, v, regions)
        s_c = pk.exact_shapley(Combined(), v, regions)
        assert np.allclose(s_c, alpha * s_f + beta * s_g, atol=1e-6)


class TestSiblingShapley:
    def test_empty_context_equals_exact(self):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(2)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        probe = LogisticRegionProbe(list(grid.regions), rng.normal(0, 0.3, 8))
        exact = pk.exact_shapley(probe, v, list(grid.regions))
        sib = pk.sibling_shapley(probe, v, list(grid.regions))
        assert np.array_equal(exact, sib)

    def test_single_sibling_is_plain_marginal(self):
        dims = (4, 4, 4)
        grid = pk.make_grid(dims, 2)
        rng = np.random.default_rng(8)
        v = pk.Volume(dims, rng.random(64, dtype=np.float32))
        probe = LogisticRegionProbe(list(grid.regions), rng.normal(0, 0.5, 8))
        target = grid.regions[3]
        (value,) = pk.sibling_shapley(probe, v, [target])
        with_target = probe.predict(v)[1]
        without = probe.predict(pk.perturb_zero(v, [target]))[1]
        assert abs(value - (with_target - without)) < 1e-12

    def test_sibling_count_capped_at_8(self):
        dims = (16, 4, 4)
        regions = [pk.Region((i, 0, 0), (1, 4, 4)) for i in range(9)]
        v = pk.Volume(dims, np.ones(256, dtype=np.float32))
        with pytest.raises(InvalidArgumentError):
            pk.sibling_shapley(ConstantPredictor(), v, regions)


class TestRecursiveAttribution:
    def test_constant_predictor_all_zero_with_full_refinement(self):
        dims = (16, 16, 16)
        v = pk.Volume(dims, np.full(4096, 0.5, dtype=np.float32))
        counting = CountingPredictor(ConstantPredictor())
        amap = pk.recursive_attribution(
            counting, v, leaf_edge=4, tau=1.0, rule="refine_below"
        )
        # All node values are 0 < tau, so everything refines to the leaves.
        assert np.all(amap.values == 0.0)
        assert np.all(amap.refined_mask)
        assert amap.evaluations == counting.calls == 9 * 256

    def test_full_refinement_matches_additive_marginals(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(21)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        weights = rng.normal(0, 0.1, len(grid))
        probe = pk.additive_probe(weights, 0.0, grid)
        amap = pk.recursive_attribution(
            probe, v, leaf_edge=4, tau=-math.inf, rule="refine_at_or_above"
        )
        expected = weights * pk.patch_means(v, grid)
        assert np.allclose(amap.values, expected, atol=1e-5)
        assert amap.evaluations == (1 + 8) * 256
        assert amap.levels == 2

    def test_no_refinement_inherits_coarse_values(self):
        dims = (16, 16, 16)
        rng = np.random.default_rng(3)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        grid = pk.make_grid(dims, 4)
        probe = pk.additive_probe(rng.normal(0, 0.1, len(grid)), 0.0, grid)
        amap = pk.recursive_attribution(
            probe, v, leaf_edge=4, tau=-math.inf, rule="refine_below"
        )
        # refine_below never fires at tau=-inf: only the level-1 game runs.
        assert amap.evaluations == 256
        assert not np.any(amap.refined_mask)
        assert len(np.unique(amap.values)) <= 8
        # Each octant's leaves share one inherited value.
        octant = pk.octree_children(v.bounding_region())[0]
        leaf_ids = [i for i, r in enumerate(grid.regions) if octant.contains(r)]
        assert len(set(amap.values[leaf_ids])) == 1

    def test_rules_refine_opposite_sides_of_tau(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(17)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        probe = pk.additive_probe(rng.normal(0, 0.2, len(grid)), 0.0, grid)
        below = pk.recursive_attribution(probe, v, 4, tau=0.0, rule="refine_below")
        above = pk.recursive_attribution(probe, v, 4, tau=0.0, rule="refine_at_or_above")
        assert below.evaluations + above.evaluations == 256 + (1 + 8) * 256
        assert not np.any(below.refined_mask & above.refined_mask)

    def test_max_depth_limits_refinement(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        v = pk.Volume(dims, np.full(4096, 0.5, dtype=np.float32))
        amap = pk.recursive_attribution(
            ConstantPredictor(), v, leaf_edge=4, tau=1.0, rule="refine_below", max_depth=1
        )
        assert amap.evaluations == 256
        assert amap.levels == 1

    def test_budget_guard(self):
        dims = (16, 16, 16)
        v = pk.Volume(dims, np.full(4096, 0.5, dtype=np.float32))
        with pytest.raises(BudgetExceededError):
            pk.recursive_attribution(
                ConstantPredictor(), v, leaf_edge=4, tau=1.0, rule="refine_below", budget=1000
            )

    def test_budget_is_checked_per_level(self):
        # A full two-level map costs 256 + 8 * 256 = 2304 readouts. One short,
        # the second level is refused before any of its games is played.
        v = pk.Volume((16, 16, 16), np.full(4096, 0.5, dtype=np.float32))
        counting = CountingPredictor(ConstantPredictor())
        with pytest.raises(BudgetExceededError):
            pk.recursive_attribution(counting, v, leaf_edge=4, tau=math.inf, budget=2303)
        assert counting.calls == 256

    def test_nan_tau_rejected(self):
        v = pk.Volume((8, 8, 8), np.zeros(512, dtype=np.float32))
        with pytest.raises(InvalidArgumentError):
            pk.recursive_attribution(ConstantPredictor(), v, 4, tau=math.nan)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        v = pk.Volume((8, 8, 8), np.zeros(512, dtype=np.float32))
        with pytest.raises(InvalidArgumentError, match="threads"):
            pk.recursive_attribution(ConstantPredictor(), v, 4, tau=0.0, threads=threads)

    def test_threads_do_not_change_bits(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(29)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        probe = pk.additive_probe(rng.normal(0, 0.2, len(grid)), 0.1, grid)
        a = pk.recursive_attribution(probe, v, 4, tau=0.0, rule="refine_below", threads=1)
        b = pk.recursive_attribution(probe, v, 4, tau=0.0, rule="refine_below", threads=4)
        assert np.array_equal(a.values, b.values)
        assert a.evaluations == b.evaluations
        # An opaque predictor plays every coalition as a zero-filled volume.
        opaque = RegionMeanProbe(list(grid.regions), rng.normal(0, 0.2, len(grid)), 0.1)
        a = pk.recursive_attribution(opaque, v, 4, tau=0.0, rule="refine_below", threads=1)
        b = pk.recursive_attribution(opaque, v, 4, tau=0.0, rule="refine_below", threads=4)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_every_game_is_played_on_the_calling_thread(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(43)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        predictor = surrogate("logistic", grid, rng)

        class ThreadSpy:
            """Batched surrogate front that records which threads query it."""

            def __init__(self):
                self.grid = grid
                self.threads = []

            def predict(self, v):
                raise AssertionError("aligned games must take the batched path")

            def predict_features(self, features):
                self.threads.append(threading.get_ident())
                return predictor.predict_features(features)

        spy = ThreadSpy()
        amap = pk.recursive_attribution(spy, v, 4, tau=math.inf, threads=4)
        assert len(spy.threads) == 9  # one game at level 1, eight at level 2
        assert set(spy.threads) == {threading.get_ident()}
        assert amap.evaluations == 256 + 8 * 256

    def test_level1_only_grid_equals_exact_shapley(self):
        # When the octree halves coincide with the leaf grid, the recursive
        # estimator reduces to one exact game over the leaves.
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 8)  # 8 leaves == the level-1 octants
        rng = np.random.default_rng(41)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        probe = LogisticRegionProbe(list(grid.regions), rng.normal(0, 0.5, 8), bias=-0.1)
        amap = pk.recursive_attribution(probe, v, leaf_edge=8, tau=1.0)
        exact = pk.exact_shapley(probe, v, list(grid.regions))
        assert np.array_equal(amap.values, exact)
        assert amap.evaluations == 256
        assert np.all(amap.refined_mask)

    def test_full_refinement_reproduces_sibling_exact_leaf_values(self):
        # Holds for any predictor, not just additive ones: each leaf value is
        # the exact Shapley value of its sibling game.
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(31)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        probe = LogisticRegionProbe(list(grid.regions)[:8], rng.normal(0, 0.6, 8), bias=0.2)
        amap = pk.recursive_attribution(
            probe, v, leaf_edge=4, tau=math.inf, rule="refine_below"
        )
        parent = pk.octree_children(v.bounding_region())[3]
        children = pk.octree_children(parent)
        direct = pk.sibling_shapley(probe, v, children)
        for child, expected in zip(children, direct):
            leaf_ids = [i for i, r in enumerate(grid.regions) if r == child]
            assert len(leaf_ids) == 1
            assert amap.values[leaf_ids[0]] == expected

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_full_refinement_is_exact_on_any_shape(self, data):
        # The octree splits the leaf grid, so non-dyadic grid counts and
        # remainder voxels past the last patch still give one exact value per
        # leaf at the depth that reaches single leaves.
        edge = data.draw(st.integers(1, 6), label="leaf_edge")
        dims = tuple(data.draw(st.integers(edge, 6 * edge), label="dim") for _ in range(3))
        grid = pk.make_grid(dims, edge)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        weights = rng.normal(0, 0.3, len(grid))
        probe = pk.additive_probe(weights, 0.1, grid)
        amap = pk.recursive_attribution(
            probe,
            v,
            leaf_edge=edge,
            tau=math.inf,
            rule="refine_below",
            max_depth=max(1, (max(grid.counts) - 1).bit_length()),
        )
        assert np.all(amap.refined_mask)
        assert np.allclose(amap.values, weights * pk.patch_means(v, grid), rtol=0, atol=1e-9)

    def test_infinite_tau_survives_json_round_trip(self, tmp_path):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(37)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        probe = pk.additive_probe(rng.normal(0, 0.2, len(grid)), 0.0, grid)
        amap = pk.recursive_attribution(probe, v, 4, tau=-math.inf, rule="refine_at_or_above")
        amap.save(tmp_path / "inf.json")
        back = pk.AttributionMap.load(tmp_path / "inf.json")
        assert back.tau == -math.inf
        assert np.array_equal(back.values, amap.values)

    def test_json_round_trip(self, tmp_path):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(1)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        probe = pk.additive_probe(rng.normal(0, 0.2, len(grid)), 0.0, grid)
        amap = pk.recursive_attribution(probe, v, 4, tau=0.0)
        path = tmp_path / "map.json"
        amap.save(path)
        back = pk.AttributionMap.load(path)
        assert np.array_equal(back.values, amap.values)
        assert np.array_equal(back.refined_mask, amap.refined_mask)
        assert back.evaluations == amap.evaluations
        assert back.tau == amap.tau and back.rule == amap.rule


def surrogate(link, grid, rng, scale=0.5):
    params = SurrogateParams(rng.normal(0, scale, len(grid)), float(rng.normal(0, 0.2)), link)
    return SurrogatePredictor(params, grid)


def aligned_region(draw, grid):
    """A random box of whole patches of ``grid``, in voxels."""
    lo, hi = [], []
    for count in grid.counts:
        a = draw(st.integers(0, count - 1))
        lo.append(a)
        hi.append(draw(st.integers(a + 1, count)))
    edge = grid.patch_edge
    return pk.Region([a * edge for a in lo], [(b - a) * edge for a, b in zip(lo, hi)])


class GridReadoutSpy:
    """Surrogate front counting per-volume and batched calls and keeping every
    feature matrix it is given."""

    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid
        self.volume_calls = 0
        self.batch_calls = 0
        self.rows = []

    def predict(self, v):
        self.volume_calls += 1
        return self.inner.predict(v)

    def predict_features(self, features):
        self.batch_calls += 1
        self.rows.append(features)
        return self.inner.predict_features(features)


class TestFeatureSpaceGames:
    """Patch-mean surrogates over whole-patch regions are played in feature space."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batched_games_equal_per_volume_games(self, data):
        edge = data.draw(st.integers(1, 4), label="patch_edge")
        counts = [data.draw(st.integers(1, 4), label="count") for _ in range(3)]
        dims = tuple(c * edge + data.draw(st.integers(0, edge - 1)) for c in counts)
        grid = pk.make_grid(dims, edge)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        predictor = surrogate(data.draw(st.sampled_from(["identity", "logistic"])), grid, rng)
        members = [aligned_region(data.draw, grid) for _ in range(data.draw(st.integers(1, 6)))]

        oracle = CountingPredictor(predictor)  # exposes predict only
        batched = pk.sibling_shapley(predictor, v, members)
        assert np.allclose(batched, pk.sibling_shapley(oracle, v, members),
                           rtol=0, atol=1e-12)
        assert oracle.calls == 2 ** len(members)
        batched = pk.exact_shapley(predictor, v, members)
        assert np.allclose(batched, pk.exact_shapley(oracle, v, members), rtol=0, atol=1e-12)

        leaf_edge = edge * data.draw(st.integers(1, 2), label="leaf_factor")
        if leaf_edge <= min(dims):
            amap = pk.recursive_attribution(predictor, v, leaf_edge, tau=math.inf, max_depth=2)
            oracle = CountingPredictor(predictor)
            ref = pk.recursive_attribution(oracle, v, leaf_edge, tau=math.inf, max_depth=2)
            assert np.allclose(amap.values, ref.values, rtol=0, atol=1e-12)
            assert amap.evaluations == ref.evaluations == oracle.calls
            assert np.array_equal(amap.refined_mask, ref.refined_mask)

    def test_aligned_regions_take_one_batched_call(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(3)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        spy = GridReadoutSpy(surrogate("logistic", grid, rng))
        pk.sibling_shapley(spy, v, pk.octree_children(v.bounding_region()))
        assert (spy.batch_calls, spy.volume_calls) == (1, 0)

    def test_unaligned_regions_fall_back_to_per_volume_path(self):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(4)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        predictor = surrogate("logistic", grid, rng)
        spy = GridReadoutSpy(predictor)
        # Half-patch offsets: zero-filling cuts through patches.
        regions = [pk.Region((2, 0, 0), (4, 4, 4)), pk.Region((8, 6, 0), (8, 4, 16)),
                   pk.Region((0, 12, 12), (4, 4, 4))]
        values = pk.exact_shapley(spy, v, regions)
        assert (spy.batch_calls, spy.volume_calls) == (0, 8)
        # Correct against the plain zero-fill definition.
        assert np.array_equal(values, pk.exact_shapley(CountingPredictor(predictor), v, regions))
        full = predictor.predict(v)[1]
        empty = predictor.predict(pk.perturb_zero(v, regions))[1]
        assert abs(values.sum() - (full - empty)) < 1e-12
        # Under a leaf grid finer than the predictor's, the level-1 octants
        # are whole patches and the level-2 leaves are not.
        v = pk.Volume((8, 8, 8), rng.random(512, dtype=np.float32))
        predictor = surrogate("logistic", pk.make_grid(v.dims, 4), rng)
        spy = GridReadoutSpy(predictor)
        amap = pk.recursive_attribution(spy, v, leaf_edge=2, tau=math.inf, max_depth=2)
        assert (spy.batch_calls, spy.volume_calls) == (1, 8 * 256)
        assert amap.evaluations == 9 * 256 and np.all(amap.refined_mask)
        ref = pk.recursive_attribution(CountingPredictor(predictor), v, 2, tau=math.inf, max_depth=2)
        assert np.allclose(amap.values, ref.values, rtol=0, atol=1e-12)

    def test_forwarding_proxy_is_queried_per_volume(self):
        class Proxy:
            """Own predict, every other attribute forwarded from the surrogate."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def predict(self, v):
                self.calls += 1
                return self.inner.predict(v)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(8)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        proxy = Proxy(surrogate("logistic", grid, rng))
        assert proxy.grid is grid
        pk.exact_shapley(proxy, v, list(grid.regions)[:3])
        assert proxy.calls == 8

    @pytest.mark.parametrize("bad", [
        lambda rows: np.full_like(rows, np.nan),
        lambda rows: rows * 2.0,
        lambda rows: rows[:, :1],
        lambda rows: rows.T,
    ], ids=["non_finite", "bad_sum", "one_column", "transposed"])
    def test_batched_readout_contract(self, bad):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(5)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        inner = surrogate("logistic", grid, rng)

        class Broken:
            def __init__(self):
                self.grid = grid

            def predict(self, _):
                raise AssertionError("the batched path must not query volumes")

            def predict_features(self, features):
                return bad(inner.predict_features(features))

        with pytest.raises(ContractViolationError):
            pk.exact_shapley(Broken(), v, list(grid.regions))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_coalition_rows_are_the_zero_filled_volumes_patch_means(self, data):
        edge = data.draw(st.integers(1, 4), label="patch_edge")
        counts = [data.draw(st.integers(1, 4), label="count") for _ in range(3)]
        dims = tuple(c * edge + data.draw(st.integers(0, edge - 1)) for c in counts)
        grid = pk.make_grid(dims, edge)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        members = [aligned_region(data.draw, grid) for _ in range(data.draw(st.integers(1, 6)))]
        if len(members) < 6 and data.draw(st.booleans(), label="duplicate"):
            members.append(members[0])  # one patch box covered by two members

        spy = GridReadoutSpy(surrogate("logistic", grid, rng))
        pk.exact_shapley(spy, v, members)
        pk.exact_shapley(spy, v, members, features=pk.patch_means(v, grid))
        n = len(members)
        want = np.stack([
            pk.patch_means(pk.perturb_zero(v, [members[i] for i in range(n) if not (mask >> i) & 1]), grid)
            for mask in range(1 << n)
        ])
        assert (spy.batch_calls, spy.volume_calls) == (2, 0)
        for rows in spy.rows:
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("opaque, calls", [(False, 1), (True, 0)], ids=["features", "opaque"])
    def test_patch_means_once_per_map(self, monkeypatch, opaque, calls):
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(12)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        predictor = surrogate("logistic", grid, rng)
        seen = []

        def counting_patch_means(volume, grid):
            seen.append(volume)
            return pk.patch_means(volume, grid)

        monkeypatch.setattr(shapley, "patch_means", counting_patch_means)
        subject = CountingPredictor(predictor) if opaque else predictor
        amap = pk.recursive_attribution(subject, v, 4, tau=math.inf, max_depth=2)
        assert amap.evaluations == 9 * 256
        assert len(seen) == calls
        assert all(volume is v for volume in seen)

    @pytest.mark.parametrize("shape", [(7,), (9,), (8, 1), ()], ids=str)
    def test_features_of_the_wrong_shape_are_rejected(self, shape):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(13)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        predictor = surrogate("logistic", grid, rng)
        with pytest.raises(InvalidArgumentError, match="features"):
            pk.sibling_shapley(predictor, v, list(grid.regions), features=np.zeros(shape))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reduction_matches_the_coalition_loop(self, n):
        def loop_reference(readouts):
            weights = [math.factorial(c) * math.factorial(n - c - 1) / math.factorial(n)
                       for c in range(n)]
            values = np.zeros(n)
            for mask in range(1 << n):
                for i in range(n):
                    if not (mask >> i) & 1:
                        values[i] += weights[mask.bit_count()] * (
                            readouts[mask | (1 << i)] - readouts[mask])
            return values

        rng = np.random.default_rng(n)
        readouts = rng.random(1 << n)
        readouts[1 << (n - 1):] = readouts[:1 << (n - 1)]  # the last player is null
        values = _shapley_from_readouts(readouts, n)
        assert np.allclose(values, loop_reference(readouts), rtol=0, atol=1e-15)
        assert values[n - 1] == 0.0

    @pytest.mark.parametrize("link", ["identity", "logistic"])
    def test_null_patch_is_exactly_zero(self, link):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(6)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        predictor = surrogate(link, grid, rng)
        predictor.params.weights[5] = 0.0
        spy = GridReadoutSpy(predictor)
        values = pk.exact_shapley(spy, v, list(grid.regions))
        assert spy.batch_calls == 1
        assert values[5] == 0.0
        assert np.all(values[np.arange(8) != 5] != 0.0)


@pytest.mark.parametrize("key, value, named", [
    ("grid", DELETE, "'grid'"),
    ("grid", 5, "grid"),
    ("grid.dims", DELETE, "'dims'"),
    ("grid.dims", [8, 8], "dims"),
    ("grid.patch_edge", "4", "patch_edge"),
    ("values", DELETE, "'values'"),
    ("values", "abc", "values"),
    ("values.3", None, r"values\[3\]"),
    ("evaluations", 2.5, "evaluations"),
    ("refined_mask", [1] * 8, r"refined_mask\[0\]"),
    ("tau", DELETE, "'tau'"),
    ("tau", "inf", "tau"),
    ("rule", 1, "rule"),
    ("levels", True, "levels"),
])
def test_attribution_load_names_file_and_key(tmp_path, key, value, named):
    dims = (8, 8, 8)
    grid = pk.make_grid(dims, 4)
    rng = np.random.default_rng(2)
    v = pk.Volume(dims, rng.random(512, dtype=np.float32))
    probe = pk.additive_probe(rng.normal(0, 0.2, len(grid)), 0.0, grid)
    path = tmp_path / "attribution.json"
    pk.recursive_attribution(probe, v, 4, tau=0.0).save(path)
    break_artifact(path, key, value)
    with pytest.raises(InvalidArgumentError, match=f"{re.escape(str(path))}: .*{named}"):
        pk.AttributionMap.load(path)


class TestCohortAverage:
    def _map(self, values, grid, evals=10):
        return pk.AttributionMap(
            grid=grid,
            values=np.asarray(values, dtype=np.float64),
            evaluations=evals,
            refined_mask=np.ones(len(grid), dtype=bool),
            tau=0.0,
            rule="refine_below",
        )

    def test_single_map_identity(self):
        grid = pk.make_grid((4, 4, 4), 2)
        m = self._map(np.arange(8), grid)
        avg = pk.cohort_average([m])
        assert np.array_equal(avg.values, m.values)
        assert avg.evaluations == 10

    def test_opposite_maps_cancel(self):
        grid = pk.make_grid((4, 4, 4), 2)
        x = np.linspace(-1, 1, 8)
        avg = pk.cohort_average([self._map(x, grid), self._map(-x, grid)])
        assert np.all(avg.values == 0.0)
        assert avg.evaluations == 20

    def test_mask_filters_and_empty_raises(self):
        with pytest.raises(EmptyCohortError):
            pk.cohort_average([])

    def test_grid_mismatch_rejected(self):
        a = self._map(np.zeros(8), pk.make_grid((4, 4, 4), 2))
        b = self._map(np.zeros(8), pk.make_grid((8, 8, 8), 4))
        with pytest.raises(InvalidArgumentError):
            pk.cohort_average([a, b])


class TestSelectTop:
    def _map(self, values):
        grid = pk.make_grid((8, 8, 2), 2)  # 16 leaves
        return pk.AttributionMap(
            grid=grid,
            values=np.asarray(values, dtype=np.float64),
            evaluations=0,
            refined_mask=np.zeros(len(grid), dtype=bool),
            tau=0.0,
            rule="refine_below",
        )

    def test_increasing_values_select_last_indices(self):
        sel = pk.select_top(self._map(np.arange(16)), 4)
        assert sel.chosen == [15, 14, 13, 12]

    def test_ties_break_by_ascending_index(self):
        sel = pk.select_top(self._map(np.ones(16)), 16)
        assert sel.chosen == list(range(16))

    def test_magnitude_vs_raw_key(self):
        values = np.zeros(16)
        values[3] = -5.0
        values[7] = 2.0
        by_mag = pk.select_top(self._map(values), 1)
        by_raw = pk.select_top(self._map(values), 1, key="value")
        assert by_mag.chosen == [3]
        assert by_raw.chosen == [7]

    def test_non_square_m_rejected(self):
        with pytest.raises(InvalidArgumentError, match="perfect square"):
            pk.select_top(self._map(np.arange(16)), 5)

    def test_m_larger_than_leaves_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pk.select_top(self._map(np.arange(16)), 25)

    @settings(max_examples=40, deadline=None)
    @given(perm=st.permutations(list(range(16))))
    def test_permutation_equivariance(self, perm):
        values = np.array([5.0, 4.0, 3.0, 2.0] + [0.0] * 12)
        base = pk.select_top(self._map(values), 4)
        # Leaf perm[i] of the permuted map holds old leaf i's value.
        permuted_values = np.empty_like(values)
        permuted_values[list(perm)] = values
        permuted = pk.select_top(self._map(permuted_values), 4)
        assert set(permuted.chosen) == {perm[i] for i in base.chosen}

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(TIE_HEAVY_SCORES, min_size=16, max_size=16),
           key=st.sampled_from(["magnitude", "value"]))
    @example(values=[0.0, -0.0, 2.0, -2.0] * 4, key="value")
    @example(values=[0.0, -0.0, 2.0, -2.0] * 4, key="magnitude")
    def test_top_m_is_a_prefix_of_top_larger_m(self, values, key):
        amap = self._map(values)
        for big in (1, 4, 9, 16):
            top = pk.select_top(amap, big, key=key)
            for m in (1, 4, 9, 16):
                if m <= big:
                    sel = pk.select_top(amap, m, key=key)
                    assert sel.chosen == top.chosen[:m]
                    assert np.array_equal(sel.scores, top.scores[:m])


class TestTopRanking:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(TIE_HEAVY_SCORES, min_size=1, max_size=40))
    @example(values=[-0.0, 0.0, 1.0, -0.0, -1.0, 0.0, 1.0])
    def test_matches_the_sorted_reference(self, values):
        s = np.array(values, dtype=np.float64)
        n = s.size
        reference = sorted(range(n), key=lambda i: (-s[i], i))
        for m in range(n + 1):
            assert _top(s, m).tolist() == reference[:m]


class TestTTestSelect:
    def test_noise_free_phantom_selects_lesion_patches(self, tmp_path):
        spec = pk.PhantomSpec(
            dims=(16, 16, 16), n_per_class=4,
            lesion_regions=(pk.Region((4, 4, 4), (6, 6, 6)),),
            lesion_delta=0.4, noise_sigma=0.0, smooth_radius=0, seed=5,
        )
        manifest = pk.generate(spec, tmp_path)
        grid = pk.make_grid(spec.dims, 4)
        lesion = set(grid.indices_intersecting(spec.lesion_regions[0]))
        sel = pk.ttest_select(manifest, grid, 4)
        assert set(sel.chosen) <= lesion
        assert sel.method == "ttest"

    def test_zero_variance_nonzero_diff_saturates(self, small_phantom, tmp_path):
        # Two samples per class with constant patch means {1,1} vs {0.5,0.5}:
        # pooled variance is 0 and the statistic saturates at the sentinel.
        dims = (4, 4, 4)
        grid = pk.make_grid(dims, 4)
        paths = []
        for i, value in enumerate([1.0, 1.0, 0.5, 0.5]):
            v = pk.Volume(dims, np.full(64, value, dtype=np.float32))
            p = tmp_path / f"v{i}.vol"
            pk.write_vol(p, v)
            paths.append(p.name)
        spec = pk.PhantomSpec(
            dims=dims, n_per_class=2, lesion_regions=(pk.Region((0, 0, 0), (4, 4, 4)),),
            lesion_delta=0.5, noise_sigma=0.0, smooth_radius=0, seed=1,
        )
        manifest = pk.DatasetManifest(
            spec=spec, ground_truth=spec.lesion_regions,
            entries=[(paths[0], 0), (paths[1], 0), (paths[2], 1), (paths[3], 1)],
            root=tmp_path,
        )
        sel = pk.ttest_select(manifest, grid, 1)
        assert sel.scores[0] == T_STAT_SENTINEL

    def test_zero_variance_zero_diff_is_uninformative(self, tmp_path):
        dims = (4, 4, 4)
        grid = pk.make_grid(dims, 4)
        for i in range(4):
            pk.write_vol(tmp_path / f"v{i}.vol", pk.Volume(dims, np.full(64, 0.5, np.float32)))
        spec = pk.PhantomSpec(
            dims=dims, n_per_class=2, lesion_regions=(pk.Region((0, 0, 0), (4, 4, 4)),),
            lesion_delta=0.5, noise_sigma=0.0, smooth_radius=0, seed=1,
        )
        manifest = pk.DatasetManifest(
            spec=spec, ground_truth=spec.lesion_regions,
            entries=[(f"v{i}.vol", i // 2) for i in range(4)], root=tmp_path,
        )
        sel = pk.ttest_select(manifest, grid, 1)
        assert sel.scores[0] == 0.0

    def test_identical_distributions_give_small_statistics(self, tmp_path):
        spec = pk.PhantomSpec(
            dims=(16, 16, 16), n_per_class=100,
            lesion_regions=(pk.Region((4, 4, 4), (6, 6, 6)),),
            lesion_delta=0.4, noise_sigma=0.05, smooth_radius=0, seed=31,
        )
        manifest = pk.generate(spec, tmp_path)
        rng = np.random.default_rng(13)
        shuffled = pk.DatasetManifest(
            spec=spec, ground_truth=manifest.ground_truth,
            entries=[
                (path, int(lab))
                for (path, _), lab in zip(manifest.entries, rng.permutation(manifest.labels()))
            ],
            root=manifest.root,
        )
        grid = pk.make_grid(spec.dims, 4)  # 64 patches, a perfect square
        sel = pk.ttest_select(shuffled, grid, len(grid))
        assert float(np.median(sel.scores)) < 2.0

    def test_requires_two_samples_per_class(self, tmp_path):
        spec = pk.PhantomSpec(
            dims=(8, 8, 8), n_per_class=1,
            lesion_regions=(pk.Region((2, 2, 2), (4, 4, 4)),),
            lesion_delta=0.4, noise_sigma=0.0, smooth_radius=0, seed=2,
        )
        manifest = pk.generate(spec, tmp_path)
        with pytest.raises(InvalidArgumentError):
            pk.ttest_select(manifest, pk.make_grid((8, 8, 8), 4), 1)

    def test_non_square_m_rejected(self, small_phantom):
        grid = pk.make_grid(small_phantom.spec.dims, 4)
        with pytest.raises(InvalidArgumentError, match="perfect square"):
            pk.ttest_select(small_phantom, grid, 5)

    def test_top_m_is_a_prefix_of_top_larger_m(self, small_phantom, tmp_path):
        # Left half: one value per volume, so its 8 patches tie on |t| > 0;
        # right half: a constant, so its 8 patches tie at t = 0.
        dims = (16, 8, 8)
        half = np.zeros((8, 8, 16), dtype=np.float32)
        half[..., 8:] = 0.5
        for i, value in enumerate([0.5, 0.4, 0.6, 1.0, 0.9, 1.1]):
            half[..., :8] = value
            pk.write_vol(tmp_path / f"v{i}.vol", pk.Volume(dims, half.reshape(-1)))
        spec = pk.PhantomSpec(
            dims=dims, n_per_class=3, lesion_regions=(pk.Region((0, 0, 0), (8, 8, 8)),),
            lesion_delta=0.5, noise_sigma=0.0, smooth_radius=0, seed=1,
        )
        tied = pk.DatasetManifest(
            spec=spec, ground_truth=spec.lesion_regions,
            entries=[(f"v{i}.vol", i // 3) for i in range(6)], root=tmp_path,
        )
        tops = []
        for manifest in (tied, small_phantom):
            grid = pk.make_grid(manifest.spec.dims, 4)
            squares = [k * k for k in range(1, math.isqrt(len(grid)) + 1)]
            tops.append(pk.ttest_select(manifest, grid, squares[-1]))
            for m in squares:
                sel = pk.ttest_select(manifest, grid, m)
                assert sel.chosen == tops[-1].chosen[:m]
                assert np.array_equal(sel.scores, tops[-1].scores[:m])
        # Each tied half is taken in ascending index order.
        assert tops[0].chosen == [0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15]
        assert np.all(tops[0].scores[:8] == tops[0].scores[0]) and tops[0].scores[0] > 0.0
        assert np.all(tops[0].scores[8:] == 0.0)


class TestSelectionResult:
    def test_square_and_unique_invariants(self):
        with pytest.raises(InvalidArgumentError):
            pk.SelectionResult(chosen=[0, 1, 2], method="shap", scores=np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            pk.SelectionResult(chosen=[0, 0, 1, 2], method="shap", scores=np.zeros(4))

    @pytest.mark.parametrize("key, value, named", [
        ("chosen", DELETE, "'chosen'"),
        ("chosen", "3102", "chosen"),
        ("chosen.1", 1.0, r"chosen\[1\]"),
        ("method", DELETE, "'method'"),
        ("method", ["shap"], "method"),
        ("scores", DELETE, "'scores'"),
        ("scores.0", "high", r"scores\[0\]"),
        ("chosen.1", -1, r"chosen\[1\]"),
    ])
    def test_load_names_file_and_key(self, tmp_path, key, value, named):
        path = tmp_path / "selection.json"
        pk.SelectionResult(chosen=[3, 1, 0, 2], method="shap", scores=np.arange(4.0)).save(path)
        break_artifact(path, key, value)
        with pytest.raises(InvalidArgumentError, match=f"{re.escape(str(path))}: .*{named}"):
            pk.SelectionResult.load(path)

    def test_round_trip(self, tmp_path):
        sel = pk.SelectionResult(chosen=[3, 1, 0, 2], method="shap", scores=np.arange(4.0))
        sel.save(tmp_path / "sel.json")
        back = pk.SelectionResult.load(tmp_path / "sel.json")
        assert back.chosen == sel.chosen
        assert back.method == sel.method
        assert np.array_equal(back.scores, sel.scores)
