import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

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
from patchkit.volume import _octree_split

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

        class Bad:
            def __init__(self, readout):
                self.readout = readout

            def predict(self, _):
                return np.array(self.readout)

        for readout, message in [
            ([0.5, 0.6], "sum to"),
            ([1.0], r"vector\(s\) of 2"),
            ([np.nan, 1.0], "non-finite"),
            ([np.inf, -np.inf], "non-finite"),
        ]:
            with pytest.raises(ContractViolationError, match=message):
                pk.exact_shapley(Bad(readout), v, regions)


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

    def test_golden_map_bytes(self):
        """SHA-256 of one map's JSON, pinned: 11x9x7 leaves with remainder
        voxels on every axis, some nodes refined and some inherited, and the
        depth cap stopping some nodes above leaf size. Voxels are multiples
        of 1/8 and weights multiples of 1/16, so every patch mean and
        identity-link readout is exact whatever the BLAS summation order, and
        only the Shapley reductions round."""
        dims = (45, 38, 29)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(18)
        v = pk.Volume(dims, rng.integers(0, 32, 45 * 38 * 29).astype(np.float32) / 8)
        probe = pk.additive_probe(rng.integers(-32, 33, len(grid)) / 16, 0.25, grid)
        amap = pk.recursive_attribution(probe, v, leaf_edge=4, tau=0.0, max_depth=3)
        assert grid.counts == (11, 9, 7)
        assert (amap.levels, amap.evaluations, int(amap.refined_mask.sum())) == (3, 2608, 33)
        blob = json.dumps(amap.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "d6867a7e001645d66596f9f04bc8dc91595122291e53835f8565b7e38ea97a63")

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
        octant = pk.octree_children(pk.Region((0, 0, 0), v.dims))[0]
        leaf_ids = [i for i, r in enumerate(grid.regions)
                    if all(octant.origin[a] <= r.origin[a] and r.end[a] <= octant.end[a] for a in range(3))]
        assert len(leaf_ids) == 8
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

            def patch_terms(self, features):
                return predictor.patch_terms(features)

            def predict_sums(self, sums):
                self.threads.append(threading.get_ident())
                return predictor.predict_sums(sums)

        spy = ThreadSpy()
        amap = pk.recursive_attribution(spy, v, 4, tau=math.inf, threads=4)
        assert len(spy.threads) == 2  # one call for level 1's game, one for level 2's eight
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
        parent = pk.octree_children(pk.Region((0, 0, 0), v.dims))[3]
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_walk_matches_the_per_child_reference(self, data):
        # Non-dyadic leaf counts (so one level can mix games of 1, 2, 4 and 8
        # players), leaves of one or two patch edges, remainder voxels, both
        # rules, finite and infinite tau and every depth: the map equals the
        # one played game by game and written child by child.
        patch = data.draw(st.integers(1, 3), label="patch_edge")
        edge = patch * data.draw(st.sampled_from([1, 2]), label="scale")
        counts = [data.draw(st.integers(1, 9), label="leaf_count") for _ in range(3)]
        dims = tuple(c * edge + data.draw(st.integers(0, edge - 1), label="remainder") for c in counts)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        predictor = surrogate("logistic", pk.make_grid(dims, patch), rng)
        rule = data.draw(st.sampled_from(shapley.REFINE_RULES), label="rule")
        tau = data.draw(st.sampled_from([-math.inf, math.inf]) | st.floats(-0.05, 0.05), label="tau")
        depth = data.draw(st.integers(1, 5), label="max_depth")
        amap = pk.recursive_attribution(predictor, v, edge, tau, rule, max_depth=depth)
        values, refined, evaluations, sizes = per_child_attribution(
            predictor, v, edge, tau, rule, depth)
        assert amap.values.tobytes() == values.tobytes()
        assert np.array_equal(amap.refined_mask, refined)
        assert (amap.evaluations, amap.levels) == (evaluations, len(sizes))

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


# A fully refined 16³ map at leaf 2 (8³ leaves, 73 games of 256 coalitions)
# over a logistic surrogate on the same 2³ patches, played on summed patch
# terms; prints the SHA-256 of the map's JSON.
BLAS_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
import patchkit as pk
from patchkit.surrogate import SurrogateParams, SurrogatePredictor
rng = np.random.default_rng(3)
grid = pk.make_grid((16, 16, 16), 2)
v = pk.Volume((16, 16, 16), rng.random(4096, dtype=np.float32))
predictor = SurrogatePredictor(SurrogateParams(rng.normal(0, 0.5, len(grid)), 0.1, "logistic"), grid)
SurrogatePredictor.predict = None  # every game must take the summed-term path
amap = pk.recursive_attribution(predictor, v, 2, tau=1.0, max_depth=3)
assert amap.evaluations == 73 * 256 and amap.refined_mask.all()
print(hashlib.sha256(json.dumps(amap.to_json(), sort_keys=True).encode()).hexdigest())
"""


# A surrogate fit at K = 512 patches (16³ volumes at patch edge 2), where a
# LAPACK solve of the (K + 1)-square Hessian gives different bits at 1 and 2
# BLAS threads; prints the SHA-256 of the fitted surrogate's JSON.
BLAS_THREADS_FIT_SCRIPT = """
import hashlib, json, sys
import patchkit as pk
dims = (16, 16, 16)
spec = pk.PhantomSpec(dims=dims, n_per_class=8, lesion_regions=(pk.Region((4, 4, 4), (6, 6, 6)),),
                      lesion_delta=0.4, noise_sigma=0.02, smooth_radius=1, seed=4242)
predictor, info = pk.surrogate_train(pk.generate(spec, sys.argv[1]), pk.make_grid(dims, 2))
assert len(predictor.grid) == 512 and info["grad_norm"] <= 1e-10
print(hashlib.sha256(json.dumps(predictor.to_json(), sort_keys=True).encode()).hexdigest())
"""


def hashes_at_blas_threads(script, *args):
    """The script's printed hashes, run once at 1 and once at 2 BLAS threads."""
    src = str(Path(pk.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        hashes.append(run.stdout.split())
    assert len(hashes[0]) == 1
    return hashes


def test_surrogate_map_bits_do_not_depend_on_blas_threads():
    one, two = hashes_at_blas_threads(BLAS_THREADS_SCRIPT)
    assert one == two


def test_surrogate_fit_bits_do_not_depend_on_blas_threads(tmp_path):
    one, two = hashes_at_blas_threads(BLAS_THREADS_FIT_SCRIPT, str(tmp_path))
    assert one == two


def per_player_reduction(readouts, n):
    """The Shapley reduction as one numpy pass per player: the table viewed as
    (2^(n-1-i), 2, 2^i) pairs every coalition without player i with the same
    coalition with i along the middle axis."""
    weights = shapley._coalition_weights(n)
    values = np.empty(n, dtype=np.float64)
    for i in range(n):
        pairs = readouts.reshape(-1, 2, 1 << i)
        values[i] = (weights.reshape(-1, 2, 1 << i)[:, 0] * (pairs[:, 1] - pairs[:, 0])).sum()
    return values


def blocked_reduction(readouts, n, block=1 << 15):
    """The Shapley reduction with its index tables built per call: row i lists
    player i's weighted marginal differences over the coalitions without i,
    entry k at the mask k with a 0 inserted at bit i, filled ``block``
    entries at a time and summed as one contiguous row."""
    weights = shapley._coalition_weights(n)
    half = 1 << (n - 1)
    rows = min(n, max(1, block // half))
    cols = min(half, block)
    terms = np.empty((rows, half), dtype=np.float64)
    values = np.empty(n, dtype=np.float64)
    for first in range(0, n, rows):
        i = np.arange(first, min(first + rows, n))[:, None]
        chunk = terms[: len(i)]
        for start in range(0, half, cols):
            k = np.arange(start, start + cols)
            without = k + ((k >> i) << i)
            diff = readouts[without + (1 << i)] - readouts[without]
            chunk[:, start : start + cols] = weights[without] * diff
        values[first : first + len(i)] = chunk.sum(axis=1)
    return values


def child_term_sums(terms, counts, children, scale=1):
    """The term sum of the patches outside ``children`` and each child's term
    sum, from one ``bincount`` over a labelling of a grid of (x, y, z) patch
    ``counts``: the ``scale``^3 patches of each leaf of child c labelled c,
    every other patch n."""
    n = len(children)
    labels = np.full(counts[::-1], n, dtype=np.intp)
    for c, ((x0, y0, z0), (sx, sy, sz)) in enumerate(children):
        labels[z0 * scale : (z0 + sz) * scale, y0 * scale : (y0 + sy) * scale,
               x0 * scale : (x0 + sx) * scale] = c
    parts = np.bincount(labels.reshape(-1), weights=terms, minlength=n + 1)[:n]
    return terms.sum() - parts.sum(), parts


def one_term_game(predictor, base, parts):
    """Shapley values of one game on summed terms: each coalition's score is
    ``base`` plus its members' ``parts`` in ascending member order, added one
    Python float at a time; one ``predict_sums`` readout and the blocked
    reduction."""
    n = len(parts)
    scores = []
    for mask in range(1 << n):
        score = float(base)
        for i in range(n):
            if (mask >> i) & 1:
                score += float(parts[i])
        scores.append(score)
    return blocked_reduction(predictor.predict_sums(np.array(scores))[:, 1], n)


def per_child_attribution(predictor, volume, leaf_edge, tau, rule, max_depth):
    """``recursive_attribution`` over a patch-mean predictor whose patches tile
    the leaves, with each game's child term sums taken by its own
    :func:`child_term_sums`, each game played on its own by
    :func:`one_term_game`, each child's value and leaf flag written into the
    child's own box, and no budget. Returns the values, the leaf flags, the
    evaluations and each level's player counts in tree order."""
    grid = pk.make_grid(volume.dims, leaf_edge)
    scale = leaf_edge // predictor.grid.patch_edge
    terms = predictor.patch_terms(pk.patch_means(volume, predictor.grid))
    nx, ny, nz = grid.counts
    values = np.empty((nz, ny, nx), dtype=np.float64)
    refined = np.zeros((nz, ny, nx), dtype=bool)
    evaluations = 0
    sizes = []
    frontier = [((0, 0, 0), grid.counts)]
    while frontier:
        games = [_octree_split(origin, size) for origin, size in frontier]
        sizes.append([len(children) for children in games])
        frontier = []
        for children in games:
            game = one_term_game(predictor, *child_term_sums(
                terms, predictor.grid.counts, children, scale))
            evaluations += 1 << len(children)
            for (origin, size), value in zip(children, game):
                (x0, y0, z0), (sx, sy, sz) = origin, size
                box = slice(z0, z0 + sz), slice(y0, y0 + sy), slice(x0, x0 + sx)
                values[box] = value
                refined[box] = size == (1, 1, 1)
                if (size != (1, 1, 1) and len(sizes) < max_depth
                        and shapley._rule_fires(rule, value, tau)):
                    frontier.append((origin, size))
    return values.reshape(-1), refined.reshape(-1), evaluations, sizes


def with_row(rows, i, readout):
    """A copy of ``rows`` with row ``i`` replaced by ``readout``."""
    rows = rows.copy()
    rows[i] = readout
    return rows


def surrogate(link, grid, rng, scale=0.5):
    params = SurrogateParams(rng.normal(0, scale, len(grid)), float(rng.normal(0, 0.2)), link)
    return SurrogatePredictor(params, grid)


def drawn_node(draw, grid, terms):
    """A random box of whole patches of ``grid`` split into its 1..8 octree
    children: the children as voxel regions, and the term sums of the patches
    outside the box and of each child."""
    origin = [draw(st.integers(0, count - 1), label="origin") for count in grid.counts]
    size = [draw(st.integers(1, count - a), label="size") for a, count in zip(origin, grid.counts)]
    children = _octree_split(tuple(origin), tuple(size))
    edge = grid.patch_edge
    members = [pk.Region([a * edge for a in o], [s * edge for s in sz]) for o, sz in children]
    return members, *child_term_sums(terms, grid.counts, children)


class ForwardingProxy:
    """Own predict, every other attribute forwarded from an inner predictor."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, v):
        self.calls += 1
        return self.inner.predict(v)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class GridReadoutSpy:
    """Surrogate front counting per-volume and batched calls and keeping every
    vector of score sums it is given."""

    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid
        self.volume_calls = 0
        self.batch_calls = 0
        self.sums = []

    def predict(self, v):
        self.volume_calls += 1
        return self.inner.predict(v)

    def patch_terms(self, features):
        return self.inner.patch_terms(features)

    def predict_sums(self, sums):
        self.batch_calls += 1
        self.sums.append(sums.copy())
        return self.inner.predict_sums(sums)


class TestFeatureSpaceGames:
    """Patch-mean surrogates are played on summed patch terms where the walk's
    leaves are whole patches of their grid, and per volume everywhere else."""

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
        terms = predictor.patch_terms(pk.patch_means(v, grid))
        members, base, parts = drawn_node(data.draw, grid, terms)
        n = len(members)

        (batched,) = shapley._term_games(predictor, np.array([base]), parts[None])
        spy = GridReadoutSpy(predictor)
        assert np.allclose(batched, pk.exact_shapley(spy, v, members), rtol=0, atol=1e-12)
        assert (spy.batch_calls, spy.volume_calls) == (0, 2 ** n)

        leaf_edge = edge * data.draw(st.integers(1, 2), label="leaf_factor")
        if leaf_edge <= min(dims):
            amap = pk.recursive_attribution(predictor, v, leaf_edge, tau=math.inf, max_depth=2)
            oracle = CountingPredictor(predictor)
            ref = pk.recursive_attribution(oracle, v, leaf_edge, tau=math.inf, max_depth=2)
            assert np.allclose(amap.values, ref.values, rtol=0, atol=1e-12)
            assert amap.evaluations == ref.evaluations == oracle.calls
            assert np.array_equal(amap.refined_mask, ref.refined_mask)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_summed_term_walk_matches_the_per_volume_walk_at_depth(self, data):
        # A summed-term game scores the patches outside its node as the total
        # of the terms less the node's child sums; the same walk through an
        # opaque proxy zero-fills voxels. Every node refines, on non-dyadic
        # leaf counts of 9, 12 or 17 along one axis (four or five levels) and
        # at most 96 leaves, leaves of one or two patch edges and remainder
        # voxels.
        patch = data.draw(st.integers(1, 2), label="patch_edge")
        edge = patch * data.draw(st.sampled_from([1, 2]), label="scale")
        counts = [data.draw(st.sampled_from([17, 12, 9]), label="long_count")]
        for _ in range(2):
            counts.append(data.draw(st.integers(1, 96 // math.prod(counts)), label="leaf_count"))
        counts = data.draw(st.permutations(counts), label="axes")
        dims = tuple(c * edge + data.draw(st.integers(0, edge - 1), label="remainder") for c in counts)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        predictor = surrogate("logistic", pk.make_grid(dims, patch), rng)
        depth = data.draw(st.integers(1, 5), label="max_depth")
        amap = pk.recursive_attribution(predictor, v, edge, math.inf, max_depth=depth)
        proxy = ForwardingProxy(predictor)
        ref = pk.recursive_attribution(proxy, v, edge, math.inf, max_depth=depth)
        assert proxy.calls == ref.evaluations
        np.testing.assert_allclose(amap.values, ref.values, rtol=0, atol=1e-12)
        assert np.array_equal(amap.refined_mask, ref.refined_mask)
        assert (amap.evaluations, amap.levels) == (ref.evaluations, ref.levels)

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
        # Under a leaf grid finer than the predictor's, the leaves are not
        # whole patches, so every game of the walk is played per volume, the
        # level-1 octants too although they are whole patches.
        v = pk.Volume((8, 8, 8), rng.random(512, dtype=np.float32))
        predictor = surrogate("logistic", pk.make_grid(v.dims, 4), rng)
        spy = GridReadoutSpy(predictor)
        amap = pk.recursive_attribution(spy, v, leaf_edge=2, tau=math.inf, max_depth=2)
        assert (spy.batch_calls, spy.volume_calls) == (0, 9 * 256)
        assert amap.evaluations == 9 * 256 and np.all(amap.refined_mask)
        ref = pk.recursive_attribution(CountingPredictor(predictor), v, 2, tau=math.inf, max_depth=2)
        assert amap.values.tobytes() == ref.values.tobytes()

    def test_forwarding_proxy_is_queried_per_volume(self):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(8)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        proxy = ForwardingProxy(surrogate("logistic", grid, rng))
        assert proxy.grid is grid
        amap = pk.recursive_attribution(proxy, v, 4, tau=math.inf)
        assert proxy.calls == amap.evaluations == 256

    @pytest.mark.parametrize("bad, message", [
        (lambda rows: np.full_like(rows, np.nan), "non-finite"),
        (lambda rows: with_row(rows, 3, [np.inf, -np.inf]), "non-finite"),
        (lambda rows: rows * 2.0, "sum to"),
        (lambda rows: with_row(rows, 5, [0.5, 0.6]), "sum to"),
        (lambda rows: rows[:, :1], r"vector\(s\) of 2"),
        (lambda rows: rows.T, r"vector\(s\) of 2"),
    ], ids=["non_finite", "opposite_infinities", "bad_sum", "one_row_sums_to_1.1",
            "one_column", "transposed"])
    def test_batched_readout_contract(self, bad, message):
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

            def patch_terms(self, features):
                return inner.patch_terms(features)

            def predict_sums(self, sums):
                return bad(inner.predict_sums(sums))

        with pytest.raises(ContractViolationError, match=message):
            pk.recursive_attribution(Broken(), v, 4, tau=math.inf)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_coalition_rows_are_the_zero_filled_volumes_patch_means(self, data):
        # Each coalition's score sum is the summed terms of the zero-filled
        # volume's patch means, for the 1..8 children of any box of patches.
        edge = data.draw(st.integers(1, 4), label="patch_edge")
        counts = [data.draw(st.integers(1, 4), label="count") for _ in range(3)]
        dims = tuple(c * edge + data.draw(st.integers(0, edge - 1)) for c in counts)
        grid = pk.make_grid(dims, edge)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        predictor = surrogate("logistic", grid, rng)
        members, base, parts = drawn_node(data.draw, grid, predictor.patch_terms(pk.patch_means(v, grid)))
        spy = GridReadoutSpy(predictor)
        n = len(members)
        shapley._term_games(spy, np.array([base]), parts[None])
        want = np.array([
            predictor.patch_terms(pk.patch_means(
                pk.perturb_zero(v, [members[i] for i in range(n) if not (mask >> i) & 1]), grid)).sum()
            for mask in range(1 << n)
        ])
        assert (spy.batch_calls, spy.volume_calls) == (1, 0)
        (sums,) = spy.sums
        assert sums.dtype == np.float64 and sums.shape == (1 << n,)
        np.testing.assert_allclose(sums, want, rtol=0, atol=1e-12)

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
        (values,) = _shapley_from_readouts(readouts[None], n)
        assert np.allclose(values, loop_reference(readouts), rtol=0, atol=1e-15)
        assert values.tobytes() == per_player_reduction(readouts, n).tobytes()
        assert values[n - 1] == 0.0

    @pytest.mark.parametrize("n", range(1, 15))
    def test_reduction_matches_the_blocked_reference(self, n):
        # Up to 14 players, so the sizes whose rows take more than one block
        # (13 and 14) are covered as well as the one-block sizes.
        readouts = np.random.default_rng(100 + n).random(1 << n)
        (values,) = _shapley_from_readouts(readouts[None], n)
        assert values.tobytes() == blocked_reduction(readouts, n).tobytes()

    def test_cached_tables_are_read_only(self):
        tables = [shapley._coalition_weights(8), shapley._owner_block((3, 2, 1))]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0

    def test_a_twenty_player_reduction_stays_within_twice_the_per_player_memory(self):
        n = shapley.EXACT_SHAPLEY_MAX_REGIONS
        readouts = np.random.default_rng(20).random(1 << n)
        shapley._coalition_weights(n)  # both reductions read the cached weights

        def peak(reduce):
            tracemalloc.start()
            try:
                values = reduce(readouts, n)
                return values, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reference, reference_peak = peak(per_player_reduction)
        values, values_peak = peak(lambda readouts, n: _shapley_from_readouts(readouts[None], n)[0])
        assert values.tobytes() == reference.tobytes()
        assert values_peak <= 2 * reference_peak

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
        assert (spy.batch_calls, spy.volume_calls) == (0, 256)  # per volume, for every predictor
        assert values[5] == 0.0
        assert np.all(values[np.arange(8) != 5] != 0.0)

    @pytest.mark.parametrize("leaf_edge", [4, 8])
    def test_zero_weight_patch_is_exactly_zero_in_the_walk(self, leaf_edge):
        # At leaf 4 the null leaf is one patch of the predictor's grid; at
        # leaf 8 it is eight, all with zero weight.
        dims = (16, 16, 16)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(7)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        predictor = surrogate("logistic", grid, rng)
        leaf = pk.make_grid(dims, leaf_edge)
        null = leaf.regions[5]
        for i in grid.indices_intersecting(null):
            predictor.params.weights[i] = 0.0
        spy = GridReadoutSpy(predictor)
        amap = pk.recursive_attribution(spy, v, leaf_edge, tau=math.inf, max_depth=3)
        # One predict_sums call per level (every game has 8 players): two
        # levels over 4³ leaves, one over 2³; no volume.
        assert (spy.batch_calls, spy.volume_calls) == ({4: 2, 8: 1}[leaf_edge], 0)
        assert sum(len(sums) for sums in spy.sums) == amap.evaluations
        assert np.all(amap.refined_mask)
        assert amap.values[5] == 0.0
        assert np.all(amap.values[np.arange(len(leaf)) != 5] != 0.0)

    def test_one_readout_per_level_and_player_count(self):
        # 5 x 6 x 3 leaves of two 2³ patches each: levels mix games of 2, 4
        # and 8 players, and each (level, player count) is one predict_sums
        # call over all its games' coalitions.
        dims = (20, 25, 13)
        rng = np.random.default_rng(17)
        v = pk.Volume(dims, rng.random(math.prod(dims), dtype=np.float32))
        spy = GridReadoutSpy(surrogate("logistic", pk.make_grid(dims, 2), rng))
        amap = pk.recursive_attribution(spy, v, 4, tau=math.inf, max_depth=4)
        values, _, evaluations, sizes = per_child_attribution(spy.inner, v, 4, math.inf,
                                                              "refine_below", 4)
        assert any(len(set(level)) > 1 for level in sizes)
        want = sorted(level.count(n) << n for level in sizes for n in set(level))
        assert sorted(len(sums) for sums in spy.sums) == want
        assert (spy.batch_calls, spy.volume_calls) == (len(want), 0)
        assert sum(len(sums) for sums in spy.sums) == amap.evaluations == evaluations
        assert amap.values.tobytes() == values.tobytes()

    def test_a_level_over_budget_raises_before_its_readout(self):
        dims = (16, 16, 16)
        rng = np.random.default_rng(19)
        v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
        spy = GridReadoutSpy(surrogate("logistic", pk.make_grid(dims, 4), rng))
        with pytest.raises(BudgetExceededError):
            pk.recursive_attribution(spy, v, 4, tau=math.inf, budget=256 + 8 * 256 - 1)
        assert [len(sums) for sums in spy.sums] == [256]  # level 1 only
        amap = pk.recursive_attribution(spy, v, 4, tau=math.inf, budget=256 + 8 * 256)
        assert amap.evaluations == 256 + 8 * 256

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_games_reduced_together_equal_one_game_reductions(self, n, layout):
        # Each of 67 games reduced together must equal both the one-game
        # reduction and the blocked reference of its own game, from C-order
        # rows (as exact_shapley passes them) and from the class-1 column of
        # (67·2ⁿ, 2) probabilities (the strided view a walk level passes).
        readouts = np.random.default_rng(200 + n).random((67, 1 << n))
        readouts[:, 1 << (n - 1):] = readouts[:, :1 << (n - 1)]  # the last player is null
        one_by_one = np.concatenate([_shapley_from_readouts(row[None], n) for row in readouts])
        reference = np.stack([blocked_reduction(row, n) for row in readouts])
        if layout == "strided":
            readouts = np.stack([1.0 - readouts.reshape(-1), readouts.reshape(-1)], axis=1)[:, 1]
            readouts = readouts.reshape(67, 1 << n)
            assert not readouts.flags.c_contiguous
        together = _shapley_from_readouts(readouts, n)
        assert together.shape == (67, n)
        assert together.tobytes() == one_by_one.tobytes() == reference.tobytes()
        assert np.all(together[:, n - 1] == 0.0)

    def test_a_512_game_level_stays_within_8_mib(self):
        # A fully refined 64³ map at patch and leaf 4: levels of 1, 8, 64 and
        # 512 eight-player games over K = 4,096 patches, 585 games and
        # 149,760 readouts, all within 8 MiB.
        dims = (64, 64, 64)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(23)
        predictor = surrogate("logistic", grid, rng)
        v = pk.Volume(dims, rng.random(64**3, dtype=np.float32))
        readouts = 585 * 256

        def full_map():
            return pk.recursive_attribution(predictor, v, 4, math.inf, max_depth=4, budget=readouts)

        full_map()  # warm the caches
        tracemalloc.start()
        try:
            amap = full_map()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert amap.evaluations == readouts and amap.levels == 4 and amap.refined_mask.all()
        assert peak < 8 << 20

    @pytest.mark.parametrize("bad", [
        lambda terms: terms + 1e-300,
        lambda terms: terms + np.nan,
        lambda terms: terms[:-1],
    ], ids=["tiny_offset", "nan", "short"])
    def test_terms_of_zero_features_must_be_zero(self, bad):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        rng = np.random.default_rng(9)
        v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        inner = surrogate("logistic", grid, rng)

        class Broken:
            def __init__(self):
                self.grid = grid

            def predict(self, _):
                raise AssertionError("the batched path must not query volumes")

            def patch_terms(self, features):
                return bad(inner.patch_terms(features))

            def predict_sums(self, sums):
                return inner.predict_sums(sums)

        with pytest.raises(ContractViolationError, match="patch_terms"):
            pk.recursive_attribution(Broken(), v, 4, tau=math.inf)


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
