"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines and timings. The end-to-end criteria generate desk-scale datasets in
temporary directories; the whole module takes a few minutes on one CPU core.
"""
import json
import math
import time

import numpy as np

import patchkit as pk
from patchkit.cli import main
from patchkit.evaluation import auc, evaluate_scores, metrics
from patchkit.patchnet import PatchNetConfig, init_params, loss_and_grad, op_count_report
from patchkit.shapley import cohort_average, recursive_attribution, select_top
from patchkit.surrogate import surrogate_train
from patchkit.train import (
    TrainSchedule,
    class_scores,
    extract_selected_patches,
    stratified_split,
    train_patchnet,
)

from conftest import (
    CountingPredictor,
    InteractionProbe,
    LogisticRegionProbe,
    RegionMeanProbe,
    volume_with_region_means,
)


def report(criterion: str, detail: str) -> None:
    print(f"\n[{criterion}] PASS {detail}")


def test_ac01_shapley_oracle_matches_analytic_additive_values():
    started = time.perf_counter()
    max_evals = 0
    for n in (3, 4, 8):
        dims = (8, 8, 8)
        grid = pk.make_grid(dims, 4)
        regions = [grid.regions[i] for i in range(n)]
        rng = np.random.default_rng(100 + n)
        weights = rng.normal(0.0, 0.3, n)
        means = rng.uniform(0.2, 1.0, n)
        v = volume_with_region_means(dims, regions, means)
        probe = CountingPredictor(RegionMeanProbe(regions, weights))
        values = pk.exact_shapley(probe, v, regions)
        assert np.allclose(values, weights * means, atol=1e-6)
        assert probe.calls == 2**n <= 256
        max_evals = max(max_evals, probe.calls)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("AC-01", f"additive oracle exact for n in (3,4,8), "
                    f"<= {max_evals} evaluations, {elapsed:.2f}s < 1s")


def test_ac02_shapley_axioms_over_randomized_instances():
    started = time.perf_counter()
    dims = (8, 8, 8)
    grid = pk.make_grid(dims, 4)
    instances = 104
    checked = {"efficiency": 0, "null": 0, "symmetry": 0, "linearity": 0}
    for inst in range(instances):
        rng = np.random.default_rng(9000 + inst)
        n = int(rng.integers(3, 9))
        regions = [grid.regions[i] for i in rng.choice(8, size=n, replace=False)]
        symmetric_instance = inst % 3 == 0  # aligned with the additive family
        if symmetric_instance:
            v = pk.Volume(dims, np.full(512, 0.75, dtype=np.float32))
        else:
            v = pk.Volume(dims, rng.random(512, dtype=np.float32))
        weights = rng.normal(0.0, 0.4, n)
        weights[1] = 0.0  # planted null player
        if symmetric_instance:
            weights[2] = weights[0]  # interchangeable pair on a constant volume
        family = inst % 3
        if family == 0:
            f = RegionMeanProbe(regions, weights, bias=0.1)
        elif family == 1:
            f = LogisticRegionProbe(regions, weights, bias=-0.2)
        else:
            f = InteractionProbe(regions, weights, pair=(0, n - 1), pair_weight=0.3)

        values = pk.exact_shapley(f, v, regions)
        full = f.predict(v)[1]
        empty = f.predict(pk.perturb_zero(v, regions))[1]
        assert abs(values.sum() - (full - empty)) < 1e-6
        checked["efficiency"] += 1
        # Index 1 carries zero weight and never joins the interaction pair.
        assert values[1] == 0.0
        checked["null"] += 1
        if symmetric_instance and family == 0:
            assert abs(values[0] - values[2]) < 1e-6
            checked["symmetry"] += 1
        if inst % 5 == 0:
            g = LogisticRegionProbe(regions, rng.normal(0, 0.4, n), bias=0.3)
            alpha, beta = 0.6, -0.7

            class Combo:
                def predict(self, vol):
                    h = alpha * f.predict(vol)[1] + beta * g.predict(vol)[1]
                    return np.array([1.0 - h, h])

            s_combo = pk.exact_shapley(Combo(), v, regions)
            s_f = pk.exact_shapley(f, v, regions)
            s_g = pk.exact_shapley(g, v, regions)
            assert np.allclose(s_combo, alpha * s_f + beta * s_g, atol=1e-6)
            checked["linearity"] += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    assert checked["efficiency"] >= 100
    assert min(checked.values()) >= 20
    report("AC-02", f"axioms over {instances} instances {checked}, {elapsed:.1f}s < 30s")


def test_ac03_recursive_estimator_consistency_and_call_count():
    started = time.perf_counter()
    dims = (64, 64, 64)
    grid = pk.make_grid(dims, 8)
    rng = np.random.default_rng(333)
    v = pk.Volume(dims, rng.random(64**3, dtype=np.float32))
    weights = rng.normal(0.0, 0.05, len(grid))
    probe = CountingPredictor(pk.additive_probe(weights, 0.1, grid))
    amap = recursive_attribution(
        probe, v, leaf_edge=8, tau=-math.inf, rule="refine_at_or_above"
    )
    expected = weights * pk.patch_means(v, grid)
    assert np.allclose(amap.values, expected, atol=1e-5)
    assert amap.evaluations == probe.calls == 18_688
    assert amap.evaluations <= 18_688  # vs 2^512 coalitions for the naive scheme
    assert np.all(amap.refined_mask)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("AC-03", f"512 leaf values exact to 1e-5 with {amap.evaluations} "
                    f"predictor calls (naive bound 2^512), {elapsed:.1f}s < 2min")


def test_ac04_localisation_on_seeded_single_lesion_phantoms(tmp_path):
    started = time.perf_counter()
    runs, hits = 20, 0
    for run in range(runs):
        rng = np.random.default_rng(1000 + run)
        origin = tuple(int(c) for c in rng.integers(4, 17, size=3))
        lesion = pk.Region(origin, (10, 10, 10))
        spec = pk.PhantomSpec(
            dims=(32, 32, 32), n_per_class=8, lesion_regions=(lesion,),
            lesion_delta=0.35, noise_sigma=0.04, smooth_radius=0, seed=5000 + run,
        )
        manifest = pk.generate(spec, tmp_path / f"run{run}")
        grid = pk.make_grid(spec.dims, 8)
        predictor, _ = surrogate_train(manifest, grid)
        maps = []
        for i in range(len(manifest.entries)):
            vol = manifest.load_volume(i)
            if predictor.predict(vol)[1] < 0.5:
                continue
            maps.append(recursive_attribution(predictor, vol, leaf_edge=8, tau=1.0))
            if len(maps) >= 6:
                break
        cohort = cohort_average(maps)
        lesion_leaves = set(grid.indices_intersecting(lesion))
        top4 = select_top(cohort, 4).chosen
        hits += all(i in lesion_leaves for i in top4)
    assert hits >= 19  # >= 95% of 20 runs
    report("AC-04", f"top-4 leaves inside the planted lesion in {hits}/{runs} runs, "
                    f"{time.perf_counter() - started:.1f}s")


def smooth_check_params(cfg: PatchNetConfig, seed: int):
    """Parameters placed in a smooth region for finite differencing: near-identity
    spatial kernels keep batch-norm scales O(1), and alternating +-1 channel
    biases hold every ReLU preactivation away from the kink."""
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    d, m = cfg.embed_dim, cfg.side
    t = params.named_arrays()
    for i in range(cfg.depth):
        kernel = 0.1 * rng.normal(0, 1, (d, m, m))
        kernel[:, (m - 1) // 2, (m - 1) // 2] += 1.0
        t[f"blocks.{i}.gsi_kernel"][...] = kernel.astype(np.float32)
        t[f"blocks.{i}.lpi_weight"][...] = rng.normal(0, 0.05, (d, d)).astype(np.float32)
        t[f"blocks.{i}.lpi_bias"][...] = np.where(np.arange(d) % 2 == 0, 1.0, -1.0).astype(np.float32)
    return params


def test_ac05_gradient_fidelity_by_central_finite_differences():
    started = time.perf_counter()
    cfg = PatchNetConfig(patch_edge=2, patch_count=4, embed_dim=6, depth=2, seed=7)
    params = smooth_check_params(cfg, seed=42)
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, (4, 4, 8))
    y = np.array([0, 1, 0, 1])
    _, grads = loss_and_grad(x, y, params, dtype=np.float64)
    eps = 1e-3
    worst = 0.0
    total = 0
    for name, arr in params.learnable_arrays().items():
        flat = arr.reshape(-1)
        grad = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_and_grad(x, y, params, dtype=np.float64)
            flat[i] = orig - eps
            lm, _ = loss_and_grad(x, y, params, dtype=np.float64)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            # Relative error; coordinates with near-zero gradient (where the
            # ratio is undefined against O(eps^2) truncation) are measured
            # against a 0.1 gradient-scale floor.
            err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 0.1)
            assert err < 1e-3, (name, i, fd, grad[i], err)
            worst = max(worst, err)
            total += 1
    report("AC-05", f"{total} parameter coordinates within 1e-3 of central "
                    f"differences (worst {worst:.1e}), {time.perf_counter() - started:.1f}s")


def test_ac06_end_to_end_desk_scale_classification(tmp_path):
    started = time.perf_counter()
    spec = pk.PhantomSpec(
        dims=(64, 64, 64), n_per_class=100,
        lesion_regions=(pk.Region((22, 26, 20), (12, 12, 12)),),
        lesion_delta=0.35, noise_sigma=0.05, smooth_radius=1, seed=424242,
    )
    manifest = pk.generate(spec, tmp_path)
    grid = pk.make_grid(spec.dims, 8)
    predictor, sur_info = surrogate_train(manifest, grid)

    maps = []
    for i in range(len(manifest.entries)):
        if len(maps) >= 12:
            break
        vol = manifest.load_volume(i)
        if predictor.predict(vol)[1] < 0.5:
            continue
        maps.append(recursive_attribution(predictor, vol, leaf_edge=8, tau=1.0))
    cohort = cohort_average(maps)
    selection = select_top(cohort, 36)

    features, labels = extract_selected_patches(manifest, grid, selection)
    test_idx, val_idx, train_idx = stratified_split(labels, (0.25, 0.15), seed=7)
    net_cfg = PatchNetConfig(patch_edge=8, patch_count=36, embed_dim=64, depth=4, seed=9)
    result = train_patchnet(
        features[train_idx], labels[train_idx],
        features[val_idx], labels[val_idx],
        net_cfg, TrainSchedule(epochs=30), seed=9,
    )
    scores = class_scores(result.params, features[test_idx])
    rep = evaluate_scores(labels[test_idx], scores)
    elapsed = time.perf_counter() - started
    assert not result.aborted
    assert rep.acc >= 0.95
    assert rep.auc >= 0.98
    assert elapsed < 600.0
    lesion_hits = len(set(selection.chosen) & set(grid.indices_intersecting(spec.lesion_regions[0])))
    report("AC-06", f"test ACC={rep.acc:.3f} >= 0.95, AUC={rep.auc:.3f} >= 0.98 within "
                    f"30 epochs; {lesion_hits} lesion patches in the top-36; "
                    f"{cohort.evaluations} attribution calls; {elapsed:.0f}s < 600s")


def test_ac07_selection_method_comparison_on_noisy_phantom(tmp_path, capsys):
    started = time.perf_counter()
    cfg = {
        "paths": {"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path / "out")},
        "phantom": {
            "dims": [64, 64, 64], "n_per_class": 60,
            "lesion_regions": [{"origin": [22, 26, 20], "size": [12, 12, 12]}],
            "lesion_delta": 0.35, "noise_sigma": 0.15, "smooth_radius": 1,
        },
        "grid": {"patch_edge": 8},
        "explainer": {"tau": 1.0, "rule": "refine_below", "max_volumes": 8},
        "selection": {"method": "shap", "m_patches": 36},
        "net": {"embed_dim": 32, "depth": 2},
        "train": {"epochs": 12, "batch_size": 8, "val_fraction": 0.15, "test_fraction": 0.25},
        "compare": {"m_values": [16, 36, 64]},
        "seed": 2718,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for stage in ("gen", "surrogate", "explain", "compare"):
        assert main([stage, "--config", str(cfg_path)]) == 0, stage
    table = capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "compare.json").read_text())
    combos = {(r["method"], r["m"]) for r in payload["rows"]}
    assert combos == {(m, n) for m in ("shap", "ttest") for n in (16, 36, 64)}
    for row in payload["rows"]:
        assert 0.0 <= row["acc"] <= 1.0 and 0.0 <= row["auc"] <= 1.0
    verdict = payload["qualitative"]
    assert verdict["status"] in ("pass", "warn")  # logged, never a hard failure
    acc = {(r["method"], r["m"]): r["acc"] for r in payload["rows"]}
    print(table)
    report("AC-07", f"full (method, M) table emitted; qualitative={verdict['status']} "
                    f"(shap gap {verdict['shap_gap']:+.3f}, ttest gap "
                    f"{verdict['ttest_gap']:+.3f}); shap@16 ACC={acc[('shap', 16)]:.3f}; "
                    f"{time.perf_counter() - started:.0f}s")


def test_ac08_metric_exactness():
    labels = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
    scores = [0.9, 0.8, 0.7, 0.1, 0.2, 0.3, 0.4, 0.9, 0.2, 0.1]
    counts, acc, sen, spe = metrics(labels, scores)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (3, 4, 1, 2)
    assert acc == 0.7 and sen == 0.6 and spe == 0.8
    assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc([0, 1, 0, 1], [0.4, 0.4, 0.4, 0.4]) == 0.5
    report("AC-08", "ACC=0.7 SEN=0.6 SPE=0.8 exact; AUC separation=1.0, all-ties=0.5")


def _tiny_cli_config(tmp_path, name):
    root = tmp_path / name
    cfg = {
        "paths": {"data_dir": str(root / "data"), "out_dir": str(root / "out")},
        "phantom": {
            "dims": [16, 16, 16], "n_per_class": 8,
            "lesion_regions": [{"origin": [4, 4, 4], "size": [6, 6, 6]}],
            "lesion_delta": 0.4, "noise_sigma": 0.02, "smooth_radius": 1,
        },
        "grid": {"patch_edge": 4},
        "explainer": {"tau": 1.0, "max_volumes": 4},
        "selection": {"method": "shap", "m_patches": 4},
        "net": {"embed_dim": 8, "depth": 1},
        "train": {"epochs": 3, "batch_size": 4},
        "seed": 777,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return root, path


def test_ac09_determinism_of_artifacts(tmp_path):
    started = time.perf_counter()
    digests = []
    for name in ("first", "second"):
        root, cfg_path = _tiny_cli_config(tmp_path, name)
        for stage in ("gen", "surrogate", "explain", "select", "train"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        out = root / "out"
        digests.append({
            "checkpoint": (out / "checkpoint.pnc").read_bytes(),
            "attribution": (out / "attribution.json").read_bytes(),
            "axial": (out / "slices" / "axial.pgm").read_bytes(),
            "coronal": (out / "slices" / "coronal.pgm").read_bytes(),
            "sagittal": (out / "slices" / "sagittal.pgm").read_bytes(),
        })
    assert digests[0] == digests[1]

    # Thread count must not change attribution bits (fixed reduction order).
    dims = (16, 16, 16)
    grid = pk.make_grid(dims, 4)
    rng = np.random.default_rng(55)
    v = pk.Volume(dims, rng.random(4096, dtype=np.float32))
    probe = pk.additive_probe(rng.normal(0, 0.2, len(grid)), 0.1, grid)
    single = recursive_attribution(probe, v, 4, tau=1.0, threads=1)
    pooled = recursive_attribution(probe, v, 4, tau=1.0, threads=4)
    assert np.array_equal(single.values, pooled.values)
    assert json.dumps(single.to_json()) == json.dumps(pooled.to_json())
    report("AC-09", f"checkpoints, attribution maps and PGM slices bit-identical "
                    f"across reruns; maps bit-identical for 1 vs 4 threads; "
                    f"{time.perf_counter() - started:.0f}s")


def test_ac10_parameter_and_mac_accounting():
    cfg = PatchNetConfig(patch_edge=25, patch_count=36, embed_dim=1600, depth=12)
    rep = op_count_report(cfg)
    rows = {name: (p, m) for name, p, m in rep.rows}
    assert rows["projection"] == (25_000_000, 36 * 25**3 * 1600)
    assert rep.total_params == 56_587_202
    assert rep.total_macs == 2_033_571_200
    assert rep.reference_params == 34_530_000
    assert rep.reference_gmacs == 2.21
    print()
    print(rep.format_table())
    delta = rep.total_params - rep.reference_params
    report("AC-10", f"analytic totals {rep.total_params/1e6:.2f}M params / "
                    f"{rep.total_macs/1e9:.2f} GMac vs reference 34.53M / 2.21 GMac "
                    f"(delta {delta/1e6:+.2f}M, breakdown printed above)")
