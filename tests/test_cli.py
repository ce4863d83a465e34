import json
import math
import shutil
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchkit import cli, phantom
from patchkit.artifacts import read_json, write_json
from patchkit.cli import COMMANDS, main
from patchkit.config import SELECT_METHODS, RunConfig, load_config
from patchkit.patchnet import PatchNetConfig, load_checkpoint
from patchkit.shapley import REFINE_RULES, SELECT_KEYS, AttributionMap, SelectionResult
from patchkit.surrogate import SurrogatePredictor
from patchkit.train import TrainSchedule
from patchkit.volume import make_grid

TINY = {
    "phantom": {
        "dims": [16, 16, 16],
        "n_per_class": 8,
        "lesion_regions": [{"origin": [4, 4, 4], "size": [6, 6, 6]}],
        "lesion_delta": 0.4,
        "noise_sigma": 0.02,
        "smooth_radius": 1,
    },
    "grid": {"patch_edge": 4},
    "explainer": {"tau": 0.0, "rule": "refine_below", "max_volumes": 3},
    "selection": {"method": "shap", "m_patches": 4},
    "net": {"embed_dim": 8, "depth": 1},
    "train": {"epochs": 2, "batch_size": 4, "val_fraction": 0.2, "test_fraction": 0.25},
    "eval": {"k": 2, "repeats": 1},
    "compare": {"m_values": [1, 4]},
    "seed": 77,
}


def write_config(tmp_path, **extra):
    cfg = json.loads(json.dumps(TINY))
    cfg["paths"] = {
        "data_dir": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "out"),
    }
    for key, value in extra.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(cfg_path, *args):
    return main([args[0], "--config", str(cfg_path), *args[1:]])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run gen -> surrogate -> explain -> select once; later stages reuse it."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp)
    for stage in ("gen", "surrogate", "explain", "select"):
        assert run(cfg, stage) == 0
    return tmp, cfg


class TestStageFlow:
    def test_early_stage_artifacts(self, pipeline_dir):
        tmp, _ = pipeline_dir
        out = tmp / "out"
        assert (tmp / "data" / "manifest.json").exists()
        assert (out / "surrogate.json").exists()
        assert (out / "attribution.json").exists()
        assert (out / "selection.json").exists()
        for name in ("axial", "coronal", "sagittal"):
            assert (out / "slices" / f"{name}.pgm").read_bytes().startswith(b"P5\n")
        for stage in ("gen", "surrogate", "explain", "select"):
            echo = json.loads((out / f"run-{stage}.json").read_text())
            assert echo["stage"] == stage
            assert echo["config"]["seed"] == 77

    def test_explain_reports_patch_counts_and_evaluations(self, pipeline_dir):
        tmp, _ = pipeline_dir
        echo = json.loads((tmp / "out" / "run-explain.json").read_text())
        art = echo["artifacts"]
        assert art["patch_grid"]["counts"] == [4, 4, 4]
        assert art["patch_grid"]["leaf_count"] == 64
        assert len(art["per_volume_evaluations"]) == len(art["cohort_volumes"]) > 0

    def test_explain_outline_overlaps_lesion_footprint(self, pipeline_dir):
        # The lesion spans (4..10)^3, so its footprint crosses the mid slice
        # z=8; the top-selection outlines must put border pixels inside it.
        import numpy as np

        from patchkit import DatasetManifest
        from patchkit.render import render_slices

        tmp, _ = pipeline_dir
        raw = (tmp / "out" / "slices" / "axial.pgm").read_bytes()
        header = b"P5\n16 16\n255\n"
        assert raw.startswith(header)
        axial = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(16, 16)
        echo = json.loads((tmp / "out" / "run-explain.json").read_text())
        first_id = echo["artifacts"]["cohort_volumes"][0]
        manifest = DatasetManifest.load(tmp / "data" / "manifest.json")
        plain = render_slices(manifest.load_volume(first_id), [])["axial"]
        base = np.frombuffer(plain[len(header):], dtype=np.uint8).reshape(16, 16)
        outline = (axial == 255) & (base != 255)
        assert outline[3:11, 3:11].any()

    def test_train_and_eval(self, pipeline_dir):
        tmp, cfg = pipeline_dir
        assert run(cfg, "train") == 0
        out = tmp / "out"
        assert (out / "checkpoint.pnc").read_bytes()[:4] == b"PNC1"
        summary = json.loads((out / "train_summary.json").read_text())
        assert {"test_acc", "test_auc", "best_val_acc", "aborted"} <= set(summary)
        log_lines = (out / "train_log.jsonl").read_text().strip().splitlines()
        assert len(log_lines) == TINY["train"]["epochs"]
        assert run(cfg, "eval") == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["folds"]) == 2
        assert (out / "roc.csv").read_text().startswith("fpr,tpr")

    def test_compare_emits_full_table(self, pipeline_dir):
        tmp, cfg = pipeline_dir
        assert run(cfg, "compare") == 0
        payload = json.loads((tmp / "out" / "compare.json").read_text())
        combos = {(r["method"], r["m"]) for r in payload["rows"]}
        assert combos == {("shap", 1), ("shap", 4), ("ttest", 1), ("ttest", 4)}
        assert payload["qualitative"]["status"] in ("pass", "warn")
        for row in payload["rows"]:
            assert 0.0 <= row["acc"] <= 1.0
            assert 0.0 <= row["lesion_recall"] <= 1.0


class TestErrors:
    def test_non_square_selection_m_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"selection.m_patches": 30})
        assert run(cfg, "select") == 2
        assert "perfect square" in capsys.readouterr().err

    def test_missing_dependency_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(cfg, "surrogate") == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and "gen" in err

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg), "--set", "grid.nope=3"]) == 2
        assert "grid.nope" in capsys.readouterr().err

    def test_retired_class_count_loads_only_at_two(self, tmp_path, capsys):
        # Echoes written before net.class_count was removed carry it as 2.
        echo = tmp_path / "run-gen.json"
        echo.write_text(json.dumps({"stage": "gen", "config": {"net": {"class_count": 2, "depth": 2}}}))
        assert load_config(echo).net.depth == 2
        cfg = write_config(tmp_path, **{"net.class_count": 3})
        assert main(["gen", "--config", str(cfg)]) == 2
        assert "net.class_count" in capsys.readouterr().err
        assert main(["gen", "--set", "net.class_count=3"]) == 2
        assert "net.class_count" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("phantom.lesion_delta", 1.5, "phantom.lesion_delta"),
        ("phantom.n_per_class", "abc", "phantom.n_per_class"),
        ("train.epochs", "5", "train.epochs"),
        ("explainer.tau", "x", "explainer.tau"),
        ("compare.m_values", 4, "compare.m_values"),
        ("grid.patch_edge", 2.5, "grid.patch_edge"),
        ("phantom.lesion_regions", [{"origin": ["a", 0, 0], "size": [6, 6, 6]}],
         "phantom.lesion_regions[0].origin"),
        ("phantom.noise_sigma", float("inf"), "phantom.noise_sigma"),
        ("explainer.rule", "nope", "explainer.rule"),
        ("selection.key", "nope", "selection.key"),
        ("selection.method", "nope", "selection.method"),
        ("compare.m_values", [16, 30], "compare.m_values[1]"),
        ("train.lr_end", 0, "train.lr_end"),
        ("phantom.n_per_class", 1, "phantom.n_per_class"),
        # The 16^3 phantom at patch edge 4 has 64 patches.
        ("selection.m_patches", 100, "selection.m_patches"),
        ("compare.m_values", [4, 100], "compare.m_values[1]"),
        ("seed", -1, "seed"),
        ("phantom.seed", -5, "phantom.seed"),
    ])
    def test_invalid_field_value_exits_2_with_path(self, tmp_path, capsys, key, value, path):
        cfg = write_config(tmp_path, **{key: value})
        assert run(cfg, "gen") == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("stage, overrides, want", [
        ("select", ["selection.method=ttest", "selection.m_patches=100"],
         "phantom.dims: [32, 32, 32] differ from the dims [16, 16, 16] of the dataset in "),
        ("select", ["selection.method=shap", "selection.m_patches=100"],
         "selection.m_patches: M=100 exceeds the 64 patches of "),
        ("compare", ["compare.m_values=[4,100]"],
         "phantom.dims: [32, 32, 32] differ from the dims [16, 16, 16] of the dataset in "),
    ], ids=["ttest", "shap", "compare"])
    def test_m_above_the_stage_grid_exits_2_with_path(self, pipeline_dir, capsys, stage,
                                                       overrides, want):
        # The pipeline's 16³ data has 64 patches; at phantom.dims 32³ the
        # config allows 512. A stage that reads the dataset (ttest, compare)
        # refuses dims that differ from the dataset's; shap ranks the map's
        # grid and checks M against it.
        sets = [arg for o in ["phantom.dims=[32,32,32]", *overrides] for arg in ("--set", o)]
        capsys.readouterr()
        assert main([stage, "--config", str(pipeline_dir[1]), *sets]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}"), err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("stage", ["surrogate", "explain", "select", "train", "eval", "compare"])
    def test_dims_other_than_the_datasets_exit_2(self, pipeline_dir, capsys, stage):
        # Every stage that reads the 16³ dataset refuses phantom.dims 32³,
        # also at an M that both grids allow, before it writes anything.
        out = pipeline_dir[0] / "out"
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        sets = ["--set", "phantom.dims=[32,32,32]", "--set", "selection.method=ttest"]
        capsys.readouterr()
        assert main([stage, "--config", str(pipeline_dir[1]), *sets]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phantom.dims: [32, 32, 32] differ from the dims [16, 16, 16] "
                              f"of the dataset in {pipeline_dir[0] / 'data' / 'manifest.json'}"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_negative_seed_flag_exits_2_naming_seed(self, tmp_path, capsys):
        # The flag is applied after the config file is read, and is checked too.
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_os_error_exits_2_without_traceback(self, tmp_path, capsys):
        # A data_dir that is an existing file fails in mkdir with an OSError.
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["gen", "--config", str(cfg), "--set", f"paths.data_dir={blocker}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(blocker) in err and "Traceback" not in err

    def test_unreadable_attribution_exits_2(self, pipeline_dir, tmp_path, capsys):
        text = (pipeline_dir[0] / "out" / "attribution.json").read_text()
        cfg = write_config(tmp_path)
        attribution = tmp_path / "out" / "attribution.json"
        attribution.parent.mkdir()
        for broken in (text[: len(text) // 2], "[1, 2]"):
            attribution.write_text(broken)
            assert run(cfg, "select") == 2
            assert str(attribution) in capsys.readouterr().err

    def test_budget_exceeded_exits_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"explainer.budget": 10})
        for stage in ("gen", "surrogate"):
            assert run(cfg, stage) == 0
        assert run(cfg, "explain") == 5
        assert "more than 10 predictor calls" in capsys.readouterr().err

    def test_selected_patch_outside_the_grid_exits_2(self, tmp_path, capsys):
        # The 16^3 phantom at patch edge 4 has 64 patches, indexed 0..63.
        cfg = write_config(tmp_path)
        assert run(cfg, "gen") == 0
        selection = {"chosen": [64, 1, 2, 3], "method": "shap", "scores": [4.0, 3.0, 2.0, 1.0]}
        (tmp_path / "out" / "selection.json").write_text(json.dumps(selection))
        assert run(cfg, "train") == 2
        assert "selected patch 64 is outside the grid of 64 patches" in capsys.readouterr().err

    def test_train_without_a_test_sample_exits_2(self, tmp_path, capsys):
        # Two volumes per class at test_fraction 0.25: round(0.5) = 0 test samples.
        cfg = write_config(tmp_path, **{"phantom.n_per_class": 2, "selection.method": "ttest"})
        for stage in ("gen", "select"):
            assert run(cfg, stage) == 0
        capsys.readouterr()
        assert run(cfg, "train") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train.test_fraction: ") and err.count("\n") == 1, err
        assert "of the 2 class-0 samples" in err and "test part" in err

    def test_compare_without_a_test_sample_exits_2(self, pipeline_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"phantom.n_per_class": 2})
        assert run(cfg, "gen") == 0
        (tmp_path / "out" / "attribution.json").write_bytes(
            (pipeline_dir[0] / "out" / "attribution.json").read_bytes()
        )
        capsys.readouterr()
        assert run(cfg, "compare") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train.test_fraction: ") and err.count("\n") == 1, err

    def test_eval_fold_without_a_training_sample_exits_2(self, tmp_path, capsys):
        # Two volumes per class in 2 folds leave one per class outside each
        # test fold, and a validation share of 0.6 rounds that one into the
        # validation part. The config validates; the fold split must not.
        cfg = write_config(tmp_path, **{"phantom.n_per_class": 2, "selection.method": "ttest",
                                        "eval.k": 2, "train.val_fraction": 0.6,
                                        "train.test_fraction": 0.3})
        for stage in ("gen", "select"):
            assert run(cfg, stage) == 0
        capsys.readouterr()
        assert run(cfg, "eval") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train.val_fraction: ") and err.count("\n") == 1, err
        assert "training sample in repeat 0 fold 0" in err and "Traceback" not in err

    def test_eval_k_above_the_smallest_class_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"selection.method": "ttest", "eval.k": 9})
        for stage in ("gen", "select"):
            assert run(cfg, stage) == 0
        capsys.readouterr()
        assert run(cfg, "eval") == 2
        err = capsys.readouterr().err
        assert err == "error: eval.k: k=9 exceeds the smallest class size 8\n", err

    def test_unstratified_one_class_test_fold_exits_2_before_any_fit(self, tmp_path, capsys,
                                                                      monkeypatch):
        # Four volumes in four unstratified folds: every test fold holds one
        # class, so no fold's ROC is defined.
        cfg = write_config(tmp_path, **{"phantom.n_per_class": 2, "selection.method": "ttest",
                                        "eval.k": 4, "eval.stratified": False})
        for stage in ("gen", "select"):
            assert run(cfg, stage) == 0
        fits = []
        monkeypatch.setattr(cli, "train_patchnet", lambda *args: fits.append(args))
        capsys.readouterr()
        assert run(cfg, "eval") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eval.stratified: ") and err.count("\n") == 1, err
        assert "repeat 0 fold 0 with one class" in err and not fits

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "absent.json")]) == 2


class TestCompareReads:
    def test_compare_reads_each_volume_twice(self, pipeline_dir, tmp_path, monkeypatch):
        # 40 volumes: the t-test ranking's scan reads each once, and one
        # extraction of both rankings' patches reads each once more.
        cfg = write_config(tmp_path, **{"phantom.n_per_class": 20})
        assert run(cfg, "gen") == 0
        (tmp_path / "out" / "attribution.json").write_bytes(
            (pipeline_dir[0] / "out" / "attribution.json").read_bytes()
        )
        reads, read_vol = [], phantom.read_vol
        monkeypatch.setattr(phantom, "read_vol", lambda path: reads.append(path) or read_vol(path))
        assert run(cfg, "compare") == 0
        assert len(reads) == 80 and len(set(reads)) == 40

    def test_union_columns_are_each_rankings_patches(self, pipeline_dir):
        from patchkit import DatasetManifest, SelectionResult
        from patchkit.train import extract_patches, extract_selected_patches
        from patchkit.volume import make_grid

        manifest = DatasetManifest.load(pipeline_dir[0] / "data" / "manifest.json")
        grid = make_grid(manifest.spec.dims, TINY["grid"]["patch_edge"])
        rankings = [SelectionResult([5, 9, 2, 40], "shap", np.arange(4.0)),
                    SelectionResult([9, 63, 5, 0], "ttest", np.arange(4.0))]
        union = [5, 9, 2, 40, 63, 0]
        patches, labels = extract_patches(manifest, grid, union)
        for ranking in rankings:
            features, want_labels = extract_selected_patches(manifest, grid, ranking)
            sliced = patches[:, [union.index(i) for i in ranking.chosen]]
            assert sliced.dtype == features.dtype and sliced.tobytes() == features.tobytes()
            assert np.array_equal(labels, want_labels)


class TestOverrides:
    def test_set_overrides_are_echoed(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg), "--set", "phantom.n_per_class=2"]) == 0
        echo = json.loads((tmp_path / "out" / "run-gen.json").read_text())
        assert echo["config"]["phantom"]["n_per_class"] == 2
        assert echo["artifacts"]["volumes"] == 4

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg), "--seed", "123"]) == 0
        echo = json.loads((tmp_path / "out" / "run-gen.json").read_text())
        assert echo["config"]["seed"] == 123

    def test_out_flag_redirects_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["gen", "--config", str(cfg), "--out", str(other)]) == 0
        assert (other / "run-gen.json").exists()


class TestDefaults:
    def test_default_config_is_pinned(self):
        # Config defaults read from the library types must keep these values.
        assert json.dumps(RunConfig().to_dict(), sort_keys=True) == (
            '{"compare": {"m_values": [16, 36, 64]}, "eval": {"k": 5, "repeats": 1, "stratified": true}, '
            '"explainer": {"budget": 100000, "max_depth": 3, "max_volumes": 12, "rule": "refine_below", '
            '"tau": 1.0, "use_true_labels": false}, "grid": {"patch_edge": 8}, '
            '"net": {"depth": 4, "embed_dim": 64}, '
            '"paths": {"data_dir": "data", "out_dir": "out"}, '
            '"phantom": {"dims": [64, 64, 64], "lesion_delta": 0.35, '
            '"lesion_regions": [{"origin": [22, 26, 20], "size": [12, 12, 12]}], "n_per_class": 100, '
            '"noise_sigma": 0.05, "seed": null, "smooth_radius": 1}, "seed": 2024, '
            '"selection": {"key": "magnitude", "m_patches": 36, "method": "shap"}, '
            '"train": {"batch_size": 8, "epochs": 30, "lr_end": 1e-06, "lr_start": 0.0001, '
            '"test_fraction": 0.25, "val_fraction": 0.15}}'
        )

    @pytest.mark.parametrize("overrides", [
        {"explainer.use_true_labels": True},
        {"explainer.rule": "refine_at_or_above", "explainer.tau": 0.0},
        {"selection.key": "value"},
        {"eval.stratified": False},
    ])
    def test_non_default_option_runs_every_stage(self, tmp_path, overrides):
        cfg = write_config(tmp_path, **overrides)
        for stage in COMMANDS:
            assert run(cfg, stage) == 0, stage
        out = tmp_path / "out"
        manifest = phantom.DatasetManifest.load(tmp_path / "data" / "manifest.json")
        for i in range(len(manifest.entries)):
            manifest.load_volume(i)
        SurrogatePredictor.load(out / "surrogate.json")
        AttributionMap.load(out / "attribution.json")
        SelectionResult.load(out / "selection.json")
        load_checkpoint(out / "checkpoint.pnc")
        for line in (out / "train_log.jsonl").read_text().splitlines():
            json.loads(line)
        for name in ("train_summary.json", "eval_report.json", "compare.json"):
            read_json(out / name)
        for stage in COMMANDS:
            echoed = load_config(out / f"run-{stage}.json")
            for key, value in overrides.items():
                section, _, field = key.partition(".")
                assert getattr(getattr(echoed, section), field) == value


TINY_FLOAT = 5e-324  # the smallest positive double


@st.composite
def boundary_overrides(draw):
    """``--set`` overrides at the validator's boundary values: every field at
    or next to the edge of what ``load_config`` accepts."""
    dims = [draw(st.integers(1, 9), label="dim") for _ in range(3)]
    edge = draw(st.sampled_from([1, min(dims)]), label="patch_edge")
    side = math.isqrt(math.prod(d // edge for d in dims))
    m_values = sorted({1, side * side})
    val = draw(st.sampled_from([0.0, 0.5]), label="val_fraction")
    corner = {"origin": [d - 1 for d in dims], "size": [1, 1, 1]}
    return {
        "phantom.dims": dims,
        "phantom.n_per_class": 2,
        "phantom.lesion_regions": [draw(st.sampled_from([{"origin": [0, 0, 0], "size": dims}, corner]))],
        "phantom.lesion_delta": draw(st.sampled_from([TINY_FLOAT, 1.0])),
        "phantom.noise_sigma": 0.0,
        "phantom.smooth_radius": 0,
        "phantom.seed": draw(st.sampled_from([None, 0])),
        "grid.patch_edge": edge,
        "explainer.rule": draw(st.sampled_from(REFINE_RULES)),
        "explainer.tau": draw(st.sampled_from([-1e308, 0.0, 1e308])),
        "explainer.budget": 1,
        "explainer.max_depth": 1,
        "explainer.max_volumes": 1,
        "selection.method": draw(st.sampled_from(SELECT_METHODS)),
        "selection.key": draw(st.sampled_from(SELECT_KEYS)),
        "selection.m_patches": draw(st.sampled_from(m_values)),
        "net.embed_dim": 1,
        "net.depth": 1,
        "train.epochs": 1,
        "train.batch_size": 1,
        "train.lr_start": TINY_FLOAT,
        "train.lr_end": TINY_FLOAT,
        "train.val_fraction": val,
        "train.test_fraction": draw(st.sampled_from([TINY_FLOAT, (1.0 - val) / 2])),
        "eval.k": 2,
        "eval.stratified": draw(st.booleans()),
        "compare.m_values": m_values,
        "seed": draw(st.sampled_from([0, 2**40])),
    }


class TestValidatorDrift:
    @settings(max_examples=60, deadline=None)
    @given(overrides=boundary_overrides())
    def test_accepted_boundary_configs_build_every_library_object(self, overrides):
        # Whatever the validator accepts, the library types a stage builds
        # from it accept too: no stage can fail later on a config that
        # passed its check.
        cfg = load_config(overrides=[f"{key}={json.dumps(value)}" for key, value in overrides.items()])
        spec = cfg.phantom.to_spec(cfg.stage_seed("gen"))
        grid = make_grid(spec.dims, cfg.grid.patch_edge)
        for m in {cfg.selection.m_patches, *cfg.compare.m_values}:
            assert m <= len(grid)
            PatchNetConfig(cfg.grid.patch_edge, m, seed=cfg.stage_seed("train"), **asdict(cfg.net))
        TrainSchedule(**{f.name: getattr(cfg.train, f.name) for f in fields(TrainSchedule)})


class TestIdempotence:
    def test_gen_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(cfg, "gen") == 0
        manifest = (tmp_path / "data" / "manifest.json").read_bytes()
        volume = (tmp_path / "data" / "vol_0_0000.vol").read_bytes()
        assert run(cfg, "gen") == 0
        assert (tmp_path / "data" / "manifest.json").read_bytes() == manifest
        assert (tmp_path / "data" / "vol_0_0000.vol").read_bytes() == volume

    def test_eval_and_compare_reruns_are_byte_identical(self, pipeline_dir):
        tmp, cfg = pipeline_dir
        out = tmp / "out"
        names = ("eval_report.json", "roc.csv", "compare.json")
        runs = []
        for _ in range(2):
            assert run(cfg, "eval") == 0
            assert run(cfg, "compare") == 0
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]

    def test_checkpoint_does_not_depend_on_selection_scores(self, pipeline_dir, tmp_path):
        # Training reads the selection's chosen patches only; the checkpoint
        # keeps them with the method and grid, so halving every score leaves
        # checkpoint.pnc byte-identical.
        src, _ = pipeline_dir
        shutil.copytree(src / "data", tmp_path / "data")
        (tmp_path / "out").mkdir()
        cfg = write_config(tmp_path)
        selection = read_json(src / "out" / "selection.json")
        assert any(score != 0 for score in selection["scores"])
        checkpoints = []
        for scale in (1.0, 0.5):
            scores = [score * scale for score in selection["scores"]]
            write_json(tmp_path / "out" / "selection.json", selection | {"scores": scores})
            assert run(cfg, "train") == 0
            checkpoints.append((tmp_path / "out" / "checkpoint.pnc").read_bytes())
        assert checkpoints[0] == checkpoints[1]
        _, extra = load_checkpoint(tmp_path / "out" / "checkpoint.pnc")
        assert extra["selection"] == {"chosen": selection["chosen"], "method": selection["method"]}
        assert set(extra) == {"selection", "grid"}

    def test_run_echo_reproduces_the_run(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(cfg, "gen") == 0
        manifest = (tmp_path / "data" / "manifest.json").read_bytes()
        echo = tmp_path / "out" / "run-gen.json"
        assert main(["gen", "--config", str(echo)]) == 0
        assert (tmp_path / "data" / "manifest.json").read_bytes() == manifest
