import json

import pytest

from patchkit.cli import main

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
        cfg.setdefault(section, {})[field] = value
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
    ])
    def test_invalid_field_value_exits_2_with_path(self, tmp_path, capsys, key, value, path):
        cfg = write_config(tmp_path, **{key: value})
        assert run(cfg, "gen") == 2
        assert path in capsys.readouterr().err

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

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "absent.json")]) == 2


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

    def test_run_echo_reproduces_the_run(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(cfg, "gen") == 0
        manifest = (tmp_path / "data" / "manifest.json").read_bytes()
        echo = tmp_path / "out" / "run-gen.json"
        assert main(["gen", "--config", str(echo)]) == 0
        assert (tmp_path / "data" / "manifest.json").read_bytes() == manifest
