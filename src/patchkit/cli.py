"""Command-line pipeline: gen -> surrogate -> explain -> select -> train -> eval -> compare.

Every command reads one declarative JSON config (plus ``--set`` overrides),
writes its artifacts under the output directory, and echoes the resolved
configuration into ``run-<stage>.json`` so a run can be reproduced exactly.
Exit codes: 0 success, 2 config error, unreadable input artifact, holdout
split or eval fold the data cannot fill (no test or training sample of a
class, or more folds than samples of a class), or operating system error
(such as an output path that is an existing file), 3 missing stage dependency,
4 numerical failure, 5 call budget exceeded or predictor contract violated.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .config import RunConfig, load_config, validate_config
from .errors import (
    BudgetExceededError,
    ConfigError,
    ContractViolationError,
    DependencyError,
    EmptyCohortError,
    InvalidArgumentError,
    NumericalFailureError,
    PatchkitError,
)
from .evaluation import aggregate_folds, evaluate_scores, kfold_indices, write_roc_csv
from .patchnet import PatchNetConfig, save_checkpoint
from .phantom import DatasetManifest, generate
from .render import render_slices
from .shapley import (
    AttributionMap,
    SelectionResult,
    cohort_average,
    recursive_attribution,
    select_top,
    ttest_select,
)
from .surrogate import SurrogatePredictor, surrogate_train
from .train import (
    TrainSchedule,
    class_scores,
    extract_patches,
    extract_selected_patches,
    stratified_split,
    train_patchnet,
)
from .volume import make_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERICAL = 4
EXIT_GUARD = 5  # call budget exceeded or predictor contract violated

# The exit code of an error is that of the first row whose types it matches.
EXIT_CODES = (
    ((ConfigError, InvalidArgumentError, OSError), EXIT_CONFIG),
    (DependencyError, EXIT_DEPENDENCY),
    ((NumericalFailureError, EmptyCohortError), EXIT_NUMERICAL),
    ((BudgetExceededError, ContractViolationError), EXIT_GUARD),
    (PatchkitError, EXIT_NUMERICAL),
)


def _manifest_path(cfg: RunConfig) -> Path:
    return Path(cfg.paths.data_dir) / "manifest.json"


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise DependencyError(f"missing {path} (run `patchkit {produced_by}` first)")
    return path


def _load_manifest(cfg: RunConfig) -> DatasetManifest:
    """The dataset gen wrote, refused unless its dims are the config's
    ``phantom.dims``, against which the config checked every M."""
    path = _require(_manifest_path(cfg), "gen")
    manifest = DatasetManifest.load(path)
    if tuple(cfg.phantom.dims) != tuple(manifest.spec.dims):
        raise ConfigError("phantom.dims", f"{list(cfg.phantom.dims)} differ from the dims "
                          f"{list(manifest.spec.dims)} of the dataset in {path}")
    return manifest


def _write_run_echo(cfg: RunConfig, stage: str, artifacts: dict) -> None:
    payload = {"stage": stage, "config": cfg.to_dict(), "artifacts": artifacts}
    write_json(_out_dir(cfg) / f"run-{stage}.json", payload)


def cmd_gen(cfg: RunConfig) -> int:
    spec = cfg.phantom.to_spec(cfg.stage_seed("gen"))
    manifest = generate(spec, cfg.paths.data_dir)
    _write_run_echo(cfg, "gen", {
        "manifest": str(_manifest_path(cfg)),
        "volumes": len(manifest.entries),
    })
    print(f"gen: wrote {len(manifest.entries)} volumes to {cfg.paths.data_dir}")
    return EXIT_OK


def cmd_surrogate(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    grid = make_grid(manifest.spec.dims, cfg.grid.patch_edge)
    predictor, info = surrogate_train(manifest, grid)
    out = _out_dir(cfg) / "surrogate.json"
    predictor.save(out)
    _write_run_echo(cfg, "surrogate", {"surrogate": str(out), "training": info})
    print(f"surrogate: train_acc={info['train_acc']:.3f} ({info['iterations']} Newton steps, "
          f"gradient {info['grad_norm']:.1e}) -> {out}")
    return EXIT_OK


def cmd_explain(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    predictor = SurrogatePredictor.load(_require(_out_dir(cfg) / "surrogate.json", "surrogate"))
    ex = cfg.explainer
    maps: list[AttributionMap] = []
    cohort_ids: list[int] = []
    first_volume = None
    for i in range(len(manifest.entries)):
        if len(maps) >= ex.max_volumes:
            break
        vol = manifest.load_volume(i)
        if ex.use_true_labels:
            positive = manifest.entries[i][1] == 1
        else:
            positive = predictor.predict(vol)[1] >= 0.5
        if not positive:
            continue
        maps.append(
            recursive_attribution(
                predictor,
                vol,
                leaf_edge=cfg.grid.patch_edge,
                tau=ex.tau,
                rule=ex.rule,
                max_depth=ex.max_depth,
                budget=ex.budget,
            )
        )
        cohort_ids.append(i)
        if first_volume is None:
            first_volume = vol
    if not maps:
        raise EmptyCohortError("no volume was identified as class 1")
    cohort = cohort_average(maps)
    out = _out_dir(cfg)
    cohort.save(out / "attribution.json")
    selection = select_top(cohort, cfg.selection.m_patches, key=cfg.selection.key)
    slices_dir = out / "slices"
    slices_dir.mkdir(exist_ok=True)
    images = render_slices(first_volume, [cohort.grid.regions[i] for i in selection.chosen])
    for name, blob in images.items():
        (slices_dir / f"{name}.pgm").write_bytes(blob)
    _write_run_echo(cfg, "explain", {
        "attribution": str(out / "attribution.json"),
        "slices": {n: str(slices_dir / f"{n}.pgm") for n in images},
        "cohort_volumes": cohort_ids,
        "per_volume_evaluations": [m.evaluations for m in maps],
        "patch_grid": cohort.grid.to_json() | {"leaf_count": len(cohort.grid)},
        "rule": ex.rule,
        "tau": ex.tau,
    })
    print(f"explain: averaged {len(maps)} maps, {cohort.evaluations} predictor calls, "
          f"grid {cohort.grid.counts} -> {out / 'attribution.json'}")
    return EXIT_OK


def _check_m(field: str, m: int, attribution: AttributionMap, path: Path) -> None:
    """Reject an M above the leaf count of the attribution map a stage ranks,
    naming the config field: the config's own check reads ``phantom.dims``
    and ``grid.patch_edge``, not the map's grid."""
    if m > len(attribution.grid):
        raise ConfigError(field, f"M={m} exceeds the {len(attribution.grid)} patches of {path}")


def cmd_select(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    m = cfg.selection.m_patches
    if cfg.selection.method == "shap":
        path = _require(out / "attribution.json", "explain")
        attribution = AttributionMap.load(path)
        _check_m("selection.m_patches", m, attribution, path)
        selection = select_top(attribution, m, key=cfg.selection.key)
    else:
        manifest = _load_manifest(cfg)
        selection = ttest_select(manifest, make_grid(manifest.spec.dims, cfg.grid.patch_edge), m)
    selection.save(out / "selection.json")
    _write_run_echo(cfg, "select", {
        "selection": str(out / "selection.json"),
        "method": selection.method,
        "m": len(selection.chosen),
    })
    print(f"select: {selection.method} top-{len(selection.chosen)} -> {out / 'selection.json'}")
    return EXIT_OK


def _holdout_split(cfg, labels, seed):
    """Stratified (train, val, test) indices at the configured fractions;
    InvalidArgumentError naming ``train.test_fraction`` when the test or the
    training part has no sample of some class."""
    tr = cfg.train
    test_idx, val_idx, train_idx = stratified_split(labels, (tr.test_fraction, tr.val_fraction), seed)
    for c in np.unique(labels):
        for part, idx in (("test", test_idx), ("training", train_idx)):
            if not np.any(labels[idx] == c):
                raise InvalidArgumentError(
                    f"train.test_fraction: test share {tr.test_fraction} and validation share "
                    f"{tr.val_fraction} of the {np.sum(labels == c)} class-{c} samples leave "
                    f"no class-{c} sample in the {part} part"
                )
    return train_idx, val_idx, test_idx


def _fit_and_score(cfg, features, labels, split, seed):
    """Fit a PatchNet on the ``(train, val, test)`` index split and return the
    fit with its class-1 scores on the test part."""
    train_idx, val_idx, test_idx = split
    net = PatchNetConfig(cfg.grid.patch_edge, features.shape[1], seed=seed, **asdict(cfg.net))
    schedule = TrainSchedule(**{f.name: getattr(cfg.train, f.name) for f in fields(TrainSchedule)})
    result = train_patchnet(
        features[train_idx], labels[train_idx],
        features[val_idx], labels[val_idx], net, schedule, seed,
    )
    return result, class_scores(result.params, features[test_idx])


def _selected_patches(cfg: RunConfig):
    """``(grid, selection, features, labels)``: the stored selection over the
    dataset's patch grid and its (N, M, p^3) patch stack with the labels."""
    manifest = _load_manifest(cfg)
    selection = SelectionResult.load(_require(_out_dir(cfg) / "selection.json", "select"))
    grid = make_grid(manifest.spec.dims, cfg.grid.patch_edge)
    return (grid, selection, *extract_selected_patches(manifest, grid, selection))


def cmd_train(cfg: RunConfig) -> int:
    grid, selection, features, labels = _selected_patches(cfg)
    out = _out_dir(cfg)
    seed = cfg.stage_seed("train")
    train_idx, val_idx, test_idx = split = _holdout_split(cfg, labels, seed)
    result, scores = _fit_and_score(cfg, features, labels, split, seed)
    report = evaluate_scores(labels[test_idx], scores)
    ckpt = out / "checkpoint.pnc"
    save_checkpoint(ckpt, result.params, extra={
        "selection": {"chosen": selection.chosen, "method": selection.method},
        "grid": grid.to_json(),
    })
    with open(out / "train_log.jsonl", "w") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    summary = {
        "test_acc": report.acc,
        "test_auc": report.auc,
        "best_val_acc": result.best_val_acc,
        "best_epoch": result.best_epoch,
        "aborted": result.aborted,
        "split_sizes": {"train": len(train_idx), "val": len(val_idx), "test": len(test_idx)},
    }
    write_json(out / "train_summary.json", summary)
    _write_run_echo(cfg, "train", {
        "checkpoint": str(ckpt),
        "log": str(out / "train_log.jsonl"),
        "summary": summary,
    })
    if result.aborted:
        print("train: diverged; last good checkpoint kept", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"train: test_acc={report.acc:.3f} test_auc={report.auc:.3f} -> {ckpt}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    _, _, features, labels = _selected_patches(cfg)
    out = _out_dir(cfg)
    seed = cfg.stage_seed("eval")
    try:
        assignments = kfold_indices(
            labels, cfg.eval.k, cfg.eval.repeats, seed, stratified=cfg.eval.stratified
        )
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"eval.k: {exc}") from None
    # Every fold's split is made and checked before the first fit.
    splits = []
    for rep, folds in enumerate(assignments):
        for fold_id, test_idx in enumerate(folds):
            if np.unique(labels[test_idx]).size < 2:
                raise InvalidArgumentError(
                    f"eval.stratified: unstratified folds leave the test part of repeat {rep} "
                    f"fold {fold_id} with one class, and its ROC needs both"
                )
            rest = np.setdiff1d(np.arange(len(labels)), test_idx)
            val_idx, train_idx = [rest[p] for p in stratified_split(
                labels[rest], (cfg.train.val_fraction,), seed + fold_id + 1000 * rep
            )]
            missing = np.setdiff1d(labels[rest], labels[train_idx])
            if missing.size:
                raise InvalidArgumentError(f"train.val_fraction: validation share {cfg.train.val_fraction} leaves "
                                           f"no class-{missing[0]} training sample in repeat {rep} fold {fold_id}")
            splits.append((rep, fold_id, (train_idx, val_idx, test_idx)))
    fold_reports: list[dict] = []
    pooled_scores = np.zeros(0)
    pooled_labels = np.zeros(0, dtype=np.int64)
    for rep, fold_id, split in splits:
        fold_seed = seed + 17 * (rep * cfg.eval.k + fold_id + 1)
        _, scores = _fit_and_score(cfg, features, labels, split, fold_seed)
        test_labels = labels[split[2]]
        rep_metrics = evaluate_scores(test_labels, scores)
        fold_reports.append({
            "repeat": rep, "fold": fold_id,
            "acc": rep_metrics.acc, "sen": rep_metrics.sen,
            "spe": rep_metrics.spe, "auc": rep_metrics.auc,
        })
        pooled_scores = np.concatenate([pooled_scores, scores])
        pooled_labels = np.concatenate([pooled_labels, test_labels])
    report = evaluate_scores(pooled_labels, pooled_scores)
    report.folds = fold_reports
    report.summary = aggregate_folds(fold_reports)
    report.save(out / "eval_report.json")
    write_roc_csv(out / "roc.csv", report.roc)
    _write_run_echo(cfg, "eval", {
        "report": str(out / "eval_report.json"),
        "roc": str(out / "roc.csv"),
        "summary": report.summary,
    })
    acc = report.summary["acc"]
    print(f"eval: acc={acc['mean']:.3f}+/-{acc['std']:.3f} over "
          f"{len(fold_reports)} folds -> {out / 'eval_report.json'}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    out = _out_dir(cfg)
    path = _require(out / "attribution.json", "explain")
    attribution = AttributionMap.load(path)
    grid = make_grid(manifest.spec.dims, cfg.grid.patch_edge)
    for i, m in enumerate(cfg.compare.m_values):
        _check_m(f"compare.m_values[{i}]", m, attribution, path)
    lesion_patches = set()
    for lesion in manifest.ground_truth:
        lesion_patches.update(grid.indices_intersecting(lesion))
    rows = []
    # Every top-m selection is a prefix of the top-M one: rank once, extract in one pass.
    m_max = max(cfg.compare.m_values)
    rankings = {
        "shap": select_top(attribution, m_max, key=cfg.selection.key),
        "ttest": ttest_select(manifest, grid, m_max),
    }
    union = list(dict.fromkeys(i for ranking in rankings.values() for i in ranking.chosen))
    patches, labels = extract_patches(manifest, grid, union)
    for method, ranking in rankings.items():
        features = patches[:, [union.index(i) for i in ranking.chosen]]
        for m in cfg.compare.m_values:
            seed = cfg.stage_seed("compare") + 101 * m + (0 if method == "shap" else 7)
            split = _holdout_split(cfg, labels, seed)
            _, scores = _fit_and_score(cfg, features[:, :m], labels, split, seed)
            report = evaluate_scores(labels[split[2]], scores)
            recall = (
                len(lesion_patches & set(ranking.chosen[:m])) / len(lesion_patches)
                if lesion_patches else float("nan")
            )
            rows.append({
                "method": method, "m": m,
                "acc": report.acc, "auc": report.auc,
                "lesion_recall": recall,
            })
    verdict = _qualitative_verdict(rows, cfg.compare.m_values)
    payload = {"rows": rows, "qualitative": verdict}
    write_json(out / "compare.json", payload)
    _write_run_echo(cfg, "compare", {"compare": str(out / "compare.json")})
    print(f"{'method':<8}{'M':>6}{'ACC':>10}{'AUC':>10}{'lesion_recall':>16}")
    for r in rows:
        print(f"{r['method']:<8}{r['m']:>6}{r['acc']:>10.3f}{r['auc']:>10.3f}"
              f"{r['lesion_recall']:>16.3f}")
    print(f"compare: qualitative check = {verdict['status']} ({verdict['detail']})")
    return EXIT_OK


def _qualitative_verdict(rows: list[dict], m_values: list[int]) -> dict:
    """Small-M robustness check: attribution-based selection should lose little
    accuracy at the smallest M, while t-test selection should trail more."""
    lo, hi = min(m_values), max(m_values)
    acc = {(r["method"], r["m"]): r["acc"] for r in rows}
    shap_gap = acc[("shap", hi)] - acc[("shap", lo)]
    ttest_gap = acc[("ttest", hi)] - acc[("ttest", lo)]
    ok = abs(shap_gap) <= 0.02 and ttest_gap > shap_gap
    detail = (f"shap acc gap M={lo}->M={hi}: {shap_gap:+.3f}; "
              f"ttest gap: {ttest_gap:+.3f}")
    return {"status": "pass" if ok else "warn", "detail": detail,
            "shap_gap": shap_gap, "ttest_gap": ttest_gap}


COMMANDS = {
    "gen": cmd_gen,
    "surrogate": cmd_surrogate,
    "explain": cmd_explain,
    "select": cmd_select,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="N", help="override the global seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides", help="override a config field by dotted path")
    parser = argparse.ArgumentParser(prog="patchkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common], help=f"run the {name} stage")
    return parser


def _resolve_config(args) -> RunConfig:
    """The config file and ``--set`` overrides, then the ``--seed`` and
    ``--out`` flags, validated again once the flags are applied."""
    cfg = load_config(args.config, args.overrides)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.paths.out_dir = args.out
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_resolve_config(args))
    except (PatchkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
