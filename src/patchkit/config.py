"""Declarative run configuration: one JSON document plus dotted-path overrides.

Defaults describe the desk-scale experiment (64^3 volumes, 8-voxel patch grid,
100 volumes per class) sized so the full pipeline runs in minutes on a CPU.
Settings the library defines are read from it: schedule defaults from
``train.TrainSchedule``, the call budget and the rule and key names from
``shapley``. The phantom, net and train sections map onto
``phantom.PhantomSpec``, ``PatchNetConfig`` and ``TrainSchedule`` by field
name.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .artifacts import type_mismatch
from .errors import ConfigError
from .phantom import PhantomSpec
from .shapley import DEFAULT_CALL_BUDGET, REFINE_RULES, SELECT_KEYS, is_perfect_square
from .train import TrainSchedule
from .volume import Region

SELECT_METHODS = ("shap", "ttest")

# Fixed per-stage offsets for deriving stage seeds from the global seed.
STAGE_SEED_OFFSETS = {
    "gen": 11,
    "surrogate": 23,
    "explain": 37,
    "select": 41,
    "train": 53,
    "eval": 67,
    "compare": 79,
}


@dataclass
class PathsConfig:
    data_dir: str = "data"
    out_dir: str = "out"


@dataclass
class PhantomConfig:
    dims: list[int] = field(default_factory=lambda: [64, 64, 64])
    n_per_class: int = 100
    lesion_regions: list[dict] = field(
        default_factory=lambda: [{"origin": [22, 26, 20], "size": [12, 12, 12]}]
    )
    lesion_delta: float = 0.35
    noise_sigma: float = 0.05
    smooth_radius: int = 1
    seed: int | None = None  # null derives from the global seed

    def to_spec(self, fallback_seed: int) -> PhantomSpec:
        return PhantomSpec(**asdict(self) | {
            "lesion_regions": tuple(Region.from_json(r) for r in self.lesion_regions),
            "seed": self.seed if self.seed is not None else fallback_seed,
        })


@dataclass
class GridConfig:
    patch_edge: int = 8


@dataclass
class ExplainerConfig:
    # Attribution values are probability differences, so under refine_below
    # any tau >= 1 refines every node down to the leaf grid (all leaves get
    # leaf-level values). Lowering tau refines only nodes with S < tau: the
    # cheap selective mode.
    tau: float = 1.0
    rule: str = "refine_below"
    budget: int = DEFAULT_CALL_BUDGET
    max_depth: int = 3
    max_volumes: int = 12
    use_true_labels: bool = False


@dataclass
class SelectionConfig:
    method: str = "shap"
    m_patches: int = 36
    key: str = "magnitude"


@dataclass
class NetConfig:
    embed_dim: int = 64
    depth: int = 4


@dataclass
class TrainConfig:
    epochs: int = TrainSchedule.epochs
    batch_size: int = TrainSchedule.batch_size
    lr_start: float = TrainSchedule.lr_start
    lr_end: float = TrainSchedule.lr_end
    val_fraction: float = 0.15
    test_fraction: float = 0.25


@dataclass
class EvalConfig:
    k: int = 5
    repeats: int = 1
    stratified: bool = True


@dataclass
class CompareConfig:
    m_values: list[int] = field(default_factory=lambda: [16, 36, 64])


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    phantom: PhantomConfig = field(default_factory=PhantomConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    explainer: ExplainerConfig = field(default_factory=ExplainerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    net: NetConfig = field(default_factory=NetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    compare: CompareConfig = field(default_factory=CompareConfig)
    seed: int = 2024

    def stage_seed(self, stage: str) -> int:
        return self.seed * 1000 + STAGE_SEED_OFFSETS[stage]

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {name: cls for name, cls in get_type_hints(RunConfig).items() if is_dataclass(cls)}


# Removed fields that older files may still carry, each at its one legal value.
_RETIRED = {"net.class_count": 2}


def _build_section(cls, values: dict, path: str):
    known = {f for f in cls.__dataclass_fields__}
    kept = {}
    for key, value in values.items():
        dotted = f"{path}.{key}"
        if key in known:
            kept[key] = value
        elif dotted not in _RETIRED or value != _RETIRED[dotted]:
            raise ConfigError(dotted, "unknown field")
    return cls(**kept)


def config_from_dict(raw: dict) -> RunConfig:
    raw = dict(raw)
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = raw.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(name, "must be an object")
        kwargs[name] = _build_section(cls, section, name)
    if "seed" in raw:
        kwargs["seed"] = raw.pop("seed")
    if raw:
        raise ConfigError(next(iter(raw)), "unknown field")
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus ``key=value`` overrides."""
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError("config", f"file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if isinstance(raw, dict) and "stage" in raw and isinstance(raw.get("config"), dict):
        raw = raw["config"]  # a run-<stage>.json echo reproduces its run
    base = config_from_dict({})  # defaults
    merged = base.to_dict()
    _deep_merge(merged, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        _assign_path(merged, key.strip(), value.strip())
    return config_from_dict(merged)


def _deep_merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = value


def _assign_path(tree: dict, dotted: str, raw_value: str) -> None:
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = tree
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(dotted, "unknown field path")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(dotted, "unknown field path")
    node[parts[-1]] = value


def _check_type(value, hint, path: str) -> None:
    """Raise ConfigError at ``path`` unless ``value`` fits the field type hint."""
    mismatch = type_mismatch(value, hint, path)
    if mismatch is not None:
        raise ConfigError(*mismatch)


def _check_types(obj, prefix: str = "") -> None:
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _check_types(value, f"{prefix}{f.name}.")
        else:
            _check_type(value, hints[f.name], prefix + f.name)


def validate_config(cfg: RunConfig) -> None:
    def check(cond: bool, path: str, message: str) -> None:
        if not cond:
            raise ConfigError(path, message)

    _check_types(cfg)
    check(cfg.seed >= 0, "seed", "must be >= 0")
    ph = cfg.phantom
    check(ph.seed is None or ph.seed >= 0, "phantom.seed", "must be null or >= 0")
    check(len(ph.dims) == 3 and all(v >= 1 for v in ph.dims),
          "phantom.dims", "must be three integers >= 1")
    check(ph.n_per_class >= 2, "phantom.n_per_class", "must be >= 2 for the surrogate and t-test")
    check(0.0 < ph.lesion_delta <= 1.0, "phantom.lesion_delta", "must be in (0, 1]")
    check(0.0 <= ph.noise_sigma < math.inf, "phantom.noise_sigma", "must be finite and >= 0")
    check(ph.smooth_radius >= 0, "phantom.smooth_radius", "must be >= 0")
    check(len(ph.lesion_regions) >= 1, "phantom.lesion_regions", "must list at least one region")
    for i, r in enumerate(ph.lesion_regions):
        path = f"phantom.lesion_regions[{i}]"
        for key in ("origin", "size"):
            _check_type(r.get(key), list[int], f"{path}.{key}")
            check(len(r[key]) == 3, f"{path}.{key}", "must be three integers")
        origin, size = r["origin"], r["size"]
        check(all(origin[a] >= 0 and size[a] >= 1 and origin[a] + size[a] <= ph.dims[a]
                  for a in range(3)), path, "must lie inside dims with size >= 1")
    check(cfg.grid.patch_edge >= 1, "grid.patch_edge", "must be >= 1")
    check(cfg.grid.patch_edge <= min(ph.dims), "grid.patch_edge",
          "must not exceed the smallest volume dimension")
    patches = math.prod(d // cfg.grid.patch_edge for d in ph.dims)

    def check_m(m: int, path: str) -> None:
        check(is_perfect_square(m), path, "M must be a perfect square")
        check(m <= patches, path, f"M={m} exceeds the {patches} patches of phantom.dims "
              f"at grid.patch_edge {cfg.grid.patch_edge}")

    ex = cfg.explainer
    check(ex.rule in REFINE_RULES, "explainer.rule", f"must be one of {REFINE_RULES}")
    check(ex.tau == ex.tau and abs(ex.tau) != float("inf"), "explainer.tau",
          "must be finite (library callers may pass inf directly)")
    check(ex.budget >= 1, "explainer.budget", "must be >= 1")
    check(ex.max_depth >= 1, "explainer.max_depth", "must be >= 1")
    check(ex.max_volumes >= 1, "explainer.max_volumes", "must be >= 1")
    sel = cfg.selection
    check(sel.method in SELECT_METHODS, "selection.method", f"must be one of {SELECT_METHODS}")
    check(sel.key in SELECT_KEYS, "selection.key", f"must be one of {SELECT_KEYS}")
    check_m(sel.m_patches, "selection.m_patches")
    net = cfg.net
    check(net.embed_dim >= 1, "net.embed_dim", "must be >= 1")
    check(net.depth >= 1, "net.depth", "must be >= 1")
    tr = cfg.train
    check(tr.epochs >= 1, "train.epochs", "must be >= 1")
    check(tr.batch_size >= 1, "train.batch_size", "must be >= 1")
    check(tr.lr_start > 0, "train.lr_start", "must be positive")
    check(tr.lr_end > 0, "train.lr_end", "must be positive")
    check(0.0 <= tr.val_fraction < 1.0, "train.val_fraction", "must be in [0, 1)")
    check(0.0 < tr.test_fraction < 1.0, "train.test_fraction", "must be in (0, 1)")
    check(tr.val_fraction + tr.test_fraction < 1.0, "train.test_fraction",
          "val_fraction + test_fraction must leave training data")
    ev = cfg.eval
    check(ev.k >= 2, "eval.k", "must be >= 2")
    check(ev.repeats >= 1, "eval.repeats", "must be >= 1")
    cm = cfg.compare
    check(len(cm.m_values) >= 1, "compare.m_values", "must list at least one M")
    for i, m in enumerate(cm.m_values):
        check_m(m, f"compare.m_values[{i}]")
