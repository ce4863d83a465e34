"""Synthetic two-class volume datasets with known discriminative regions.

Class 0 volumes are a fixed smooth "anatomy" template (bright ellipsoid on a
dark background) plus seeded Gaussian noise and optional box smoothing.
Class 1 volumes run the same pipeline with intensities inside each lesion
region multiplied by (1 - lesion_delta) before noise is added, so the classes
differ only inside the planted lesions. Generation is bit-deterministic for a
fixed spec: the noise stream for volume index i is derived from (seed, i), so
``generate`` builds the volumes on one thread per available CPU and writes the
same bytes whatever the CPU count. The noise draw and the box filter release
the interpreter lock, so those threads run in parallel.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

from .artifacts import load_artifact, typed, write_json
from .errors import InvalidArgumentError
from .volume import (
    PatchGrid, Region, Volume, _int, _int3, patch_means, read_vol, write_vol,
)


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    n_per_class: int
    lesion_regions: tuple[Region, ...]
    lesion_delta: float
    noise_sigma: float
    smooth_radius: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "dims", _int3("dims", self.dims))
        for name in ("n_per_class", "smooth_radius", "seed"):
            object.__setattr__(self, name, _int(name, getattr(self, name)))
        for name in ("lesion_delta", "noise_sigma"):
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "lesion_regions", tuple(self.lesion_regions))
        if any(d < 1 for d in self.dims):
            raise InvalidArgumentError(f"dims must be three values >= 1, got {self.dims}")
        if self.n_per_class < 1:
            raise InvalidArgumentError("n_per_class must be >= 1")
        if not (0.0 < self.lesion_delta <= 1.0):
            raise InvalidArgumentError(
                f"lesion_delta must be in (0, 1], got {self.lesion_delta}"
            )
        if not 0 <= self.noise_sigma < float("inf"):  # NaN fails both
            raise InvalidArgumentError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.smooth_radius < 0:
            raise InvalidArgumentError("smooth_radius must be >= 0")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if not self.lesion_regions:
            raise InvalidArgumentError("at least one lesion region is required")
        for r in self.lesion_regions:
            if any(r.end[a] > self.dims[a] for a in range(3)):
                raise InvalidArgumentError(f"lesion region {r} outside dims {self.dims}")

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "n_per_class": self.n_per_class,
            "lesion_regions": [r.to_json() for r in self.lesion_regions],
            "lesion_delta": self.lesion_delta,
            "noise_sigma": self.noise_sigma,
            "smooth_radius": self.smooth_radius,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PhantomSpec":
        return cls(
            dims=tuple(typed(obj, "dims", list[int])),
            n_per_class=typed(obj, "n_per_class", int),
            lesion_regions=tuple(
                Region.from_json(r) for r in typed(obj, "lesion_regions", list[dict])
            ),
            lesion_delta=float(typed(obj, "lesion_delta", float)),
            noise_sigma=float(typed(obj, "noise_sigma", float)),
            smooth_radius=typed(obj, "smooth_radius", int),
            seed=typed(obj, "seed", int),
        )


def _entry(k: int, e: dict) -> tuple[str, int]:
    """Manifest entry ``k`` as (path, label); labels are the binary classes 0 and 1."""
    path, label = typed(e, "path", str), typed(e, "label", int)
    if label not in (0, 1):
        raise InvalidArgumentError(f"entries[{k}].label: must be 0 or 1, got {label}")
    return path, label


@dataclass
class DatasetManifest:
    """Index of generated volumes: (relative path, label) pairs plus provenance."""

    spec: PhantomSpec
    ground_truth: tuple[Region, ...]
    entries: list[tuple[str, int]]
    root: Path | None = field(default=None, compare=False)

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.entries], dtype=np.int64)

    def volume_path(self, i: int) -> Path:
        rel = self.entries[i][0]
        return (self.root / rel) if self.root is not None else Path(rel)

    def load_volume(self, i: int) -> Volume:
        return read_vol(self.volume_path(i))

    def patch_means(self, grid: PatchGrid) -> np.ndarray:
        """(N, K) float64 features: row i is ``patch_means`` of volume i over ``grid``."""
        features = np.empty((len(self.entries), len(grid)))
        for i in range(len(self.entries)):
            features[i] = patch_means(self.load_volume(i), grid)
        return features

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "ground_truth": [r.to_json() for r in self.ground_truth],
            "entries": [{"path": p, "label": label} for p, label in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict, root: Path | None = None) -> "DatasetManifest":
        return cls(
            spec=PhantomSpec.from_json(typed(obj, "spec", dict)),
            ground_truth=tuple(Region.from_json(r) for r in typed(obj, "ground_truth", list[dict])),
            entries=[_entry(k, e) for k, e in enumerate(typed(obj, "entries", list[dict]))],
            root=root,
        )

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        return load_artifact(path, lambda obj: cls.from_json(obj, root=path.parent))


def base_anatomy(dims: tuple[int, int, int]) -> np.ndarray:
    """Fixed anatomy template as a float64 (D, H, W) array in [0, 1].

    A quadratic radial falloff inside an ellipsoid spanning ~84% of each axis,
    0.06 background outside; smooth and fully deterministic.
    """
    w, h, d = dims
    zs = np.arange(d, dtype=np.float64).reshape(d, 1, 1)
    ys = np.arange(h, dtype=np.float64).reshape(1, h, 1)
    xs = np.arange(w, dtype=np.float64).reshape(1, 1, w)
    rho2 = (
        ((xs - (w - 1) / 2.0) / (0.42 * w)) ** 2
        + ((ys - (h - 1) / 2.0) / (0.42 * h)) ** 2
        + ((zs - (d - 1) / 2.0) / (0.42 * d)) ** 2
    )
    return 0.06 + 0.82 * np.maximum(0.0, 1.0 - rho2)


def _volume_rng(seed: int, index: int) -> np.random.Generator:
    # Stream derived from (seed, index) so parallel generation cannot reorder draws.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _templates(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray]:
    """The noise-free class-0 and class-1 volumes: the anatomy template, and
    the template with each lesion region scaled by (1 - lesion_delta) in turn."""
    template = base_anatomy(spec.dims)
    lesioned = template.copy()
    for r in spec.lesion_regions:
        (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
        lesioned[z0 : z0 + sz, y0 : y0 + sy, x0 : x0 + sx] *= 1.0 - spec.lesion_delta
    return template, lesioned


def _synth_into(spec: PhantomSpec, template: np.ndarray, index: int,
                work: np.ndarray, out: np.ndarray) -> None:
    """Volume ``index`` from its class ``template``: noise -> blur -> clamp in the
    float64 ``work`` buffer, then cast into the float32 ``out`` buffer."""
    if spec.noise_sigma > 0:
        _volume_rng(spec.seed, index).standard_normal(out=work)
        work *= spec.noise_sigma
        work += template
    else:
        np.copyto(work, template)
    if spec.smooth_radius > 0:
        uniform_filter(work, size=2 * spec.smooth_radius + 1, mode="nearest", output=work)
    np.clip(work, 0.0, 1.0, out=work)
    np.copyto(out, work)


def synth_volume(spec: PhantomSpec, label: int, index: int) -> Volume:
    """Build one phantom volume: template -> lesion scaling -> noise -> blur -> clamp."""
    if label not in (0, 1):
        raise InvalidArgumentError(f"label must be 0 or 1, got {label!r}")
    template = _templates(spec)[label]
    out = np.empty(template.shape, dtype=np.float32)
    _synth_into(spec, template, index, np.empty_like(template), out)
    return Volume(spec.dims, out, validate=False)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def generate(spec: PhantomSpec, out_dir) -> DatasetManifest:
    """Write ``2 * n_per_class`` VOL1 volumes plus ``manifest.json`` under ``out_dir``.

    Volume index = label * n_per_class + i, so the per-volume noise streams are
    stable regardless of generation order. Volume k is built by worker
    k mod n, where the n workers are the calling thread plus one thread per
    further available CPU; each works in its own pair of buffers. Every thread
    is joined before this returns or raises, and the manifest is written only
    once every volume is.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    templates = _templates(spec)
    jobs = [
        (f"vol_{label}_{i:04d}.vol", label, label * spec.n_per_class + i)
        for label in (0, 1)
        for i in range(spec.n_per_class)
    ]
    n = min(_available_cpus(), len(jobs))
    # Allocated here, not in the workers: a buffer freed on a worker thread
    # stays in that thread's malloc arena and raises the process's peak RSS.
    buffers = [
        (np.empty(templates[0].shape), np.empty(templates[0].shape, dtype=np.float32))
        for _ in range(n)
    ]

    def work(k: int) -> None:
        scratch, voxels = buffers[k]
        for name, label, index in jobs[k::n]:
            _synth_into(spec, templates[label], index, scratch, voxels)
            write_vol(out_dir / name, Volume(spec.dims, voxels, validate=False))

    with ThreadPoolExecutor(max_workers=max(n - 1, 1)) as pool:  # starts no thread at n = 1
        futures = [pool.submit(work, k) for k in range(1, n)]
        work(0)
    for f in futures:
        f.result()
    manifest = DatasetManifest(
        spec=spec, ground_truth=spec.lesion_regions,
        entries=[(name, label) for name, label, _ in jobs], root=out_dir,
    )
    manifest.save(out_dir / "manifest.json")
    return manifest
