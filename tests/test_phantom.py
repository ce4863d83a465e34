import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

import patchkit as pk
from patchkit.errors import InvalidArgumentError
from patchkit.phantom import _volume_rng, base_anatomy, synth_volume

from conftest import DELETE, break_artifact


def small_spec(**over):
    base = dict(
        dims=(16, 16, 16),
        n_per_class=3,
        lesion_regions=(pk.Region((4, 4, 4), (6, 6, 6)),),
        lesion_delta=0.4,
        noise_sigma=0.02,
        smooth_radius=1,
        seed=99,
    )
    base.update(over)
    return pk.PhantomSpec(**base)


def test_lesion_delta_zero_rejected():
    with pytest.raises(InvalidArgumentError):
        small_spec(lesion_delta=0.0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_noise_sigma_must_be_finite_and_non_negative(sigma):
    with pytest.raises(InvalidArgumentError, match="noise_sigma must be finite and >= 0"):
        small_spec(noise_sigma=sigma)


@pytest.mark.parametrize("field, value", [
    ("dims", (8.9, 8, 8)),
    ("dims", ("8", 8, 8)),
    ("dims", "abc"),
    ("dims", (8, 8)),
    ("n_per_class", 2.5),
    ("smooth_radius", 1.5),
    ("seed", "7"),
])
def test_non_integral_fields_rejected_by_name(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        small_spec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("lesion_delta", "0.4"),
    ("noise_sigma", "0.1"),
    ("lesion_delta", None),
    ("noise_sigma", [0.1]),
])
def test_non_real_fields_rejected_by_name(field, value):
    with pytest.raises(InvalidArgumentError, match=f"{field} must be a real number"):
        small_spec(**{field: value})


def test_negative_seed_rejected():
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0"):
        small_spec(seed=-1)


def test_real_fields_are_stored_as_floats():
    spec = small_spec(lesion_delta=np.float32(0.5), noise_sigma=0)
    assert type(spec.lesion_delta) is float and spec.lesion_delta == 0.5
    assert type(spec.noise_sigma) is float and spec.noise_sigma == 0.0
    assert json.loads(json.dumps(spec.to_json()))["lesion_delta"] == 0.5


def test_numpy_integer_fields_become_python_ints():
    spec = small_spec(dims=np.array([16, 16, 16]), n_per_class=np.int64(3),
                      smooth_radius=np.int32(1), seed=np.uint64(99))
    assert spec == small_spec()
    assert all(type(v) is int for v in (*spec.dims, spec.n_per_class, spec.smooth_radius, spec.seed))


def test_lesion_outside_dims_rejected():
    with pytest.raises(InvalidArgumentError):
        small_spec(lesion_regions=(pk.Region((12, 12, 12), (6, 6, 6)),))


def test_generation_is_bit_deterministic(tmp_path):
    spec = small_spec()
    m1 = pk.generate(spec, tmp_path / "a")
    m2 = pk.generate(spec, tmp_path / "b")
    for i in range(len(m1.entries)):
        assert m1.volume_path(i).read_bytes() == m2.volume_path(i).read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_text() == (
        tmp_path / "b" / "manifest.json"
    ).read_text()


def reference_volume(spec, label, index) -> np.ndarray:
    """The per-volume arithmetic written out with fresh arrays at every step."""
    arr = base_anatomy(spec.dims).copy()
    if label == 1:
        for r in spec.lesion_regions:
            (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
            arr[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] *= 1.0 - spec.lesion_delta
    if spec.noise_sigma > 0:
        arr = arr + spec.noise_sigma * _volume_rng(spec.seed, index).standard_normal(arr.shape)
    if spec.smooth_radius > 0:
        arr = uniform_filter(arr, size=2 * spec.smooth_radius + 1, mode="nearest")
    return np.clip(arr, 0.0, 1.0).astype(np.float32).reshape(-1)


@st.composite
def phantom_specs(draw):
    dims = tuple(draw(st.integers(3, 11)) for _ in range(3))

    def region():
        origin = tuple(draw(st.integers(0, d - 1)) for d in dims)
        size = tuple(draw(st.integers(1, d - o)) for d, o in zip(dims, origin))
        return pk.Region(origin, size)

    first = region()
    # The second lesion starts inside the first, so class-1 templates see
    # overlapping multiplies.
    inner = tuple(draw(st.integers(o, e - 1)) for o, e in zip(first.origin, first.end))
    overlapping = pk.Region(inner, tuple(draw(st.integers(1, d - o)) for d, o in zip(dims, inner)))
    lesions = [first, overlapping] + [region() for _ in range(draw(st.integers(0, 1)))]
    return pk.PhantomSpec(
        dims=dims,
        n_per_class=draw(st.integers(1, 5)),
        lesion_regions=tuple(lesions),
        lesion_delta=draw(st.floats(0.05, 1.0)),
        noise_sigma=draw(st.one_of(st.just(0.0), st.floats(0.001, 0.5))),
        smooth_radius=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=30, deadline=None)
@given(spec=phantom_specs())
def test_generate_writes_each_synth_volume_and_the_manifest(spec):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "data"
        pk.generate(spec, out)
        entries = []
        for label in (0, 1):
            for i in range(spec.n_per_class):
                index = label * spec.n_per_class + i
                vol = synth_volume(spec, label, index)
                assert np.array_equal(vol.voxels.view(np.uint32),
                                      reference_volume(spec, label, index).view(np.uint32))
                name = f"vol_{label}_{i:04d}.vol"
                pk.write_vol(Path(tmp) / name, vol)
                assert (out / name).read_bytes() == (Path(tmp) / name).read_bytes()
                entries.append((name, label))
        pk.DatasetManifest(spec, spec.lesion_regions, entries).save(Path(tmp) / "manifest.json")
        assert (out / "manifest.json").read_bytes() == (Path(tmp) / "manifest.json").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == sorted([n for n, _ in entries] + ["manifest.json"])


def tree_digests(root: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


# Pins itself to one CPU, so generate starts no worker thread, then writes the
# spec given as JSON in argv[1] to argv[2].
ONE_CPU_SCRIPT = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from patchkit import phantom
assert phantom._available_cpus() == 1
phantom.generate(phantom.PhantomSpec.from_json(json.loads(sys.argv[1])), sys.argv[2])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_generation_bits_do_not_depend_on_cpu_count(tmp_path):
    spec = small_spec(n_per_class=5)
    pk.generate(spec, tmp_path / "all")
    src = str(Path(pk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", ONE_CPU_SCRIPT, json.dumps(spec.to_json()), str(tmp_path / "one")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert tree_digests(tmp_path / "one") == tree_digests(tmp_path / "all")
    assert len(tree_digests(tmp_path / "all")) == 2 * spec.n_per_class + 1


def test_generate_leaves_no_thread_running(tmp_path):
    before = threading.active_count()
    pk.generate(small_spec(n_per_class=5), tmp_path)
    assert threading.active_count() == before


# Volume 0 is built on the calling thread; volume 1 on a worker thread
# whenever more than one CPU is available.
@pytest.mark.parametrize("name", ["vol_0_0000.vol", "vol_0_0001.vol"])
def test_failed_write_joins_threads_reraises_and_writes_no_manifest(tmp_path, name):
    (tmp_path / name).mkdir()
    before = threading.active_count()
    with pytest.raises(IsADirectoryError, match=name):
        pk.generate(small_spec(n_per_class=5), tmp_path)
    assert threading.active_count() == before
    assert not (tmp_path / "manifest.json").exists()


def test_synth_volume_rejects_a_label_outside_the_classes():
    with pytest.raises(InvalidArgumentError, match="label"):
        synth_volume(small_spec(), label=2, index=0)


def test_noise_free_classes_differ_exactly_inside_lesion():
    spec = small_spec(noise_sigma=0.0, smooth_radius=0)
    v0 = synth_volume(spec, label=0, index=0)
    v1 = synth_volume(spec, label=1, index=3)
    diff = v0.as_array().astype(np.float64) - v1.as_array().astype(np.float64)
    lesion = spec.lesion_regions[0]
    (x0, y0, z0), (sx, sy, sz) = lesion.origin, lesion.size
    inside = np.zeros(diff.shape, dtype=bool)
    inside[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] = True
    assert np.all(diff[~inside] == 0.0)
    base = np.clip(base_anatomy(spec.dims), 0.0, 1.0)
    expected = spec.lesion_delta * base[inside].astype(np.float32)
    assert np.allclose(diff[inside], expected, atol=1e-6)


def test_intensities_clamped_to_unit_interval(tmp_path):
    spec = small_spec(noise_sigma=0.5)  # heavy noise forces clamping
    manifest = pk.generate(spec, tmp_path)
    v = manifest.load_volume(0)
    assert v.voxels.min() >= 0.0 and v.voxels.max() <= 1.0


def test_manifest_round_trip(tmp_path):
    spec = small_spec()
    manifest = pk.generate(spec, tmp_path)
    loaded = pk.DatasetManifest.load(tmp_path / "manifest.json")
    assert loaded.spec == spec
    assert loaded.ground_truth == spec.lesion_regions
    assert loaded.entries == manifest.entries
    assert loaded.load_volume(0) == manifest.load_volume(0)


@pytest.mark.parametrize("key, value, named", [
    ("spec", DELETE, "'spec'"),
    ("spec", "16^3", "spec"),
    ("spec.dims", [16, 16], "dims"),
    ("spec.seed", DELETE, "'seed'"),
    ("spec.lesion_delta", "0.4", "lesion_delta"),
    ("spec.lesion_regions.0.size", DELETE, "'size'"),
    ("ground_truth", DELETE, "'ground_truth'"),
    ("ground_truth.0.origin", [4, 4, "4"], r"origin\[2\]"),
    ("entries", DELETE, "'entries'"),
    ("entries.1", ["vol.vol", 0], r"entries\[1\]"),
    ("entries.2.label", DELETE, "'label'"),
    ("entries.2.label", "1", "label"),
    ("entries.2.label", -1, "label"),
    ("entries.2.label", 2, "label"),
    ("entries.0.path", 7, "path"),
])
def test_manifest_load_names_file_and_key(tmp_path, key, value, named):
    pk.generate(small_spec(), tmp_path)
    path = tmp_path / "manifest.json"
    break_artifact(path, key, value)
    with pytest.raises(InvalidArgumentError, match=f"{re.escape(str(path))}: .*{named}"):
        pk.DatasetManifest.load(path)


def test_manifest_schema_keys(tmp_path):
    pk.generate(small_spec(), tmp_path)
    obj = json.loads((tmp_path / "manifest.json").read_text())
    assert set(obj) == {"spec", "ground_truth", "entries"}
    assert {"origin", "size"} <= set(obj["ground_truth"][0])
    assert {"path", "label"} <= set(obj["entries"][0])
    labels = [e["label"] for e in obj["entries"]]
    assert labels.count(0) == labels.count(1)
    assert len({e["path"] for e in obj["entries"]}) == len(obj["entries"])


def class_mean_difference(manifest, grid):
    """Per-patch class-mean patch intensity, class 1 minus class 0."""
    features, labels = manifest.patch_means(grid), manifest.labels()
    return features[labels == 1].mean(axis=0) - features[labels == 0].mean(axis=0)


class TestClassSeparability:
    def test_noise_free_nonzero_exactly_at_lesion_patches(self, tmp_path):
        spec = small_spec(noise_sigma=0.0, smooth_radius=0, n_per_class=2)
        manifest = pk.generate(spec, tmp_path)
        grid = pk.make_grid(spec.dims, 4)
        table = class_mean_difference(manifest, grid)
        lesion_patches = set(grid.indices_intersecting(spec.lesion_regions[0]))
        for i in range(len(grid)):
            if i in lesion_patches:
                assert table[i] < 0  # lesion darkens class 1
            else:
                assert table[i] == 0.0

    def test_concatenated_manifest_same_table(self, tmp_path):
        spec = small_spec(n_per_class=4)
        manifest = pk.generate(spec, tmp_path)
        grid = pk.make_grid(spec.dims, 8)
        doubled = pk.DatasetManifest(
            spec=spec,
            ground_truth=manifest.ground_truth,
            entries=manifest.entries + manifest.entries,
            root=manifest.root,
        )
        assert np.allclose(
            class_mean_difference(manifest, grid),
            class_mean_difference(doubled, grid),
            atol=1e-12,
        )

    def test_label_shuffle_drives_entries_to_noise_level(self, tmp_path):
        spec = small_spec(n_per_class=100, noise_sigma=0.05, smooth_radius=0)
        manifest = pk.generate(spec, tmp_path)
        grid = pk.make_grid(spec.dims, 8)
        true_table = class_mean_difference(manifest, grid)
        rng = np.random.default_rng(7)
        labels = manifest.labels()
        shuffled_entries = [
            (path, int(lab))
            for (path, _), lab in zip(manifest.entries, rng.permutation(labels))
        ]
        shuffled = pk.DatasetManifest(
            spec=spec, ground_truth=manifest.ground_truth,
            entries=shuffled_entries, root=manifest.root,
        )
        table = class_mean_difference(shuffled, grid)
        # Per-patch z-bound: the mean difference of two random n/2 groups has
        # std sigma_j * sqrt(1/n1 + 1/n0); 5 sigma covers all 8 patches.
        feats = np.stack(
            [pk.patch_means(manifest.load_volume(i), grid) for i in range(len(labels))]
        )
        sigma = feats.std(axis=0, ddof=1)
        bound = 5.0 * sigma * np.sqrt(2.0 / 100.0)
        assert np.all(np.abs(table) < bound)
        assert np.max(np.abs(table)) < 0.1 * np.max(np.abs(true_table))

    def test_dims_mismatch(self, tmp_path):
        manifest = pk.generate(small_spec(), tmp_path)
        with pytest.raises(InvalidArgumentError):
            manifest.patch_means(pk.make_grid((8, 8, 8), 4))
