import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patchkit as pk
from patchkit.errors import InvalidArgumentError
from patchkit.volume import VOL1_MAGIC, _octree_split


def layout_volume(dims):
    """Volume whose voxel value equals its flat index (x-fastest layout)."""
    w, h, d = dims
    return pk.Volume(dims, np.arange(w * h * d, dtype=np.float32))


class TestMakeGrid:
    def test_standard_scan_dims(self):
        grid = pk.make_grid((181, 217, 181), 25)
        assert grid.counts == (7, 8, 7)
        assert len(grid) == 392

    def test_identity_partition(self):
        grid = pk.make_grid((64, 64, 64), 64)
        assert grid.counts == (1, 1, 1)
        assert grid.regions[0] == pk.Region((0, 0, 0), (64, 64, 64))

    def test_512_patches_disjoint_cover(self):
        grid = pk.make_grid((64, 64, 64), 8)
        assert len(grid) == 512
        paint = np.zeros((64, 64, 64), dtype=np.int32)
        for r in grid.regions:
            (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
            paint[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] += 1
        assert np.all(paint == 1)

    def test_partition_completeness_with_remainder(self):
        grid = pk.make_grid((7, 5, 9), 2)
        assert grid.counts == (3, 2, 4)
        paint = np.zeros((9, 5, 7), dtype=np.int32)
        for r in grid.regions:
            (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
            paint[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] += 1
        assert np.all(paint[:8, :4, :6] == 1)
        assert np.all(paint[8:] == 0) and np.all(paint[:, 4:] == 0) and np.all(paint[:, :, 6:] == 0)

    def test_ordering_is_z_major_x_fastest(self):
        grid = pk.make_grid((4, 4, 4), 2)
        origins = [r.origin for r in grid.regions[:4]]
        assert origins == [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)]

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            pk.make_grid((8, 8, 8), 0)
        with pytest.raises(InvalidArgumentError):
            pk.make_grid((8, 8, 4), 5)


class TestPerturbZero:
    def test_zero_fill_counts(self):
        v = pk.Volume((4, 4, 4), np.ones(64, dtype=np.float32))
        out = pk.perturb_zero(v, [pk.Region((0, 0, 0), (2, 2, 2))])
        assert int(np.sum(out.voxels == 0.0)) == 8
        assert int(np.sum(out.voxels == 1.0)) == 56

    def test_empty_region_set_is_bit_identical(self):
        v = layout_volume((3, 4, 5))
        out = pk.perturb_zero(v, [])
        assert np.array_equal(out.voxels, v.voxels)

    def test_duplicate_regions_idempotent(self):
        v = layout_volume((4, 4, 4))
        r = pk.Region((1, 1, 1), (2, 2, 2))
        once = pk.perturb_zero(v, [r])
        twice = pk.perturb_zero(v, [r, r])
        again = pk.perturb_zero(once, [r])
        assert np.array_equal(once.voxels, twice.voxels)
        assert np.array_equal(once.voxels, again.voxels)

    def test_input_unchanged(self):
        v = pk.Volume((4, 4, 4), np.ones(64, dtype=np.float32))
        before = v.voxels.copy()
        pk.perturb_zero(v, [pk.Region((0, 0, 0), (4, 4, 4))])
        assert np.array_equal(v.voxels, before)

    def test_out_of_bounds_rejected(self):
        v = pk.Volume((4, 4, 4), np.ones(64, dtype=np.float32))
        with pytest.raises(InvalidArgumentError):
            pk.perturb_zero(v, [pk.Region((3, 0, 0), (2, 1, 1))])


class TestExtractPatch:
    def test_full_region_layout_order(self):
        v = layout_volume((2, 2, 2))
        patch = pk.extract_patch(v, pk.Region((0, 0, 0), (2, 2, 2)))
        assert patch.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_single_voxel(self):
        v = layout_volume((3, 4, 5))
        x, y, z = 2, 3, 1
        patch = pk.extract_patch(v, pk.Region((x, y, z), (1, 1, 1)))
        assert patch.tolist() == [(z * 4 + y) * 3 + x]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_write_back_round_trip(self, data):
        dims = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = pk.Volume(dims, rng.random(dims[0] * dims[1] * dims[2], dtype=np.float32))
        origin = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
        size = tuple(data.draw(st.integers(1, d - o)) for d, o in zip(dims, origin))
        r = pk.Region(origin, size)
        patch = pk.extract_patch(v, r)
        host = np.zeros((dims[2], dims[1], dims[0]), dtype=np.float32)
        (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
        host[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] = patch.reshape(sz, sy, sx)
        assert np.array_equal(
            pk.extract_patch(pk.Volume(dims, host.reshape(-1)), r), patch
        )

    def test_out_of_bounds_rejected(self):
        v = layout_volume((2, 2, 2))
        with pytest.raises(InvalidArgumentError):
            pk.extract_patch(v, pk.Region((1, 1, 1), (2, 1, 1)))


class TestOctreeChildren:
    def test_even_cube_splits_into_eight_halves(self):
        children = pk.octree_children(pk.Region((0, 0, 0), (200, 200, 200)))
        assert len(children) == 8
        assert all(c.size == (100, 100, 100) for c in children)

    def test_uneven_axis_splits_floor_ceil(self):
        r = pk.Region((0, 0, 0), (3, 2, 2))
        children = pk.octree_children(r)
        assert len(children) == 8
        assert {c.size[0] for c in children} == {1, 2}
        paint = np.zeros((2, 2, 3), dtype=np.int32)
        for c in children:
            (x0, y0, z0), (sx, sy, sz) = c.origin, c.size
            paint[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] += 1
        assert np.all(paint == 1)

    def test_only_one_axis_splittable(self):
        children = pk.octree_children(pk.Region((0, 0, 0), (1, 1, 2)))
        assert len(children) == 2
        assert children[0] == pk.Region((0, 0, 0), (1, 1, 1))
        assert children[1] == pk.Region((0, 0, 1), (1, 1, 1))

    def test_unit_region_cannot_split(self):
        with pytest.raises(InvalidArgumentError):
            pk.octree_children(pk.Region((5, 5, 5), (1, 1, 1)))

    def test_deterministic_order_low_half_first(self):
        children = pk.octree_children(pk.Region((0, 0, 0), (4, 4, 4)))
        assert children[0].origin == (0, 0, 0)
        assert children[1].origin == (2, 0, 0)
        assert children[2].origin == (0, 2, 0)
        assert children[4].origin == (0, 0, 2)

    @pytest.mark.parametrize("size", [(1, 1, 2), (3, 3, 3), (5, 2, 7), (4, 4, 4)])
    def test_recursion_reaches_every_voxel(self, size):
        total = 0
        stack = [pk.Region((0, 0, 0), size)]
        while stack:
            r = stack.pop()
            if r.size == (1, 1, 1):
                total += 1
            else:
                stack.extend(pk.octree_children(r))
        assert total == size[0] * size[1] * size[2]

    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.tuples(*[st.integers(0, 50)] * 3),
        size=st.tuples(*[st.integers(1, 9)] * 3),
    )
    def test_walk_split_matches_octree_children_and_tiles(self, origin, size):
        halves = _octree_split(origin, size)
        if size == (1, 1, 1):
            assert halves == [(origin, size)]
            with pytest.raises(InvalidArgumentError, match="cannot split 1x1x1"):
                pk.octree_children(pk.Region(origin, size))
            return
        children = pk.octree_children(pk.Region(origin, size))
        assert halves == [(c.origin, c.size) for c in children]
        # Low half floor(s/2) first, z-major and x-fastest, one box per split.
        assert halves[0] == (origin, tuple(s // 2 or 1 for s in size))
        assert halves == sorted(halves, key=lambda box: box[0][::-1])
        assert len(halves) == 2 ** sum(s > 1 for s in size)
        assert all(type(v) is int for box in halves for corner in box for v in corner)
        paint = np.zeros(size[::-1], dtype=np.int32)
        for (x0, y0, z0), (sx, sy, sz) in halves:
            x0, y0, z0 = x0 - origin[0], y0 - origin[1], z0 - origin[2]
            paint[z0:z0 + sz, y0:y0 + sy, x0:x0 + sx] += 1
        assert np.all(paint == 1)


class TestPatchMeans:
    def test_matches_per_region_extraction(self):
        rng = np.random.default_rng(3)
        v = pk.Volume((6, 4, 4), rng.random(96, dtype=np.float32))
        grid = pk.make_grid((6, 4, 4), 2)
        means = pk.patch_means(v, grid)
        expected = [pk.extract_patch(v, r).mean() for r in grid.regions]
        assert np.allclose(means, expected, atol=1e-7)

    def test_dims_mismatch(self):
        v = layout_volume((4, 4, 4))
        with pytest.raises(InvalidArgumentError):
            pk.patch_means(v, pk.make_grid((8, 8, 8), 2))


class TestVol1Format:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        v = pk.Volume((5, 3, 2), rng.random(30, dtype=np.float32))
        path = tmp_path / "x.vol"
        pk.write_vol(path, v)
        back = pk.read_vol(path)
        assert back.dims == v.dims
        assert np.array_equal(back.voxels, v.voxels)

    def test_exact_bytes(self, tmp_path):
        v = pk.Volume((2, 1, 1), np.array([1.0, 2.0], dtype=np.float32))
        path = tmp_path / "x.vol"
        pk.write_vol(path, v)
        raw = path.read_bytes()
        assert raw[:4] == VOL1_MAGIC
        assert raw[4:16] == (2).to_bytes(4, "little") + (1).to_bytes(4, "little") * 2
        assert raw[16:] == np.array([1.0, 2.0], dtype="<f4").tobytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.vol"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(InvalidArgumentError, match="magic"):
            pk.read_vol(path)

    def test_rejects_short_payload(self, tmp_path):
        v = pk.Volume((2, 2, 2), np.ones(8, dtype=np.float32))
        path = tmp_path / "short.vol"
        pk.write_vol(path, v)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: VOL1 file truncated")):
                pk.read_vol(path)
        path.write_bytes(raw + b"junk")
        with pytest.raises(InvalidArgumentError, match="4 trailing bytes"):
            pk.read_vol(path)


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_loads_or_is_rejected(self, tmp_path_factory, data):
        dims = tuple(data.draw(st.integers(1, 3), label=f"dim{i}") for i in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        path = tmp_path_factory.mktemp("flip") / "x.vol"
        pk.write_vol(path, pk.Volume(dims, rng.normal(0, 1, math.prod(dims)).astype(np.float32)))
        raw = bytearray(path.read_bytes())
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            pk.read_vol(path)
        except InvalidArgumentError as exc:
            assert str(path) in str(exc)


class TestVolumeInvariants:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidArgumentError):
            pk.Volume((2, 2, 2), np.ones(7, dtype=np.float32))

    def test_rejects_non_finite(self):
        buf = np.ones(8, dtype=np.float32)
        buf[3] = np.nan
        with pytest.raises(InvalidArgumentError):
            pk.Volume((2, 2, 2), buf)

    def test_buffer_is_read_only(self):
        v = pk.Volume((2, 2, 2), np.ones(8, dtype=np.float32))
        with pytest.raises(ValueError):
            v.voxels[0] = 5.0

    def test_region_invariants(self):
        with pytest.raises(InvalidArgumentError):
            pk.Region((0, 0, 0), (0, 1, 1))
        with pytest.raises(InvalidArgumentError):
            pk.Region((-1, 0, 0), (1, 1, 1))

    @pytest.mark.parametrize("call, named", [
        (lambda: pk.Region((0.7, 0, 0), (1, 1, 1)), "region origin"),
        (lambda: pk.Region((0, 0, 0), (1.9, 1, 1)), "region size"),
        (lambda: pk.Region((0, 0, 0), (1, float("nan"), 1)), "region size"),
        (lambda: pk.Region("abc", (1, 1, 1)), "region origin"),
        (lambda: pk.Region(5, (1, 1, 1)), "region origin"),
        (lambda: pk.Region((0, 0, 0), (1, 1)), "region size"),
        (lambda: pk.Region((0, 0, 0), np.array([2.0, 2.0, 2.0])), "region size"),
        (lambda: pk.make_grid((64, 64, 64), 8.9), "patch_edge"),
        (lambda: pk.make_grid((64, 64, 64), "8"), "patch_edge"),
        (lambda: pk.make_grid((64.5, 64, 64), 8), "volume dims"),
        (lambda: pk.make_grid((64, 64), 8), "volume dims"),
        (lambda: pk.make_grid(64, 8), "volume dims"),
        (lambda: pk.Volume((8.9, 8, 8), np.zeros(512, np.float32)), "volume dims"),
        (lambda: pk.Volume(("8", 8, 8), np.zeros(512, np.float32)), "volume dims"),
    ], ids=["float-origin", "float-size", "nan", "string", "scalar", "two-sizes", "float-array",
            "float-edge", "string-edge", "float-dims", "two-dims", "scalar-dims",
            "float-volume-dims", "string-volume-dims"])
    def test_non_integral_coordinates_are_rejected(self, call, named):
        with pytest.raises(InvalidArgumentError, match=named):
            call()

    def test_numpy_integers_are_accepted_as_python_ints(self):
        r = pk.Region(np.array([1, 2, 3]), (np.int32(4), np.uint8(5), np.int64(6)))
        assert r == pk.Region((1, 2, 3), (4, 5, 6))
        assert all(type(v) is int for v in r.origin + r.size + r.end)
        assert pk.make_grid(np.array([8, 8, 8]), np.int64(4)) is pk.make_grid((8, 8, 8), 4)


class TestExtractPatchCopies:
    @pytest.mark.parametrize("region", [
        pk.Region((0, 0, 0), (4, 4, 4)),  # the whole volume
        pk.Region((0, 0, 2), (4, 4, 2)),  # a z-slab of whole x-y rows
        pk.Region((1, 0, 0), (2, 4, 4)),
    ])
    def test_result_is_a_fresh_writable_float32_array(self, region):
        v = layout_volume((4, 4, 4))
        patch = pk.extract_patch(v, region)
        assert patch.dtype == np.float32 and patch.ndim == 1
        assert patch.flags.writeable and patch.flags.c_contiguous
        assert not np.shares_memory(patch, v.voxels)
        (x0, y0, z0), (x1, y1, z1) = region.origin, region.end
        assert np.array_equal(patch, v.as_array()[z0:z1, y0:y1, x0:x1].reshape(-1))
        patch[:] = -1.0
        assert np.array_equal(v.voxels, np.arange(64, dtype=np.float32))


class TestRegionEnd:
    def test_end_is_the_exclusive_upper_corner(self):
        r = pk.Region((1, 2, 3), (4, 5, 6))
        assert r.end == (5, 7, 9)
        assert r.end is r.end

    def test_equality_hash_and_json_ignore_the_cached_end(self):
        seen, fresh = pk.Region((1, 2, 3), (4, 5, 6)), pk.Region((1, 2, 3), (4, 5, 6))
        seen.end
        assert seen == fresh and hash(seen) == hash(fresh)
        assert {seen: 1}[fresh] == 1
        assert seen.to_json() == fresh.to_json() == {"origin": [1, 2, 3], "size": [4, 5, 6]}
        assert pk.Region.from_json(seen.to_json()) == seen
        assert repr(seen) == repr(fresh)
        assert seen != pk.Region((1, 2, 3), (4, 5, 7))

    def test_fields_stay_frozen(self):
        r = pk.Region((0, 0, 0), (1, 1, 1))
        r.end
        with pytest.raises(AttributeError):
            r.origin = (1, 1, 1)

    @pytest.mark.parametrize("origin, size", [
        ((3, 0, 0), (2, 1, 1)),
        ((0, 3, 0), (1, 2, 1)),
        ((0, 0, 3), (1, 1, 2)),
        ((0, 0, 0), (5, 4, 4)),
        ((4, 4, 4), (1, 1, 1)),
    ])
    def test_out_of_volume_regions_keep_their_messages(self, origin, size):
        v = layout_volume((4, 4, 4))
        r = pk.Region(origin, size)
        message = f"region {r} extends outside volume dims (4, 4, 4)"
        assert message.startswith(f"region Region(origin={origin}, size={size})")
        for call in (lambda: pk.extract_patch(v, r), lambda: pk.perturb_zero(v, [r])):
            with pytest.raises(InvalidArgumentError) as exc:
                call()
            assert str(exc.value) == message
