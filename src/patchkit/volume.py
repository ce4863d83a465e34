"""Dense 3D volumes, axis-aligned regions, uniform patch grids, and the VOL1 file format.

Voxel layout is fixed: x varies fastest, so the flat index of voxel (x, y, z)
in a volume of dims (W, H, D) is ``(z * H + y) * W + x``. All grid and patch
orderings in this package follow the same convention (z-major, x-fastest).
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .artifacts import byte_reader, typed
from .errors import InvalidArgumentError

VOL1_MAGIC = b"VOL1"
_VOL1_HEADER = struct.Struct("<4sIII")


def _int3(name: str, value) -> tuple[int, int, int]:
    """``value`` as three Python ints; Python and numpy integers are accepted,
    anything else raises InvalidArgumentError naming ``name``."""
    try:
        x, y, z = value
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must have 3 components, got {value!r}") from None
    try:
        return index(x), index(y), index(z)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be integers, got {value!r}") from None


def _int(name: str, value) -> int:
    """``value`` as a Python int, under the same rule as ``_int3``."""
    try:
        return index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Region:
    """Axis-aligned cuboid: voxel origin (x0, y0, z0) and size (sx, sy, sz).

    ``end``, the exclusive upper corner (x0+sx, y0+sy, z0+sz), is set at
    construction; equality, hashing, repr and JSON see only ``origin`` and
    ``size``.
    """

    origin: tuple[int, int, int]
    size: tuple[int, int, int]
    end: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        origin = _int3("region origin", self.origin)
        size = _int3("region size", self.size)
        (x0, y0, z0), (sx, sy, sz) = origin, size
        if x0 < 0 or y0 < 0 or z0 < 0:
            raise InvalidArgumentError(f"region origin must be nonnegative, got {origin}")
        if sx < 1 or sy < 1 or sz < 1:
            raise InvalidArgumentError(f"region size must be >= 1 per axis, got {size}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "end", (x0 + sx, y0 + sy, z0 + sz))

    def intersects(self, other: "Region") -> bool:
        return all(
            self.origin[a] < other.end[a] and other.origin[a] < self.end[a]
            for a in range(3)
        )

    def to_json(self) -> dict:
        return {"origin": list(self.origin), "size": list(self.size)}

    @classmethod
    def from_json(cls, obj: dict) -> "Region":
        return cls(tuple(typed(obj, "origin", list[int])), tuple(typed(obj, "size", list[int])))


class Volume:
    """Immutable dense 3D scalar field: dims (W, H, D) plus a flat float32 buffer.

    The buffer is marked read-only after construction, so instances are safe to
    share across threads. Perturbations always allocate a fresh volume.
    """

    __slots__ = ("dims", "voxels")

    def __init__(self, dims: tuple[int, int, int], voxels, validate: bool = True):
        dims = _int3("volume dims", dims)
        buf = np.ascontiguousarray(voxels, dtype=np.float32).reshape(-1)
        if validate:
            if min(dims) < 1:
                raise InvalidArgumentError(f"volume dims must be three values >= 1, got {dims}")
            w, h, d = dims
            if buf.size != w * h * d:
                raise InvalidArgumentError(
                    f"voxel buffer has {buf.size} values, expected {w * h * d} for dims {dims}"
                )
            if not np.all(np.isfinite(buf)):
                raise InvalidArgumentError("volume intensities must be finite")
        buf.setflags(write=False)
        self.dims = dims
        self.voxels = buf

    @property
    def W(self) -> int:
        return self.dims[0]

    @property
    def H(self) -> int:
        return self.dims[1]

    @property
    def D(self) -> int:
        return self.dims[2]

    def as_array(self) -> np.ndarray:
        """Read-only (D, H, W) view of the voxel buffer (index order [z, y, x])."""
        return self.voxels.reshape(self.D, self.H, self.W)

    def contains(self, r: Region) -> bool:
        """Whether ``r`` lies inside the volume (region origins are nonnegative)."""
        (x1, y1, z1), (w, h, d) = r.end, self.dims
        return x1 <= w and y1 <= h and z1 <= d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Volume)
            and self.dims == other.dims
            and np.array_equal(self.voxels, other.voxels)
        )

    def __repr__(self) -> str:
        return f"Volume(dims={self.dims})"


@dataclass(frozen=True)
class PatchGrid:
    """Uniform cubic patch grid over a volume, trailing remainders excluded.

    Regions are ordered z-major, x-fastest: index = (gz * ny + gy) * nx + gx.
    """

    vol_dims: tuple[int, int, int]
    patch_edge: int
    counts: tuple[int, int, int]
    regions: tuple[Region, ...]

    def __len__(self) -> int:
        return len(self.regions)

    def indices_intersecting(self, target: Region) -> list[int]:
        """Indices of grid patches whose region intersects ``target``."""
        return [i for i, r in enumerate(self.regions) if r.intersects(target)]

    def to_json(self) -> dict:
        return {
            "dims": list(self.vol_dims),
            "patch_edge": self.patch_edge,
            "counts": list(self.counts),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PatchGrid":
        grid = make_grid(typed(obj, "dims", list[int]), typed(obj, "patch_edge", int))
        counts = typed(obj, "counts", list[int])
        if tuple(counts) != grid.counts:
            raise InvalidArgumentError(f"grid counts {counts} inconsistent with dims/patch_edge")
        return grid


def make_grid(vol_dims: tuple[int, int, int], patch_edge: int) -> PatchGrid:
    """Partition (W, H, D) into disjoint cubic patches of edge ``patch_edge``.

    Counts use floor division per axis; remainder voxels belong to no patch.
    Grids are immutable, so equal arguments share one instance.
    """
    w, h, d = _int3("volume dims", vol_dims)
    p = _int("patch_edge", patch_edge)
    if p < 1:
        raise InvalidArgumentError(f"patch_edge must be positive, got {patch_edge}")
    if p > min(w, h, d):
        raise InvalidArgumentError(
            f"patch_edge {p} larger than smallest volume dimension of {vol_dims}"
        )
    return _shared_grid(w, h, d, p)


@functools.lru_cache(maxsize=64)
def _shared_grid(w: int, h: int, d: int, p: int) -> PatchGrid:
    nx, ny, nz = w // p, h // p, d // p
    regions = tuple(
        Region((gx * p, gy * p, gz * p), (p, p, p))
        for gz in range(nz)
        for gy in range(ny)
        for gx in range(nx)
    )
    return PatchGrid((w, h, d), p, (nx, ny, nz), regions)


def _check_inside(v: Volume, r: Region) -> None:
    if not v.contains(r):
        raise InvalidArgumentError(f"region {r} extends outside volume dims {v.dims}")


def perturb_zero(v: Volume, regions) -> Volume:
    """Return a copy of ``v`` with every voxel inside any listed region set to 0.0.

    The input volume is never modified; listing a region twice is a no-op.
    """
    regions = list(regions)
    for r in regions:
        _check_inside(v, r)
    out = v.voxels.copy().reshape(v.D, v.H, v.W)
    for r in regions:
        (x0, y0, z0), (sx, sy, sz) = r.origin, r.size
        out[z0 : z0 + sz, y0 : y0 + sy, x0 : x0 + sx] = 0.0
    return Volume(v.dims, out.reshape(-1), validate=False)


def extract_patch(v: Volume, r: Region) -> np.ndarray:
    """Copy a region's voxels into a fresh, writable flat float32 vector in
    (z-major, x-fastest) order."""
    _check_inside(v, r)
    (x0, y0, z0), (x1, y1, z1) = r.origin, r.end
    return v.as_array()[z0:z1, y0:y1, x0:x1].flatten()


def _octree_split(origin: tuple[int, int, int], size: tuple[int, int, int]) -> list:
    """The octree children of the box ``(origin, size)`` as ``(origin, size)``
    int tuples, in :func:`octree_children`'s order; a 1x1x1 box is its own
    only child."""
    halves = []
    for o, s in zip(origin, size):
        lo = s // 2
        halves.append(((o, lo), (o + lo, s - lo)) if lo else ((o, s),))
    xs, ys, zs = halves
    return [((x, y, z), (sx, sy, sz)) for z, sz in zs for y, sy in ys for x, sx in xs]


def octree_children(r: Region) -> list[Region]:
    """Split a region into at most 8 disjoint halves covering it exactly.

    Each axis of size s splits into floor(s/2) and s - floor(s/2); axes of size
    1 do not split. Children are ordered low-half first per axis, z-major.
    """
    if r.size == (1, 1, 1):
        raise InvalidArgumentError(f"cannot split 1x1x1 region at {r.origin}")
    return [Region(origin, size) for origin, size in _octree_split(r.origin, r.size)]


def patch_means(v: Volume, grid: PatchGrid) -> np.ndarray:
    """Mean intensity of every grid patch, in grid order, as float64.

    This is the pooled feature vector consumed by the surrogate classifiers
    and the t-test selector. It sits on the attribution hot path (one call per
    coalition evaluation), so the x-axis reduction runs as a float32 BLAS
    matvec before switching to float64 for the small remaining axes.
    """
    if grid.vol_dims != v.dims:
        raise InvalidArgumentError(
            f"grid dims {grid.vol_dims} do not match volume dims {v.dims}"
        )
    p = grid.patch_edge
    nx, ny, nz = grid.counts
    arr = v.as_array()[: nz * p, : ny * p, : nx * p]
    xsum = np.ascontiguousarray(arr).reshape(-1, p) @ np.ones(p, dtype=np.float32)
    s = xsum.reshape(nz * p, ny, p, nx).sum(axis=2, dtype=np.float64)
    s = s.reshape(nz, p, ny, nx).sum(axis=1)
    return (s / float(p**3)).reshape(-1)


def write_vol(path, v: Volume) -> None:
    """Write a volume in the VOL1 format (magic, u32 W/H/D, f32 LE voxels)."""
    with open(path, "wb") as f:
        f.write(_VOL1_HEADER.pack(VOL1_MAGIC, v.W, v.H, v.D))
        f.write(v.voxels.astype("<f4", copy=False))  # a view on little-endian hosts


def read_vol(path) -> Volume:
    """Read a VOL1 file, rejecting wrong magic and payloads of the wrong length."""
    take, done = byte_reader(path, "VOL1 file")
    magic, w, h, d = _VOL1_HEADER.unpack(take(_VOL1_HEADER.size))
    if magic != VOL1_MAGIC:
        raise InvalidArgumentError(f"{path}: bad magic {magic!r}, expected {VOL1_MAGIC!r}")
    voxels = np.frombuffer(take(4 * w * h * d), dtype="<f4")
    done()
    try:
        return Volume((w, h, d), voxels)
    except InvalidArgumentError as exc:  # zero dims or non-finite voxels
        raise InvalidArgumentError(f"{path}: {exc}") from exc
