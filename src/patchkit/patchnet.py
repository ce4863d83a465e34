"""Patch-grid classifier: linear patch projection with learned position
embeddings, depthwise-spatial + pointwise-channel convolution blocks with
residual connections and batch norm, average pooling, and an affine head.

Each selected patch is flattened, projected to ``embed_dim`` and placed
row-major on an m x m spatial plane, so the channel axis carries within-patch
information and the spatial axes carry between-patch layout. Activations stay
channels-last, (B, m, m, d), from the embedding to the pool. A block applies

    spatial:  x + BN(depthwise_conv_mxm(x) + b)      (no activation)
    channel:  BN(relu(pointwise_conv_1x1(x) + b))

in that order, each stage one autodiff op (``tensor.spatial_block`` and
``tensor.channel_block``) with an analytic backward, so a depth-D training
step builds 2·D + 7 graph nodes. The spatial convolution is depthwise (one
m x m kernel per channel): a full channel-mixing spatial kernel would blow the
parameter budget without adding anything the pointwise stage does not already
provide.
"""
from __future__ import annotations

import copy
import json
import math
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from . import tensor as T
from .artifacts import typed
from .errors import InvalidArgumentError, InvalidStateError
from .shapley import is_perfect_square
from .tensor import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"PNC1"
CHECKPOINT_VERSION = 1

# Published reference figures for the full-scale configuration (patch edge 25,
# 36 patches, width 1600, depth 12); the analytic report prints its own totals
# next to these.
REFERENCE_PARAM_COUNT = 34_530_000
REFERENCE_GMACS = 2.21


@dataclass(frozen=True)
class PatchNetConfig:
    patch_edge: int
    patch_count: int
    embed_dim: int
    depth: int
    class_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if not is_perfect_square(self.patch_count):
            raise InvalidArgumentError(
                f"patch_count must be a perfect square, got {self.patch_count}"
            )
        if self.patch_edge < 1 or self.embed_dim < 1 or self.depth < 0:
            raise InvalidArgumentError("patch_edge/embed_dim must be >= 1 and depth >= 0")
        if self.class_count < 2:
            raise InvalidArgumentError("class_count must be >= 2")

    @property
    def side(self) -> int:
        return math.isqrt(self.patch_count)

    @property
    def patch_len(self) -> int:
        return self.patch_edge**3

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "PatchNetConfig":
        return cls(**{f.name: typed(obj, f.name, int) for f in fields(cls)})


@dataclass
class BNStats:
    """Running statistics shared between a parameter set and its graph views."""

    running_mean: np.ndarray
    running_var: np.ndarray
    ready: bool = False


@dataclass
class BatchNormParams:
    gamma: Any  # ndarray, or Tensor inside a differentiation view
    beta: Any
    stats: BNStats


@dataclass
class BlockParams:
    gsi_kernel: Any  # (d, m, m)
    gsi_bias: Any  # (d,)
    gsi_bn: BatchNormParams
    lpi_weight: Any  # (d, d) mapping input channels -> output channels
    lpi_bias: Any  # (d,)
    lpi_bn: BatchNormParams


@dataclass
class PatchNetParams:
    config: PatchNetConfig
    projection: Any  # (p^3, d)
    pos_embed: Any  # (M, d)
    blocks: list[BlockParams]
    classifier_w: Any  # (d, class_count)
    classifier_b: Any  # (class_count,)

    def named_arrays(self) -> dict[str, np.ndarray]:
        """All tensors (learnable + running stats) in canonical order."""
        out = {"projection": self.projection, "pos_embed": self.pos_embed}
        for i, b in enumerate(self.blocks):
            p = f"blocks.{i}."
            out[p + "gsi_kernel"] = b.gsi_kernel
            out[p + "gsi_bias"] = b.gsi_bias
            out[p + "gsi_bn.gamma"] = b.gsi_bn.gamma
            out[p + "gsi_bn.beta"] = b.gsi_bn.beta
            out[p + "gsi_bn.running_mean"] = b.gsi_bn.stats.running_mean
            out[p + "gsi_bn.running_var"] = b.gsi_bn.stats.running_var
            out[p + "lpi_weight"] = b.lpi_weight
            out[p + "lpi_bias"] = b.lpi_bias
            out[p + "lpi_bn.gamma"] = b.lpi_bn.gamma
            out[p + "lpi_bn.beta"] = b.lpi_bn.beta
            out[p + "lpi_bn.running_mean"] = b.lpi_bn.stats.running_mean
            out[p + "lpi_bn.running_var"] = b.lpi_bn.stats.running_var
        out["classifier_w"] = self.classifier_w
        out["classifier_b"] = self.classifier_b
        return out

    def learnable_arrays(self) -> dict[str, np.ndarray]:
        return {
            name: arr
            for name, arr in self.named_arrays().items()
            if "running_" not in name
        }

    def batch_norms(self) -> Iterator[BatchNormParams]:
        """Every batch norm in the network, block by block (spatial, then channel)."""
        for b in self.blocks:
            yield b.gsi_bn
            yield b.lpi_bn

    def with_tensors(self, leaves: dict[str, Tensor]) -> "PatchNetParams":
        """View with learnable arrays replaced by graph tensors; BN stats shared."""
        memo = {id(arr): leaves[name] for name, arr in self.learnable_arrays().items()}
        memo.update((id(bn.stats), bn.stats) for bn in self.batch_norms())
        return copy.deepcopy(self, memo)

    def copy(self) -> "PatchNetParams":
        return copy.deepcopy(self)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _identity_bn(d: int) -> BatchNormParams:
    return BatchNormParams(
        gamma=np.ones(d, dtype=np.float32),
        beta=np.zeros(d, dtype=np.float32),
        stats=BNStats(np.zeros(d, dtype=np.float32), np.ones(d, dtype=np.float32)),
    )


def init_params(cfg: PatchNetConfig) -> PatchNetParams:
    """Seeded initialization: glorot-uniform projections/pointwise/classifier,
    N(0, 0.02) kernels and position embeddings, identity batch norm."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed,))))
    d, m, plen = cfg.embed_dim, cfg.side, cfg.patch_len
    blocks = []
    projection = _glorot(rng, plen, d, (plen, d))
    pos_embed = (0.02 * rng.standard_normal((cfg.patch_count, d))).astype(np.float32)
    for _ in range(cfg.depth):
        blocks.append(
            BlockParams(
                gsi_kernel=(0.02 * rng.standard_normal((d, m, m))).astype(np.float32),
                gsi_bias=np.zeros(d, dtype=np.float32),
                gsi_bn=_identity_bn(d),
                lpi_weight=_glorot(rng, d, d, (d, d)),
                lpi_bias=np.zeros(d, dtype=np.float32),
                lpi_bn=_identity_bn(d),
            )
        )
    classifier_w = _glorot(rng, d, cfg.class_count, (d, cfg.class_count))
    classifier_b = np.zeros(cfg.class_count, dtype=np.float32)
    return PatchNetParams(cfg, projection, pos_embed, blocks, classifier_w, classifier_b)


def tensor_shapes(cfg: PatchNetConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor ``init_params(cfg)`` builds, in
    ``named_arrays`` order, computed without allocating any of them."""
    d, m = cfg.embed_dim, cfg.side
    shapes = {"projection": (cfg.patch_len, d), "pos_embed": (cfg.patch_count, d)}
    for i in range(cfg.depth):
        p = f"blocks.{i}."
        shapes[p + "gsi_kernel"] = (d, m, m)
        for name in ("gsi_bias", "gsi_bn.gamma", "gsi_bn.beta", "gsi_bn.running_mean",
                     "gsi_bn.running_var"):
            shapes[p + name] = (d,)
        shapes[p + "lpi_weight"] = (d, d)
        for name in ("lpi_bias", "lpi_bn.gamma", "lpi_bn.beta", "lpi_bn.running_mean",
                     "lpi_bn.running_var"):
            shapes[p + name] = (d,)
    shapes["classifier_w"] = (d, cfg.class_count)
    shapes["classifier_b"] = (cfg.class_count,)
    return shapes


def _batchnorm(x: Tensor, bn: BatchNormParams, mode: str, op=T.batch_norm, *weights) -> Tensor:
    """Run ``op(x, *weights, gamma, beta, eps, stats)``, an op that ends in the
    batch norm ``bn``: on batch statistics that update the running ones in
    train mode, on the running statistics in eval mode."""
    if mode == "train":
        y, mu, var = op(x, *weights, bn.gamma, bn.beta, BN_EPS)  # biased variance
        stats = bn.stats
        stats.running_mean *= 1.0 - BN_MOMENTUM
        stats.running_mean += BN_MOMENTUM * mu.astype(stats.running_mean.dtype)
        stats.running_var *= 1.0 - BN_MOMENTUM
        stats.running_var += BN_MOMENTUM * var.astype(stats.running_var.dtype)
        stats.ready = True
        return y
    if mode == "eval":
        if not bn.stats.ready:
            raise InvalidStateError("batch norm running stats are uninitialized; train first")
        stats = (bn.stats.running_mean, bn.stats.running_var)
        return op(x, *weights, bn.gamma, bn.beta, BN_EPS, stats)[0]
    raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")


def embed_patches(patches, params: PatchNetParams) -> Tensor:
    """Project flattened patches and add position embeddings.

    Patches (..., M, p^3) give channels-last activations (..., m, m, d):
    patch i lands at spatial site (i // m, i % m) with its embedding along the
    last axis. Leading dimensions carry through. NaN or infinite voxels are
    rejected: nothing downstream could give them a meaningful output.
    """
    cfg = params.config
    x = T._as_tensor(np.asarray(patches))
    if x.data.shape[-2:] != (cfg.patch_count, cfg.patch_len):
        raise InvalidArgumentError(
            f"expected {cfg.patch_count} patches of length {cfg.patch_len}, "
            f"got an array of shape {x.data.shape}"
        )
    if not np.isfinite(x.data).all():
        raise InvalidArgumentError("patches contain NaN or infinite voxels")
    emb = T.add(T.matmul(x, T._as_tensor(params.projection)), T._as_tensor(params.pos_embed))
    return T.reshape(emb, x.data.shape[:-2] + (cfg.side, cfg.side, cfg.embed_dim))


def gsi_block(x: Tensor, bp: BlockParams, mode: str) -> Tensor:
    """Depthwise spatial convolution + BN + residual (no activation), one op."""
    return _batchnorm(x, bp.gsi_bn, mode, T.spatial_block, bp.gsi_kernel, bp.gsi_bias)


def lpi_block(x: Tensor, bp: BlockParams, mode: str) -> Tensor:
    """Pointwise channel mixing + ReLU + BN, one op; spatial sites stay independent."""
    return _batchnorm(x, bp.lpi_bn, mode, T.channel_block, bp.lpi_weight, bp.lpi_bias)


def _forward_graph(patches, params: PatchNetParams, mode: str) -> Tensor:
    x = embed_patches(patches, params)
    for bp in params.blocks:
        x = lpi_block(gsi_block(x, bp, mode), bp, mode)
    pooled = T.mean(x, (1, 2), keepdims=False)
    return T.add(T.matmul(pooled, T._as_tensor(params.classifier_w)),
                 T._as_tensor(params.classifier_b))


def forward(patches, params: PatchNetParams, mode: str = "eval") -> tuple[np.ndarray, np.ndarray]:
    """Logits and softmax probabilities for a batch of selected-patch stacks."""
    patches = np.asarray(patches)
    single = patches.ndim == 2
    if single:
        patches = patches[None]
    logits = _forward_graph(patches, params, mode).data
    probs = T.softmax(logits)
    if single:
        return logits[0], probs[0]
    return logits, probs


def loss_and_grad(
    patches,
    labels,
    params: PatchNetParams,
    mode: str = "train",
    dtype=np.float32,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus gradients for every learnable tensor.

    Pass ``dtype=np.float64`` for the high-precision checking mode used by the
    finite-difference tests.
    """
    patches = np.asarray(patches, dtype=dtype)
    if patches.ndim == 2:
        patches = patches[None]
    if patches.shape[0] == 0:
        raise InvalidArgumentError("batch must be nonempty")
    leaves = {
        name: Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)
        for name, arr in params.learnable_arrays().items()
    }
    view = params.with_tensors(leaves)
    logits = _forward_graph(patches, view, mode)
    loss = T.softmax_cross_entropy(logits, labels)
    loss.backward()
    grads = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in leaves.items()
    }
    return float(loss.data), grads


def save_checkpoint(path, params: PatchNetParams, extra: dict | None = None) -> None:
    """Write the PNC1 binary checkpoint: magic, version, length-prefixed JSON
    config blob, then name/rank/dims/f32-data records for every tensor."""
    blob = json.dumps(
        {"net": params.config.to_json(), "extra": extra or {}}, sort_keys=True
    ).encode("utf-8")
    arrays = params.named_arrays()
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    parts.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        arr32 = np.asarray(arr, dtype="<f4")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr32.ndim))
        parts.append(struct.pack(f"<{arr32.ndim}I", *arr32.shape))
        parts.append(arr32.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> tuple[PatchNetParams, dict]:
    """Read a PNC1 checkpoint, rejecting truncated or extended files and any
    tensor whose stored shape differs from the one its config builds.

    The config blob precedes the tensors, so each record's dims are checked
    against the config's shapes before its array is built, and the network is
    built only after every name checks out: a config blob cannot make the
    loader allocate more than the file stores, and no corrupt record escapes
    as anything but an InvalidArgumentError naming the file.
    """
    raw = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise InvalidArgumentError(
                f"{path}: checkpoint truncated, {len(raw)} bytes but byte {off + n} needed"
            )
        off += n
        return raw[off - n : off]

    def u32() -> int:
        return int.from_bytes(take(4), "little")

    magic = take(4)
    if magic != CHECKPOINT_MAGIC:
        raise InvalidArgumentError(f"{path}: bad checkpoint magic {magic!r}")
    version = u32()
    if version != CHECKPOINT_VERSION:
        raise InvalidArgumentError(f"{path}: unsupported checkpoint version {version}")
    try:
        blob = json.loads(take(u32()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"{path}: unreadable config blob: {exc}") from exc
    try:
        cfg = PatchNetConfig.from_json(blob["net"])
    except (KeyError, TypeError, ValueError) as exc:  # InvalidArgumentError is a ValueError
        raise InvalidArgumentError(f"{path}: config blob has no valid 'net' entry: {exc!r}") from exc
    if not isinstance(blob.get("extra", {}), dict):
        raise InvalidArgumentError(f"{path}: config blob 'extra' must be a JSON object")
    shapes = tensor_shapes(cfg)
    stored: dict[str, bytes] = {}
    for _ in range(u32()):
        name = take(u32()).decode("utf-8", errors="replace")
        dims = tuple(u32() for _ in range(u32()))
        data = take(4 * math.prod(dims))
        if name in stored:
            raise InvalidArgumentError(f"{path}: tensor {name} is stored twice")
        if name in shapes and dims != shapes[name]:
            raise InvalidArgumentError(
                f"{path}: tensor {name} has shape {dims}, expected {shapes[name]}"
            )
        stored[name] = data
    if off != len(raw):
        raise InvalidArgumentError(f"{path}: {len(raw) - off} trailing bytes after the checkpoint")
    if set(stored) != set(shapes):
        raise InvalidArgumentError(
            f"{path}: checkpoint tensors differ from the config: missing "
            f"{sorted(set(shapes) - set(stored))}, unexpected {sorted(set(stored) - set(shapes))}"
        )
    params = init_params(cfg)
    for name, arr in params.named_arrays().items():
        arr[...] = np.frombuffer(stored[name], dtype="<f4").reshape(shapes[name])
    for bn in params.batch_norms():
        bn.stats.ready = True
    return params, blob.get("extra", {})


@dataclass
class OpCountReport:
    """Analytic per-layer multiply-accumulate and parameter accounting."""

    rows: list[tuple[str, int, int]]  # (layer, params, macs)
    total_params: int
    total_macs: int
    reference_params: int = REFERENCE_PARAM_COUNT
    reference_gmacs: float = REFERENCE_GMACS
    notes: list[str] = field(default_factory=list)

    def format_table(self) -> str:
        lines = [f"{'layer':<28}{'params':>14}{'MACs':>16}"]
        for name, p, m in self.rows:
            lines.append(f"{name:<28}{p:>14,}{m:>16,}")
        lines.append(f"{'TOTAL':<28}{self.total_params:>14,}{self.total_macs:>16,}")
        lines.append(
            f"reference totals: {self.reference_params / 1e6:.2f}M params, "
            f"{self.reference_gmacs:.2f} GMac "
            f"(this config: {self.total_params / 1e6:.2f}M, {self.total_macs / 1e9:.2f} GMac)"
        )
        lines.extend(self.notes)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "rows": [{"layer": n, "params": p, "macs": m} for n, p, m in self.rows],
            "total_params": self.total_params,
            "total_macs": self.total_macs,
            "reference_params": self.reference_params,
            "reference_gmacs": self.reference_gmacs,
            "notes": self.notes,
        }


def op_count_report(cfg: PatchNetConfig) -> OpCountReport:
    """Per-layer parameter and one-sample forward MAC counts.

    Batch norm scale/shift multiplies are listed as MACs; the position
    embedding and residual are pure additions and count zero MACs.
    """
    d, m, M, plen, C = cfg.embed_dim, cfg.side, cfg.patch_count, cfg.patch_len, cfg.class_count
    rows: list[tuple[str, int, int]] = []
    rows.append(("projection", plen * d, M * plen * d))
    rows.append(("position_embedding", M * d, 0))
    for i in range(cfg.depth):
        rows.append((f"block{i}.spatial_depthwise", d * m * m + d, d * m * m * m * m))
        rows.append((f"block{i}.spatial_bn", 2 * d, 2 * d * m * m))
        rows.append((f"block{i}.pointwise", d * d + d, m * m * d * d))
        rows.append((f"block{i}.pointwise_bn", 2 * d, 2 * d * m * m))
    rows.append(("classifier", d * C + C, d * C))
    total_params = sum(p for _, p, _ in rows)
    total_macs = sum(mac for _, _, mac in rows)
    notes = [
        "spatial convolution is depthwise (one m x m kernel per channel)",
        "BN running statistics are not counted as learnable parameters",
    ]
    return OpCountReport(rows=rows, total_params=total_params, total_macs=total_macs, notes=notes)
