"""Patch-grid classifier: linear patch projection with learned position
embeddings, depthwise-spatial + pointwise-channel convolution blocks with
residual connections and batch norm, average pooling, and an affine head.

Each selected patch is flattened, projected to ``embed_dim`` and placed
row-major on an m x m spatial plane, so the channel axis carries within-patch
information and the spatial axes carry between-patch layout. Activations stay
channels-last, (B, m, m, d), from the embedding to the pool. A block applies

    spatial:  x + BN(depthwise_conv_mxm(x) + b)      (no activation)
    channel:  BN(relu(pointwise_conv_1x1(x) + b))

in that order, then average pooling and the affine head. Each stage
(``embed_patches``, ``gsi_block``, ``lpi_block``, ``pool_head``) is the only
code for its forward, built on the convolution and batch-norm arithmetic of
``tensor``, and takes and returns plain arrays. Eval mode reads the stored
population statistics. Train mode normalises each layer by its batch mean
and biased variance and stores them, so one train-mode forward over a
training set leaves that set's population statistics, each layer's taken
with the layers below it normalised by theirs. Given a ``tape`` (a list), as
in ``loss_and_grad``, a stage runs the same code on batch statistics, stores
nothing, and appends one closure, its analytic backward; a depth-D training
step records 2·D + 3 closures with the loss and writes nothing to the
parameters.
The spatial convolution is depthwise (one m x m kernel per channel): a
full channel-mixing spatial kernel would blow the parameter budget without
adding anything the pointwise stage does not already provide.

One layout table (:func:`tensor_layout`) lists every tensor as (name, shape,
init tag) in PNC1 record order. Initialisation, the checkpoint reader and
writer, ``tensor_shapes`` and the learnable/statistic split all read it. A
:class:`PatchNetParams` holds two float32 vectors, the learnable tensors and
the stored batch-norm statistics, and one name -> view mapping into them, so
an Adam step is one vector update and a copy is two vector copies. The
forward reads its tensors by name; ``loss_and_grad`` passes the learnable
views, in the step's dtype, and gets the gradients back by name.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .artifacts import typed
from .errors import InvalidArgumentError, InvalidStateError
from .shapley import is_perfect_square

BN_EPS = 1e-5

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


# Init tags of the layout table: "glorot" draws uniformly within the Glorot
# bound of a (fan_in, fan_out) matrix, "normal" draws from N(0, 0.02), and
# "zeros" and "ones" are constants. The stored batch-norm statistics are
# tagged "mean" (starting at 0) and "var" (starting at 1); they are not
# learnable and live in their own vector.
STATISTIC_TAGS = ("mean", "var")


def tensor_layout(cfg: PatchNetConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every tensor of the network as (name, shape, init tag), in PNC1 record
    order, which is also the order ``init_params`` draws random numbers in."""
    d, m, C = cfg.embed_dim, cfg.side, cfg.class_count
    rows = [("projection", (cfg.patch_len, d), "glorot"),
            ("pos_embed", (cfg.patch_count, d), "normal")]
    for i in range(cfg.depth):
        for stage, weight, shape, init in (("gsi", "kernel", (d, m, m), "normal"),
                                           ("lpi", "weight", (d, d), "glorot")):
            p = f"blocks.{i}.{stage}_"
            rows += [(p + weight, shape, init), (p + "bias", (d,), "zeros"),
                     (p + "bn.gamma", (d,), "ones"), (p + "bn.beta", (d,), "zeros"),
                     (p + "bn.running_mean", (d,), "mean"), (p + "bn.running_var", (d,), "var")]
    return rows + [("classifier_w", (d, C), "glorot"), ("classifier_b", (C,), "zeros")]


@dataclass
class PatchNetParams:
    """A network's tensors in two float32 vectors laid out by
    :func:`tensor_layout`: ``learnable`` holds every learnable tensor and
    ``stats`` the stored population statistics of the batch norms. ``ready``
    says the statistics come from a train-mode ``forward`` or a checkpoint;
    a training step (``loss_and_grad``) writes neither them nor ``ready``.

    Each named tensor is a view into one of the vectors, made once per
    parameter set: an update of a vector in place (as ``adam_step`` makes)
    is an update of its tensors, and a kernel view keeps its identity, which
    the conv-map cache keys on.
    """

    config: PatchNetConfig
    learnable: np.ndarray
    stats: np.ndarray
    ready: bool
    _tensors: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self._tensors = {}
        start = {False: 0, True: 0}
        for name, shape, init in tensor_layout(self.config):
            stat = init in STATISTIC_TAGS
            vector, n = (self.stats if stat else self.learnable), math.prod(shape)
            self._tensors[name] = vector[start[stat]:start[stat] + n].reshape(shape)
            start[stat] += n

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every tensor (learnable + stored stats), by name, in layout order."""
        return dict(self._tensors)

    def learnable_arrays(self) -> dict[str, np.ndarray]:
        """The views into ``learnable``, by name, in the vector's order."""
        return {name: self._tensors[name] for name, _, init in tensor_layout(self.config)
                if init not in STATISTIC_TAGS}

    def copy(self) -> "PatchNetParams":
        return PatchNetParams(self.config, self.learnable.copy(), self.stats.copy(), self.ready)


def _zeros(cfg: PatchNetConfig) -> PatchNetParams:
    size = {False: 0, True: 0}
    for _, shape, init in tensor_layout(cfg):
        size[init in STATISTIC_TAGS] += math.prod(shape)
    return PatchNetParams(cfg, np.zeros(size[False], np.float32),
                          np.zeros(size[True], np.float32), ready=False)


def init_params(cfg: PatchNetConfig) -> PatchNetParams:
    """Seeded initialization: glorot-uniform projections/pointwise/classifier,
    N(0, 0.02) kernels and position embeddings, identity batch norm."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed,))))
    params = _zeros(cfg)
    tensors = params.named_arrays()
    for name, shape, init in tensor_layout(cfg):
        if init == "glorot":
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name][...] = rng.uniform(-bound, bound, size=shape)
        elif init == "normal":
            tensors[name][...] = 0.02 * rng.standard_normal(shape)
        elif init in ("ones", "var"):
            tensors[name][...] = 1.0
    return params


def tensor_shapes(cfg: PatchNetConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor ``init_params(cfg)`` builds, in
    ``named_arrays`` order, computed without allocating any of them."""
    return {name: shape for name, shape, _ in tensor_layout(cfg)}


def _check_mode(mode: str, tape: list | None = None) -> None:
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")
    if tape is not None and mode != "train":
        raise InvalidArgumentError("a tape records train mode only; an eval forward records nothing")


def _patch_batch(patches, dtype=None) -> np.ndarray:
    """``patches`` as a nonempty (B, M, p^3) array: one (M, p^3) stack gains
    a batch axis, and any rank other than 2 or 3 is rejected."""
    patches = np.asarray(patches, dtype=dtype)
    if patches.ndim not in (2, 3):
        raise InvalidArgumentError(
            f"patches must be one (M, p^3) stack or a (B, M, p^3) batch, "
            f"got an array of shape {patches.shape}"
        )
    batch = patches[None] if patches.ndim == 2 else patches
    if batch.shape[0] == 0:
        raise InvalidArgumentError("batch must be nonempty")
    return batch


def _batch_norm(rows: np.ndarray, t: dict, bn: str, mode: str, tape: list | None) -> T._Norm:
    """The batch norm under the name prefix ``bn`` over (N, C) ``rows``. Eval
    mode reads the stored statistics. Train mode uses the batch mean and
    biased variance, which a forward stores and a taped stage does not."""
    gamma, beta = t[bn + "gamma"], t[bn + "beta"]
    if tape is not None:
        return T._Norm(rows, gamma, beta, BN_EPS, None)
    mean, var = t[bn + "running_mean"], t[bn + "running_var"]
    norm = T._Norm(rows, gamma, beta, BN_EPS, (mean, var) if mode == "eval" else None)
    if mode == "train":
        mean[...], var[...] = norm.mean, norm.var
    return norm


def embed_patches(patches, cfg: PatchNetConfig, t: dict, *, tape: list | None = None) -> np.ndarray:
    """Project flattened patches and add position embeddings (tensors by name).

    One stack of patches (M, p^3) gives channels-last activations (m, m, d),
    and a batch (B, M, p^3) gives (B, m, m, d): patch i lands at spatial site
    (i // m, i % m) with its embedding along the last axis. NaN or infinite
    voxels are rejected: nothing downstream could give them a meaningful
    output. With a ``tape`` it appends the backward of the projection and
    the position embeddings; the patches get no gradient.
    """
    x = np.asarray(patches)
    if x.shape[-2:] != (cfg.patch_count, cfg.patch_len):
        raise InvalidArgumentError(
            f"expected {cfg.patch_count} patches of length {cfg.patch_len}, "
            f"got an array of shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise InvalidArgumentError("patches contain NaN or infinite voxels")
    shape = x.shape[:-2] + (cfg.side, cfg.side, cfg.embed_dim)
    pos_embed = t["pos_embed"]
    rows = x.reshape(-1, cfg.patch_len)
    emb = (rows @ t["projection"]).reshape(x.shape[:-1] + (cfg.embed_dim,))
    emb += pos_embed
    if tape is not None:
        def backward(g):
            g = g.reshape(-1, cfg.embed_dim)
            return None, {"projection": rows.T @ g,
                          "pos_embed": g.reshape((-1,) + pos_embed.shape).sum(axis=0)}

        tape.append(backward)
    return emb.reshape(shape)


def gsi_block(x: np.ndarray, t: dict, i: int, mode: str, *, tape: list | None = None) -> np.ndarray:
    """Block i's depthwise spatial convolution + bias + BN + residual (no
    activation): (B, m, m, d) in and out.

    Train mode stores the batch statistics of the branch conv(x) + bias;
    with a ``tape`` it stores nothing and appends the block's backward.
    """
    p = f"blocks.{i}.gsi_"
    _check_mode(mode, tape)
    conv = T._Conv(x, t[p + "kernel"])
    norm = _batch_norm((conv.out + t[p + "bias"]).reshape(-1, x.shape[-1]), t, p + "bn.", mode, tape)
    out = x + norm.out.reshape(x.shape)
    if tape is not None:
        def backward(g):
            g_branch, g_gamma, g_beta = norm.grads(g.reshape(norm.xhat.shape))
            g_conv = g_branch.reshape(x.shape)
            return g + conv.grad_input(g_conv), {
                p + "kernel": conv.grad_kernel(g_conv), p + "bias": g_branch.sum(axis=0),
                p + "bn.gamma": g_gamma, p + "bn.beta": g_beta}

        tape.append(backward)
    return out


def lpi_block(x: np.ndarray, t: dict, i: int, mode: str, *, tape: list | None = None) -> np.ndarray:
    """Block i's pointwise channel mixing + bias + ReLU + BN, (B, m, m, d) in
    and out; spatial sites stay independent.

    Train mode stores the batch statistics of relu(x @ W.T + b); with a
    ``tape`` it stores nothing and appends the block's backward.
    """
    p = f"blocks.{i}.lpi_"
    _check_mode(mode, tape)
    weight = t[p + "weight"]
    rows = x.reshape(-1, weight.shape[1])
    pre = rows @ weight.T
    pre += t[p + "bias"]
    np.maximum(pre, 0.0, out=pre)  # ReLU in place: pre > 0 stays its mask
    norm = _batch_norm(pre, t, p + "bn.", mode, tape)
    out = norm.out.reshape(x.shape[:-1] + (weight.shape[0],))
    if tape is not None:
        def backward(g):
            g_relu, g_gamma, g_beta = norm.grads(g.reshape(norm.xhat.shape))
            g_pre = g_relu * (pre > 0)
            return (g_pre @ weight).reshape(x.shape), {
                p + "weight": g_pre.T @ rows, p + "bias": g_pre.sum(axis=0),
                p + "bn.gamma": g_gamma, p + "bn.beta": g_beta}

        tape.append(backward)
    return out


def pool_head(x: np.ndarray, t: dict, *, tape: list | None = None) -> np.ndarray:
    """Average pool over the m x m sites and the affine classifier:
    (B, m, m, d) activations in, (B, C) logits out. With a ``tape`` it
    appends the head's backward."""
    weight = t["classifier_w"]
    pooled = x.mean(axis=(1, 2))
    logits = pooled @ weight + t["classifier_b"]
    if tape is not None:
        def backward(g):
            g_pooled = np.expand_dims(g @ weight.T, (1, 2))
            g_x = np.broadcast_to(g_pooled / (x.shape[1] * x.shape[2]), x.shape).copy()
            return g_x, {"classifier_w": pooled.T @ g, "classifier_b": g.sum(axis=0)}

        tape.append(backward)
    return logits


def _logits(batch: np.ndarray, cfg: PatchNetConfig, t: dict, mode: str, tape: list | None = None):
    """The stages in order over a (B, M, p^3) batch with tensors ``t``."""
    x = embed_patches(batch, cfg, t, tape=tape)
    for i in range(cfg.depth):
        x = lpi_block(gsi_block(x, t, i, mode, tape=tape), t, i, mode, tape=tape)
    return pool_head(x, t, tape=tape)


def forward(patches, params: PatchNetParams, mode: str = "eval") -> tuple[np.ndarray, np.ndarray]:
    """Logits and softmax probabilities for one selected-patch stack
    (M, p^3) or a batch of them (B, M, p^3), as plain array code: no tape.

    Eval mode reads the stored statistics and leaves ``params`` unchanged.
    Train mode normalises each layer by its batch statistics, stores them
    as the layer's statistics and sets ``ready``; the learnable tensors are
    left as they were.
    """
    _check_mode(mode)
    patches = np.asarray(patches)
    single = patches.ndim == 2
    batch = _patch_batch(patches)
    if mode == "eval" and params.stats.size and not params.ready:
        raise InvalidStateError("batch norm statistics are uninitialized; train first")
    logits = _logits(batch, params.config, params.named_arrays(), mode)
    if mode == "train":
        params.ready = True
    probs = T.softmax(logits)
    if single:
        return logits[0], probs[0]
    return logits, probs


def loss_and_grad(patches, labels, params: PatchNetParams, dtype=np.float32) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus gradients for every learnable
    tensor, by name, in ``learnable_arrays`` order.

    The learnable tensors in ``dtype`` run each stage on batch statistics,
    and each stage and the loss append their analytic backward to one tape,
    2·D + 3 closures at depth D, which ``Tensor.backward`` replays. The call
    reads no stored statistic and writes nothing to ``params``. Pass
    ``dtype=np.float64`` for the high-precision checking mode used by the
    finite-difference tests.
    """
    patches = _patch_batch(patches, dtype)
    t = {name: np.asarray(arr, dtype=dtype) for name, arr in params.learnable_arrays().items()}
    tape: list = []
    logits = _logits(patches, params.config, t, "train", tape)
    loss = T.Tensor(T.softmax_cross_entropy(logits, labels, tape=tape), tape)
    grads = loss.backward()
    return float(loss.data), {name: grads[name] for name in t}


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
    params = _zeros(cfg)
    for name, arr in params.named_arrays().items():
        arr[...] = np.frombuffer(stored[name], dtype="<f4").reshape(shapes[name])
    params.ready = True
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
        "BN statistics are not counted as learnable parameters",
    ]
    return OpCountReport(rows=rows, total_params=total_params, total_macs=total_macs, notes=notes)
