"""Span recorder and the timing shims used by the traced benchmark run.

A span is one call into a patchkit function, kept as the tuple
``(sid, parent, name, start, end, op, n)``: span id, id of the enclosing span
(0 at the top), layer name, ``perf_counter`` start and end, the id of the
benchmark operation it belongs to (``"setup"`` or the index of a timed map or
fit) and a work count whose meaning depends on the layer (bytes copied,
samples in a batch, octree level of a game). Spans are kept in memory and
written out when the run ends.

The shims replace module and class attributes at the places where patchkit's
own callers look functions up (``patchkit.shapley.perturb_zero`` rather than
``patchkit.volume.perturb_zero``), so no library file is edited. They are
installed only for traced operations and always restored afterwards, so an
untraced operation runs exactly the library's functions.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span list plus a per-thread stack of open spans.

    Spans opened on a worker thread with nothing open on that thread take the
    innermost open span of the thread that created the tracer as their parent:
    in patchkit, worker threads only run coalition readouts on behalf of a
    sibling game that the creating thread has open.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: object = "setup"
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, work: Callable | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._owner_stack[-1]
            except IndexError:
                parent = 0
        sid = next(self._ids)
        stack.append(sid)
        n = 0
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            n = work(args, out) if work is not None else 1
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.op, n))

    def write(self, path) -> None:
        """Write every span as one tab-separated line to a gzip file."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("sid\tparent\tname\tstart\tend\top\tn\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children running concurrently on worker threads overlap; the union of
    their intervals is subtracted, not the sum of their durations.
    """
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _op, _n in spans:
        children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
        for sid, _parent, _name, t0, t1, _op, _n in spans
    }


@dataclass(frozen=True)
class Shim:
    """Time every call of ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: str
    work: Callable | None = None


def _volume_bytes(args, out) -> int:
    return 4 * args[0].voxels.size


def _vol_file_bytes(args, out) -> int:
    return 16 + 4 * out.voxels.size


def _game_level(args, out) -> int:
    volume, siblings = args[1], args[2]
    return (max(volume.dims) // max(siblings[0].size)).bit_length() - 1


def _batch(args, out) -> int:
    patches = args[0]
    return 1 if getattr(patches, "ndim", 3) == 2 else len(patches)


SHIMS = (
    Shim("patchkit.phantom", "generate", "phantom.generate"),
    Shim("patchkit.phantom", "read_vol", "volume.read_vol", _vol_file_bytes),
    Shim("patchkit.surrogate", "surrogate_train", "surrogate.train"),
    Shim("patchkit.surrogate", "patch_means", "volume.patch_means"),
    Shim("patchkit.shapley", "ttest_select", "shapley.ttest_select"),
    Shim("patchkit.shapley", "recursive_attribution", "shapley.recursive"),
    Shim("patchkit.shapley", "sibling_shapley", "shapley.game", _game_level),
    Shim("patchkit.shapley", "perturb_zero", "volume.perturb_zero", _volume_bytes),
    Shim("patchkit.volume", "extract_patch", "volume.extract_patch"),
    Shim("patchkit.train", "extract_patch", "volume.extract_patch"),
    Shim("patchkit.train", "extract_selected_patches", "train.extract_selected_patches"),
    Shim("patchkit.train", "train_patchnet", "train.fit"),
    Shim("patchkit.train", "accuracy", "train.accuracy"),
    Shim("patchkit.train", "forward", "patchnet.forward", _batch),
    Shim("patchkit.train", "loss_and_grad", "patchnet.loss_and_grad", _batch),
    Shim("patchkit.train", "adam_step", "optim.adam_step"),
    Shim("patchkit.patchnet", "embed_patches", "patchnet.embed"),
    Shim("patchkit.patchnet", "gsi_block", "patchnet.gsi"),
    Shim("patchkit.patchnet", "lpi_block", "patchnet.lpi"),
    Shim("patchkit.tensor", "depthwise_conv2d", "tensor.depthwise_conv2d"),
    Shim("patchkit.tensor", "Tensor.backward", "patchnet.backward"),
)


def _owner(shim: Shim):
    """(object holding the attribute, attribute name), or None if missing."""
    try:
        owner = importlib.import_module(shim.module)
    except ImportError:
        return None
    *path, name = shim.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


def _wrap(tracer: Tracer, shim: Shim, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return tracer.call(shim.span, fn, args, kwargs, shim.work)

    return timed


class Installed:
    """Shims in place for one traced operation; ``restore`` undoes them."""

    def __init__(self, tracer: Tracer, shims=SHIMS):
        self.absent: dict[str, str] = {}
        self._saved: list[tuple[object, str, object]] = []
        for shim in shims:
            found = _owner(shim)
            if found is None:
                self.absent[shim.span] = f"{shim.module}.{shim.attr} does not exist"
                continue
            owner, name = found
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, _wrap(tracer, shim, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class TracedPredictor:
    """Predictor wrapper that times ``predict`` and forwards every other attribute.

    Forwarding keeps declarations such as ``supports_concurrency`` visible to
    the estimator, so tracing never changes which code path runs.
    """

    def __init__(self, inner, tracer: Tracer, span: str):
        self._inner = inner
        self._tracer = tracer
        self._span = span

    def predict(self, v):
        return self._tracer.call(self._span, self._inner.predict, (v,), {})

    def __getattr__(self, name):
        return getattr(self._inner, name)
