"""Per-layer metrics computed from the traced run's spans.

Values of timed layers are per unit of work (one map on the explain
workloads, one epoch on ``train_patchnet``) over the traced operations only;
the set-up layers are per set-up. A layer the workload never calls reads 0
and is listed with a reason in the run's ``absent`` record.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times

# (metric, unit), in the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("volume.perturb_zero.calls", "count"),
    ("volume.perturb_zero.s", "s"),
    ("volume.perturb_zero.bytes", "bytes"),
    ("volume.patch_means.calls", "count"),
    ("volume.patch_means.s", "s"),
    ("surrogate.predict.calls", "count"),
    ("surrogate.predict.self_s", "s"),
    ("volume.extract_patch.calls", "count"),
    ("volume.extract_patch.s", "s"),
    ("shapley.games", "count"),
    ("shapley.games.L1", "count"),
    ("shapley.games.L2", "count"),
    ("shapley.games.L3", "count"),
    ("shapley.readouts", "count"),
    ("shapley.readouts_per_leaf", "ratio"),
    ("shapley.game.self_s", "s"),
    ("shapley.recursive.self_s", "s"),
    ("patchnet.forward.calls", "count"),
    ("patchnet.forward.s", "s"),
    ("patchnet.embed.eval.fwd_s", "s"),
    ("patchnet.gsi.eval.fwd_s", "s"),
    ("patchnet.lpi.eval.fwd_s", "s"),
    ("tensor.depthwise_conv2d.eval.fwd_s", "s"),
    ("patchnet.eval.gmacs_per_s", "GMAC/s"),
    ("patchnet.embed.train.fwd_s", "s"),
    ("patchnet.gsi.train.fwd_s", "s"),
    ("patchnet.lpi.train.fwd_s", "s"),
    ("tensor.depthwise_conv2d.train.fwd_s", "s"),
    ("patchnet.train.gmacs_per_s", "GMAC/s"),
    ("patchnet.loss_and_grad.calls", "count"),
    ("patchnet.loss_and_grad.s", "s"),
    ("patchnet.backward.s", "s"),
    ("optim.adam_step.calls", "count"),
    ("optim.adam_step.s", "s"),
    ("train.steps", "count"),
    ("train.accuracy.s", "s"),
    ("phantom.generate.s", "s"),
    ("volume.read_vol.calls", "count"),
    ("volume.read_vol.s", "s"),
    ("volume.read_vol.bytes", "bytes"),
    ("surrogate.train.s", "s"),
    ("shapley.ttest_select.s", "s"),
    ("train.extract_selected_patches.s", "s"),
    ("shapley.budget_exceeded", "count"),
    ("train.aborted", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)

READOUT_SPANS = ("surrogate.predict", "patchnet.predict")
FORWARD_LAYERS = ("patchnet.embed", "patchnet.gsi", "patchnet.lpi", "tensor.depthwise_conv2d")
# Forward MACs are counted over the block layers; the depthwise conv runs inside gsi.
MAC_LAYERS = ("patchnet.embed", "patchnet.gsi", "patchnet.lpi")
MODE_ROOTS = {"patchnet.forward": "eval", "patchnet.loss_and_grad": "train"}
EVENT_COUNTERS = ("shapley.budget_exceeded", "train.aborted")


class _Sums:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.n = 0


def _mode(span, by_id) -> str | None:
    """'eval' or 'train': whether the span ran under forward or loss_and_grad."""
    parent = span[1]
    while parent:
        ancestor = by_id[parent]
        mode = MODE_ROOTS.get(ancestor[2])
        if mode is not None:
            return mode
        parent = ancestor[1]
    return None


def layer_metrics(
    spans,
    units_by_op: dict,
    setups: int,
    macs_per_sample: int,
    refined_leaves: int,
    events: dict,
    traced_s: list[float],
    untraced_s: list[float],
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of one traced run.

    ``units_by_op`` maps each traced operation id to its units of work;
    ``refined_leaves`` counts leaves with leaf-level values over those
    operations; ``traced_s``/``untraced_s`` are the per-unit times of traced
    and untraced operations, whose ratio gives the tracing overhead.
    """
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    timed: dict[str, _Sums] = defaultdict(_Sums)
    setup: dict[str, _Sums] = defaultdict(_Sums)
    timed_spans = 0
    for span in spans:
        sid, _parent, name, t0, t1, op, n = span
        if op in units_by_op:
            timed_spans += 1
            key = name
            if name in FORWARD_LAYERS:
                key = f"{name}.{_mode(span, by_id)}"
            elif name == "shapley.game":
                timed[f"shapley.games.L{n}"].calls += 1
        elif op == "setup":
            key = name
            sums = setup[key]
            sums.calls += 1
            sums.s += t1 - t0
            sums.n += n
            continue
        else:
            continue
        sums = timed[key]
        sums.calls += 1
        sums.s += t1 - t0
        sums.self_s += selfs[sid]
        sums.n += n

    units = sum(units_by_op.values())

    def per_unit(name: str, field: str) -> float:
        return getattr(timed[name], field) / units if units else 0.0

    def per_setup(name: str, field: str) -> float:
        return getattr(setup[name], field) / setups if setups else 0.0

    readouts = sum(timed[name].calls for name in READOUT_SPANS)

    def gmacs(mode: str, root: str) -> float:
        seconds = sum(timed[f"{name}.{mode}"].s for name in MAC_LAYERS)
        return macs_per_sample * timed[root].n / seconds / 1e9 if seconds else 0.0

    out = {
        "volume.perturb_zero.calls": per_unit("volume.perturb_zero", "calls"),
        "volume.perturb_zero.s": per_unit("volume.perturb_zero", "s"),
        "volume.perturb_zero.bytes": per_unit("volume.perturb_zero", "n"),
        "volume.patch_means.calls": per_unit("volume.patch_means", "calls"),
        "volume.patch_means.s": per_unit("volume.patch_means", "s"),
        "surrogate.predict.calls": per_unit("surrogate.predict", "calls"),
        "surrogate.predict.self_s": per_unit("surrogate.predict", "self_s"),
        "volume.extract_patch.calls": per_unit("volume.extract_patch", "calls"),
        "volume.extract_patch.s": per_unit("volume.extract_patch", "s"),
        "shapley.games": per_unit("shapley.game", "calls"),
        "shapley.games.L1": per_unit("shapley.games.L1", "calls"),
        "shapley.games.L2": per_unit("shapley.games.L2", "calls"),
        "shapley.games.L3": per_unit("shapley.games.L3", "calls"),
        "shapley.readouts": readouts / units if units else 0.0,
        "shapley.readouts_per_leaf": readouts / refined_leaves if refined_leaves else 0.0,
        "shapley.game.self_s": per_unit("shapley.game", "self_s"),
        "shapley.recursive.self_s": per_unit("shapley.recursive", "self_s"),
        "patchnet.forward.calls": per_unit("patchnet.forward", "calls"),
        "patchnet.forward.s": per_unit("patchnet.forward", "s"),
        "patchnet.eval.gmacs_per_s": gmacs("eval", "patchnet.forward"),
        "patchnet.train.gmacs_per_s": gmacs("train", "patchnet.loss_and_grad"),
        "patchnet.loss_and_grad.calls": per_unit("patchnet.loss_and_grad", "calls"),
        "patchnet.loss_and_grad.s": per_unit("patchnet.loss_and_grad", "s"),
        "patchnet.backward.s": per_unit("patchnet.backward", "s"),
        "optim.adam_step.calls": per_unit("optim.adam_step", "calls"),
        "optim.adam_step.s": per_unit("optim.adam_step", "s"),
        "train.steps": per_unit("patchnet.loss_and_grad", "calls"),
        "train.accuracy.s": per_unit("train.accuracy", "s"),
        "phantom.generate.s": per_setup("phantom.generate", "s"),
        "volume.read_vol.calls": per_setup("volume.read_vol", "calls"),
        "volume.read_vol.s": per_setup("volume.read_vol", "s"),
        "volume.read_vol.bytes": per_setup("volume.read_vol", "n"),
        "surrogate.train.s": per_setup("surrogate.train", "s"),
        "shapley.ttest_select.s": per_setup("shapley.ttest_select", "s"),
        "train.extract_selected_patches.s": per_setup("train.extract_selected_patches", "s"),
        "shapley.budget_exceeded": float(events.get("BudgetExceededError", 0)),
        "train.aborted": float(events.get("aborted", 0)),
        "trace.spans": timed_spans / units if units else 0.0,
        "trace.overhead_frac": (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            if traced_s and untraced_s else 0.0
        ),
    }
    for name in FORWARD_LAYERS:
        for mode in ("eval", "train"):
            out[f"{name}.{mode}.fwd_s"] = per_unit(f"{name}.{mode}", "s")
    return {name: out[name] for name, _unit in PER_LAYER}


def absent_layers(metrics: dict[str, float], missing: dict[str, str]) -> dict[str, str]:
    """Reason for every per-layer metric that reads 0, event counters excepted.

    ``missing`` maps span names whose shim target does not exist to a reason.
    """
    reasons = {}
    for name, value in metrics.items():
        if value or name in EVENT_COUNTERS:
            continue
        reasons[name] = next(
            (why for span, why in missing.items() if name.startswith(span + ".")),
            "not called by this workload",
        )
    return reasons
