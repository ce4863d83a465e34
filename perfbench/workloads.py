"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (untimed for the
operation metrics, timed as ``setup_s``), runs one untimed warm-up, then
repeats a timed operation: one attribution map for the explain workloads, one
training run for ``train_patchnet``. Every operation's output is checked
outside the timed region.

All patchkit calls go through module attributes (``pk_shapley.recursive_attribution``),
so the traced run's shims see them.
"""
from __future__ import annotations

import numpy as np

from patchkit import evaluation as pk_evaluation
from patchkit import patchnet as pk_patchnet
from patchkit import phantom as pk_phantom
from patchkit import shapley as pk_shapley
from patchkit import surrogate as pk_surrogate
from patchkit import train as pk_train
from patchkit import volume as pk_volume

import checks
from tracer import TracedPredictor

DIMS = (64, 64, 64)
PATCH_EDGE = 8
M_PATCHES = 36
LESION = pk_volume.Region((22, 26, 20), (12, 12, 12))  # the config default
COHORT = 3  # maps averaged for the recall figure


def _phantom(seed: int, n_per_class: int, lesion_delta: float, noise_sigma: float):
    return pk_phantom.PhantomSpec(
        dims=DIMS,
        n_per_class=n_per_class,
        lesion_regions=(LESION,),
        lesion_delta=lesion_delta,
        noise_sigma=noise_sigma,
        smooth_radius=1,
        seed=seed,
    )


def _net_config(seed: int) -> pk_patchnet.PatchNetConfig:
    return pk_patchnet.PatchNetConfig(
        patch_edge=PATCH_EDGE, patch_count=M_PATCHES, embed_dim=64, depth=4, seed=seed
    )


def _selected_patches(manifest):
    grid = pk_volume.make_grid(DIMS, PATCH_EDGE)
    selection = pk_shapley.ttest_select(manifest, grid, M_PATCHES)
    x, y = pk_train.extract_selected_patches(manifest, grid, selection)
    return [grid.regions[i] for i in selection.chosen], x, y


class PatchNetPredictor:
    """Opaque black box over volumes: the selected patches through a PatchNet."""

    def __init__(self, params, regions):
        self.params = params
        self.regions = regions

    def predict(self, v) -> np.ndarray:
        x = np.stack([pk_volume.extract_patch(v, r) for r in self.regions])
        p1 = float(pk_train.class_scores(self.params, x[None])[0])
        return np.array([1.0 - p1, p1])


class Explain:
    """One fully refined ``recursive_attribution`` map per class-1 volume."""

    unit = "map"
    tau = 1.0
    macs_per_sample = 0
    min_ops = COHORT  # the recall cohort is the same whatever the machine speed

    def __init__(self, leaf_edge: int, max_depth: int, threads: int):
        self.leaf_edge = leaf_edge
        self.max_depth = max_depth
        self.threads = threads
        self.maps = []

    def _attribute(self, predictor, volume, max_depth: int):
        return pk_shapley.recursive_attribution(
            predictor, volume, leaf_edge=self.leaf_edge, tau=self.tau,
            max_depth=max_depth, threads=self.threads,
        )

    def _load_positives(self, manifest) -> None:
        self.volumes = [
            manifest.load_volume(i) for i, (_, label) in enumerate(manifest.entries) if label == 1
        ]

    def warmup(self) -> None:
        """One untimed map one level shallower than the timed ones."""
        self._attribute(self.predictor, self.volumes[0], max_depth=self.max_depth - 1)

    def run(self, k: int, tracer=None):
        predictor = self.predictor
        if tracer is not None:
            predictor = TracedPredictor(predictor, tracer, self.readout_span)
        return self._attribute(predictor, self.volumes[k % len(self.volumes)], self.max_depth)

    def units(self, amap) -> int:
        return 1

    def check(self, k: int, amap) -> list[str]:
        self.maps.append(amap)
        volume = self.volumes[k % len(self.volumes)]
        return checks.check_map(amap, self.predictor, volume, self.max_depth)

    def quality(self) -> float:
        """Lesion recall of the cohort average of the first COHORT maps."""
        cohort = pk_shapley.cohort_average(self.maps[:COHORT])
        return checks.lesion_recall(cohort, [LESION])

    def refined_leaves(self, amap) -> int:
        return int(amap.refined_mask.sum())


class ExplainSurrogate(Explain):
    """Desk-scale explain stage over the logistic patch-mean surrogate."""

    readout_span = "surrogate.predict"

    def __init__(self):
        super().__init__(leaf_edge=8, max_depth=3, threads=1)

    def setup(self, seed: int, workdir) -> None:
        manifest = pk_phantom.generate(_phantom(seed, 16, 0.35, 0.05), workdir)
        grid = pk_volume.make_grid(DIMS, PATCH_EDGE)
        self.predictor, info = pk_surrogate.surrogate_train(manifest, grid)
        self.final_loss = info["loss"]
        self._load_positives(manifest)


class ExplainPatchNet(Explain):
    """The same estimator over a briefly trained PatchNet as an opaque black box."""

    readout_span = "patchnet.predict"

    def __init__(self):
        super().__init__(leaf_edge=16, max_depth=2, threads=2)

    def setup(self, seed: int, workdir) -> None:
        manifest = pk_phantom.generate(_phantom(seed, 24, 0.35, 0.05), workdir)
        regions, x, y = _selected_patches(manifest)
        cfg = _net_config(seed)
        # Batch 4 at lr 1e-3 gives enough steps for the batch-norm running
        # statistics to settle, so eval-mode readouts separate the classes.
        schedule = pk_train.TrainSchedule(epochs=6, batch_size=4, lr_start=1e-3)
        result = pk_train.train_patchnet(x, y, x[:0], y[:0], cfg, schedule, seed)
        self.predictor = PatchNetPredictor(result.params, regions)
        self.final_loss = result.log[-1]["loss"]
        self._load_positives(manifest)
        self.macs_per_sample = pk_patchnet.op_count_report(cfg).total_macs


class TrainPatchNet:
    """The train stage on a phantom hard enough that test AUC stays below 1."""

    unit = "epoch"
    min_ops = 2
    # Fewer epochs leave the batch-norm running statistics unsettled on some
    # seeds, so eval-mode validation never beats epoch 0 and test AUC is ~0.5.
    epochs = 10
    auc_floor = 0.8

    def __init__(self):
        self.aucs = []
        self.losses = []

    def setup(self, seed: int, workdir) -> None:
        manifest = pk_phantom.generate(_phantom(seed, 100, 0.10, 0.20), workdir)
        _, x, y = _selected_patches(manifest)
        test_idx, val_idx, train_idx = pk_train.stratified_split(y, (0.25, 0.15), seed)
        self.train_set = (x[train_idx], y[train_idx], x[val_idx], y[val_idx])
        self.test_set = (x[test_idx], y[test_idx])
        self.cfg = _net_config(seed)
        self.schedule = pk_train.TrainSchedule(epochs=self.epochs, batch_size=8)
        self.seed = seed
        self.macs_per_sample = pk_patchnet.op_count_report(self.cfg).total_macs

    def warmup(self) -> None:
        """One untimed epoch, which also grows the heap to its working size."""
        schedule = pk_train.TrainSchedule(epochs=1, batch_size=self.schedule.batch_size)
        pk_train.train_patchnet(*self.train_set, self.cfg, schedule, self.seed)

    def run(self, k: int, tracer=None):
        return pk_train.train_patchnet(*self.train_set, self.cfg, self.schedule, self.seed)

    def units(self, result) -> int:
        return self.epochs

    def refined_leaves(self, result) -> int:
        return 0

    def check(self, k: int, result) -> list[str]:
        x_test, y_test = self.test_set
        scores = pk_train.class_scores(result.params, x_test)
        self.aucs.append(pk_evaluation.auc(y_test, scores))
        self.losses.append(result.log[-1].get("loss", float("nan")))
        return checks.check_fit(result, self.aucs[-1], self.auc_floor)

    @property
    def final_loss(self) -> float:
        return self.losses[0]

    def quality(self) -> float:
        return self.aucs[0]


WORKLOADS = {
    "explain_surrogate": ExplainSurrogate,
    "explain_patchnet": ExplainPatchNet,
    "train_patchnet": TrainPatchNet,
}
