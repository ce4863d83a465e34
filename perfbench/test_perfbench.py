"""Tests of the benchmark harness itself: span arithmetic, output checks, shims.

They use a 16^3 volume and an additive probe, so each map costs 2,304 cheap
readouts. Run with ``python3 -m pytest perfbench`` from the repository root.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from patchkit import shapley as pk_shapley  # noqa: E402
from patchkit import surrogate as pk_surrogate  # noqa: E402
from patchkit import volume as pk_volume  # noqa: E402

DIMS = (16, 16, 16)


class TinyExplain(workloads.Explain):
    """Full two-level refinement of a 16^3 volume under an additive probe."""

    readout_span = "surrogate.predict"

    def __init__(self):
        super().__init__(leaf_edge=4, max_depth=2, threads=1)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid = pk_volume.make_grid(DIMS, 4)
        self.predictor = pk_surrogate.additive_probe(0.01 * rng.normal(size=len(grid)), 0.1, grid)
        self.volumes = [pk_volume.Volume(DIMS, rng.random(16**3, dtype=np.float32))]
        self.final_loss = 1.0

    def quality(self):
        return 1.0


class PlantedFault:
    """Adds ``delta`` to the readout of call number ``bad_call`` only."""

    def __init__(self, inner, bad_call, delta=1e-6):
        self.inner = inner
        self.bad_call = bad_call
        self.delta = delta
        self.calls = 0

    def predict(self, v):
        p = np.array(self.inner.predict(v), dtype=np.float64)
        if self.calls == self.bad_call:
            p += (-self.delta, self.delta)
        self.calls += 1
        return p


class FaultOnSecondMap(TinyExplain):
    def run(self, k, tracer=None):
        if k != 1:
            return super().run(k, tracer)
        # The last readout of a map is the full coalition of its last leaf
        # game, which the efficiency identity compares against a fresh f(v).
        faulty = PlantedFault(self.predictor, checks.expected_readouts(self.max_depth) - 1)
        return self._attribute(faulty, self.volumes[0], self.max_depth)


def _shim_targets():
    out = {}
    for shim in tr.SHIMS:
        owner, name = tr._owner(shim)
        out[(shim.module, shim.attr)] = vars(owner)[name]
    return out


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        (1, 0, "root", 0.0, 10.0, 0, 1),
        (2, 1, "a", 1.0, 4.0, 0, 1),
        (3, 2, "leaf", 2.0, 3.0, 0, 1),
        (4, 1, "b", 3.0, 6.0, 0, 1),  # overlaps a on another thread
        (5, 1, "c", 8.0, 12.0, 0, 1),  # runs past the parent's end
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)
    assert tr.covered_length([], 0.0, 1.0) == 0.0


def test_tracer_records_parent_and_operation():
    tracer = tr.Tracer()
    tracer.op = 7

    def outer():
        return tracer.call("inner", lambda: 3, (), {})

    assert tracer.call("outer", outer, (), {}) == 3
    (inner, outer_span) = tracer.spans
    assert inner[2] == "inner" and outer_span[2] == "outer"
    assert inner[1] == outer_span[0] and outer_span[1] == 0
    assert inner[5] == outer_span[5] == 7


def test_expected_readouts_match_the_paper_counts():
    assert checks.expected_readouts(3) == 18_688
    assert checks.expected_readouts(2) == 2_304


def test_honest_map_passes_and_planted_fault_fails():
    wl = TinyExplain()
    wl.setup(0, None)
    volume = wl.volumes[0]
    amap = wl._attribute(wl.predictor, volume, wl.max_depth)
    assert checks.check_map(amap, wl.predictor, volume, wl.max_depth) == []
    faulty = PlantedFault(wl.predictor, checks.expected_readouts(wl.max_depth) - 1)
    bad = wl._attribute(faulty, volume, wl.max_depth)
    problems = checks.check_map(bad, wl.predictor, volume, wl.max_depth)
    assert any("efficiency" in p for p in problems)


def test_planted_fault_is_counted_as_a_failed_operation(tmp_path):
    result = bench.run(FaultOnSecondMap, seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(2 / 3)
    assert "op 1: efficiency identity" in result["failures"][0]


def test_untraced_run_installs_no_shim(tmp_path):
    before = _shim_targets()
    seen = []

    class Probe(TinyExplain):
        def run(self, k, tracer=None):
            seen.append(_shim_targets() == before)
            return super().run(k, tracer)

    result = bench.run(Probe, seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert result["correct"]
    assert seen == [True, True, True]
    assert _shim_targets() == before


def test_traced_run_shims_only_traced_operations_and_restores(tmp_path):
    before = _shim_targets()
    seen = []

    class Probe(TinyExplain):
        def run(self, k, tracer=None):
            seen.append(pk_shapley.perturb_zero is before[("patchkit.shapley", "perturb_zero")])
            return super().run(k, tracer)

    result = bench.run(Probe, seed=0, seconds=0, trace=True, workdir=tmp_path)
    assert result["correct"]
    assert seen == [True, False, True]
    assert _shim_targets() == before
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert metrics["shapley.readouts"] == 2304
    assert metrics["shapley.games"] == 9
    assert metrics["shapley.games.L2"] == 8
    assert metrics["volume.perturb_zero.bytes"] == 2304 * 4 * 16**3
    assert metrics["shapley.readouts_per_leaf"] == 36
    # Per readout: perturb_zero, predict, patch_means; plus 9 games and the map.
    assert metrics["trace.spans"] == 3 * 2304 + 9 + 1


def test_missing_attribute_is_recorded_as_absent():
    tracer = tr.Tracer()
    shims = tr.Installed(tracer, [tr.Shim("patchkit.volume", "no_such_function", "volume.gone")])
    shims.restore()
    assert "volume.gone" in shims.absent
    reasons = layers.absent_layers({"volume.gone.s": 0.0}, shims.absent)
    assert "does not exist" in reasons["volume.gone.s"]


def test_traced_predictor_forwards_declarations():
    class Serial:
        supports_concurrency = False

        def predict(self, v):
            return np.array([0.5, 0.5])

    wrapped = tr.TracedPredictor(Serial(), tr.Tracer(), "surrogate.predict")
    assert wrapped.supports_concurrency is False
    assert not hasattr(wrapped, "linear_features")


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
