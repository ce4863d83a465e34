import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchkit.errors import InvalidArgumentError, UndefinedMetricError
from patchkit.evaluation import (
    aggregate_folds,
    auc,
    evaluate_scores,
    kfold_indices,
    metrics,
    roc_points,
    write_roc_csv,
)


def hand_case():
    """TP=3, TN=4, FP=1, FN=2."""
    labels = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
    scores = [0.9, 0.8, 0.7, 0.1, 0.2, 0.3, 0.4, 0.9, 0.2, 0.1]
    return labels, scores


class TestMetrics:
    def test_hand_case_exact(self):
        counts, acc, sen, spe = metrics(*hand_case())
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (3, 4, 1, 2)
        assert acc == 0.7
        assert sen == 0.6
        assert spe == 0.8

    def test_perfect_scores(self):
        _, acc, sen, spe = metrics([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
        assert (acc, sen, spe) == (1.0, 1.0, 1.0)

    def test_all_predicted_positive_on_balanced_labels(self):
        _, acc, sen, spe = metrics([1, 0, 1, 0], [0.9, 0.9, 0.8, 0.8])
        assert (acc, sen, spe) == (0.5, 1.0, 0.0)

    def test_sensitivity_is_nan_without_positives(self):
        _, _, sen, spe = metrics([0, 0, 0], [0.1, 0.9, 0.4])
        assert math.isnan(sen)
        assert spe == pytest.approx(2 / 3)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            metrics([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            metrics([0, 1], [0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [metrics, auc, roc_points, evaluate_scores])
    def test_non_finite_scores_rejected(self, fn, bad):
        # A NaN would otherwise count as a negative prediction and sort as
        # the best score of the ROC.
        with pytest.raises(InvalidArgumentError, match="scores must be finite"):
            fn([0, 1, 0, 1], [0.2, bad, 0.3, 0.9])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_scores_identical_is_exactly_half(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        n = 10_000
        labels = np.repeat([0, 1], n)
        scores = rng.random(2 * n)
        assert abs(auc(labels, scores) - 0.5) < 0.02

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([1, 1, 1], [0.2, 0.5, 0.9])

    @settings(max_examples=50, deadline=None)
    @given(
        scores=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=16),
        data=st.data(),
    )
    def test_invariant_under_strictly_monotone_transforms(self, scores, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        # Coarse grid: distinct scores stay distinct through the transforms.
        arr = np.round(np.asarray(scores), 3)
        base = auc(labels, arr)
        for transform in (lambda s: 2.0 * s + 1.0, np.exp, np.arctan):
            assert auc(labels, transform(arr)) == pytest.approx(base, abs=1e-12)

    def test_rank_formulation_matches_trapezoid_over_roc(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        scores = np.round(rng.random(200), 1)  # coarse grid forces ties
        points = roc_points(labels, scores)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        trapezoid = float(np.trapezoid(ys, xs))
        assert auc(labels, scores) == pytest.approx(trapezoid, abs=1e-12)


class TestRocPoints:
    def test_endpoints_pinned(self):
        points = roc_points([0, 1, 0, 1], [0.2, 0.7, 0.4, 0.9])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_threshold_half_point_matches_metrics(self):
        labels = [1, 0, 1, 0, 1, 0]
        scores = [0.9, 0.5, 0.5, 0.2, 0.7, 0.1]  # 0.5 among the thresholds
        _, _, sen, spe = metrics(labels, scores)
        assert any(
            abs(fpr - (1.0 - spe)) < 1e-12 and abs(tpr - sen) < 1e-12
            for fpr, tpr in roc_points(labels, scores)
        )

    def test_csv_export(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(path, [(0.0, 0.0), (0.25, 1.0), (1.0, 1.0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0,0"
        assert lines[2] == "0.25,1"


class TestKfold:
    def test_same_seed_same_assignments(self):
        labels = np.array([0, 1] * 20)
        a = kfold_indices(labels, k=5, repeats=3, seed=4)
        b = kfold_indices(labels, k=5, repeats=3, seed=4)
        for fa, fb in zip(a, b):
            for x, y in zip(fa, fb):
                assert np.array_equal(x, y)

    def test_stratified_balance_100_samples(self):
        labels = np.array([0] * 50 + [1] * 50)
        (folds,) = kfold_indices(labels, k=5, repeats=1, seed=0)
        for fold in folds:
            assert len(fold) == 20
            assert int(np.sum(labels[fold] == 1)) == 10

    def test_folds_partition_the_dataset(self):
        labels = np.array([0, 1] * 13)
        for folds in kfold_indices(labels, k=4, repeats=2, seed=9):
            merged = np.concatenate(folds)
            assert np.array_equal(np.sort(merged), np.arange(26))

    def test_leave_one_out_unstratified(self):
        labels = np.array([0, 0, 1, 1, 1])
        (folds,) = kfold_indices(labels, k=5, repeats=1, seed=2, stratified=False)
        assert sorted(len(f) for f in folds) == [1, 1, 1, 1, 1]
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(5))

    @pytest.mark.parametrize("stratified, expected", [
        (True, [[[1, 3, 4, 6, 11], [2, 8, 9, 10, 12], [0, 5, 7, 13]],
                [[2, 5, 10, 11, 13], [0, 1, 4, 6, 7], [3, 8, 9, 12]]]),
        (False, [[[1, 2, 5, 6, 9], [0, 3, 4, 7, 8], [10, 11, 12, 13]],
                 [[0, 3, 4, 7, 9], [1, 6, 10, 11, 13], [2, 5, 8, 12]]]),
    ], ids=["stratified", "plain"])
    def test_pinned_folds(self, stratified, expected):
        # The seeded draws decide every eval fold, so their output is pinned.
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1])
        repeats = kfold_indices(labels, k=3, repeats=2, seed=5, stratified=stratified)
        assert [[fold.tolist() for fold in folds] for folds in repeats] == expected
        assert all(fold.dtype == np.int64 for folds in repeats for fold in folds)

    def test_k_exceeding_class_size_rejected(self):
        labels = np.array([0] * 3 + [1] * 10)
        with pytest.raises(InvalidArgumentError):
            kfold_indices(labels, k=5, repeats=1, seed=0)


class TestReports:
    def test_evaluate_scores_consistency(self):
        labels, scores = hand_case()
        report = evaluate_scores(labels, scores)
        assert report.acc == 0.7
        assert 0.0 <= report.auc <= 1.0
        assert report.roc[0] == (0.0, 0.0)

    def test_aggregate_mean_std(self):
        folds = [
            {"acc": 0.9, "sen": 0.8, "spe": 1.0, "auc": 0.95},
            {"acc": 0.7, "sen": 0.6, "spe": 0.8, "auc": 0.85},
        ]
        summary = aggregate_folds(folds)
        assert summary["acc"]["mean"] == pytest.approx(0.8)
        assert summary["acc"]["std"] == pytest.approx(np.std([0.9, 0.7], ddof=1))

    def test_aggregate_skips_nan_metrics(self):
        folds = [
            {"acc": 1.0, "sen": math.nan, "spe": 1.0, "auc": 1.0},
            {"acc": 0.8, "sen": 0.5, "spe": 0.9, "auc": 0.9},
        ]
        summary = aggregate_folds(folds)
        assert summary["sen"]["mean"] == 0.5

    def test_report_json_round_trip(self, tmp_path):
        labels, scores = hand_case()
        report = evaluate_scores(labels, scores)
        report.save(tmp_path / "report.json")
        import json

        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["counts"] == {"tp": 3, "tn": 4, "fp": 1, "fn": 2}
        assert obj["acc"] == 0.7
