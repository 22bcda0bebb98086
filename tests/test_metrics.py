import csv

import numpy as np
import pytest

from ferfuse.metrics import (
    ConfusionMatrix,
    build_report,
    confusion_matrix,
    mean_class_accuracy,
    overall_accuracy,
    per_class_accuracy,
    prediction_percentage_table,
    round_percent,
    write_confusion_csv,
    write_metrics_csv,
)

# frozen seven-class accuracy fixtures; their means round to 86.04 and 84.58
POSTER_ROW = [92.35, 96.96, 91.21, 90.27, 67.57, 75.00, 88.89]
BASELINE_ROW = [90.44, 96.71, 90.38, 87.23, 62.16, 76.25, 88.89]


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        truth = np.array([0, 1, 2, 2, 1, 0])
        cm = confusion_matrix(truth, truth, 3)
        assert np.array_equal(cm.counts, np.diag([2, 2, 2]))

    def test_constant_prediction_single_column(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        pred = np.zeros(6, dtype=int)
        cm = confusion_matrix(truth, pred, 3)
        assert np.array_equal(cm.counts[:, 0], [2, 2, 2])
        assert cm.counts[:, 1:].sum() == 0

    def test_counting_oracle_m1000(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 5, size=1000)
        pred = rng.integers(0, 5, size=1000)
        cm = confusion_matrix(truth, pred, 5)
        for t in range(5):
            for p in range(5):
                want = sum(1 for a, b in zip(truth, pred) if a == t and b == p)
                assert cm.counts[t, p] == want
        assert cm.total == 1000

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 5], [0, 1], 3)
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0, -1], 3)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=np.array([[1, -1], [0, 2]]))


class TestAccuracies:
    def test_identity_matrix_scores_hundred_percent(self):
        cm = ConfusionMatrix(counts=np.eye(4, dtype=int) * 7)
        assert overall_accuracy(cm) == 1.0
        assert mean_class_accuracy(cm) == 1.0
        assert per_class_accuracy(cm) == [1.0, 1.0, 1.0, 1.0]

    def test_poster_row_mean(self):
        assert mean_class_accuracy(POSTER_ROW) == pytest.approx(86.04, abs=0.01)

    def test_baseline_row_mean(self):
        assert mean_class_accuracy(BASELINE_ROW) == pytest.approx(84.58, abs=0.01)

    def test_overall_is_trace_over_total(self):
        cm = ConfusionMatrix(counts=np.array([[8, 2], [3, 7]]))
        assert overall_accuracy(cm) == pytest.approx(15 / 20)

    def test_mean_class_accuracy_invariant_to_class_rescaling(self):
        base = np.array([[8, 2], [3, 7]])
        scaled = base.copy()
        scaled[0] *= 10  # oversample class 0
        a = mean_class_accuracy(ConfusionMatrix(counts=base))
        b = mean_class_accuracy(ConfusionMatrix(counts=scaled))
        assert a == pytest.approx(b, abs=1e-12)
        # overall accuracy is not invariant under the same rescaling
        assert overall_accuracy(ConfusionMatrix(counts=base)) != pytest.approx(
            overall_accuracy(ConfusionMatrix(counts=scaled)), abs=1e-6
        )

    def test_empty_class_excluded_with_warning(self):
        cm = ConfusionMatrix(counts=np.array([[4, 0, 0], [0, 2, 2], [0, 0, 0]]))
        with pytest.warns(UserWarning):
            got = mean_class_accuracy(cm)
        assert got == pytest.approx((1.0 + 0.5) / 2)
        assert per_class_accuracy(cm)[2] is None

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            overall_accuracy(ConfusionMatrix(counts=np.zeros((2, 2), dtype=int)))


class TestPredictionPercentages:
    def test_diagonal_matrix_gives_diagonal_hundreds(self):
        cm = ConfusionMatrix(counts=np.diag([3, 5]))
        table = prediction_percentage_table(cm)
        assert np.allclose(table, np.diag([100.0, 100.0]), atol=1e-12)

    def test_rows_sum_to_exactly_hundred_before_rounding(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            counts = rng.integers(1, 50, size=(5, 5))
            table = prediction_percentage_table(ConfusionMatrix(counts=counts))
            assert np.max(np.abs(table.sum(axis=1) - 100.0)) < 1e-9

    def test_two_decimal_rounding_can_overshoot_hundred(self):
        # 680 ground-truth samples of the first class, split so that the exact
        # row sums to 100 while its two-decimal presentation sums to 100.01
        counts = np.zeros((7, 7), dtype=int)
        counts[0] = [615, 17, 31, 11, 0, 5, 1]
        for i in range(1, 7):
            counts[i, i] = 1
        table = prediction_percentage_table(ConfusionMatrix(counts=counts))
        assert abs(table[0].sum() - 100.0) < 1e-9
        rounded = round_percent(table[0])
        assert np.array_equal(rounded, [90.44, 2.50, 4.56, 1.62, 0.00, 0.74, 0.15])
        assert rounded.sum() == pytest.approx(100.01, abs=1e-9)

    def test_percentages_bounded(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 30, size=(4, 4)) + np.eye(4, dtype=int)
        table = prediction_percentage_table(ConfusionMatrix(counts=counts))
        assert np.nanmin(table) >= 0.0
        assert np.nanmax(table) <= 100.0

    def test_empty_row_marked_nan_with_warning(self):
        cm = ConfusionMatrix(counts=np.array([[2, 1], [0, 0]]))
        with pytest.warns(UserWarning):
            table = prediction_percentage_table(cm)
        assert np.all(np.isnan(table[1]))
        assert not np.any(np.isnan(table[0]))


class TestReportAndCsv:
    def test_build_report_fields_consistent(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, size=200)
        pred = rng.integers(0, 3, size=200)
        report = build_report(truth, pred, 3)
        assert report.accuracy == pytest.approx(float(np.mean(truth == pred)))
        assert report.confusion.total == 200
        assert len(report.per_class_accuracy) == 3
        assert report.row_percentages.shape == (3, 3)

    def test_metrics_are_pure(self):
        truth = [0, 1, 1, 2]
        pred = [0, 1, 2, 2]
        a = build_report(truth, pred, 3)
        b = build_report(truth, pred, 3)
        assert np.array_equal(a.confusion.counts, b.confusion.counts)
        assert a.accuracy == b.accuracy

    def test_csv_round_trip(self, tmp_path):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [0, 1, 1, 1, 2, 0]
        report = build_report(truth, pred, 3)
        write_confusion_csv(report.confusion, tmp_path / "confusion.csv")
        write_metrics_csv(report, tmp_path / "metrics.csv")
        with open(tmp_path / "confusion.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["truth\\pred", "class0", "class1", "class2"]
        grid = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
        assert np.array_equal(grid, report.confusion.counts)
        with open(tmp_path / "metrics.csv") as f:
            kv = {row[0]: row[1] for row in csv.reader(f) if row and row[0] != "key"}
        assert float(kv["accuracy"]) == pytest.approx(report.accuracy)
        assert float(kv["mean_class_accuracy"]) == pytest.approx(report.mean_class_accuracy)
