"""Confusion matrices, accuracy metrics, and prediction-percentage tables.

Conventions: confusion rows are ground truth, columns are predictions.
Accuracies computed from a matrix are fractions in [0, 1]; the percentage
table is row-normalised to sum to exactly 100 before any rounding. Ground
truth classes with no samples yield ``None`` per-class entries and are
excluded from the mean with an explicit warning, never silently counted
as zero. Two-decimal rounding is presentation-only (``round_percent``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .binio import write_csv


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (N, N) int64, rows = truth, cols = prediction

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("confusion matrix entries must be non-negative")
        self.counts = counts

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def class_names(self) -> list:
        """``class0`` .. ``class{N-1}``, the row and column labels of every table."""
        return [f"class{i}" for i in range(self.num_classes)]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(truth, pred, num_classes: int) -> ConfusionMatrix:
    """Count (truth, prediction) pairs into an N x N matrix."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError(f"truth/pred must be equal-length 1-D, got {truth.shape} vs {pred.shape}")
    for name, arr in (("truth", truth), ("pred", pred)):
        if len(arr) and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} labels out of range [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return ConfusionMatrix(counts=counts)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """trace / total, as a fraction."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def per_class_accuracy(cm: ConfusionMatrix) -> list:
    """Per-class recall fractions; ``None`` where a class has no samples."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    out = []
    for i in range(cm.num_classes):
        row_sum = int(cm.counts[i].sum())
        out.append(None if row_sum == 0 else float(cm.counts[i, i]) / row_sum)
    return out


def mean_class_accuracy(cm) -> float:
    """Unweighted mean of per-class accuracies.

    Accepts a ConfusionMatrix (mean of the per-class recall fractions) or
    a plain sequence of already-computed per-class values, which are
    averaged as given. Classes without samples are excluded from the mean
    with a warning.
    """
    if isinstance(cm, ConfusionMatrix):
        values = per_class_accuracy(cm)
    else:
        values = list(cm)
    defined = [v for v in values if v is not None]
    if not defined:
        raise ValueError("no class has any samples")
    if len(defined) < len(values):
        missing = [i for i, v in enumerate(values) if v is None]
        warnings.warn(f"classes {missing} have no samples and are excluded from the mean")
    return float(np.mean(defined))


def prediction_percentage_table(cm: ConfusionMatrix) -> np.ndarray:
    """Row-normalised counts times 100. Rows sum to exactly 100 before any
    rounding; empty ground-truth rows come back as NaN with a warning."""
    counts = cm.counts.astype(np.float64)
    row_sums = counts.sum(axis=1, keepdims=True)
    empty = row_sums[:, 0] == 0
    if empty.any():
        warnings.warn(f"classes {np.flatnonzero(empty).tolist()} have no samples; their rows are NaN")
    with np.errstate(invalid="ignore", divide="ignore"):
        table = 100.0 * counts / row_sums
    table[empty] = np.nan
    return table


def round_percent(values):
    """Presentation-time rounding for percentage tables, to two decimals."""
    return np.round(np.asarray(values, dtype=np.float64), 2)


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    accuracy: float
    mean_class_accuracy: float
    per_class_accuracy: list
    row_percentages: np.ndarray


def build_report(truth, pred, num_classes: int) -> EvalReport:
    cm = confusion_matrix(truth, pred, num_classes)
    return EvalReport(
        confusion=cm,
        accuracy=overall_accuracy(cm),
        mean_class_accuracy=mean_class_accuracy(cm),
        per_class_accuracy=per_class_accuracy(cm),
        row_percentages=prediction_percentage_table(cm),
    )


def write_confusion_csv(cm: ConfusionMatrix, path) -> None:
    """Confusion counts as a grid with truth labels down the side."""
    rows = ([name] + counts for name, counts in zip(cm.class_names, cm.counts.tolist()))
    write_csv(path, ["truth\\pred"] + cm.class_names, rows)


def write_metrics_csv(report: EvalReport, path) -> None:
    """Flat key,value rows for the scalar metrics."""
    rows = [["accuracy", repr(report.accuracy)], ["mean_class_accuracy", repr(report.mean_class_accuracy)]]
    for name, v in zip(report.confusion.class_names, report.per_class_accuracy):
        rows.append([f"class_accuracy_{name}", "" if v is None else repr(v)])
    write_csv(path, ["key", "value"], rows)
