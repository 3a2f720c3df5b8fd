"""Evaluation: accuracies, per-class F1, wug aggregation, correlations.

Accuracy and F1 are reported on a 0-100 scale to match the inflection
literature.  Correlations (Spearman and Pearson) are written out in
numpy here, with two-sided p-values from the Student-t approximation.
scipy is used only for the t CDF itself, and is imported only when a
p-value is computed, so commands that compute none never load it.
Undefined statistics (fewer than two points, zero variance) come back as
NaN rather than raising, since sparse wug classes make them a normal
occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


class EvaluationError(ValueError):
    """Inputs do not line up (lengths, labels)."""


# ---------------------------------------------------------------------------
# accuracy and F1


def exact_match_accuracy(golds: Sequence[str], predictions: Sequence[str]) -> float:
    """Percentage of predictions equal to their gold form."""
    if len(golds) != len(predictions):
        raise EvaluationError(f"{len(golds)} golds vs {len(predictions)} predictions")
    if not golds:
        return float("nan")
    hits = sum(1 for g, p in zip(golds, predictions) if g == p)
    return 100.0 * hits / len(golds)


def accuracy_by_class(classes: Sequence[str], golds: Sequence[str],
                      predictions: Sequence[str]) -> dict[str, float]:
    """Exact-match accuracy within each gold class."""
    if not len(classes) == len(golds) == len(predictions):
        raise EvaluationError("classes, golds, predictions must align")
    buckets: dict[str, list[int]] = {}
    for i, cls in enumerate(classes):
        buckets.setdefault(cls, []).append(i)
    return {
        cls: exact_match_accuracy([golds[i] for i in idx], [predictions[i] for i in idx])
        for cls, idx in buckets.items()
    }


def f1_by_class(gold_classes: Sequence[str], predicted_classes: Sequence[str],
                classes: Sequence[str] | None = None) -> dict[str, float]:
    """One-vs-rest F1 (0-100) per class label.

    A class with no gold or predicted members scores NaN; a class with
    members but no true positives scores 0.
    """
    if len(gold_classes) != len(predicted_classes):
        raise EvaluationError("gold and predicted class sequences must align")
    if classes is None:
        classes = sorted(set(gold_classes) | set(predicted_classes))
    out: dict[str, float] = {}
    for cls in classes:
        tp = sum(1 for g, p in zip(gold_classes, predicted_classes) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold_classes, predicted_classes) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold_classes, predicted_classes) if g == cls and p != cls)
        if tp + fp + fn == 0:
            out[cls] = float("nan")
        elif tp == 0:
            out[cls] = 0.0
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            out[cls] = 100.0 * 2.0 * precision * recall / (precision + recall)
    return out


# ---------------------------------------------------------------------------
# wug aggregation


def production_probabilities(class_outcomes: Sequence[Sequence[str]],
                             classes: Sequence[str]) -> dict[str, float]:
    """Fraction of model productions falling in each class, for one item.

    ``class_outcomes[m]`` lists the classes produced by model m: a single
    top-beam outcome, or several sampled ones.  Classes outside ``classes``
    still dilute the denominator, so listed probabilities need not sum to 1.
    """
    total = sum(len(outcomes) for outcomes in class_outcomes)
    if total == 0:
        raise EvaluationError("no productions")
    return {
        cls: sum(o.count(cls) for o in class_outcomes) / total
        for cls in classes
    }


def model_rating(normalized_probs: Sequence[float]) -> float:
    """A model family's rating of a candidate: mean normalized probability
    across seeds."""
    if not normalized_probs:
        raise EvaluationError("no per-seed probabilities")
    return float(np.mean(np.asarray(normalized_probs, dtype=np.float64)))


# ---------------------------------------------------------------------------
# correlations


@dataclass(frozen=True)
class CorrelationResult:
    statistic: float
    pvalue: float
    n: int


def _t_pvalue(stat: float, n: int) -> float:
    """Two-sided p for a correlation via the t approximation."""
    if n < 3 or not math.isfinite(stat):
        return float("nan")
    if abs(stat) >= 1.0:
        return 0.0
    # imported here: loading scipy takes longer than loading all of wugbench
    from scipy.special import stdtr

    t = stat * math.sqrt((n - 2) / (1.0 - stat * stat))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson product-moment correlation with a t-based p-value.

    NaN statistic when n < 2 or either side has zero variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise EvaluationError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    n = len(x)
    if n < 2:
        return CorrelationResult(float("nan"), float("nan"), n)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    if denom == 0.0:
        return CorrelationResult(float("nan"), float("nan"), n)
    r = float(np.sum(xc * yc)) / denom
    r = max(-1.0, min(1.0, r))
    return CorrelationResult(r, _t_pvalue(r, n), n)


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=np.float64),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation: Pearson over average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise EvaluationError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    return pearson(average_ranks(x), average_ranks(y))


# ---------------------------------------------------------------------------
# accuracy vs. human-fit grid


@dataclass(frozen=True)
class GridSummary:
    """Does getting the training distribution right predict human fit?

    ``cells[(model, cls)] = (accuracy, human_correlation)``; the summary
    correlates the two coordinates per model (across classes), per class
    (across models), and pooled over every cell.
    """

    per_model: dict[str, CorrelationResult]
    per_class: dict[str, CorrelationResult]
    pooled: CorrelationResult
    missing: tuple[tuple[str, str], ...]


def accuracy_correlation_grid(
    cells: Mapping[tuple[str, str], tuple[float, float]],
    models: Sequence[str],
    classes: Sequence[str],
) -> GridSummary:
    """Pearson r between task accuracy and human-judgment correlation.

    Cells absent from ``cells`` or holding NaN coordinates are skipped and
    listed in ``missing`` so reports can show the gaps."""
    missing: list[tuple[str, str]] = []
    usable: dict[tuple[str, str], tuple[float, float]] = {}
    for model in models:
        for cls in classes:
            cell = cells.get((model, cls))
            if cell is None or any(not math.isfinite(v) for v in cell):
                missing.append((model, cls))
            else:
                usable[(model, cls)] = cell

    def corr(keys: list[tuple[str, str]]) -> CorrelationResult:
        pts = [usable[k] for k in keys if k in usable]
        return pearson([x for x, _ in pts], [y for _, y in pts])

    per_model = {m: corr([(m, c) for c in classes]) for m in models}
    per_class = {c: corr([(m, c) for m in models]) for c in classes}
    pooled = corr(list(usable))
    return GridSummary(per_model, per_class, pooled, tuple(missing))
