"""Classification metrics: confusion matrix, one-vs-rest per-class scores,
rank-based AUC, OOD detection rate, and the thresholded evaluation protocol
(low-confidence samples are referred and excluded from the metrics).

Conventions:
    * confusion rows are true classes, columns are predicted classes;
    * 0/0 ratios are defined as 0;
    * classes absent from both truth and prediction (TP+FP+FN = 0) are
      excluded from macro averages;
    * AUC is the Mann-Whitney U over n_pos * n_neg, ties counting 1/2.
      2U = sum over positives p of #(negatives < p) + #(negatives <= p),
      both counts read by binary search of the sorted positives in the
      sorted negatives.  2U is an exact integer, so U = 2U / 2 is the exact
      half-integer of the rank-sum formula while 2U < 2**53 (any n below
      ~9e7 rows); the AUC is that one value divided once by n_pos * n_neg.
      NaN scores sort last and tie with each other, like one top rank group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .records import Predictions


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def confusion_matrix(predicted: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(K, K) count matrix; rows = true class, cols = predicted class."""
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    # a CSV may hold more classes than the model
    for name, idx in (("labels", labels), ("predictions", predicted)):
        if idx.size and (idx.min() < 0 or idx.max() >= n_classes):
            raise ValueError(f"confusion_matrix: {name} outside 0..K-1")
    k = n_classes
    return np.bincount(labels * k + predicted, minlength=k * k).reshape(k, k)


@dataclass(frozen=True)
class PerClassMetrics:
    """One-vs-rest scores per class plus macro averages over included classes."""

    precision: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    f1: np.ndarray
    support: np.ndarray  # true count per class
    included: np.ndarray  # bool; TP+FP+FN > 0
    macro_precision: float
    macro_sensitivity: float
    macro_specificity: float
    macro_f1: float

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


def per_class_metrics(cm: np.ndarray) -> PerClassMetrics:
    """One-vs-rest scores of a non-empty confusion matrix, with macro averages."""
    cm = np.asarray(cm, dtype=np.int64)
    total = cm.sum()
    tp = np.diag(cm).astype(np.float64)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    tn = total - tp - fn - fp
    precision = _safe_div(tp, tp + fp)
    sensitivity = _safe_div(tp, tp + fn)
    specificity = _safe_div(tn, tn + fp)
    f1 = _safe_div(2.0 * precision * sensitivity, precision + sensitivity)
    included = (tp + fp + fn) > 0
    # never empty: evaluate passes at least one kept row, whose true class is included
    macro = (
        float(precision[included].mean()),
        float(sensitivity[included].mean()),
        float(specificity[included].mean()),
        float(f1[included].mean()),
    )
    return PerClassMetrics(
        precision=precision,
        sensitivity=sensitivity,
        specificity=specificity,
        f1=f1,
        support=(tp + fn).astype(np.int64),
        included=included,
        macro_precision=macro[0],
        macro_sensitivity=macro[1],
        macro_specificity=macro[2],
        macro_f1=macro[3],
    )


def binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney AUC of scores for separating positives from negatives;
    unchecked: both must occur (``ovr_auc`` skips a class that lacks one)."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    pos = np.sort(scores[positives])  # sorted queries: an ordered binary search
    neg = np.sort(scores[~positives])
    n_pos, n_neg = len(pos), len(neg)
    twice_u = (
        np.searchsorted(neg, pos, side="left").sum()
        + np.searchsorted(neg, pos, side="right").sum()
    )
    return float(twice_u / 2 / (n_pos * n_neg))


def ovr_auc(labels: np.ndarray, probs: np.ndarray) -> tuple[float | None, np.ndarray]:
    """Macro one-vs-rest AUC over classes with both positives and negatives.

    Returns (macro, per_class) with NaN for skipped classes (a warning
    names them); macro is None when every class is skipped.
    """
    labels = np.asarray(labels, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    k = probs.shape[1]
    per_class = np.full(k, np.nan)
    for cls in range(k):
        pos = labels == cls
        if pos.all() or not pos.any():
            warnings.warn(f"ovr_auc: class {cls} lacks positives or negatives; skipped")
            continue
        per_class[cls] = binary_auc(probs[:, cls], pos)
    usable = ~np.isnan(per_class)
    return (float(per_class[usable].mean()) if usable.any() else None), per_class


def ood_detection_rate(uncertainty: np.ndarray, threshold: float) -> float:
    """Fraction of samples flagged as low confidence (u >= theta)."""
    u = np.asarray(uncertainty, dtype=np.float64)
    if len(u) == 0:
        raise ValueError("ood_detection_rate: empty input")
    return float(np.mean(u >= threshold))


@dataclass(frozen=True)
class MetricReport:
    """Metrics over the evaluated subset of a prediction batch.

    Stores the two counts; the referral figures are derived.  When every
    sample is referred (n_evaluated == 0) the metric fields are None.
    """

    n_total: int
    n_evaluated: int
    confusion: np.ndarray | None = None
    per_class: PerClassMetrics | None = None
    macro_auc: float | None = None
    auc_per_class: np.ndarray | None = None
    accuracy: float | None = None

    @property
    def n_referred(self) -> int:
        return self.n_total - self.n_evaluated

    @property
    def referral_rate(self) -> float:
        return self.n_referred / self.n_total if self.n_total else 0.0

    @property
    def available(self) -> bool:
        return self.n_evaluated > 0

    def to_dict(self) -> dict:
        out = {
            "n_total": self.n_total,
            "n_evaluated": self.n_evaluated,
            "n_referred": self.n_referred,
            "referral_rate": self.referral_rate,
            "available": self.available,
        }
        if self.available:
            out["confusion"] = self.confusion.tolist()
            out["per_class"] = self.per_class.to_dict()
            out["macro_auc"] = self.macro_auc
            out["auc_per_class"] = [
                None if np.isnan(v) else float(v) for v in self.auc_per_class
            ]
            out["accuracy"] = self.accuracy
        return out


def evaluate(preds: Predictions, threshold: float = np.inf) -> MetricReport:
    """Full report on the rows kept at ``threshold`` (u < threshold); the
    rest are referred.  As u <= 1, the default +inf refers none, which is
    the unthresholded report.

    All rows must be in-distribution (labels >= 0); OOD detection is a
    separate protocol (``ood_detection_rate``).
    """
    if np.any(preds.labels < 0):
        raise ValueError("evaluate: OOD rows in a classification report")
    kept = preds.subset(preds.uncertainty < threshold)
    if len(kept) == 0:
        return MetricReport(n_total=len(preds), n_evaluated=0)
    cm = confusion_matrix(kept.predicted, kept.labels, kept.n_classes)
    macro_auc, auc_per_class = ovr_auc(kept.labels, kept.probs)
    return MetricReport(
        n_total=len(preds),
        n_evaluated=len(kept),
        confusion=cm,
        per_class=per_class_metrics(cm),
        macro_auc=macro_auc,
        auc_per_class=auc_per_class,
        accuracy=float(np.mean(kept.predicted == kept.labels)),
    )
