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
    if predicted.shape != labels.shape:
        raise ValueError("confusion_matrix: shape mismatch")
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
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.size == 0:
        raise ValueError("per_class_metrics: need a non-empty square matrix")
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
    if not np.any(included):
        macro = (0.0, 0.0, 0.0, 0.0)
    else:
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
    """Mann-Whitney AUC of scores for separating positives from negatives."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    pos = np.sort(scores[positives])  # sorted queries: an ordered binary search
    neg = np.sort(scores[~positives])
    n_pos, n_neg = len(pos), len(neg)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("binary_auc: need both positives and negatives")
    twice_u = (
        np.searchsorted(neg, pos, side="left").sum()
        + np.searchsorted(neg, pos, side="right").sum()
    )
    return float(twice_u / 2 / (n_pos * n_neg))


def ovr_auc(labels: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Macro one-vs-rest AUC over classes with both positives and negatives.

    Returns (macro, per_class) with NaN for skipped classes (a warning
    names them).
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
    if not usable.any():
        raise ValueError("ovr_auc: no class has both positives and negatives")
    return float(per_class[usable].mean()), per_class


def ood_detection_rate(uncertainty: np.ndarray, threshold: float) -> float:
    """Fraction of samples flagged as low confidence (u >= theta)."""
    u = np.asarray(uncertainty, dtype=np.float64)
    if len(u) == 0:
        raise ValueError("ood_detection_rate: empty input")
    return float(np.mean(u >= threshold))


@dataclass(frozen=True)
class MetricReport:
    """Metrics over the evaluated subset of a prediction batch.

    When every sample is referred (n_evaluated == 0) the metric fields are
    None and ``available`` is False; the referral bookkeeping still holds.
    """

    n_total: int
    n_evaluated: int
    n_referred: int
    referral_rate: float
    available: bool
    confusion: np.ndarray | None = None
    per_class: PerClassMetrics | None = None
    macro_auc: float | None = None
    auc_per_class: np.ndarray | None = None
    accuracy: float | None = None

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


def evaluate(preds: Predictions, threshold: float | None = None) -> MetricReport:
    """Full report; with a threshold, low-confidence rows are referred first.

    All rows must be in-distribution (labels >= 0); OOD detection is a
    separate protocol (``ood_detection_rate``).
    """
    if np.any(preds.labels < 0):
        raise ValueError("evaluate: OOD rows in a classification report")
    n_total = len(preds)
    if threshold is None:
        kept = preds
        n_referred = 0
    else:
        low = preds.uncertainty >= threshold
        kept = preds.subset(~low)
        n_referred = int(low.sum())
    n_eval = len(kept)
    if n_eval == 0:
        return MetricReport(
            n_total=n_total,
            n_evaluated=0,
            n_referred=n_referred,
            referral_rate=n_referred / n_total if n_total else 0.0,
            available=False,
        )
    cm = confusion_matrix(kept.predicted, kept.labels, kept.n_classes)
    per_class = per_class_metrics(cm)
    try:
        macro_auc, auc_per_class = ovr_auc(kept.labels, kept.probs)
    except ValueError:
        macro_auc, auc_per_class = None, np.full(kept.n_classes, np.nan)
    return MetricReport(
        n_total=n_total,
        n_evaluated=n_eval,
        n_referred=n_referred,
        referral_rate=n_referred / n_total,
        available=True,
        confusion=cm,
        per_class=per_class,
        macro_auc=macro_auc,
        auc_per_class=auc_per_class,
        accuracy=float(np.mean(kept.predicted == kept.labels)),
    )
