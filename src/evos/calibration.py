"""Uncertainty-threshold calibration on validation predictions.

The model's mistakes are the positive class: a sample gets the pseudo-label
1 when the prediction was wrong, 0 when it was right.  Sweeping a threshold
theta over the observed uncertainty values gives an ROC curve (a sample is
"flagged" when u >= theta); the selected theta maximizes

    objective(theta) = coefficient * TPR(theta) - FPR(theta)

with coefficient 2 by default, i.e. catching errors is worth twice what
falsely flagging a correct prediction costs.  Ties go to the largest theta
(flag as few samples as necessary).  Samples with u >= theta are
low-confidence and should be referred / rejected downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .records import Predictions


@dataclass(frozen=True)
class ThresholdCalibration:
    """Full sweep (for reporting) plus the selected operating point."""

    candidates: np.ndarray  # ascending candidate thresholds
    tpr: np.ndarray
    fpr: np.ndarray
    objective: np.ndarray
    threshold: float
    tpr_at_threshold: float
    fpr_at_threshold: float
    objective_value: float
    coefficient: float = 2.0

    def to_dict(self) -> dict:
        """The fields as plain JSON: arrays become lists."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdCalibration":
        """Inverse of ``to_dict``: lists become float64 arrays, the rest floats."""
        return cls(**{
            k: np.asarray(v, dtype=np.float64) if isinstance(v, list) else float(v)
            for k, v in d.items()
        })


def wrong_labels(predicted: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """1 where the prediction disagrees with the label, else 0."""
    return (np.asarray(predicted) != np.asarray(labels)).astype(np.int64)


def roc_sweep(
    uncertainty: np.ndarray, wrong: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TPR/FPR of the rule "flag iff u >= theta" over candidate thresholds.

    Candidates are the distinct observed uncertainties plus one sentinel
    just above the maximum (the "flag nothing" operating point).  Unchecked:
    u and ``wrong`` are a ``Predictions``' u and its ``wrong_labels``.  With no
    wrong or no correct record the rates are undefined -> CalibrationError.
    """
    u = np.asarray(uncertainty, dtype=np.float64)
    w = np.asarray(wrong)
    n_wrong = int(np.sum(w == 1))
    n_right = int(np.sum(w == 0))
    if n_wrong == 0 or n_right == 0:
        raise CalibrationError(
            f"roc_sweep: degenerate labels ({n_wrong} wrong, {n_right} correct); "
            "both outcomes are required to trade off TPR against FPR. With no "
            "validation errors, use a harder validation set (e.g. larger sigma) "
            "or fewer epochs"
        )
    candidates, inverse = np.unique(u, return_inverse=True)
    candidates = np.append(candidates, np.nextafter(candidates[-1], np.inf))
    # a row with u == candidates[j] is flagged at every candidate i <= j
    wrong_at = np.bincount(inverse[w == 1], minlength=len(candidates))
    right_at = np.bincount(inverse[w == 0], minlength=len(candidates))
    tpr = np.cumsum(wrong_at[::-1])[::-1] / n_wrong
    fpr = np.cumsum(right_at[::-1])[::-1] / n_right
    return candidates, tpr, fpr


def select_threshold(
    candidates: np.ndarray,
    tpr: np.ndarray,
    fpr: np.ndarray,
    coefficient: float = 2.0,
) -> ThresholdCalibration:
    """Pick the candidate maximizing coefficient * TPR - FPR (ties -> largest).
    Unchecked: the three arrays are a ``roc_sweep``'s."""
    candidates = np.asarray(candidates, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    fpr = np.asarray(fpr, dtype=np.float64)
    objective = coefficient * tpr - fpr
    best = objective.max()
    # candidates are ascending, so the last argmax is the largest threshold
    idx = int(np.flatnonzero(objective == best)[-1])
    return ThresholdCalibration(
        candidates=candidates,
        tpr=tpr,
        fpr=fpr,
        objective=objective,
        threshold=float(candidates[idx]),
        tpr_at_threshold=float(tpr[idx]),
        fpr_at_threshold=float(fpr[idx]),
        objective_value=float(best),
        coefficient=float(coefficient),
    )


def calibrate(preds: Predictions, coefficient: float = 2.0) -> ThresholdCalibration:
    """End-to-end: records -> wrong labels -> sweep -> threshold."""
    wrong = wrong_labels(preds.predicted, preds.labels)
    candidates, tpr, fpr = roc_sweep(preds.uncertainty, wrong)
    return select_threshold(candidates, tpr, fpr, coefficient)
