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

Theta is defined on every non-empty validation set.  With no wrong record
TPR is 0 at every candidate, and theta is the sentinel above the largest u:
it refers nothing.  With no correct record FPR is 0, and theta is the
smallest u: it refers everything.  ``n_wrong`` tells the cases apart.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .records import Predictions


@dataclass(frozen=True)
class ThresholdCalibration:
    """The selected operating point, the sweep's rates (for reporting), and
    the scoring theta was fitted on, without which it means nothing."""

    tpr: np.ndarray  # at each ascending candidate threshold
    fpr: np.ndarray
    threshold: float
    tpr_at_threshold: float
    fpr_at_threshold: float
    objective_value: float
    coefficient: float
    n_wrong: int  # wrong validation predictions
    scoring: dict  # the method and the options that set its u

    def to_dict(self) -> dict:
        """The fields as plain JSON: arrays become lists."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdCalibration":
        """Inverse of ``to_dict``: lists become float64 arrays, numbers of
        float fields floats."""
        types = {f.name: f.type for f in fields(cls)}
        return cls(**{
            k: np.asarray(v, dtype=np.float64) if isinstance(v, list)
            else float(v) if types[k] == "float" else v
            for k, v in d.items()
        })


def roc_sweep(
    uncertainty: np.ndarray, wrong: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TPR/FPR of the rule "flag iff u >= theta" over candidate thresholds.

    Candidates are the distinct observed uncertainties plus one sentinel
    just above the maximum (the "flag nothing" operating point).  Unchecked:
    u and ``wrong`` are a non-empty ``Predictions``' u and its mask of wrong
    predictions (bool or 0/1).  A rate whose class has no record is 0 everywhere.
    """
    u = np.asarray(uncertainty, dtype=np.float64)
    w = np.asarray(wrong, dtype=bool)
    n_wrong = int(np.count_nonzero(w))
    n_right = len(w) - n_wrong
    candidates, inverse = np.unique(u, return_inverse=True)
    candidates = np.append(candidates, np.nextafter(candidates[-1], np.inf))
    # a row with u == candidates[j] is flagged at every candidate i <= j
    wrong_at = np.bincount(inverse[w], minlength=len(candidates))
    right_at = np.bincount(inverse[~w], minlength=len(candidates))
    tpr = np.cumsum(wrong_at[::-1])[::-1] / max(n_wrong, 1)
    fpr = np.cumsum(right_at[::-1])[::-1] / max(n_right, 1)
    return candidates, tpr, fpr


def calibrate(
    preds: Predictions, coefficient: float = 2.0, method: str = "uios", **options
) -> ThresholdCalibration:
    """Records -> mask of wrong predictions -> sweep -> the candidate
    maximizing coefficient * TPR - FPR (ties -> largest).

    ``method`` and ``options`` are the scoring that gave the records' u: a
    resolved method and the options that set its scale (see
    ``baselines.SCORING_OPTIONS``).  Theta records them, as it applies to
    that scoring only.  No records raise DataError.
    """
    if len(preds) == 0:
        raise DataError("calibrate: no validation records to fit theta on")
    wrong = preds.predicted != preds.labels
    candidates, tpr, fpr = roc_sweep(preds.uncertainty, wrong)
    objective = coefficient * tpr - fpr
    # candidates are ascending, so the last argmax is the largest threshold
    i = int(np.flatnonzero(objective == objective.max())[-1])
    return ThresholdCalibration(
        tpr=tpr,
        fpr=fpr,
        threshold=float(candidates[i]),
        tpr_at_threshold=float(tpr[i]),
        fpr_at_threshold=float(fpr[i]),
        objective_value=float(objective[i]),
        coefficient=float(coefficient),
        n_wrong=int(wrong.sum()),
        scoring={"method": method, **options},
    )
