"""Columnar prediction records: the common currency between the model,
threshold calibration and every metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Predictions:
    """Parallel arrays describing one prediction per row.

    labels use -1 for out-of-distribution rows; uncertainty is in [0, 1].
    """

    predicted: np.ndarray  # (n,) int
    labels: np.ndarray  # (n,) int, -1 = OOD
    uncertainty: np.ndarray  # (n,) float in [0, 1]
    probs: np.ndarray  # (n, K) float

    def __post_init__(self):
        n = len(self.predicted)
        if not (len(self.labels) == len(self.uncertainty) == self.probs.shape[0] == n):
            raise ValueError("Predictions: column lengths differ")
        if not np.all((self.uncertainty >= 0.0) & (self.uncertainty <= 1.0)):  # NaN too
            raise ValueError("Predictions: uncertainty outside [0, 1]")

    def __len__(self) -> int:
        return len(self.predicted)

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def subset(self, mask: np.ndarray) -> "Predictions":
        """The rows where ``mask``, a boolean array of the records' length, is set."""
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (len(self),):
            raise ValueError("Predictions.subset: need a boolean mask of the records' length")
        rows = np.flatnonzero(mask)
        return Predictions(
            predicted=self.predicted.take(rows),
            labels=self.labels.take(rows),
            uncertainty=self.uncertainty.take(rows),
            probs=self.probs.take(rows, axis=0),
        )


def from_scores(probs: np.ndarray, uncertainty: np.ndarray, labels: np.ndarray) -> Predictions:
    """Build records from (n, K) probabilities and per-row uncertainty."""
    probs = np.asarray(probs, dtype=np.float64)
    return Predictions(
        predicted=np.argmax(probs, axis=-1).astype(np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        uncertainty=np.asarray(uncertainty, dtype=np.float64),
        probs=probs,
    )
