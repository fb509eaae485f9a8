"""Evidential head: the subjective opinion (belief masses, a scalar
uncertainty mass, expected probabilities) of Dirichlet concentrations, and
the evidence gate that damps evidence beyond the training data.

Conventions, for K classes and evidence e >= 0:

    alpha = e + 1                  (Dirichlet concentration)
    S     = sum_k alpha_k          (Dirichlet strength)
    b_k   = (alpha_k - 1) / S      (belief mass)
    u     = K / S                  (uncertainty mass)
    p_k   = alpha_k / S            (expected probability)

so that sum_k b_k + u = 1 and p_k = b_k + u / K.  The callers pass (n, K)
arrays: one row per sample, the class axis last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _row_sum


@dataclass(frozen=True)
class SubjectiveOpinion:
    """Belief masses, uncertainty mass and expected probabilities.

    Invariants: beliefs >= 0, uncertainty in (0, 1],
    sum(beliefs) + uncertainty = 1, probs = beliefs + uncertainty / K.
    """

    beliefs: np.ndarray
    uncertainty: np.ndarray  # (n,)
    probs: np.ndarray
    predicted_class: np.ndarray  # int, argmax of probs (ties -> lowest index)


def opinion_from_alpha(alpha) -> SubjectiveOpinion:
    """Project (n, K) Dirichlet concentrations alpha >= 1 onto the opinion
    simplex."""
    alpha = np.asarray(alpha, dtype=np.float64)
    k = alpha.shape[-1]
    strength = _row_sum(alpha)[..., None]
    beliefs = (alpha - 1.0) / strength
    probs = alpha / strength
    uncertainty = k / np.squeeze(strength, axis=-1)
    predicted = np.argmax(probs, axis=-1)
    return SubjectiveOpinion(
        beliefs=beliefs,
        uncertainty=uncertainty,
        probs=probs,
        predicted_class=predicted,
    )


@dataclass(frozen=True)
class EvidenceGate:
    """Damps the evidence of inputs whose logits lie beyond the training data.

    Far from the data a ReLU network is linear, so along any ray its logits,
    the softplus evidence and S all grow, and u = K/S falls towards 0 (Hein
    et al., CVPR 2019).  The gate scores a row by its distance in logit
    space to the nearest class mean, scaled per dimension by the spread of
    the within-class residuals (a diagonal form of the class-conditional
    Gaussian score of Lee et al., NeurIPS 2018):

        d2(l) = min_k || scale * (l - means_k) ||^2

    and multiplies all K evidences of the row by

        g = exp(-0.5 * max(d2 - onset, 0) / K)

    where ``onset`` is the largest d2 over the training rows.  Rows no
    further out than the furthest training row keep g = 1 exactly, so their
    opinion is bitwise the plain head's; beyond it g falls to 0 and u rises
    to 1.  A common factor per row keeps the predicted class until g * e
    falls below the float64 resolution of alpha = 1; the row is then a
    uniform opinion with u = 1, and its class a tie.
    """

    means: np.ndarray  # (m, K) logit means of the m classes with training rows
    scale: np.ndarray  # (K,) 1 / std of within-class residuals, 0 where std is 0
    onset: float

    @classmethod
    def fit(cls, logits, labels) -> "EvidenceGate":
        """Fit on the logits of the training rows and their class labels.

        A class without rows has no mean and is left out; a logit dimension
        without within-class spread gets scale 0 and so adds no distance.
        """
        logits = np.asarray(logits, dtype=np.float64)
        classes, row_class = np.unique(labels, return_inverse=True)
        means = np.stack([logits[row_class == i].mean(axis=0) for i in range(len(classes))])
        std = (logits - means[row_class]).std(axis=0)
        scale = np.divide(1.0, std, out=np.zeros_like(std), where=std > 0.0)
        unbounded = cls(means=means, scale=scale, onset=0.0)
        return cls(means=means, scale=scale, onset=float(unbounded.sq_distance(logits).max()))

    def sq_distance(self, logits: np.ndarray) -> np.ndarray:
        """d2 of each row of (n, K) logits."""
        # class-major (K, n) layout: the sum over K adds whole rows
        z = np.ascontiguousarray((logits * self.scale).T)
        d2 = None
        for center in self.means * self.scale:
            r = z - center[:, None]
            r *= r
            dk = r.sum(axis=0)
            d2 = dk if d2 is None else np.minimum(d2, dk, out=d2)
        return d2

    def factor(self, logits: np.ndarray) -> np.ndarray:
        """g of each row of (n, K) logits, in [0, 1]."""
        excess = self.sq_distance(logits) - self.onset
        np.maximum(excess, 0.0, out=excess)
        return np.exp(excess * (-0.5 / logits.shape[1]))
