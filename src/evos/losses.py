"""Training objectives on Dirichlet parameters, with closed-form gradients.

All losses are written directly in alpha-space.  ``alpha`` is a (n, K) or
(K,) float64 array with entries >= 1; ``y`` is a one-hot array of the same
shape.  Per-sample losses are returned (no mean reduction); ``objective``
averages over the batch and carries the gradient back to the logits.

The three trainable objectives are

    standard_ce : plain cross-entropy on softmax probabilities,
    un          : expected cross-entropy under the Dirichlet plus an
                  annealed KL regularizer toward the uniform Dirichlet,
    tun         : ``un`` plus a temperature-scaled belief cross-entropy.

Each loss kind is a sum of terms (``_KINDS``); a term returns its value and
alpha-gradient together, and the terms of one call share S, psi(alpha) and
psi'(alpha).  The KL term sees an "adjusted" concentration in which the
true class is reset to 1, so only misleading (off-class) evidence is
penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import digamma, log_gamma, sigmoid, softmax, softplus, trigamma

PROB_FLOOR = 1e-12  # clamp for logs of probabilities / beliefs


@dataclass(frozen=True)
class Schedule:
    """Per-epoch annealing state for the KL weight and the temperature.

    Both ramp linearly over ``anneal_epochs`` epochs:
        kl_weight   = min(1, epoch / anneal_epochs)        in [0, 1]
        temperature = 0.01 + 0.99 * min(1, epoch / anneal_epochs)
    """

    epoch: int
    anneal_epochs: int = 10
    kl_weight: float = 0.0
    temperature: float = 0.01

    @classmethod
    def for_epoch(cls, epoch: int, anneal_epochs: int = 10) -> "Schedule":
        if epoch < 0 or anneal_epochs < 1:
            raise ValueError("Schedule: epoch >= 0 and anneal_epochs >= 1 required")
        ramp = min(1.0, epoch / anneal_epochs)
        return cls(
            epoch=epoch,
            anneal_epochs=anneal_epochs,
            kl_weight=ramp,
            temperature=0.01 + 0.99 * ramp,
        )


def _check_pair(a: np.ndarray, y: np.ndarray):
    if a.shape != y.shape:
        raise ValueError("alpha and one-hot labels must have the same shape")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite alpha")
    rows = y.sum(axis=-1)
    if not np.allclose(rows, 1.0) or np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be one-hot")


def _check_temperature(temperature: float):
    if not 0.0 < temperature <= 1.0:
        raise ValueError("temperature must be in (0, 1]")


def ce_loss(probs, y):
    """Cross-entropy -sum_k y_k ln p_k with p clamped at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probs and labels must have the same shape")
    return _ce_value(p, y)


def evidential_ce(alpha, y):
    """Expected cross-entropy under Dirichlet(alpha):
    sum_k y_k (psi(S) - psi(alpha_k))."""
    a = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pair(a, y)
    return _loss_and_grad("unce", a, y, None)[0]


def adjusted_alpha(alpha, y):
    """Remove the true-class concentration: alpha_hat = y + (1 - y) * alpha.

    The true class entry becomes exactly 1; off-class entries are untouched.
    """
    a = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pair(a, y)
    return _adjust(a, y)


def kl_to_uniform(alpha_hat):
    """KL( Dirichlet(alpha_hat) || Dirichlet(1, ..., 1) ), elementwise over
    leading axes.  Zero iff alpha_hat is all ones."""
    a = np.asarray(alpha_hat, dtype=np.float64)
    if np.any(a < 1.0) or not np.all(np.isfinite(a)):
        raise ValueError("kl_to_uniform: alpha_hat must be finite and >= 1")
    return _kl_value(a, a.sum(axis=-1, keepdims=True), digamma(a))


def tempered_ce(beliefs, y, temperature: float):
    """Temperature-scaled belief cross-entropy: -sum_k y_k ln(b_k / tau).

    Deliberately unnormalized; for temperature < 1 and b_k > tau this is
    negative.  Beliefs are clamped at 1e-12 before the log, nothing else.
    """
    _check_temperature(temperature)
    b = np.asarray(beliefs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if b.shape != y.shape:
        raise ValueError("beliefs and labels must have the same shape")
    return _tce_value(b, y, temperature)


def per_sample_loss(kind: str, alpha, y, schedule: Schedule):
    """Per-sample loss of ``kind``, one of LOSS_KINDS."""
    return _checked_loss_and_grad(kind, alpha, y, schedule)[0]


def loss_grad_alpha(kind: str, alpha, y, schedule: Schedule):
    """d(per-sample loss)/d(alpha), same shape as alpha.

    Matches the corresponding ``per_sample_loss`` entry exactly (same
    clamping), so central finite differences agree away from clamp edges.
    """
    return _checked_loss_and_grad(kind, alpha, y, schedule)[1]


def objective(kind: str, logits, y, schedule: Schedule):
    """Mean loss over the batch and its gradient w.r.t. the logits.

    ``kind`` is ``standard_ce`` (cross-entropy on softmax(logits)) or one of
    LOSS_KINDS on alpha = softplus(logits) + 1.  Inputs are not checked: the
    trainer's labels come from ``data.one_hot``, which validates them.
    """
    n = len(logits)
    if kind == "standard_ce":
        probs = softmax(logits)
        return float(np.mean(_ce_value(probs, y))), (probs - y) / n
    alpha = softplus(logits) + 1.0
    per, grad_alpha = _loss_and_grad(kind, alpha, y, schedule)
    return float(np.mean(per)), grad_alpha * sigmoid(logits) / n


# ---------------------------------------------------------------------------
# Each formula appears once below, shared by the terms and by the validated
# per-term functions above.  A term takes alpha, labels, S, psi(alpha),
# psi'(alpha) and the schedule, and returns (per-sample value, d value/d alpha).


def _ce_value(p, y):
    return -np.sum(y * np.log(np.clip(p, PROB_FLOOR, None)), axis=-1)


def _tce_value(b, y, temperature):
    return -np.sum(y * np.log(np.clip(b, PROB_FLOOR, None) / temperature), axis=-1)


def _adjust(a, y):
    return y + (1.0 - y) * a


def _kl_value(a_hat, total, psi_hat):
    k = a_hat.shape[-1]
    return (
        log_gamma(np.squeeze(total, axis=-1))
        - log_gamma(float(k))
        - np.sum(log_gamma(a_hat), axis=-1)
        + np.sum((a_hat - 1.0) * (psi_hat - digamma(total)), axis=-1)
    )


def _ce(a, y, s, psi, tri, schedule):
    # L = ln S - sum_k y_k ln alpha_k ; flat (zero) where the clamp is active
    clamped = np.sum(y * a, axis=-1, keepdims=True) / s < PROB_FLOOR
    return _ce_value(a / s, y), np.where(clamped, 0.0, 1.0 / s - y / a)


def _unce(a, y, s, psi, tri, schedule):
    return np.sum(y * (digamma(s) - psi), axis=-1), trigamma(s) - y * tri


def _kl(a, y, s, psi, tri, schedule):
    # psi(alpha) and psi'(alpha) stand in for psi(alpha_hat) and
    # psi'(alpha_hat): they agree off the true class, and on it both are
    # multiplied by alpha_hat - 1 = 0
    a_hat = _adjust(a, y)
    total = a_hat.sum(axis=-1, keepdims=True)
    inner = (a_hat - 1.0) * tri - (total - a.shape[-1]) * trigamma(total)
    return _kl_value(a_hat, total, psi), (1.0 - y) * inner


def _annealed_kl(a, y, s, psi, tri, schedule):
    value, grad = _kl(a, y, s, psi, tri, schedule)
    return schedule.kl_weight * value, schedule.kl_weight * grad


def _tce(a, y, s, psi, tri, schedule):
    evid_true = np.sum(y * (a - 1.0), axis=-1, keepdims=True)  # alpha_c - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        on = -(s - evid_true) / (evid_true * s)
    grad = np.where(y == 1.0, on, 1.0 / s)
    value = _tce_value((a - 1.0) / s, y, schedule.temperature)
    return value, np.where(evid_true / s < PROB_FLOOR, 0.0, grad)


# kind -> the terms it sums, in this order
_KINDS = {
    "ce": (_ce,),
    "unce": (_unce,),
    "kl": (_kl,),
    "un": (_unce, _annealed_kl),
    "tce": (_tce,),
    "tun": (_unce, _annealed_kl, _tce),
}
LOSS_KINDS = tuple(_KINDS)


def _loss_and_grad(kind: str, a, y, schedule: Schedule):
    """Per-sample loss of ``kind`` and its alpha-gradient; inputs unchecked.

    S, psi(alpha) and psi'(alpha) are computed once, for all the terms.
    """
    terms = _KINDS.get(kind)
    if terms is None:
        raise ValueError(f"unknown loss kind {kind!r}")
    shared = (a, y, a.sum(axis=-1, keepdims=True), digamma(a), trigamma(a), schedule)
    loss, grad = terms[0](*shared)
    for term in terms[1:]:
        value, g = term(*shared)
        loss, grad = loss + value, grad + g
    return loss, grad


def _checked_loss_and_grad(kind: str, alpha, y, schedule: Schedule):
    a = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pair(a, y)
    if _tce in _KINDS.get(kind, ()):
        _check_temperature(schedule.temperature)
    return _loss_and_grad(kind, a, y, schedule)
