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

Each loss kind is a sum of terms (``_KINDS``) that return value and
alpha-gradient together and share one psi/psi' pass over [alpha | S | sum
alpha_hat] and one log-gamma pass over [alpha_hat | sum alpha_hat].  The KL
term sees alpha_hat, alpha with the true class reset to 1, so only
misleading (off-class) evidence is penalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import _log_gamma, _psi_trigamma, log_gamma, sigmoid, softmax, softplus

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
# Each formula appears once below.  A term takes the shared batch quantities
# and returns (per-sample value, d value/d alpha).


class _Shared(NamedTuple):
    a: np.ndarray  # alpha
    y: np.ndarray  # one-hot labels
    s: np.ndarray  # S = sum alpha, (..., 1)
    a_hat: np.ndarray  # alpha with the true class reset to 1
    total: np.ndarray  # sum alpha_hat, (..., 1)
    psi: np.ndarray  # psi and psi' of [alpha | S | total], columns _A, _S, _T
    tri: np.ndarray
    lg: np.ndarray  # ln Gamma of [alpha_hat | total]
    schedule: Schedule


_A, _S, _T = np.s_[..., :-2], np.s_[..., -2:-1], np.s_[..., -1:]


def _ce_value(p, y):
    return -np.sum(y * np.log(np.maximum(p, PROB_FLOOR)), axis=-1)


def _tce_value(b, y, temperature):
    return -np.sum(y * np.log(np.maximum(b, PROB_FLOOR) / temperature), axis=-1)


def _adjust(a, y):
    return y + (1.0 - y) * a


@lru_cache
def _log_gamma_of(k: int) -> float:
    return log_gamma(float(k))


def _ce(b: _Shared):
    # L = ln S - sum_k y_k ln alpha_k ; flat (zero) where the clamp is active
    clamped = np.sum(b.y * b.a, axis=-1, keepdims=True) / b.s < PROB_FLOOR
    return _ce_value(b.a / b.s, b.y), np.where(clamped, 0.0, 1.0 / b.s - b.y / b.a)


def _unce(b: _Shared):
    return np.sum(b.y * (b.psi[_S] - b.psi[_A]), axis=-1), b.tri[_S] - b.y * b.tri[_A]


def _kl(b: _Shared):
    # psi(alpha) and psi'(alpha) stand in for psi(alpha_hat) and
    # psi'(alpha_hat): they agree off the true class, and on it both are
    # multiplied by alpha_hat - 1 = 0
    k, excess = b.a.shape[-1], b.a_hat - 1.0
    value = (
        b.lg[..., -1]
        - _log_gamma_of(k)
        - np.sum(b.lg[..., :-1], axis=-1)
        + np.sum(excess * (b.psi[_A] - b.psi[_T]), axis=-1)
    )
    inner = excess * b.tri[_A] - (b.total - k) * b.tri[_T]
    return value, (1.0 - b.y) * inner


def _annealed_kl(b: _Shared):
    value, grad = _kl(b)
    return b.schedule.kl_weight * value, b.schedule.kl_weight * grad


def _tce(b: _Shared):
    evid, y, s = b.a - 1.0, b.y, b.s
    evid_true = np.sum(y * evid, axis=-1, keepdims=True)  # alpha_c - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        on = -(s - evid_true) / (evid_true * s)
    grad = np.where(y == 1.0, on, 1.0 / s)
    value = _tce_value(evid / s, y, b.schedule.temperature)
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
    """Per-sample loss of ``kind`` and its alpha-gradient; inputs unchecked
    (alpha > 0).  One psi/psi' and one log-gamma kernel call serve all terms.
    """
    terms = _KINDS.get(kind)
    if terms is None:
        raise ValueError(f"unknown loss kind {kind!r}")
    s = a.sum(axis=-1, keepdims=True)
    a_hat = _adjust(a, y)
    total = a_hat.sum(axis=-1, keepdims=True)
    psi, tri = _psi_trigamma(np.concatenate([a, s, total], axis=-1))
    lg = _log_gamma(np.concatenate([a_hat, total], axis=-1))
    shared = _Shared(a, y, s, a_hat, total, psi, tri, lg, schedule)
    loss, grad = terms[0](shared)
    for term in terms[1:]:
        value, g = term(shared)
        loss, grad = loss + value, grad + g
    return loss, grad


def _checked_loss_and_grad(kind: str, alpha, y, schedule: Schedule):
    a = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pair(a, y)
    if np.any(a <= 0.0):
        raise ValueError("alpha must be > 0")
    if _tce in _KINDS.get(kind, ()):
        _check_temperature(schedule.temperature)
    return _loss_and_grad(kind, a, y, schedule)
