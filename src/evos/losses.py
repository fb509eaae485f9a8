"""Training objectives on Dirichlet parameters, with closed-form gradients.

All losses are written directly in alpha-space.  ``alpha`` is a (n, K) or
(K,) float64 array with entries >= 1; ``y`` is a one-hot array of the same
shape.  Per-sample losses are returned (no mean reduction).

The three trainable objectives are

    standard_ce : plain cross-entropy on softmax probabilities,
    un          : expected cross-entropy under the Dirichlet plus an
                  annealed KL regularizer toward the uniform Dirichlet,
    tun         : ``un`` plus a temperature-scaled belief cross-entropy.

Each alpha-space loss kind (``LOSS_KINDS``: unce, kl, un, tce, tun) is a
sum of terms (``_KINDS``), and each term is a value formula and its
alpha-gradient, written side by side below.  ``standard_ce`` is no kind:
``logit_losses`` and ``logit_grad`` apply it to softmax(logits) directly.
With S = sum alpha, c the true class, alpha_hat = alpha with alpha_c reset
to 1, T = sum alpha_hat and e = alpha - 1:

    term  value                              d value / d alpha
    unce  psi(S) - psi(alpha_c)              psi'(S) - y psi'(alpha)
    kl    KL(Dir(alpha_hat) || Dir(1,..,1))  (1-y) ((alpha_hat-1) psi'(alpha) - (T-K) psi'(T))
    tce   -ln(e_c / (S tau))                 -(S - e_c) / (e_c S) on c, 1/S off it

The KL term penalizes only misleading (off-class) evidence.  The two
columns are computed apart, because training needs them at different
rates.  The gradient path (``logit_grad`` through ``loss_grad_alpha``) runs
every step and calls ``numerics.trigamma`` once on [alpha | S | T].  The
value path (``logit_losses`` through ``per_sample_loss``) feeds the logged
epoch loss; it calls ``digamma`` once on the same columns and ``log_gamma``
once on [alpha_hat | T].

Both paths are unchecked kernels.  Validation happens at the boundaries:
the labels in ``data.one_hot``, the temperature in ``Schedule.for_epoch``,
the objective in ``TrainConfig``; alpha = softplus(logits) + 1 is >= 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .numerics import _row_sum, digamma, log_gamma, sigmoid, softmax, softplus, trigamma

PROB_FLOOR = 1e-12  # clamp for logs of probabilities / beliefs


@dataclass(frozen=True)
class Schedule:
    """The KL weight and the temperature the loss terms read at one epoch.

    ``for_epoch`` ramps both linearly over ``anneal_epochs`` epochs:
        kl_weight   = min(1, epoch / anneal_epochs)        in [0, 1]
        temperature = 0.01 + 0.99 * min(1, epoch / anneal_epochs)
    """

    kl_weight: float = 0.0
    temperature: float = 0.01

    @classmethod
    def for_epoch(cls, epoch: int, anneal_epochs: int = 10) -> "Schedule":
        if epoch < 0 or anneal_epochs < 1:
            raise ValueError("Schedule: epoch >= 0 and anneal_epochs >= 1 required")
        ramp = min(1.0, epoch / anneal_epochs)
        return cls(kl_weight=ramp, temperature=0.01 + 0.99 * ramp)


def per_sample_loss(kind: str, alpha, y, schedule: Schedule):
    """Per-sample loss of ``kind``, one of LOSS_KINDS, on alpha-space arrays."""
    return _alpha_loss(kind, alpha, y, schedule)


def loss_grad_alpha(kind: str, alpha, y, schedule: Schedule):
    """d(per-sample loss)/d(alpha), same shape as alpha.

    Matches the corresponding ``per_sample_loss`` entry exactly (same
    clamping), so central finite differences agree away from clamp edges.
    """
    return _alpha_loss(kind, alpha, y, schedule, grad=True)


def logit_grad(kind: str, logits, y, schedule: Schedule):
    """Gradient of the batch-mean loss w.r.t. the logits: a training step's
    only loss work.

    ``kind`` is ``standard_ce`` (cross-entropy on softmax(logits)) or one of
    LOSS_KINDS on alpha = softplus(logits) + 1.
    """
    n = len(logits)
    if kind == "standard_ce":
        return (softmax(logits) - y) / n
    return loss_grad_alpha(kind, softplus(logits) + 1.0, y, schedule) * sigmoid(logits) / n


def logit_losses(kind: str, logits, y, schedule: Schedule):
    """Per-sample loss of each row of logits, the objective whose batch mean
    ``logit_grad`` differentiates."""
    if kind == "standard_ce":
        return _ce_value(softmax(logits), y)
    return per_sample_loss(kind, softplus(logits) + 1.0, y, schedule)


# ---------------------------------------------------------------------------
# Each formula appears once below.  A term takes the shared batch quantities
# and returns its per-sample value, or with ``grad`` its d value/d alpha.


class _Shared(NamedTuple):
    a: np.ndarray  # alpha
    y: np.ndarray  # one-hot labels
    s: np.ndarray  # S = sum alpha, (..., 1)
    a_hat: np.ndarray  # alpha with the true class reset to 1
    total: np.ndarray  # sum alpha_hat, (..., 1)
    schedule: Schedule
    psi: np.ndarray | None = None  # psi of [alpha | S | total] (_A, _S, _T), value path
    tri: np.ndarray | None = None  # psi' of the same, gradient path
    lg: np.ndarray | None = None  # ln Gamma of [alpha_hat | total], value path


_A, _S, _T = np.s_[..., :-2], np.s_[..., -2:-1], np.s_[..., -1:]


def _ce_value(p, y, temperature=1.0):  # x / 1.0 is x: plain cross-entropy keeps its bits
    return -_row_sum(y * np.log(np.maximum(p, PROB_FLOOR) / temperature))


def _adjust(a, y):
    return y + (1.0 - y) * a


@lru_cache
def _log_gamma_of(k: int) -> float:
    return float(log_gamma(np.float64(k)))


def _unce(b: _Shared, grad: bool):
    if grad:
        return b.tri[_S] - b.y * b.tri[_A]
    return _row_sum(b.y * (b.psi[_S] - b.psi[_A]))


def _kl(b: _Shared, grad: bool):
    # psi(alpha) and psi'(alpha) stand in for psi(alpha_hat) and
    # psi'(alpha_hat): they agree off the true class, and on it both are
    # multiplied by alpha_hat - 1 = 0
    k, excess = b.a.shape[-1], b.a_hat - 1.0
    if grad:
        return (1.0 - b.y) * (excess * b.tri[_A] - (b.total - k) * b.tri[_T])
    return (
        b.lg[..., -1]
        - _log_gamma_of(k)
        - _row_sum(b.lg[..., :-1])
        + _row_sum(excess * (b.psi[_A] - b.psi[_T]))
    )


def _annealed_kl(b: _Shared, grad: bool):
    return b.schedule.kl_weight * _kl(b, grad)


def _tce(b: _Shared, grad: bool):
    evid, y, s = b.a - 1.0, b.y, b.s
    if not grad:
        return _ce_value(evid / s, y, b.schedule.temperature)
    evid_true = _row_sum(y * evid)[..., None]  # alpha_c - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        on = -(s - evid_true) / (evid_true * s)
    g = np.where(y == 1.0, on, 1.0 / s)
    return np.where(evid_true / s < PROB_FLOOR, 0.0, g)


# kind -> the terms it sums, in this order
_KINDS = {
    "unce": (_unce,),
    "kl": (_kl,),
    "un": (_unce, _annealed_kl),
    "tce": (_tce,),
    "tun": (_unce, _annealed_kl, _tce),
}
LOSS_KINDS = tuple(_KINDS)


def _alpha_loss(kind: str, a, y, schedule: Schedule, grad: bool = False):
    """Per-sample loss of ``kind``, or with ``grad`` its alpha-gradient.  One
    psi and one log-gamma kernel call serve all value terms, and one psi'
    kernel call all gradient terms."""
    terms = _KINDS.get(kind)
    if terms is None:
        raise ValueError(f"unknown loss kind {kind!r}")
    a_hat = _adjust(a, y)
    s, total = _row_sum(a)[..., None], _row_sum(a_hat)[..., None]
    stacked = np.concatenate([a, s, total], axis=-1)
    if grad:
        b = _Shared(a, y, s, a_hat, total, schedule, tri=trigamma(stacked))
    else:
        b = _Shared(a, y, s, a_hat, total, schedule, psi=digamma(stacked),
                    lg=log_gamma(np.concatenate([a_hat, total], -1)))
    return reduce(operator.add, [term(b, grad) for term in terms])

