"""Training objectives: recurrence-derived frozen values, an independent
quadrature oracle for the KL term, schedule behavior, and finite-difference
agreement for every closed-form gradient."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from evos import losses
from evos.data import gen_blobs
from evos.head import opinion_from_alpha
from evos.losses import (
    LOSS_KINDS,
    PROB_FLOOR,
    Schedule,
    _adjust,
    _alpha_loss,
    _ce_value,
    logit_grad,
    logit_losses,
    loss_grad_alpha,
    per_sample_loss,
)
from evos.numerics import digamma, log_gamma, sigmoid, softmax, softplus, trigamma
from evos.training import TrainConfig, train

PI2_6 = math.pi**2 / 6.0
EPOCH0 = Schedule.for_epoch(0)


def one_hot(c: int, k: int) -> np.ndarray:
    y = np.zeros(k)
    y[c] = 1.0
    return y


# ---------------------------------------------------------------------------
# cross-entropy -sum_k y_k ln p_k, p clamped at PROB_FLOOR


def test_ce_matching_one_hot_is_zero():
    y = one_hot(1, 3)
    assert _ce_value(y, y) == pytest.approx(0.0, abs=1e-11)


def test_ce_uniform_is_log_k():
    assert _ce_value(np.full(9, 1 / 9), one_hot(4, 9)) == pytest.approx(
        math.log(9.0), abs=1e-12
    )


def test_ce_half_is_log_two():
    assert _ce_value(np.array([0.5, 0.5]), one_hot(0, 2)) == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_ce_clamps_zero_probability():
    # p=0 on the true class clamps at 1e-12, not inf
    val = _ce_value(np.array([0.0, 1.0]), one_hot(0, 2))
    assert val == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_ce_dimension_mismatch():
    with pytest.raises(ValueError):
        logit_losses("standard_ce", np.array([[1.0, 1.0]]), one_hot(0, 3)[None], EPOCH0)


# ---------------------------------------------------------------------------
# unce: expected cross-entropy under the Dirichlet


def test_evidential_ce_recurrence_values():
    # the last is psi(9) - psi(5) unrolled through the recurrence
    cases = (([1.0, 1.0], 1.0), ([2.0, 1.0], 0.5), ([5.0, 2.0, 2.0], 1 / 5 + 1 / 6 + 1 / 7 + 1 / 8))
    for alpha, expect in cases:
        y = one_hot(0, len(alpha))
        value = per_sample_loss("unce", np.array(alpha), y, EPOCH0)
        assert value == pytest.approx(expect, abs=1e-10)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evidential_ce_nonnegative(k, seed):
    rng = np.random.default_rng(seed)
    alpha = 1.0 + rng.uniform(0.0, 50.0, size=k)
    y = one_hot(int(rng.integers(k)), k)
    assert per_sample_loss("unce", alpha, y, EPOCH0) >= 0.0


def test_evidential_ce_matches_sampled_expectation():
    # independent route: E[-ln p_c] under Dir(alpha) by Monte Carlo
    alpha = np.array([3.0, 2.0, 5.0])
    rng = np.random.default_rng(123)
    draws = rng.dirichlet(alpha, size=400_000)
    mc = float(np.mean(-np.log(draws[:, 0])))
    assert per_sample_loss("unce", alpha, one_hot(0, 3), EPOCH0) == pytest.approx(mc, abs=3e-3)


# ---------------------------------------------------------------------------
# alpha_hat: the true class reset to 1


@pytest.mark.parametrize(
    "alpha, y, expect",
    [
        ([4.0, 2.0], one_hot(0, 2), [1.0, 2.0]),
        ([1.0, 1.0, 1.0], one_hot(1, 3), [1.0, 1.0, 1.0]),
        ([3.0, 5.0, 7.0], one_hot(2, 3), [3.0, 5.0, 1.0]),
    ],
)
def test_adjusted_alpha_values(alpha, y, expect):
    assert_allclose(_adjust(np.asarray(alpha), y), expect)


# ---------------------------------------------------------------------------
# KL( Dir(alpha_hat) || Dir(1, ..., 1) ): the "kl" term with no true class,
# so that nothing is reset and the term sees alpha_hat as is


def test_kl_all_ones_is_exactly_zero():
    for k in (2, 5, 9):
        a = np.ones(k)
        assert abs(_alpha_loss("kl", a, np.zeros_like(a), None)) < 1e-12


def test_kl_hand_value_two_one():
    a = np.array([2.0, 1.0])
    assert _alpha_loss("kl", a, np.zeros_like(a), None) == pytest.approx(
        math.log(2.0) - 0.5, abs=1e-10
    )


def test_kl_222_matches_quadrature_oracle():
    # KL(Dir(2,2,2) || Dir(1,1,1)) integrated over the 2-simplex with the
    # density taken from scipy, fully independent of our formula
    alpha = [2.0, 2.0, 2.0]

    def integrand(y, x):
        q = scipy.stats.dirichlet.pdf([x, y, 1.0 - x - y], alpha)
        return q * (math.log(q) - math.log(2.0))

    val, _ = integrate.dblquad(
        integrand, 1e-9, 1 - 2e-9, lambda x: 1e-9, lambda x: 1 - x - 1e-9
    )
    a = np.asarray(alpha)
    assert _alpha_loss("kl", a, np.zeros_like(a), None) == pytest.approx(val, abs=1e-3)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kl_nonnegative_and_zero_only_at_ones(k, seed):
    rng = np.random.default_rng(seed)
    a = 1.0 + rng.uniform(0.0, 30.0, size=k)
    val = _alpha_loss("kl", a, np.zeros_like(a), None)
    assert val >= -1e-12
    if np.any(a > 1.0 + 1e-6):
        assert val > 0.0


def test_kl_random_sweep_nonnegative():
    rng = np.random.default_rng(7)
    a = 1.0 + rng.uniform(0.0, 40.0, size=(10_000, 4))
    vals = _alpha_loss("kl", a, np.zeros_like(a), None)
    assert vals.shape == (10_000,)
    assert (vals >= -1e-12).all()


# ---------------------------------------------------------------------------
# the un and tun kinds / the tempered belief cross-entropy

FULL_KL = Schedule(kl_weight=1.0)


def test_un_loss_lambda_zero_is_evidential_ce():
    alpha = np.array([4.0, 2.0])
    y = one_hot(0, 2)
    assert per_sample_loss("un", alpha, y, Schedule()) == pytest.approx(
        per_sample_loss("unce", alpha, y, EPOCH0), abs=1e-14
    )


def test_un_loss_at_unit_alpha():
    k = 4
    y = one_hot(2, k)
    expect = digamma(float(k)) - digamma(1.0)
    assert per_sample_loss("un", np.ones(k), y, FULL_KL) == pytest.approx(expect, abs=1e-10)


def test_un_loss_composes_components():
    alpha = np.array([4.0, 2.0])
    y = one_hot(0, 2)
    a_hat = _adjust(alpha, y)
    kl = _alpha_loss("kl", a_hat, np.zeros_like(a_hat), None)
    expect = per_sample_loss("unce", alpha, y, EPOCH0) + kl
    assert per_sample_loss("un", alpha, y, FULL_KL) == pytest.approx(expect, abs=1e-14)


def test_un_loss_nonincreasing_in_true_class_evidence():
    y = one_hot(0, 3)
    vals = []
    for t in np.linspace(0.0, 30.0, 40):
        alpha = np.array([1.0 + t, 2.5, 1.7])
        vals.append(per_sample_loss("un", alpha, y, FULL_KL))
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_tempered_ce_values():
    y = one_hot(0, 2)
    assert _ce_value(np.array([0.5, 0.2]), y, 1.0) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert _ce_value(np.array([0.3, 0.1]), y, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert _ce_value(np.array([0.5, 0.2]), y, 0.01) == pytest.approx(
        -math.log(50.0), abs=1e-10
    )


def test_tempered_ce_clamps_zero_belief():
    y = one_hot(0, 2)
    val = _ce_value(np.array([0.0, 0.4]), y, 1.0)
    assert val == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_tun_loss_composes_at_schedule_points():
    alpha = np.array([4.0, 2.0])
    y = one_hot(0, 2)
    beliefs = opinion_from_alpha(alpha).beliefs
    for epoch in (0, 5, 10, 25):
        sch = Schedule.for_epoch(epoch)
        expect = per_sample_loss("un", alpha, y, sch) + _ce_value(
            beliefs, y, sch.temperature
        )
        assert per_sample_loss("tun", alpha, y, sch) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_endpoints_and_midpoint():
    s0 = Schedule.for_epoch(0)
    assert s0.kl_weight == 0.0
    assert s0.temperature == pytest.approx(0.01)
    s5 = Schedule.for_epoch(5, anneal_epochs=10)
    assert s5.kl_weight == pytest.approx(0.5)
    assert s5.temperature == pytest.approx(0.01 + 0.99 * 0.5)
    for epoch in (10, 11, 500):
        s = Schedule.for_epoch(epoch, anneal_epochs=10)
        assert s.kl_weight == 1.0
        assert s.temperature == 1.0


def test_schedule_monotone():
    lams, taus = [], []
    for epoch in range(30):
        s = Schedule.for_epoch(epoch, anneal_epochs=12)
        lams.append(s.kl_weight)
        taus.append(s.temperature)
    assert all(b >= a for a, b in zip(lams, lams[1:]))
    assert all(b >= a for a, b in zip(taus, taus[1:]))
    assert lams[-1] == 1.0 and taus[-1] == 1.0


# ---------------------------------------------------------------------------
# gradients: hand values plus central finite differences in alpha space


def test_grad_unce_hand_value():
    sch = Schedule.for_epoch(0)
    g = loss_grad_alpha("unce", np.array([1.0, 1.0]), one_hot(0, 2), sch)
    assert_allclose(g, [trigamma(2.0) - trigamma(1.0), trigamma(2.0)], atol=1e-12)
    assert_allclose(g, [-1.0, PI2_6 - 1.0], atol=1e-10)


def test_grad_kl_zero_at_unit_alpha():
    sch = Schedule.for_epoch(20)
    g = loss_grad_alpha("kl", np.ones(3), one_hot(1, 3), sch)
    assert_allclose(g, np.zeros(3), atol=1e-12)


def _fd_grad(kind, alpha, y, sch, h=1e-5):
    g = np.zeros_like(alpha)
    for j in range(len(alpha)):
        hi, lo = alpha.copy(), alpha.copy()
        hi[j] += h
        lo[j] -= h
        g[j] = (
            float(per_sample_loss(kind, hi, y, sch))
            - float(per_sample_loss(kind, lo, y, sch))
        ) / (2 * h)
    return g


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grads_match_finite_differences(kind, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    alpha = 1.0 + rng.uniform(0.05, 8.0, size=k)
    y = one_hot(int(rng.integers(k)), k)
    sch = Schedule.for_epoch(int(rng.integers(0, 15)))
    analytic = loss_grad_alpha(kind, alpha, y, sch)
    numeric = _fd_grad(kind, alpha, y, sch)
    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    assert rel.max() < 1e-4, f"{kind}: rel err {rel.max():.2e}"


def test_per_sample_loss_vectorizes_over_batch():
    rng = np.random.default_rng(9)
    alpha = 1.0 + rng.uniform(0.0, 5.0, size=(6, 4))
    y = np.eye(4)[rng.integers(0, 4, size=6)]
    sch = Schedule.for_epoch(3)
    batch = per_sample_loss("tun", alpha, y, sch)
    assert batch.shape == (6,)
    for i in range(6):
        assert batch[i] == pytest.approx(
            float(per_sample_loss("tun", alpha[i], y[i], sch)), abs=1e-12
        )


# ---------------------------------------------------------------------------
# the alpha-space entry points and the training objective on logits

_GOOD_ALPHA, _GOOD_Y = np.array([[3.0, 1.5, 2.0]]), np.array([[0.0, 1.0, 0.0]])
_BAD_INPUTS = [
    *(
        pytest.param(kind, _GOOD_ALPHA, _GOOD_Y[:, :2], Schedule.for_epoch(5), id=f"{kind}-shape")
        for kind in LOSS_KINDS
    ),
    pytest.param("bogus", _GOOD_ALPHA, _GOOD_Y, Schedule.for_epoch(5), id="unknown-kind"),
]


@pytest.mark.parametrize("entry", [per_sample_loss, loss_grad_alpha])
@pytest.mark.parametrize("kind, alpha, y, sch", _BAD_INPUTS)
def test_entry_points_reject_bad_input(entry, kind, alpha, y, sch):
    with pytest.raises(ValueError):
        entry(kind, alpha, y, sch)


def _logit_batch():
    rng = np.random.default_rng(4)
    return rng.normal(scale=3.0, size=(7, 4)), np.eye(4)[rng.integers(0, 4, size=7)]


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_objective_is_mean_loss_and_logit_gradient(kind):
    logits, y = _logit_batch()
    sch = Schedule.for_epoch(5)
    per, grad = logit_losses(kind, logits, y, sch), logit_grad(kind, logits, y, sch)
    alpha = softplus(logits) + 1.0
    assert per.tobytes() == per_sample_loss(kind, alpha, y, sch).tobytes()
    expect = loss_grad_alpha(kind, alpha, y, sch) * sigmoid(logits) / len(logits)
    assert grad.tobytes() == expect.tobytes()


def test_objective_standard_ce_is_softmax_cross_entropy():
    logits, y = _logit_batch()
    sch = Schedule.for_epoch(5)
    per = logit_losses("standard_ce", logits, y, sch)
    grad = logit_grad("standard_ce", logits, y, sch)
    probs = softmax(logits)
    assert per.tobytes() == _ce_value(probs, y).tobytes()
    assert grad.tobytes() == ((probs - y) / len(logits)).tobytes()


# ---------------------------------------------------------------------------
# the objective against the per-function formulation: every term calls the
# public digamma / trigamma / log_gamma itself, value and gradient together,
# probabilities are clamped with np.clip, and sigmoid is piecewise.  The
# value and gradient paths must each reproduce it bit for bit.


def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_ce_value(p, y):
    return -np.sum(y * np.log(np.clip(p, PROB_FLOOR, None)), axis=-1)


def _ref_kl_value(a_hat, total, psi_hat):
    k = a_hat.shape[-1]
    return (
        log_gamma(np.squeeze(total, axis=-1))
        - log_gamma(float(k))
        - np.sum(log_gamma(a_hat), axis=-1)
        + np.sum((a_hat - 1.0) * (psi_hat - digamma(total)), axis=-1)
    )


def _ref_unce(a, y, s, psi, tri, schedule):
    return np.sum(y * (digamma(s) - psi), axis=-1), trigamma(s) - y * tri


def _ref_kl(a, y, s, psi, tri, schedule):
    a_hat = y + (1.0 - y) * a
    total = a_hat.sum(axis=-1, keepdims=True)
    inner = (a_hat - 1.0) * tri - (total - a.shape[-1]) * trigamma(total)
    return _ref_kl_value(a_hat, total, psi), (1.0 - y) * inner


def _ref_annealed_kl(a, y, s, psi, tri, schedule):
    value, grad = _ref_kl(a, y, s, psi, tri, schedule)
    return schedule.kl_weight * value, schedule.kl_weight * grad


def _ref_tce(a, y, s, psi, tri, schedule):
    evid_true = np.sum(y * (a - 1.0), axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        on = -(s - evid_true) / (evid_true * s)
    grad = np.where(y == 1.0, on, 1.0 / s)
    b = np.clip((a - 1.0) / s, PROB_FLOOR, None)
    value = -np.sum(y * np.log(b / schedule.temperature), axis=-1)
    return value, np.where(evid_true / s < PROB_FLOOR, 0.0, grad)


_REF_KINDS = {
    "unce": (_ref_unce,),
    "kl": (_ref_kl,),
    "un": (_ref_unce, _ref_annealed_kl),
    "tce": (_ref_tce,),
    "tun": (_ref_unce, _ref_annealed_kl, _ref_tce),
}


def _reference_loss_and_grad(kind, a, y, schedule):
    shared = (a, y, a.sum(axis=-1, keepdims=True), digamma(a), trigamma(a), schedule)
    terms = _REF_KINDS[kind]
    loss, grad = terms[0](*shared)
    for term in terms[1:]:
        value, g = term(*shared)
        loss, grad = loss + value, grad + g
    return loss, grad


def _reference_objective(kind, logits, y, schedule):
    n = len(logits)
    if kind == "standard_ce":
        probs = softmax(logits)
        return float(np.mean(_ref_ce_value(probs, y))), (probs - y) / n
    per, grad_alpha = _reference_loss_and_grad(kind, softplus(logits) + 1.0, y, schedule)
    return float(np.mean(per)), grad_alpha * _ref_sigmoid(logits) / n


@pytest.mark.parametrize("kind", ("standard_ce", *LOSS_KINDS))
def test_objective_bit_identical_to_per_function_reference(kind):
    rng = np.random.default_rng(20)
    for trial in range(60):
        k, n = int(rng.integers(2, 10)), int(rng.integers(1, 65))
        logits = rng.uniform(-50.0, 50.0, size=(n, k)) * rng.choice([0.05, 1.0])
        y = np.eye(k)[rng.integers(0, k, size=n)]
        if trial % 3 == 0:  # rows at the clamp edges: true-class evidence ~ e^-50
            logits[:, 0], y = -50.0, np.eye(k)[np.zeros(n, dtype=int)]
        for epoch in (0, 5, 20):
            sch = Schedule.for_epoch(epoch)
            loss = float(np.mean(logit_losses(kind, logits, y, sch)))
            grad = logit_grad(kind, logits, y, sch)
            ref_loss, ref_grad = _reference_objective(kind, logits, y, sch)
            assert loss == ref_loss, (trial, epoch)
            assert grad.tobytes() == ref_grad.tobytes(), (trial, epoch)


@pytest.mark.parametrize("kind", ("kl", "un", "tun"))
def test_entry_points_bit_identical_below_one(kind):
    # alpha in [0.5, 1), below training's alpha >= 1, is still inside
    # log_gamma's domain, which alpha_hat and its row sums reach
    rng = np.random.default_rng(21)
    alpha = rng.uniform(0.5, 3.0, size=(40, 4))
    y = np.eye(4)[rng.integers(0, 4, size=40)]
    sch = Schedule.for_epoch(7)
    ref_loss, ref_grad = _reference_loss_and_grad(kind, alpha, y, sch)
    assert per_sample_loss(kind, alpha, y, sch).tobytes() == ref_loss.tobytes()
    assert loss_grad_alpha(kind, alpha, y, sch).tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("objective_kind", ("un", "tun"))
def test_training_bit_identical_with_reference_objective(objective_kind, monkeypatch):
    ds = gen_blobs(n_per_class=60, n_classes=3, seed=4)
    cfg = TrainConfig(epochs=5, learning_rate=1e-3, objective=objective_kind, seed=2)
    result = train(ds, None, cfg)
    monkeypatch.setattr(
        losses, "logit_grad", lambda *args: _reference_objective(*args)[1]
    )
    reference = train(ds, None, cfg)
    assert np.array_equal(reference.model.params.flat, result.model.params.flat)
    assert reference.log == result.log
