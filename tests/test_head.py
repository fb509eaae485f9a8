"""Evidence → Dirichlet → subjective-opinion mapping: the evidence of the
scoring path, hand-derived opinion values and algebraic invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evos import mlp
from evos.head import SubjectiveOpinion, opinion_from_alpha
from evos.numerics import softplus
from evos.training import Model, evidential_alpha, predict


def identity_model(k: int) -> Model:
    """An evidential net without hidden layers whose logits are its inputs."""
    cfg = mlp.MlpConfig(input_dim=k, output_dim=k, hidden_dims=(), seed=0)
    params = mlp.MlpParams(weights=[np.eye(k)], biases=[np.zeros(k)])
    return Model(config=cfg, params=params, objective="tun")


# ---------------------------------------------------------------------------
# evidence: alpha - 1 = softplus(logits) on the scoring path


def test_evidence_zero_features():
    e = evidential_alpha(identity_model(3), np.zeros((1, 3)))[0] - 1.0
    assert_allclose(e, np.full(3, math.log(2.0)))


def test_evidence_asymptotes():
    e = evidential_alpha(identity_model(3), np.array([[-100.0, 0.0, 100.0]]))[0] - 1.0
    assert e[0] == pytest.approx(0.0, abs=1e-40)
    # softplus(-100) ~ 4e-44 is below the resolution of alpha = 1 + e
    assert e[0] == 0.0
    assert e[1] == pytest.approx(math.log(2.0), abs=1e-15)
    assert e[2] == pytest.approx(100.0, abs=1e-12)


def test_evidence_matches_softplus_elementwise():
    rng = np.random.default_rng(11)
    f = rng.normal(scale=5.0, size=(1, 17))
    e = evidential_alpha(identity_model(17), f)[0] - 1.0
    assert_allclose(e, softplus(f)[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the Dirichlet of the evidence: alpha = e + 1, S = K / u


@pytest.mark.parametrize(
    "e, alpha, strength",
    [
        ([0.0, 0.0], [1.0, 1.0], 2.0),
        ([3.0, 1.0], [4.0, 2.0], 6.0),
        ([2.0, 0.0, 0.0], [3.0, 1.0, 1.0], 5.0),
    ],
)
def test_dirichlet_from_evidence_values(e, alpha, strength):
    op = opinion_from_alpha(np.asarray(e) + 1.0)
    assert_allclose(op.probs * strength, alpha)
    assert op.beliefs.shape[-1] / op.uncertainty == pytest.approx(strength, abs=1e-9)


# ---------------------------------------------------------------------------
# opinion_from_alpha


def test_opinion_zero_evidence_k9_maximal_uncertainty():
    op = opinion_from_alpha(np.zeros(9) + 1.0)
    assert op.uncertainty == pytest.approx(1.0, abs=1e-12)
    assert_allclose(op.beliefs, np.zeros(9), atol=1e-12)
    assert_allclose(op.probs, np.full(9, 1.0 / 9.0), atol=1e-12)


def test_opinion_hand_values_two_class():
    op = opinion_from_alpha(np.array([3.0, 1.0]) + 1.0)
    assert_allclose(op.beliefs, [0.5, 1.0 / 6.0], atol=1e-12)
    assert op.uncertainty == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert_allclose(op.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert op.predicted_class == 0


def test_opinion_hand_values_three_class():
    op = opinion_from_alpha(np.array([2.0, 0.0, 0.0]) + 1.0)
    assert_allclose(op.beliefs, [0.4, 0.0, 0.0], atol=1e-12)
    assert op.uncertainty == pytest.approx(0.6, abs=1e-12)
    assert_allclose(op.probs, [0.6, 0.2, 0.2], atol=1e-12)


def test_opinion_ties_break_to_lowest_index():
    op = opinion_from_alpha(np.array([1.0, 1.0, 1.0]) + 1.0)
    assert op.predicted_class == 0


def test_opinion_batch_shapes():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(10, 6))
    op = predict(identity_model(6), f)
    assert op.beliefs.shape == (10, 6)
    assert np.shape(op.uncertainty) == (10,)
    assert op.probs.shape == (10, 6)
    assert op.predicted_class.shape == (10,)
    assert_allclose(op.beliefs.sum(axis=-1) + op.uncertainty, 1.0, atol=1e-9)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_opinion_algebraic_identities(k, seed):
    e = np.random.default_rng(seed).uniform(0.0, 50.0, size=k)
    op = opinion_from_alpha(e + 1.0)
    assert op.beliefs.sum() + op.uncertainty == pytest.approx(1.0, abs=1e-9)
    assert_allclose(op.probs, op.beliefs + op.uncertainty / k, atol=1e-9)
    alpha = e + 1.0
    assert op.predicted_class == int(np.argmax(alpha))
    assert op.predicted_class == int(np.argmax(op.beliefs))
    assert op.predicted_class == int(np.argmax(op.probs))


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1.1, max_value=10.0),
)
def test_scaling_evidence_decreases_uncertainty(k, seed, c):
    e = np.random.default_rng(seed).uniform(0.1, 10.0, size=k)
    u1 = opinion_from_alpha(e + 1.0).uncertainty
    u2 = opinion_from_alpha(c * e + 1.0).uncertainty
    assert u2 < u1


def test_adding_single_class_evidence_moves_belief_and_uncertainty():
    e = np.array([1.0, 2.0, 0.5])
    before = opinion_from_alpha(e + 1.0)
    bumped = e.copy()
    bumped[1] += 3.0
    after = opinion_from_alpha(bumped + 1.0)
    assert after.beliefs[1] > before.beliefs[1]
    assert after.uncertainty < before.uncertainty


def test_subjective_opinion_is_frozen_value_object():
    op = opinion_from_alpha(np.array([3.0, 1.0]) + 1.0)
    assert isinstance(op, SubjectiveOpinion)
    with pytest.raises(AttributeError):
        op.uncertainty = 0.5
