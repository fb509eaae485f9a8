"""Special functions: frozen values, recurrence identities, reference
cross-checks, and property sweeps."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evos.numerics import (
    _row_max,
    _row_sum,
    digamma,
    entropy,
    log_gamma,
    sigmoid,
    softmax,
    softplus,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# softplus / sigmoid


def test_softplus_zero_is_log_two():
    assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_softplus_large_positive_is_identity():
    assert softplus(100.0) == pytest.approx(100.0, abs=1e-12)


def test_softplus_large_negative_matches_high_precision_reference():
    # mpmath.log1p(mpmath.exp(-100)) to 50 digits:
    # 3.7200759760208359629596958038631183373588922923768e-44
    reference = 3.7200759760208359629596958038631183373588922924e-44
    got = softplus(-100.0)
    assert got > 0
    assert abs(got - reference) / reference < 1e-15
    # the asymptote e^{-100} itself is only accurate to ~z/2 relative
    assert got == pytest.approx(math.exp(-100.0), rel=1e-12)


def test_softplus_no_overflow_at_extremes():
    assert np.isfinite(softplus(750.0))
    assert softplus(750.0) == 750.0
    assert softplus(-750.0) >= 0.0


@settings(deadline=None)
@given(st.floats(min_value=-700, max_value=700))
def test_softplus_dominates_relu(x):
    # mathematically strict, but log1p(e^-x) underflows below half an ulp of
    # x once x > ~33.7, where float64 can only express equality
    assert softplus(x) >= max(0.0, x)
    if x <= 30.0:
        assert softplus(x) > max(0.0, x)


def _masked_softplus(x):
    """softplus as two boolean-mask branches, one gather and scatter each."""
    a = np.asarray(x, dtype=np.float64)
    out = np.empty_like(a)
    high = a > 30.0
    out[high] = a[high] + np.log1p(np.exp(-a[high]))
    out[~high] = np.log1p(np.exp(a[~high]))
    return out


_SOFTPLUS_EDGES = st.sampled_from(
    [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
     30.0, np.nextafter(30.0, 0.0), np.nextafter(30.0, 31.0), -30.0, 29.5, 30.5]
)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.lists(_SOFTPLUS_EDGES | st.floats(-40.0, 40.0) | st.floats(), max_size=40))
def test_softplus_bits_equal_masked_branches(values):
    xs = np.array(values, dtype=np.float64)
    assert softplus(xs).tobytes() == _masked_softplus(xs).tobytes()
    for x in xs:
        assert softplus(np.array([x])).tobytes() == _masked_softplus(np.array([x])).tobytes()


def test_softplus_vector_matches_scalar():
    xs = np.array([-5.0, -0.5, 0.0, 0.5, 40.0])
    assert softplus(xs).tobytes() == b"".join(softplus(xs[i:i + 1]).tobytes() for i in range(5))


def test_sigmoid_is_softplus_derivative():
    xs = np.linspace(-20, 20, 41)
    h = 1e-6
    fd = (softplus(xs + h) - softplus(xs - h)) / (2 * h)
    assert_allclose(sigmoid(xs), fd, atol=1e-9)


def test_sigmoid_bit_identical_to_piecewise_form():
    xs = np.array([0.0, -0.0, 30.0, -30.0, 745.0, -745.0, np.inf, -np.inf, np.nan])
    xs = np.concatenate([xs, np.random.default_rng(3).normal(scale=40.0, size=200)])
    pos = xs >= 0
    want = np.empty_like(xs)
    want[pos] = 1.0 / (1.0 + np.exp(-xs[pos]))
    want[~pos] = np.exp(xs[~pos]) / (1.0 + np.exp(xs[~pos]))
    assert sigmoid(xs).tobytes() == want.tobytes()
    assert [sigmoid(xs[i:i + 1]).tobytes() for i in range(8)] == [w.tobytes() for w in want[:8]]


# ---------------------------------------------------------------------------
# log_gamma


def test_log_gamma_frozen_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
    # Gamma(10) = 9! exactly
    assert log_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-14)


def test_log_gamma_matches_scipy():
    xs = np.concatenate(
        [np.linspace(0.5, 0.99, 37), np.linspace(1.0, 60.0, 61), [1e3, 1e6, 1e8]]
    )
    ours = log_gamma(xs)
    ref = scipy.special.gammaln(xs)
    err = np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)
    assert err.max() < 1e-12


@settings(deadline=None)
@given(st.floats(min_value=0.5, max_value=50.0))
def test_log_gamma_recurrence(x):
    assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), abs=1e-10)


# ---------------------------------------------------------------------------
# digamma


def test_digamma_frozen_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-9)
    assert digamma(2.0) == pytest.approx(-EULER_GAMMA + 1.0, abs=1e-9)


def test_digamma_recurrence_at_6_5():
    assert digamma(7.5) - digamma(6.5) == pytest.approx(1.0 / 6.5, abs=1e-12)


def test_digamma_matches_scipy():
    xs = np.concatenate([np.linspace(1e-3, 6.0, 300), np.linspace(6.0, 500.0, 200)])
    assert np.abs(digamma(xs) - scipy.special.digamma(xs)).max() < 1e-10


@settings(deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)


# ---------------------------------------------------------------------------
# trigamma


def test_trigamma_frozen_values():
    # psi'(1) = sum 1/n^2; partial sums + tail integral bound as oracle
    n = np.arange(1, 200001, dtype=np.float64)
    basel = float(np.sum(1.0 / n**2)) + 1.0 / 200001  # tail ~ 1/N
    assert trigamma(1.0) == pytest.approx(basel, abs=1e-8)
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-10)


def test_trigamma_is_digamma_derivative_at_5():
    h = 1e-4
    fd = (digamma(5.0 + h) - digamma(5.0 - h)) / (2 * h)
    assert trigamma(5.0) == pytest.approx(fd, abs=1e-6)


def test_trigamma_matches_scipy():
    xs = np.concatenate([np.linspace(1e-3, 6.0, 300), np.linspace(6.0, 500.0, 200)])
    assert np.abs(trigamma(xs) - scipy.special.polygamma(1, xs)).max() < 1e-8


@settings(deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0))
def test_trigamma_recurrence(x):
    assert trigamma(x) - trigamma(x + 1.0) == pytest.approx(1.0 / x**2, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# the psi and psi' kernels


def _reference_psi_trigamma(x):
    """The recurrence on fancy-indexed entries, as digamma and trigamma
    once ran it, with the same Bernoulli tails."""
    a = np.array(x, dtype=np.float64)
    psi, tri = np.zeros_like(a), np.zeros_like(a)
    low = a < 6.0
    while np.any(low):
        psi[low] -= 1.0 / a[low]
        tri[low] += 1.0 / (a[low] * a[low])
        a[low] += 1.0
        low = a < 6.0
    i2 = 1.0 / (a * a)
    psi_tail = i2 * (
        1.0 / 12.0
        - i2 * (
            1.0 / 120.0
            - i2 * (
                1.0 / 252.0
                - i2 * (
                    1.0 / 240.0
                    - i2 * (1.0 / 132.0 - i2 * (691.0 / 32760.0 - i2 * (1.0 / 12.0)))
                )
            )
        )
    )
    tri_horner = (
        1.0 / 6.0
        - i2 * (
            1.0 / 30.0
            - i2 * (
                1.0 / 42.0
                - i2 * (
                    1.0 / 30.0
                    - i2 * (5.0 / 66.0 - i2 * (691.0 / 2730.0 - i2 * (7.0 / 6.0)))
                )
            )
        )
    )
    psi = psi + np.log(a) - 0.5 / a - psi_tail
    return psi, tri + 1.0 / a + 0.5 * i2 + i2 / a * tri_horner


def _assert_array_elements_and_reference_agree(xs):
    psi, tri = digamma(xs), trigamma(xs)
    assert psi.tobytes() == b"".join(digamma(xs[i:i + 1]).tobytes() for i in range(len(xs)))
    assert tri.tobytes() == b"".join(trigamma(xs[i:i + 1]).tobytes() for i in range(len(xs)))
    ref_psi, ref_tri = _reference_psi_trigamma(xs)
    assert np.array_equal(psi, ref_psi) and np.array_equal(tri, ref_tri)


def test_psi_trigamma_kernel_edges():
    edges = [*range(1, 7), np.nextafter(6.0, 0.0), np.nextafter(6.0, np.inf), 1e150]
    _assert_array_elements_and_reference_agree(np.array(edges, dtype=np.float64))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=40))
def test_psi_trigamma_kernel_matches_public(values):
    _assert_array_elements_and_reference_agree(np.array(values))


# ---------------------------------------------------------------------------
# class-axis reductions: column loops with numpy's bits

_SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
     2.2250738585072014e-308, 1e308, -1e308, 1.0, -2.5]
)
_WIDTHS = list(range(1, 41))
_LEADING = [(), (0,), (1,), (2,), (9,), (3, 4)]


def _mixed_block(lead, k, seed):
    """Normal values times 10^U(-300, 300), with a random share of the
    entries replaced by +-0, +-inf, NaN, subnormals or +-1e308."""
    rng = np.random.default_rng(seed)
    shape = lead + (k,)
    with np.errstate(over="ignore", under="ignore"):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = rng.random(shape) < rng.choice([0.0, 0.2, 0.8, 1.0])
    a[special] = rng.choice(_SPECIALS, size=shape)[special]
    if rng.random() < 0.2:  # only signed zeros: the sign of a zero sum
        a = rng.choice(np.array([0.0, -0.0]), size=shape)
    return a


def _same_bits(got, want):
    """Equal bit for bit, except which NaN a NaN is: IEEE 754 does not fix
    which operand's NaN an addition returns."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == want[~nan].tobytes()
    )


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    st.sampled_from(_LEADING),
    st.sampled_from(_WIDTHS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_sum_and_max_match_numpy_bit_for_bit(lead, k, seed):
    a = _mixed_block(lead, k, seed)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same_bits(_row_sum(a), np.sum(a, axis=-1)), (lead, k)
        # a column slice, not C-contiguous: how the KL value reads its ln Gamma columns
        assert _same_bits(_row_sum(a[..., :-1]), np.sum(a[..., :-1], axis=-1)), (lead, k)
        # the same values; a zero maximum may carry either sign (numpy's
        # SIMD reduction picks it by lane), which softmax cannot see
        assert np.array_equal(_row_max(a), np.max(a, axis=-1), equal_nan=True), (lead, k)


def test_row_sum_follows_numpy_pairwise_order():
    # 1 + 2^-53 + ... rounds differently in each summation order, so only
    # numpy's own order reproduces these bits; 8 is where np.sum takes over
    rng = np.random.default_rng(3)
    for k in (2, 3, 4, 5, 6, 7, 8, 9):
        a = 1.0 + rng.integers(0, 4, size=(64, k)) * 2.0**-52 + rng.random((64, k)) * 1e-16
        a[:, ::3] *= -1.0
        assert _row_sum(a).tobytes() == np.sum(a, axis=-1).tobytes(), k


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.sampled_from(_LEADING),
    st.sampled_from(_WIDTHS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_softmax_and_entropy_bit_identical_to_numpy_reductions(lead, k, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(lead + (k,)) * rng.choice([1e-3, 1.0, 30.0, 700.0])
    z[rng.random(z.shape) < 0.3] = rng.choice([0.0, -0.0])
    if z.size == 0:
        return
    ex = np.exp(z - np.max(z, axis=-1, keepdims=True))
    p = ex / np.sum(ex, axis=-1, keepdims=True)
    assert softmax(z).tobytes() == p.tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    assert np.asarray(entropy(p)).tobytes() == (-np.sum(terms, axis=-1)).tobytes()


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    assert_allclose(softmax(np.zeros(3)), np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_extreme_logits_no_overflow():
    p = softmax(np.array([1000.0, 0.0]))
    assert p[0] == pytest.approx(1.0, abs=1e-300)
    assert p[1] < 1e-300
    assert np.isfinite(p).all()


def test_softmax_hand_value():
    assert_allclose(softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_batch_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(50, 7)) * 10
    p = softmax(logits)
    assert (p > 0).all()
    assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


@settings(deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=16)
)
def test_softmax_shift_invariance(logits):
    v = np.asarray(logits)
    assert_allclose(softmax(v), softmax(v + 17.3), atol=1e-12)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_one_hot_is_zero():
    assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_uniform_frozen_values():
    assert entropy(np.full(9, 1.0 / 9.0)) == pytest.approx(math.log(9.0), abs=1e-12)
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2.0), abs=1e-15)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_entropy_maximized_by_uniform(k, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(k))
    assert entropy(np.full(k, 1.0 / k)) >= entropy(p) - 1e-12
