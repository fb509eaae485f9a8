"""Numerically stable special functions used throughout the package.

Everything operates on the float64 numpy arrays its callers pass (rows by
classes, or stacked columns), and is stateless.  The gamma-family functions
are implemented here rather than imported so that their error behaviour is
pinned down and testable against independent references:

* ``log_gamma`` uses the Lanczos approximation (g=7, 9 coefficients) on
  x >= 0.5, the domain its callers reach.
* ``digamma`` and ``trigamma`` run the recurrences psi(x) = psi(x+1) - 1/x
  and psi'(x) = psi'(x+1) + 1/x^2, which lift every entry above 6 for the
  asymptotic (Bernoulli) series.

These three are unchecked kernels: the argument must be finite and > 0
(>= 0.5 for ``log_gamma``), and nothing here checks it.  Their one caller
is the training loss, which passes stacked arrays of
alpha = softplus(logits) + 1 >= 1 and its sums:
``trigamma`` once per step for the gradient, ``digamma`` and ``log_gamma``
once per epoch chunk for the logged loss value.

Reductions over the class axis (always the last one) go through
``_row_max`` and ``_row_sum``, which loop over the K columns.  For a few
classes that is several times faster than ``np.max``/``np.sum(axis=-1)``,
whose inner loop then runs only K steps per row.  ``_row_sum`` depends on
numpy's reduction order: below 8 classes numpy sums a row sequentially
from +0.0, which the column loop repeats, so its bits equal
``np.sum(a, axis=-1)``'s on a C-contiguous array; from 8 classes on it
calls ``np.sum``.  ``tests/test_numerics.py`` pins this, so a numpy release
that sums in another order fails there.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softplus",
    "sigmoid",
    "log_gamma",
    "digamma",
    "trigamma",
    "softmax",
    "entropy",
]

_LN_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Classic g=7 Lanczos coefficients (as used by GSL / Numerical Recipes).
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

# Asymptotic (Bernoulli) series in i2 = 1/x^2, innermost Horner coefficient
# first: psi(x) ~ ln x - 1/(2x) - i2 (1/12 - i2 (1/120 - i2 (1/252 - ...)))
# and psi'(x) ~ 1/x + i2/2 + (i2/x) (1/6 - i2 (1/30 - i2 (1/42 - ...))).
_PSI_SERIES = (1 / 12, 691 / 32760, 1 / 132, 1 / 240, 1 / 252, 1 / 120, 1 / 12)
_TRI_SERIES = (7 / 6, 691 / 2730, 5 / 66, 1 / 30, 1 / 42, 1 / 30, 1 / 6)


def softplus(x):
    """ln(1 + e^x) without overflow.

    For x > 30 the direct form overflows long before float64 does any harm,
    so that branch is x + ln(1 + e^-x); for large negative x, log1p keeps
    the full relative precision of e^x.  Both branches run branch-free on
    the whole array: ln(1 + e^t) with t = -x or x, then + x or + 0.0.  A
    low-branch value is >= +0 (or NaN), so adding +0.0 leaves its bits
    unchanged, and x + t equals t + x in IEEE arithmetic.
    """
    high = x > 30.0
    out = np.log1p(np.exp(np.where(high, -x, x)))
    out += np.where(high, x, 0.0)
    return out


def sigmoid(x):
    """Logistic function, the derivative of softplus. Overflow-safe: e^-|x|
    never overflows, and each branch divides by 1 + e^-|x| >= 1."""
    pos = x >= 0.0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def log_gamma(x):
    """ln Gamma(x) for x >= 0.5, Lanczos approximation.

    Relative error is at machine-precision level (well inside 1e-10) on
    that domain.  Unchecked: x must be finite and >= 0.5; the loss passes
    alpha_hat >= 1, its row sums and the class count K >= 2.
    """
    z = x - 1.0
    s = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        s += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(s)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0.  Absolute error < 1e-12.

    Unchecked: x must be finite and > 0.  The 0/1 step mask leaves entries
    already >= 6 bit for bit (y - 0/a == y, a + 0 == a), whatever the rest.
    """
    a = np.array(x, dtype=np.float64)
    psi = np.zeros_like(a)
    low = a < 6.0
    while low.any():
        step = low.astype(np.float64)
        psi -= step / a
        a += step
        low = a < 6.0
    i2 = 1.0 / (a * a)
    h = _PSI_SERIES[0]
    for c in _PSI_SERIES[1:]:
        h = c - i2 * h
    return psi + np.log(a) - 0.5 / a - i2 * h


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0.  Absolute error < 1e-12.

    Unchecked, and entry by entry like ``digamma``.
    """
    a = np.array(x, dtype=np.float64)
    tri = np.zeros_like(a)
    low = a < 6.0
    while low.any():
        step = low.astype(np.float64)
        tri += step / (a * a)
        a += step
        low = a < 6.0
    i2 = 1.0 / (a * a)
    h = _TRI_SERIES[0]
    for c in _TRI_SERIES[1:]:
        h = c - i2 * h
    return tri + 1.0 / a + 0.5 * i2 + i2 / a * h


def _row_max(a: np.ndarray) -> np.ndarray:
    """``np.max(a, axis=-1)`` as K - 1 ``np.maximum`` steps over the columns.

    Same values, NaN included.  Where the maximum is a zero, its sign may
    differ from numpy's SIMD reduction, which softmax cannot see:
    exp(x - 0.0) and exp(x - (-0.0)) are equal for every x.
    """
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        np.maximum(out, a[..., k], out=out)
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)``, bit for bit on a C-contiguous ``a`` or a
    column slice of one (which NaN comes out of a sum of NaNs aside).

    Below 8 terms numpy adds them one after another from +0.0, and so does
    the column loop; from 8 terms on numpy sums pairwise, so ``np.sum`` runs.
    """
    k = a.shape[-1]
    if k >= 8:
        return np.sum(a, axis=-1)
    out = np.zeros(a.shape[:-1])
    for j in range(k):
        out += a[..., j]
    return out


def softmax(logits):
    """Stable softmax over the last axis (max subtraction)."""
    ex = np.exp(logits - _row_max(logits)[..., None])
    return ex / _row_sum(ex)[..., None]


def entropy(p):
    """Shannon entropy -sum p ln p in nats over the last axis, with 0 ln 0 = 0.

    Unchecked: ``p`` must be a (batch of) probability vector(s), finite,
    nonnegative and summing to 1.  Its callers pass softmax rows, or means
    of them, of logits that ``mlp.infer`` has checked are finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -_row_sum(terms)
