"""Numerically stable special functions used throughout the package.

Everything operates in float64, accepts scalars or numpy arrays, and is
stateless.  The gamma-family functions are implemented here rather than
imported so that their error behaviour is pinned down and testable against
independent references:

* ``log_gamma`` uses the Lanczos approximation (g=7, 9 coefficients) with
  the reflection formula below 0.5.
* ``digamma`` and ``trigamma`` share one recurrence, psi(x) = psi(x+1) - 1/x
  and psi'(x) = psi'(x+1) + 1/x^2, that lifts every entry above 6 for the
  asymptotic (Bernoulli) series.

The public functions validate their argument (finite, > 0), then call the
unchecked kernels ``_log_gamma`` and ``_psi_trigamma``.  The training loss
calls the kernels directly, once per step each, on stacked arrays.

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


def _asarray(x) -> tuple[np.ndarray, bool]:
    a = np.asarray(x, dtype=np.float64)
    return a, a.ndim == 0


def _unwrap(a: np.ndarray, scalar: bool):
    return float(a) if scalar else a


def softplus(x):
    """ln(1 + e^x) without overflow.

    For x > 30 the direct form overflows long before float64 does any harm,
    so that branch is x + ln(1 + e^-x); for large negative x, log1p keeps
    the full relative precision of e^x.  Both branches run branch-free on
    the whole array: ln(1 + e^t) with t = -x or x, then + x or + 0.0.  A
    low-branch value is >= +0 (or NaN), so adding +0.0 leaves its bits
    unchanged, and x + t equals t + x in IEEE arithmetic.
    """
    a, scalar = _asarray(x)
    high = a > 30.0
    out = np.log1p(np.exp(np.where(high, -a, a)))
    out += np.where(high, a, 0.0)
    return _unwrap(out, scalar)


def sigmoid(x):
    """Logistic function, the derivative of softplus. Overflow-safe: e^-|x|
    never overflows, and each branch divides by 1 + e^-|x| >= 1."""
    a, scalar = _asarray(x)
    pos = a >= 0.0
    e = np.exp(np.where(pos, -a, a))
    return _unwrap(np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)), scalar)


def _lanczos_log_gamma(x: np.ndarray) -> np.ndarray:
    # Valid for x >= 0.5.
    z = x - 1.0
    s = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        s += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(s)


def _log_gamma(a: np.ndarray) -> np.ndarray:
    # Unchecked: a must be finite and > 0.
    small = a < 0.5
    if not small.any():
        return _lanczos_log_gamma(a)
    # reflection: ln Gamma(x) = ln(pi / sin(pi x)) - ln Gamma(1 - x)
    out = np.empty_like(a)
    xs = a[small]
    out[small] = np.log(np.pi / np.sin(np.pi * xs)) - _lanczos_log_gamma(1.0 - xs)
    out[~small] = _lanczos_log_gamma(a[~small])
    return out


def log_gamma(x):
    """ln Gamma(x) for x > 0, Lanczos approximation.

    Relative error is at machine-precision level (well inside 1e-10)
    over the positive reals we care about.
    """
    a, scalar = _asarray(x)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("log_gamma: argument must be finite and > 0")
    return _unwrap(_log_gamma(a), scalar)


def _psi_trigamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Unchecked: x must be finite and > 0.  The 0/1 step mask leaves entries
    # already >= 6 bit-for-bit unchanged (y - 0/a == y, a + 0 == a).
    a = np.array(x, dtype=np.float64)
    psi, tri = np.zeros_like(a), np.zeros_like(a)
    low = a < 6.0
    while low.any():
        step = low.astype(np.float64)
        psi -= step / a
        tri += step / (a * a)
        a += step
        low = a < 6.0
    i2 = 1.0 / (a * a)
    h_psi, h_tri = _PSI_SERIES[0], _TRI_SERIES[0]
    for c_psi, c_tri in zip(_PSI_SERIES[1:], _TRI_SERIES[1:]):
        h_psi = c_psi - i2 * h_psi
        h_tri = c_tri - i2 * h_tri
    psi = psi + np.log(a) - 0.5 / a - i2 * h_psi
    tri = tri + 1.0 / a + 0.5 * i2 + i2 / a * h_tri
    return psi, tri


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0.  Absolute error < 1e-12."""
    a, scalar = _asarray(x)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("digamma: argument must be finite and > 0")
    return _unwrap(_psi_trigamma(a)[0], scalar)


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0.  Absolute error < 1e-12."""
    a, scalar = _asarray(x)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("trigamma: argument must be finite and > 0")
    return _unwrap(_psi_trigamma(a)[1], scalar)


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
    """``np.sum(a, axis=-1)``, bit for bit on a C-contiguous ``a`` (which NaN
    comes out of a sum of NaNs aside).

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
    a, scalar = _asarray(logits)
    if a.size == 0:
        raise ValueError("softmax: empty input")
    if scalar:
        raise ValueError("softmax: needs at least a 1-d vector")
    ex = np.exp(a - _row_max(a)[..., None])
    return ex / _row_sum(ex)[..., None]


def entropy(p):
    """Shannon entropy -sum p ln p in nats over the last axis, with 0 ln 0 = 0.

    ``p`` must be a (batch of) probability vector(s): nonnegative,
    summing to 1 within 1e-6.
    """
    a, scalar = _asarray(p)
    if scalar:
        raise ValueError("entropy: needs at least a 1-d vector")
    if np.any(a < 0.0):
        raise ValueError("entropy: invalid distribution (negative mass)")
    if not np.all(np.abs(_row_sum(a) - 1.0) <= 1e-6):  # a NaN sum fails too
        raise ValueError("entropy: invalid distribution (does not sum to 1)")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(a > 0.0, a * np.log(a), 0.0)
    out = -_row_sum(terms)
    return float(out) if out.ndim == 0 else out
