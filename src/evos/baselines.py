"""Uncertainty scoring methods compared against the evidential model.

Every method maps (model artifacts, features) -> (probs, uncertainty) with
uncertainty in [0, 1], so the same calibration and metrics pipeline applies
to all of them:

    uios      Dirichlet uncertainty mass of an evidential model
    entropy   normalized softmax entropy of a standard model
    mc_drop   mean softmax over T stochastic dropout passes, normalized
              entropy of the mean
    ensemble  mean softmax over the model's snapshots, normalized entropy
    tta       mean softmax over T passes with Gaussian input jitter;
              uncertainty = mean across-pass variance of the class
              probabilities, normalized by its maximum (1/4)

The random methods (mc_drop, tta) draw each block ``j`` of
``mlp.row_blocks(n)`` from ``np.random.default_rng((seed, j))``, all T
passes in pass order, as training draws epoch ``e`` from
``default_rng((seed, e))``: a block's scores depend on its rows and the
seed only, and one block's draws are held at a time.
"""

from __future__ import annotations

import numpy as np

from . import mlp
from .errors import DataError
from .numerics import _row_sum, entropy, softmax
from .training import Model, evidential_alpha

# each scoring method and the ``predict_records`` options that set the scale
# of its u, which a calibrated theta records (the seed sets the draws only)
SCORING_OPTIONS = {"uios": (), "entropy": (), "mc_drop": ("passes",), "ensemble": (),
                   "tta": ("passes", "jitter_sigma")}
METHODS = tuple(SCORING_OPTIONS)

DEFAULT_PASSES = 10
DEFAULT_JITTER_SIGMA = 0.1


def resolve_method(model: Model, method: str) -> str:
    """``method``, with auto read as uios for evidential models, else entropy."""
    if method != "auto":
        return method
    return "uios" if model.is_evidential else "entropy"


def _probs(params: mlp.MlpParams, x: np.ndarray, masks=None) -> np.ndarray:
    return mlp.infer(params, x, masks, head=softmax)


def _normalized_entropy(probs: np.ndarray) -> np.ndarray:
    # a near-uniform row's ratio can round an ulp above 1
    return np.minimum(entropy(probs) / np.log(probs.shape[-1]), 1.0)


def uios_score(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evidential probabilities alpha/S and uncertainty mass K/S."""
    alpha = evidential_alpha(model, x)
    strength = _row_sum(alpha)[:, None]
    return alpha / strength, model.config.output_dim / strength[:, 0]


def entropy_score(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities; uncertainty = entropy / ln K, in [0, 1]."""
    p = _probs(model.params, np.asarray(x, dtype=np.float64))
    return p, _normalized_entropy(p)


def mc_dropout_score(
    model: Model, x: np.ndarray, passes: int = DEFAULT_PASSES, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo dropout: T stochastic passes with fresh masks.

    Requires a model trained with dropout_rate > 0: ``mlp.make_dropout_masks``
    raises ValueError for a rate that drops no unit.
    """
    if passes < 1:
        raise ValueError("mc_dropout_score: passes >= 1 required")
    x = np.asarray(x, dtype=np.float64)
    n, cfg = len(x), model.config
    mean, u = np.empty((n, cfg.output_dim)), np.empty(n)
    for j, rows in enumerate(mlp.row_blocks(n)):
        rng = np.random.default_rng((seed, j))
        acc = np.zeros((rows.stop - rows.start, cfg.output_dim))
        for _ in range(passes):
            # held until the next pass's masks exist: freeing them first let
            # glibc trim the thread's heap after every pass
            masks = mlp.make_dropout_masks(cfg, rows.stop - rows.start, rng)
            acc += _probs(model.params, x[rows], masks)
        mean[rows] = acc / passes
        u[rows] = _normalized_entropy(mean[rows])
    return mean, u


def ensemble_score(
    model: Model, snapshots: list[mlp.MlpParams], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot ensemble: average softmax over parameter snapshots."""
    if len(snapshots) < 2:
        raise DataError(f"ensemble_score: need >= 2 snapshots, got {len(snapshots)}")
    x = np.asarray(x, dtype=np.float64)
    acc = np.zeros((len(x), model.config.output_dim))
    for params in snapshots:
        acc += _probs(params, x)
    mean = acc / len(snapshots)
    return mean, _normalized_entropy(mean)


def tta_score(
    model: Model,
    x: np.ndarray,
    passes: int = DEFAULT_PASSES,
    jitter_sigma: float = DEFAULT_JITTER_SIGMA,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Test-time augmentation with Gaussian input jitter.

    Uncertainty is the across-pass variance of the class probabilities,
    averaged over classes and divided by 1/4 (the variance of a fair coin,
    the largest possible for a [0, 1] variable), so it lands in [0, 1].
    The variance is taken about the first pass, so passes that agree give
    exactly 0.
    """
    if passes < 2:
        raise ValueError("tta_score: need >= 2 passes to estimate a variance")
    if jitter_sigma < 0:
        raise ValueError("tta_score: jitter_sigma must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    n, k = len(x), model.config.output_dim
    mean, u = np.empty((n, k)), np.empty(n)
    for j, rows in enumerate(mlp.row_blocks(n)):
        rng = np.random.default_rng((seed, j))
        stack = np.empty((passes, rows.stop - rows.start, k))
        for t in range(passes):
            jitter = rng.standard_normal((rows.stop - rows.start, *x.shape[1:]))
            jitter *= jitter_sigma
            stack[t] = _probs(model.params, x[rows] + jitter)
        mean[rows] = stack.mean(axis=0)
        var = (stack - stack[0]).var(axis=0)
        u[rows] = 4.0 * (_row_sum(var) / k)
    return mean, u


def score_method(
    method: str,
    model: Model,
    x: np.ndarray,
    snapshots: list[mlp.MlpParams] | None = None,
    passes: int = DEFAULT_PASSES,
    jitter_sigma: float = DEFAULT_JITTER_SIGMA,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch a named method; see METHODS.  ``snapshots`` default to the model's."""
    if method == "uios":
        return uios_score(model, x)
    if method == "entropy":
        return entropy_score(model, x)
    if method == "mc_drop":
        return mc_dropout_score(model, x, passes=passes, seed=seed)
    if method == "ensemble":
        return ensemble_score(model, model.snapshots if snapshots is None else snapshots, x)
    if method == "tta":
        return tta_score(model, x, passes=passes, jitter_sigma=jitter_sigma, seed=seed)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
