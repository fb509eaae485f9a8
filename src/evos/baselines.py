"""Uncertainty scoring methods compared against the evidential model.

Every method maps (model artifacts, features) -> (probs, uncertainty) with
uncertainty in [0, 1], so the same calibration and metrics pipeline applies
to all of them:

    uios      Dirichlet uncertainty mass of an evidential model
    entropy   normalized softmax entropy of a standard model
    mc_drop   mean softmax over T stochastic dropout passes, normalized
              entropy of the mean
    ensemble  mean softmax over snapshot checkpoints, normalized entropy
    tta       mean softmax over T passes with Gaussian input jitter;
              uncertainty = mean across-pass variance of the class
              probabilities, normalized by its maximum (1/4)
"""

from __future__ import annotations

import warnings

import numpy as np

from . import mlp
from .errors import DataError
from .numerics import entropy, softmax
from .training import Model, evidential_scores

METHODS = ("uios", "entropy", "mc_drop", "ensemble", "tta")

DEFAULT_PASSES = 10
DEFAULT_SNAPSHOTS = 5
DEFAULT_JITTER_SIGMA = 0.1


def _probs(params: mlp.MlpParams, x: np.ndarray, masks=None) -> np.ndarray:
    return mlp.infer(params, x, masks, head=softmax)


def _normalized_entropy(probs: np.ndarray) -> np.ndarray:
    return entropy(probs) / np.log(probs.shape[-1])


def uios_score(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evidential probabilities alpha/S and uncertainty mass K/S."""
    if not model.is_evidential:
        raise DataError("uios_score: model was not trained with an evidential objective")
    return evidential_scores(model, x)


def entropy_score(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities; uncertainty = entropy / ln K, in [0, 1]."""
    p = _probs(model.params, np.asarray(x, dtype=np.float64))
    return p, _normalized_entropy(p)


def mc_dropout_score(
    model: Model, x: np.ndarray, passes: int = DEFAULT_PASSES, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo dropout: T stochastic passes with fresh masks.

    Requires a model trained with dropout_rate > 0; with rate 0 the passes
    would be identical, so this degenerates to the entropy method (with a
    warning).
    """
    if passes < 1:
        raise ValueError("mc_dropout_score: passes >= 1 required")
    if model.config.dropout_rate <= 0.0:
        warnings.warn(
            "mc_dropout_score: model has dropout_rate 0; falling back to the entropy method"
        )
        return entropy_score(model, x)
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    acc = np.zeros((len(x), model.config.output_dim))
    for _ in range(passes):
        masks = mlp.make_dropout_masks(model.config, len(x), rng)
        acc += _probs(model.params, x, masks)
    mean = acc / passes
    return mean, _normalized_entropy(mean)


def ensemble_score(
    model: Model, snapshots: list[mlp.MlpParams], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot ensemble: average softmax over saved checkpoints."""
    if len(snapshots) < 2:
        raise DataError(
            f"ensemble_score: need >= 2 snapshot checkpoints, got {len(snapshots)}"
        )
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
    """
    if passes < 2:
        raise ValueError("tta_score: need >= 2 passes to estimate a variance")
    if jitter_sigma < 0:
        raise ValueError("tta_score: jitter_sigma must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    stack = np.empty((passes, len(x), model.config.output_dim))
    for t in range(passes):
        jitter = jitter_sigma * rng.standard_normal(x.shape)
        stack[t] = _probs(model.params, x + jitter)
    mean = stack.mean(axis=0)
    u = 4.0 * stack.var(axis=0, ddof=0).mean(axis=-1)
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
    """Dispatch a named method; see METHODS."""
    if method == "uios":
        return uios_score(model, x)
    if method == "entropy":
        return entropy_score(model, x)
    if method == "mc_drop":
        return mc_dropout_score(model, x, passes=passes, seed=seed)
    if method == "ensemble":
        return ensemble_score(model, snapshots or [], x)
    if method == "tta":
        return tta_score(model, x, passes=passes, jitter_sigma=jitter_sigma, seed=seed)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
