"""Minibatch training with Adam, annealed evidential objectives, and
snapshot collection for the ensemble baseline.

Objectives:
    standard_ce  softmax + cross-entropy (the conventional classifier)
    un           evidential cross-entropy + annealed KL regularizer
    tun          un + temperature-scaled belief cross-entropy

Determinism: everything is seeded (parameter init from MlpConfig.seed,
shuffling from TrainConfig.seed and the epoch index); two runs with the
same configs and data produce identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, mlp
from .data import Dataset, one_hot
from .errors import DataError, NumericError
from .head import DirichletParams, EvidenceGate, opinion_from_alpha
from .numerics import entropy, softmax, softplus
from .records import Predictions, from_scores

OBJECTIVES = ("standard_ce", "un", "tun")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    batch_size: int = 64
    anneal_epochs: int = 10
    objective: str = "tun"
    seed: int = 0
    snapshot_count: int = 5

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("TrainConfig: epochs must be >= 0")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.anneal_epochs < 1:
            raise ValueError("TrainConfig: bad optimizer settings")
        if self.weight_decay < 0 or self.snapshot_count < 0:
            raise ValueError("TrainConfig: bad optimizer settings")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"TrainConfig: objective must be one of {OBJECTIVES}")


@dataclass
class AdamState:
    """First/second moment estimates, laid out like ``MlpParams.flat``, and
    the bias-correction step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, params: mlp.MlpParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: mlp.MlpParams,
    grads: mlp.MlpParams,
    state: AdamState,
    learning_rate: float,
    weight_decay: float = 0.0,
) -> tuple[mlp.MlpParams, AdamState]:
    """One Adam update (in place).  Weight decay is added to the gradient
    (L2 style).  Raises NumericError on NaN/Inf gradients."""
    mlp.check_finite(grads)
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    g = grads.flat + weight_decay * params.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    params.flat -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


@dataclass
class Model:
    """A trained network plus everything needed to use it downstream."""

    config: mlp.MlpConfig
    params: mlp.MlpParams
    objective: str
    threshold: float | None = None  # set by calibration, travels with the model
    gate: EvidenceGate | None = None  # None: the plain softplus evidence head

    @property
    def is_evidential(self) -> bool:
        return self.objective in ("un", "tun")


@dataclass
class TrainResult:
    model: Model
    log: list[dict] = field(default_factory=list)
    snapshots: list[mlp.MlpParams] = field(default_factory=list)
    snapshot_epochs: list[int] = field(default_factory=list)


def snapshot_epochs(epochs: int, count: int) -> list[int]:
    """Evenly spaced epoch indices in the second half of training."""
    if count <= 0 or epochs <= 0:
        return []
    pts = np.linspace(epochs // 2, epochs - 1, num=count)
    return sorted({int(round(p)) for p in pts})


def train(
    train_set: Dataset,
    val_set: Dataset | None,
    cfg: TrainConfig,
    net: mlp.MlpConfig | None = None,
) -> TrainResult:
    """Train a model on ``train_set``; per-epoch log includes validation
    accuracy when ``val_set`` is given.

    With epochs=0 the freshly initialized model is returned untrained.
    """
    if len(train_set) == 0 or train_set.n_classes < 2:
        raise DataError("train: need a non-empty training set with >= 2 classes")
    if net is None:
        net = mlp.MlpConfig(
            input_dim=train_set.dim,
            output_dim=train_set.n_classes,
            seed=cfg.seed,
        )
    if net.output_dim != train_set.n_classes or net.input_dim != train_set.dim:
        raise DataError("train: network dims do not match the dataset")
    params = mlp.init_params(net)
    state = AdamState.zeros_like(params)
    y_all = one_hot(train_set.labels, train_set.n_classes)
    snap_at = set(snapshot_epochs(cfg.epochs, cfg.snapshot_count))
    result = TrainResult(
        model=Model(config=net, params=params, objective=cfg.objective)
    )
    n = len(train_set)
    for epoch in range(cfg.epochs):
        schedule = losses.Schedule.for_epoch(epoch, cfg.anneal_epochs)
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            xb, yb = train_set.features[sel], y_all[sel]
            masks = (
                mlp.make_dropout_masks(net, len(sel), rng)
                if net.dropout_rate > 0
                else None
            )
            logits, trace = mlp.forward(params, xb, dropout_masks=masks)
            if not np.all(np.isfinite(logits)):
                raise NumericError(f"training diverged at epoch {epoch}: non-finite logits")
            loss, grad_out = losses.objective(cfg.objective, logits, yb, schedule)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch}: loss={loss}")
            grads = mlp.backward(trace, params, grad_out)
            params, state = adam_step(
                params, grads, state, cfg.learning_rate, cfg.weight_decay
            )
            epoch_losses.append(loss)
        record = {
            "epoch": epoch,
            "loss": float(np.mean(epoch_losses)),
            "kl_weight": schedule.kl_weight,
            "temperature": schedule.temperature,
        }
        if val_set is not None and len(val_set) > 0:
            record["val_accuracy"] = accuracy(result.model, val_set)
        result.log.append(record)
        if epoch in snap_at:
            result.snapshots.append(params.copy())
            result.snapshot_epochs.append(epoch)
    if result.model.is_evidential:
        logits = mlp.infer(params, train_set.features)
        result.model.gate = EvidenceGate.fit(logits, train_set.labels)
    return result


def evidential_alpha(model: Model, features) -> np.ndarray:
    """Dirichlet concentrations alpha = g * softplus(logits) + 1 of an
    evidential model, one row per input, with g from ``model.gate`` (no
    factor when the model has no gate).

    The one evidential scoring path: ``predict``, ``predict_records`` and
    ``baselines.uios_score`` all start from it.  Deterministic: no dropout.
    """

    def alpha_of(logits):
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite logits")
        alpha = softplus(logits)
        if model.gate is not None:
            alpha *= model.gate.factor(logits)[:, None]
        alpha += 1.0
        return alpha

    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return mlp.infer(model.params, x, head=alpha_of)


def evidential_scores(model: Model, features) -> tuple[np.ndarray, np.ndarray]:
    """Evidential probabilities alpha/S and uncertainty mass K/S."""
    alpha = evidential_alpha(model, features)
    strength = alpha.sum(axis=-1, keepdims=True)
    return alpha / strength, model.config.output_dim / strength[:, 0]


def predict(model: Model, features: np.ndarray):
    """Opinions for evidential models, softmax probabilities otherwise.

    Deterministic: no dropout is applied at prediction time.
    """
    if model.is_evidential:
        return opinion_from_alpha(DirichletParams(evidential_alpha(model, features)))
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return mlp.infer(model.params, x, head=softmax)


def predict_records(model: Model, ds: Dataset) -> Predictions:
    """Run the model over a dataset and package rows for metrics/calibration.

    For evidential models uncertainty is the Dirichlet uncertainty mass; for
    standard models it is the normalized softmax entropy (the entropy
    baseline), so every model yields records in the same format.
    """
    if model.is_evidential:
        return from_scores(*evidential_scores(model, ds.features), ds.labels)
    probs = predict(model, ds.features)
    return from_scores(probs, entropy(probs) / np.log(probs.shape[-1]), ds.labels)


def accuracy(model: Model, ds: Dataset) -> float:
    recs = predict_records(model, ds)
    return float(np.mean(recs.predicted == recs.labels))
