"""Minibatch training with Adam, annealed evidential objectives, and opt-in
snapshot collection for the ensemble baseline.

Objectives:
    standard_ce  softmax + cross-entropy (the conventional classifier)
    un           evidential cross-entropy + annealed KL regularizer
    tun          un + temperature-scaled belief cross-entropy

Each step computes only the loss gradient (``losses.logit_grad``).  The
logged loss comes from one pass over the epoch's step logits at its end
(``_epoch_loss``), which is also where a non-finite loss raises.

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
from .head import EvidenceGate, SubjectiveOpinion, opinion_from_alpha
from .numerics import softplus
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
    snapshot_count: int = 0

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
    """One Adam update, in place on ``params`` and ``state``.  Weight decay is
    added to the gradient (L2 style).  A NaN/Inf gradient entry raises
    NumericError before anything is updated."""
    if not np.isfinite(grads.flat).all():
        raise NumericError("non-finite gradient")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    m, v, p = state.m, state.v, params.flat
    g = weight_decay * p
    g += grads.flat
    step = (1.0 - ADAM_BETA1) * g
    m *= ADAM_BETA1
    m += step
    v *= ADAM_BETA2
    v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=g), out=g)
    np.multiply(learning_rate, np.divide(m, c1, out=step), out=step)
    step /= np.add(np.sqrt(np.divide(v, c2, out=g), out=g), ADAM_EPS, out=g)
    p -= step
    return params, state


@dataclass
class Model:
    """A trained network plus everything needed to use it downstream."""

    config: mlp.MlpConfig
    params: mlp.MlpParams
    objective: str
    gate: EvidenceGate | None = None  # None: the plain softplus evidence head
    snapshots: list[mlp.MlpParams] = field(default_factory=list)  # in training order

    @property
    def is_evidential(self) -> bool:
        return self.objective in ("un", "tun")


@dataclass
class TrainResult:
    model: Model
    log: list[dict] = field(default_factory=list)


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
    grads = params.copy()  # the gradient buffer each backward overwrites
    xs, ys = np.empty((n, train_set.dim)), np.empty_like(y_all)  # rows in step order
    epoch_logits = np.empty((n, net.output_dim))  # row i: xs[i]'s logits at its step
    for epoch in range(cfg.epochs):
        schedule = losses.Schedule.for_epoch(epoch, cfg.anneal_epochs)
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(n)
        np.take(train_set.features, order, axis=0, out=xs)
        np.take(y_all, order, axis=0, out=ys)
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            xb, yb = xs[rows], ys[rows]
            masks = mlp.make_dropout_masks(net, len(xb), rng) if net.dropout_rate > 0 else None
            try:
                logits, trace = mlp.forward(params, xb, dropout_masks=masks)
                grad_out = losses.logit_grad(cfg.objective, logits, yb, schedule)
                mlp.backward(trace, params, grad_out, out=grads)
                adam_step(params, grads, state, cfg.learning_rate, cfg.weight_decay)
            except NumericError as e:
                raise NumericError(f"training diverged at epoch {epoch}: {e}") from e
            epoch_logits[rows] = logits
        loss = _epoch_loss(cfg, schedule, epoch_logits, ys)
        if not np.isfinite(loss):
            raise NumericError(f"training diverged at epoch {epoch}: loss={loss}")
        record = {
            "epoch": epoch,
            "loss": loss,
            "kl_weight": schedule.kl_weight,
            "temperature": schedule.temperature,
        }
        if val_set is not None and len(val_set) > 0:
            record["val_accuracy"] = accuracy(result.model, val_set)
        result.log.append(record)
        if epoch in snap_at:
            result.model.snapshots.append(params.copy())
    del epoch_logits, xs, ys  # the gate fit below holds several arrays of that size
    if result.model.is_evidential:
        logits = mlp.infer(params, train_set.features)
        result.model.gate = EvidenceGate.fit(logits, train_set.labels)
    return result


def _epoch_loss(cfg: TrainConfig, schedule, logits, y) -> float:
    """The mean over the epoch's batches of each batch's mean loss, rows in
    step order.  Runs in chunks of whole batches of at most ``mlp.BLOCK_ROWS``
    rows (or one batch) to bound memory; a row's loss ignores its chunk."""
    size = cfg.batch_size
    chunk = max(1, mlp.BLOCK_ROWS // size) * size
    means = []
    for lo in range(0, len(y), chunk):
        rows = slice(lo, lo + chunk)
        per = losses.logit_losses(cfg.objective, logits[rows], y[rows], schedule)
        full = len(per) // size * size
        means.append(per[:full].reshape(-1, size).mean(axis=1))
        if full < len(per):  # the epoch's short last batch
            means.append(per[full:].mean(keepdims=True))
    return float(np.mean(np.concatenate(means)))


def evidential_alpha(model: Model, features) -> np.ndarray:
    """Dirichlet concentrations alpha = g * softplus(logits) + 1 of an
    evidential model, one row per row of the (n, d) ``features``, with g
    from ``model.gate`` (no factor when the model has no gate).

    The one evidential scoring path: ``baselines.uios_score`` (and through it
    ``predict_records`` and ``accuracy``) and ``predict`` start from it, so
    its DataError for a standard model is theirs, as is ``mlp.infer``'s
    NumericError for a non-finite logit.  Deterministic: no dropout.
    """
    if not model.is_evidential:
        raise DataError("evidential_alpha: model was not trained with an evidential objective")

    def alpha_of(logits):
        alpha = softplus(logits)
        if model.gate is not None:
            alpha *= model.gate.factor(logits)[:, None]
        alpha += 1.0
        return alpha

    return mlp.infer(model.params, features, head=alpha_of)


def predict(model: Model, features: np.ndarray) -> SubjectiveOpinion:
    """The subjective opinions of an evidential model, without dropout.  A
    standard model raises DataError; ``predict_records(model, ds, "entropy")``
    holds its probabilities."""
    return opinion_from_alpha(evidential_alpha(model, features))


def predict_records(model: Model, ds: Dataset, method: str = "auto", **options) -> Predictions:
    """Score a dataset's rows with a named method (``baselines.METHODS``, or
    auto: ``baselines.resolve_method``) and package them for metrics/calibration.

    The one place rows become records.  ``options`` are the keywords of
    ``baselines.score_method``: snapshots, passes, jitter_sigma and seed.
    """
    from . import baselines  # baselines imports this module

    method = baselines.resolve_method(model, method)
    scores = baselines.score_method(method, model, ds.features, **options)
    return from_scores(*scores, ds.labels)


def accuracy(model: Model, ds: Dataset) -> float:
    """Share of rows whose label is ``predict_records``' class."""
    return float(np.mean(predict_records(model, ds).predicted == ds.labels))
