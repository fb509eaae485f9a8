"""Training loop: Adam hand values, convergence on separable data,
schedule logging, snapshots, determinism, and prediction semantics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evos import losses, mlp, training
from evos.baselines import entropy_score
from evos.data import Dataset, gen_blobs, one_hot, split_622
from evos.errors import DataError, NumericError
from evos.head import EvidenceGate, SubjectiveOpinion
from evos.losses import Schedule, _ce_value, loss_grad_alpha, per_sample_loss
from evos.mlp import (
    BLOCK_ROWS,
    MlpConfig,
    MlpParams,
    backward,
    forward,
    infer,
    init_params,
    make_dropout_masks,
)
from evos.numerics import sigmoid, softmax, softplus
from evos.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Model,
    TrainConfig,
    accuracy,
    adam_step,
    predict,
    predict_records,
    snapshot_epochs,
    train,
)


def scalar_params(value: float = 0.0) -> MlpParams:
    return MlpParams(weights=[np.array([[value]])], biases=[np.array([0.0])])


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, objective="nll")


def test_train_config_reference_defaults():
    cfg = TrainConfig(epochs=1)
    assert cfg.learning_rate == 1e-4
    assert cfg.weight_decay == 1e-4
    assert cfg.batch_size == 64
    assert cfg.snapshot_count == 0


# ---------------------------------------------------------------------------
# adam_step


def test_adam_zero_grads_leave_params():
    p = scalar_params(3.0)
    state = AdamState.zeros_like(p)
    g = MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    adam_step(p, g, state, learning_rate=0.1, weight_decay=0.0)
    assert p.weights[0][0, 0] == 3.0


def test_adam_first_step_unit_direction():
    # with constant grad 1 the bias-corrected moments are both exactly 1,
    # so the first update is -lr/(1+eps)
    p = scalar_params(0.0)
    state = AdamState.zeros_like(p)
    g = MlpParams(weights=[np.ones((1, 1))], biases=[np.zeros(1)])
    adam_step(p, g, state, learning_rate=0.1, weight_decay=0.0)
    assert p.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-8)
    assert state.step == 1


def test_adam_weight_decay_enters_gradient():
    p = scalar_params(10.0)
    state = AdamState.zeros_like(p)
    g = MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    adam_step(p, g, state, learning_rate=0.1, weight_decay=0.5)
    # effective grad = 0.5*10 = 5; first-step direction is sign(grad)
    assert p.weights[0][0, 0] == pytest.approx(10.0 - 0.1, abs=1e-8)


def test_adam_rejects_nan_grads():
    p = scalar_params(0.0)
    state = AdamState.zeros_like(p)
    g = MlpParams(weights=[np.array([[np.nan]])], biases=[np.zeros(1)])
    with pytest.raises(NumericError):
        adam_step(p, g, state, learning_rate=0.1)


def test_adam_step_refuses_a_non_finite_gradient_anywhere():
    # a NaN in the first weight, or inf in the last bias entry: the first and
    # the last entry of the flat layout; nothing is updated before the refusal
    for hidden, index, bad in (((4,), 0, np.nan), ((4, 5), -1, np.inf)):
        p = init_params(MlpConfig(input_dim=2, output_dim=3, hidden_dims=hidden, seed=0))
        before, state, g = p.flat.copy(), AdamState.zeros_like(p), p.copy()
        g.flat[index] = bad
        with pytest.raises(NumericError, match="^non-finite gradient$"):
            adam_step(p, g, state, learning_rate=0.1)
        assert p.flat.tobytes() == before.tobytes() and state.step == 0
        assert not state.m.any() and not state.v.any()


def test_adam_trajectories_bit_identical():
    def trajectory():
        rng = np.random.default_rng(5)
        p = scalar_params(1.0)
        state = AdamState.zeros_like(p)
        vals = []
        for _ in range(20):
            g = MlpParams(weights=[rng.normal(size=(1, 1))], biases=[np.zeros(1)])
            adam_step(p, g, state, learning_rate=0.01, weight_decay=1e-4)
            vals.append(p.weights[0][0, 0])
        return vals

    assert trajectory() == trajectory()


def _adam_per_array(params, grads, m, v, step, learning_rate, weight_decay):
    """Reference Adam: one update per weight and bias array."""
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    for p_, g_, m_, v_ in zip(params, grads, m, v):
        g_ = g_ + weight_decay * p_
        m_ *= ADAM_BETA1
        m_ += (1.0 - ADAM_BETA1) * g_
        v_ *= ADAM_BETA2
        v_ += (1.0 - ADAM_BETA2) * (g_ * g_)
        p_ -= learning_rate * (m_ / c1) / (np.sqrt(v_ / c2) + ADAM_EPS)


def test_adam_flat_step_matches_per_array_reference():
    rng = np.random.default_rng(11)
    p = init_params(MlpConfig(input_dim=2, output_dim=3, hidden_dims=(4,), seed=3))
    ref = [a.copy() for a in (*p.weights, *p.biases)]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    state = AdamState.zeros_like(p)
    for step in range(1, 8):
        g = [rng.normal(size=a.shape) for a in ref]
        adam_step(p, MlpParams(weights=g[:2], biases=g[2:]), state, 1e-2, 1e-3)
        _adam_per_array(ref, g, ref_m, ref_v, step, 1e-2, 1e-3)
        for got, want in zip((*p.weights, *p.biases), ref):
            assert np.array_equal(got, want), f"step {step}"
    assert np.array_equal(state.m, np.concatenate([a.ravel() for a in ref_m]))
    assert np.array_equal(state.v, np.concatenate([a.ravel() for a in ref_v]))


# ---------------------------------------------------------------------------
# snapshot_epochs


def test_snapshot_epochs_small_case():
    assert snapshot_epochs(10, 3) == [5, 7, 9]


def test_snapshot_epochs_properties():
    for epochs, count in ((100, 5), (7, 5), (2, 3), (400, 5)):
        eps = snapshot_epochs(epochs, count)
        assert eps == sorted(set(eps))
        assert all(epochs // 2 <= e <= epochs - 1 for e in eps)
        assert eps[-1] == epochs - 1
        assert len(eps) <= count


def test_snapshot_epochs_degenerate():
    assert snapshot_epochs(0, 5) == []
    assert snapshot_epochs(100, 0) == []


# ---------------------------------------------------------------------------
# train: convergence and contracts


@pytest.fixture(scope="module")
def separable():
    return gen_blobs(n_per_class=500, n_classes=2, seed=0)


@pytest.mark.parametrize("objective", ["tun", "standard_ce"])
def test_two_blob_convergence(separable, objective):
    cfg = TrainConfig(epochs=50, objective=objective, seed=0)
    net = MlpConfig(input_dim=2, output_dim=2, seed=0)
    result = train(separable, None, cfg, net)
    assert accuracy(result.model, separable) >= 0.99
    if objective == "tun":
        first5 = np.mean([r["loss"] for r in result.log[:5]])
        last5 = np.mean([r["loss"] for r in result.log[-5:]])
        assert last5 < first5


def test_epochs_zero_returns_initialized_model(separable):
    cfg = TrainConfig(epochs=0, seed=1)
    net = MlpConfig(input_dim=2, output_dim=2, seed=1)
    result = train(separable, None, cfg, net)
    assert result.log == []
    assert result.model.snapshots == []
    expect = init_params(net)
    for a, b in zip(result.model.params.weights, expect.weights):
        assert np.array_equal(a, b)


def test_train_rejects_empty_dataset():
    empty = Dataset(
        features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), n_classes=2, name="e"
    )
    with pytest.raises(DataError):
        train(empty, None, TrainConfig(epochs=1), MlpConfig(input_dim=2, output_dim=2))


def test_train_rejects_dim_mismatch(separable):
    with pytest.raises(DataError):
        train(
            separable,
            None,
            TrainConfig(epochs=1),
            MlpConfig(input_dim=3, output_dim=2),
        )


def test_train_raises_numeric_error_on_divergence():
    # an absurd learning rate overflows the logits within the first epoch
    ds = gen_blobs(n_per_class=40, n_classes=2, seed=0)
    for objective in ("standard_ce", "tun"):
        with pytest.raises(NumericError, match="diverged"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(
                    ds,
                    None,
                    TrainConfig(
                        epochs=3, objective=objective, seed=0, learning_rate=1e150
                    ),
                    MlpConfig(input_dim=2, output_dim=2, seed=0),
                )


def test_training_log_records_schedule(separable):
    cfg = TrainConfig(epochs=14, anneal_epochs=10, seed=2)
    net = MlpConfig(input_dim=2, output_dim=2, seed=2)
    result = train(separable, separable, cfg, net)
    assert len(result.log) == 14
    for rec in result.log:
        ep = rec["epoch"]
        assert rec["kl_weight"] == pytest.approx(min(1.0, ep / 10))
        assert rec["temperature"] == pytest.approx(0.01 + 0.99 * min(1.0, ep / 10))
        assert 0.0 <= rec["val_accuracy"] <= 1.0
        assert np.isfinite(rec["loss"])


def test_snapshots_collected_and_distinct(separable):
    cfg = TrainConfig(epochs=20, snapshot_count=3, seed=3)
    net = MlpConfig(input_dim=2, output_dim=2, seed=3)
    result = train(separable, None, cfg, net)
    snapshots = result.model.snapshots
    assert len(snapshots) == len(snapshot_epochs(20, 3)) == 3
    # snapshots are copies, not views of the live parameters
    final = result.model.params.weights[0]
    assert not np.array_equal(snapshots[0].weights[0], final)
    # in training order: the first holds the parameters after epoch 10
    short = train(separable, None, TrainConfig(epochs=11, snapshot_count=3, seed=3), net)
    assert snapshots[0].flat.tobytes() == short.model.params.flat.tobytes()


def test_train_deterministic(separable):
    def run():
        cfg = TrainConfig(epochs=5, seed=9)
        net = MlpConfig(input_dim=2, output_dim=2, seed=9)
        return train(separable, None, cfg, net).model.params

    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_dropout_changes_training_but_stays_deterministic(separable):
    base = MlpConfig(input_dim=2, output_dim=2, seed=4)
    dropped = MlpConfig(input_dim=2, output_dim=2, seed=4, dropout_rate=0.3)
    cfg = TrainConfig(epochs=3, objective="standard_ce", seed=4)
    p_base = train(separable, None, cfg, base).model.params
    p_drop1 = train(separable, None, cfg, dropped).model.params
    p_drop2 = train(separable, None, cfg, dropped).model.params
    assert not np.array_equal(p_base.weights[0], p_drop1.weights[0])
    assert np.array_equal(p_drop1.weights[0], p_drop2.weights[0])


# ---------------------------------------------------------------------------
# the step computes only the gradient; the logged loss comes from one pass
# per epoch


def _backward_allocating(trace, params, grad_out):
    """Backprop as plain NumPy that allocates every array: each layer's weight
    and bias gradients, packed like ``MlpParams.flat``.  The ReLU gate reads
    pre-activations recomputed here from the inputs, the params and the masks."""
    n_layers = len(params.weights)
    pre, h = [], trace.inputs
    for i in range(n_layers - 1):
        pre.append(h @ params.weights[i] + params.biases[i])
        h = np.maximum(pre[i], 0.0)
        if trace.masks is not None:
            h = h * trace.masks[i]
    grad_w, grad_b = [None] * n_layers, [None] * n_layers
    delta = grad_out
    for i in range(n_layers - 1, -1, -1):
        below = trace.inputs if i == 0 else trace.activations[i - 1]
        grad_w[i] = below.T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            da = delta @ params.weights[i].T
            if trace.masks is not None:
                da = da * trace.masks[i - 1]
            delta = da * (pre[i - 1] > 0.0)
    return np.concatenate([a.ravel() for a in (*grad_w, *grad_b)])


def _train_with_per_step_loss(train_set, val_set, cfg, net):
    """``train``'s loop as it ran with the loss value computed at each step:
    the batch mean of ``per_sample_loss`` on the pre-update alpha, and the
    gradient ``loss_grad_alpha * sigmoid(logits) / n`` (softmax
    cross-entropy for ``standard_ce``).  Each batch is gathered from the
    dataset; backprop, Adam and the validation accuracy are the plain forms
    ``_backward_allocating``, ``_adam_per_array`` (on the one flat vector) and
    ``predict_records``.  Returns (params, snapshots, log)."""
    params = init_params(net)
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    model = Model(config=net, params=params, objective=cfg.objective)
    y_all = one_hot(train_set.labels, train_set.n_classes)
    snap_at = set(snapshot_epochs(cfg.epochs, cfg.snapshot_count))
    snapshots, log, step = [], [], 0
    for epoch in range(cfg.epochs):
        schedule = Schedule.for_epoch(epoch, cfg.anneal_epochs)
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            xb, yb = train_set.features[sel], y_all[sel]
            masks = make_dropout_masks(net, len(sel), rng) if net.dropout_rate > 0 else None
            logits, trace = forward(params, xb, dropout_masks=masks)
            if cfg.objective == "standard_ce":
                probs = softmax(logits)
                per, grad_out = _ce_value(probs, yb), (probs - yb) / len(sel)
            else:
                alpha = softplus(logits) + 1.0
                per = per_sample_loss(cfg.objective, alpha, yb, schedule)
                grad_alpha = loss_grad_alpha(cfg.objective, alpha, yb, schedule)
                grad_out = grad_alpha * sigmoid(logits) / len(sel)
            epoch_losses.append(float(np.mean(per)))
            step += 1
            _adam_per_array([params.flat], [_backward_allocating(trace, params, grad_out)],
                            [m], [v], step, cfg.learning_rate, cfg.weight_decay)
        recs = predict_records(model, val_set)
        record = {
            "epoch": epoch,
            "loss": float(np.mean(epoch_losses)),
            "kl_weight": schedule.kl_weight,
            "temperature": schedule.temperature,
            "val_accuracy": float(np.mean(recs.predicted == recs.labels)),
        }
        log.append(record)
        if epoch in snap_at:
            snapshots.append(params.copy())
    return params, snapshots, log


@pytest.mark.parametrize("dropout_rate", [0.0, 0.25])
@pytest.mark.parametrize("objective", ["tun", "un", "standard_ce"])
def test_training_bit_identical_to_per_step_loss(objective, dropout_rate):
    # 2,070 rows in batches of 50: a short last batch of 20, and an epoch
    # pass of two chunks (2,000 rows, then 70)
    ds = gen_blobs(n_per_class=690, n_classes=3, seed=5)
    val = gen_blobs(n_per_class=30, n_classes=3, seed=6)
    cfg = TrainConfig(epochs=12, learning_rate=1e-3, batch_size=50, objective=objective,
                      seed=5, snapshot_count=3)
    net = MlpConfig(input_dim=2, output_dim=3, dropout_rate=dropout_rate, seed=5)
    result = train(ds, val, cfg, net)
    params, snapshots, log = _train_with_per_step_loss(ds, val, cfg, net)
    assert result.model.params.flat.tobytes() == params.flat.tobytes()
    assert [s.flat.tobytes() for s in result.model.snapshots] == [
        s.flat.tobytes() for s in snapshots
    ]
    assert result.log == log


def test_training_bit_identity_holds_under_a_second_blas_kernel(haswell_passes):
    passed, output = haswell_passes
    assert passed["test_training.py"] == 6, output


@pytest.mark.parametrize("epochs", [3, 7])
def test_a_run_builds_a_fixed_number_of_parameter_sets(epochs, monkeypatch):
    # the parameters, the gradient buffer and one per snapshot, however many
    # steps run; and forward, backward and Adam once per step
    built, calls = [], {"forward": 0, "backward": 0, "adam_step": 0}
    post_init = MlpParams.__post_init__

    def counted_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MlpParams, "__post_init__", counted_init)
    for owner, name in ((mlp, "forward"), (mlp, "backward"), (training, "adam_step")):
        def counted(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    ds = gen_blobs(n_per_class=690, n_classes=3, seed=5)  # 2,070 rows: 42 steps of 50
    val = gen_blobs(n_per_class=30, n_classes=3, seed=6)
    net = MlpConfig(input_dim=2, output_dim=3, dropout_rate=0.25, seed=5)
    cfg = TrainConfig(epochs=epochs, batch_size=50, seed=5, snapshot_count=2)
    model = train(ds, val, cfg, net).model
    assert len(model.snapshots) == 2
    assert len(built) == 2 + 2
    assert calls == {"forward": 42 * epochs, "backward": 42 * epochs, "adam_step": 42 * epochs}


def test_a_non_finite_gradient_names_its_epoch(monkeypatch):
    real = losses.logit_grad

    def nan_in_epoch_1(kind, logits, y, schedule):
        grad = real(kind, logits, y, schedule)
        return np.full_like(grad, np.nan) if schedule.kl_weight == 1 / 10 else grad

    monkeypatch.setattr(losses, "logit_grad", nan_in_epoch_1)
    ds = gen_blobs(n_per_class=40, n_classes=2, seed=0)
    with pytest.raises(NumericError) as info:
        train(ds, None, TrainConfig(epochs=3, seed=0))
    assert str(info.value) == "training diverged at epoch 1: non-finite gradient"
    assert str(info.value.__cause__) == "non-finite gradient"


def test_non_finite_logits_name_their_epoch(monkeypatch):
    # forward's layer loop refuses the NaN logits of a NaN first weight
    real = mlp.init_params

    def nan_weight(cfg):
        params = real(cfg)
        params.weights[0][0, 0] = np.nan
        return params

    monkeypatch.setattr(mlp, "init_params", nan_weight)
    ds = gen_blobs(n_per_class=40, n_classes=2, seed=0)
    for objective in training.OBJECTIVES:
        with pytest.raises(NumericError) as info:
            train(ds, None, TrainConfig(epochs=3, objective=objective, seed=0))
        assert str(info.value) == "training diverged at epoch 0: non-finite logits"
        assert str(info.value.__cause__) == "non-finite logits"


def test_kernels_run_once_per_step_and_once_per_epoch_chunk(monkeypatch):
    losses._log_gamma_of(3)  # ln Gamma(K) is cached per K; only the array calls count here
    rows = {"trigamma": [], "digamma": [], "log_gamma": []}
    for name, seen in rows.items():
        def counted(x, kernel=getattr(losses, name), seen=seen):
            seen.append(len(x))
            return kernel(x)

        monkeypatch.setattr(losses, name, counted)
    ds = gen_blobs(n_per_class=690, n_classes=3, seed=5)  # 2,070 rows
    train(ds, None, TrainConfig(epochs=3, batch_size=50, objective="tun", seed=5))
    chunk = BLOCK_ROWS // 50 * 50
    assert rows["trigamma"] == ([50] * 41 + [20]) * 3
    assert rows["digamma"] == rows["log_gamma"] == [chunk, 2070 - chunk] * 3
    for seen in rows.values():
        seen.clear()
    train(ds, None, TrainConfig(epochs=3, batch_size=50, objective="standard_ce", seed=5))
    assert rows == {"trigamma": [], "digamma": [], "log_gamma": []}


def test_epoch_loss_pass_memory_is_bounded():
    # the epoch pass on all 200k rows at once peaked at ~130 MiB; in chunks
    # the peak is the gate fit's, ~45 MiB
    ds = gen_blobs(n_per_class=40_000, n_classes=5, seed=3)
    tracemalloc.start()
    try:
        train(ds, None, TrainConfig(epochs=1, objective="tun", seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("objective", ["tun", "standard_ce"])
def test_non_finite_epoch_loss_raises(objective, monkeypatch):
    # the gradient path is untouched, so the NaN shows only in the epoch pass;
    # both objectives' loss values run through the one cross-entropy
    monkeypatch.setattr(losses, "_ce_value", lambda p, y, *args: np.full(len(p), np.nan))
    ds = gen_blobs(n_per_class=40, n_classes=2, seed=0)
    with pytest.raises(NumericError, match=r"training diverged at epoch 0: loss=nan"):
        train(ds, None, TrainConfig(epochs=3, objective=objective, seed=0))


# ---------------------------------------------------------------------------
# predict / predict_records


def test_predict_zero_weight_net_uniform_opinion():
    net = MlpConfig(input_dim=2, output_dim=5, seed=0)
    params = init_params(net)
    for w in params.weights:
        w[:] = 0.0
    model = Model(config=net, params=params, objective="tun")
    op = predict(model, np.zeros((1, 2)))
    assert isinstance(op, SubjectiveOpinion)
    # zero logits carry log(2) evidence per class, so u = 1/(1 + log 2)
    assert_allclose(op.probs, np.full((1, 5), 0.2), atol=1e-12)
    assert op.uncertainty[0] == pytest.approx(1.0 / (1.0 + math.log(2.0)), abs=1e-12)
    assert op.predicted_class[0] == 0  # tie broken to lowest index


def test_predict_trained_model_on_centroids(separable):
    cfg = TrainConfig(epochs=50, objective="tun", seed=0)
    net = MlpConfig(input_dim=2, output_dim=2, seed=0)
    model = train(separable, None, cfg, net).model
    centers = np.asarray(separable.meta["centers"])
    op = predict(model, centers)
    assert list(op.predicted_class) == [0, 1]


def test_predict_standard_model_is_data_error():
    net = MlpConfig(input_dim=2, output_dim=2, seed=1)
    model = Model(config=net, params=init_params(net), objective="standard_ce")
    # the message of evidential_alpha, which uios_score reaches too
    with pytest.raises(DataError, match="^evidential_alpha: model was not trained with an evidential"):
        predict(model, np.zeros((1, 2)))


def test_predict_records_standard_uses_normalized_entropy(separable):
    cfg = TrainConfig(epochs=2, objective="standard_ce", seed=1)
    net = MlpConfig(input_dim=2, output_dim=2, seed=1)
    model = train(separable, None, cfg, net).model
    recs = predict_records(model, separable)
    assert (recs.uncertainty >= 0).all() and (recs.uncertainty <= 1).all()
    probs, _ = entropy_score(model, separable.features)
    expect = -np.sum(probs * np.log(np.clip(probs, 1e-300, 1)), axis=1) / math.log(2)
    assert_allclose(recs.uncertainty, expect, atol=1e-9)


def test_uncertainty_separates_errors_on_overlapping_blobs():
    # premise of threshold calibration: wrong predictions carry more
    # uncertainty than right ones on in-distribution data
    ds = gen_blobs(seed=42)
    tr, va, _ = split_622(ds, seed=42)
    cfg = TrainConfig(epochs=60, objective="tun", seed=42)
    net = MlpConfig(input_dim=2, output_dim=5, seed=42)
    model = train(tr, va, cfg, net).model
    recs = predict_records(model, va)
    wrong = recs.predicted != recs.labels
    assert 0 < wrong.sum() < len(recs)
    assert recs.uncertainty[wrong].mean() > recs.uncertainty[~wrong].mean()


# ---------------------------------------------------------------------------
# evidence gate


@pytest.fixture(scope="module")
def gated(separable):
    cfg = TrainConfig(epochs=50, objective="tun", seed=0)
    return train(separable, None, cfg, MlpConfig(input_dim=2, output_dim=2, seed=0)).model


@pytest.mark.parametrize("objective", ["standard_ce", "un", "tun"])
def test_gate_fitted_for_evidential_objectives_only(separable, objective):
    model = train(separable, None, TrainConfig(epochs=1, objective=objective, seed=0)).model
    assert (model.gate is not None) == model.is_evidential


def test_gate_keeps_training_rows_bitwise_plain(separable, gated):
    assert np.all(gated.gate.factor(infer(gated.params, separable.features)) == 1.0)
    plain = dataclasses.replace(gated, gate=None)
    op, ref = predict(gated, separable.features), predict(plain, separable.features)
    assert op.uncertainty.tobytes() == ref.uncertainty.tobytes()
    assert op.probs.tobytes() == ref.probs.tobytes()


def test_gate_uncertainty_rises_along_a_ray(gated):
    # plain ReLU evidence grows along the ray, so its u falls; once the
    # logits leave the training support the gate turns that around
    ray = np.array([10.0, 30.0, 100.0, 300.0, 1000.0])[:, None] * np.array([[0.6, 0.8]])
    op = predict(gated, ray)
    u, u_plain = op.uncertainty, predict(dataclasses.replace(gated, gate=None), ray).uncertainty
    assert np.all(np.diff(u_plain) < 0.0) and u_plain[-1] < 0.01
    assert np.all(u >= u_plain)
    acting = u > u_plain
    first = int(np.argmax(acting))
    assert np.all(acting[first:]) and np.all(np.diff(u[first:]) >= 0.0)
    assert u[-1] > 0.999
    # a common factor keeps the class, until g * e drops below the float64
    # resolution of alpha = 1 and the opinion turns uniform
    kept = u < 0.99
    assert kept.any()
    assert np.array_equal(
        op.predicted_class[kept], np.argmax(infer(gated.params, ray[kept]), axis=1)
    )


def test_gate_fit_degenerate_input_stays_finite():
    # logit 2 never varies and class 1 of 3 has no rows
    logits = np.array([[0.0, 1.0, 5.0], [2.0, 3.0, 5.0], [10.0, -3.0, 5.0], [12.0, -1.0, 5.0]])
    gate = EvidenceGate.fit(logits, np.array([0, 0, 2, 2]))
    assert gate.means.shape == (2, 3)
    assert np.all(np.isfinite(gate.means)) and np.isfinite(gate.onset)
    assert gate.scale[2] == 0.0 and np.all(np.isfinite(gate.scale))
    assert np.all(gate.factor(logits) == 1.0)
    # on the class-0 mean but far out along the constant logit: no distance;
    # far out along the others: damped
    g = gate.factor(np.array([[1.0, 2.0, 500.0], [1e3, -1e3, 5.0]]))
    assert g[0] == 1.0
    assert 0.0 <= g[1] < 1e-6
