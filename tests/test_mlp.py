"""Backbone network: initialization statistics, forward against a re-derived
matrix-math oracle, hand backprop against finite differences, dropout
semantics, and determinism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evos.head import opinion_from_features
from evos.losses import LOSS_KINDS, Schedule, objective
from evos.mlp import (
    BLOCK_ROWS,
    ForwardTrace,
    MlpConfig,
    MlpParams,
    backward,
    check_finite,
    finite_diff_check,
    forward,
    infer,
    init_params,
    make_dropout_masks,
)
from evos.errors import NumericError


def small_config(**kw) -> MlpConfig:
    defaults = dict(input_dim=2, output_dim=3, hidden_dims=(4,), seed=0)
    defaults.update(kw)
    return MlpConfig(**defaults)


# ---------------------------------------------------------------------------
# config / init


def test_config_rejects_bad_dims():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=0, output_dim=3)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, output_dim=3, hidden_dims=(0,))
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, output_dim=3, dropout_rate=1.0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, output_dim=3, activation="tanh")


def test_init_deterministic():
    cfg = small_config(seed=42)
    a, b = init_params(cfg), init_params(cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_shapes():
    p = init_params(small_config(hidden_dims=(4,)))
    assert [w.shape for w in p.weights] == [(2, 4), (4, 3)]
    assert [b.shape for b in p.biases] == [(4,), (3,)]
    assert all((b == 0).all() for b in p.biases)


def test_init_he_statistics():
    cfg = MlpConfig(input_dim=32, output_dim=3125, hidden_dims=(), seed=7)
    w = init_params(cfg).weights[0]  # 32 x 3125 = 1e5 draws, fan_in 32
    n = w.size
    sigma = np.sqrt(2.0 / 32.0)
    assert abs(w.mean()) < 3.0 * sigma / np.sqrt(n)
    assert w.std() == pytest.approx(sigma, rel=0.02)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_zero_output():
    cfg = small_config()
    p = init_params(cfg)
    for w in p.weights:
        w[:] = 0.0
    out, _ = forward(p, np.array([[1.0, -2.0], [3.0, 4.0]]))
    assert np.array_equal(out, np.zeros((2, 3)))


def test_forward_identity_single_layer():
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dims=(), seed=0)
    p = init_params(cfg)
    p.weights[0][:] = np.eye(2)
    out, _ = forward(p, np.array([[1.0, 2.0]]))
    assert_allclose(out, [[1.0, 2.0]], atol=0)


def test_forward_matches_matrix_oracle():
    cfg = small_config(hidden_dims=(5, 4), seed=3)
    p = init_params(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 2))
    # independent re-derivation with plain matmuls
    h = x
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    expect = h @ p.weights[-1] + p.biases[-1]
    out, _ = forward(p, x)
    assert_allclose(out, expect, atol=1e-12)


@pytest.mark.parametrize("with_masks", [False, True])
def test_infer_bit_identical_to_forward(with_masks):
    cfg = small_config(hidden_dims=(5, 4), dropout_rate=0.3, seed=3)
    p = init_params(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64, 2))
    masks = make_dropout_masks(cfg, 64, rng) if with_masks else None
    out, _ = forward(p, x, dropout_masks=masks)
    assert infer(p, x, dropout_masks=masks).tobytes() == out.tobytes()


B = BLOCK_ROWS


@pytest.mark.parametrize("with_masks", [False, True])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_infer_bit_identical_to_forward_at_block_edges(n, with_masks):
    # 3B + 7 ends in a short block; B + 1 would end in a lone row, which
    # numpy multiplies by another kernel
    cfg = MlpConfig(input_dim=2, output_dim=5, dropout_rate=0.25, seed=11)
    p = init_params(cfg)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 5.0, size=(n, 2))
    masks = make_dropout_masks(cfg, n, rng) if with_masks else None
    out, _ = forward(p, x, dropout_masks=masks)
    got = infer(p, x, dropout_masks=masks)
    assert got.shape == out.shape == (n, 5)
    assert np.array_equal(got, out)


def test_infer_head_sees_each_block_once():
    p = init_params(MlpConfig(input_dim=2, output_dim=5, seed=1))
    x = np.random.default_rng(2).normal(size=(2 * B + 1, 2))
    seen = []

    def head(logits):
        seen.append(len(logits))
        return logits.sum(axis=1)

    got = infer(p, x, head=head)
    assert seen == [B, B + 1]
    assert np.array_equal(got, forward(p, x)[0].sum(axis=1))
    seen.clear()
    assert infer(p, x[:0], head=head).shape == (0,)
    assert seen == [0]


@pytest.mark.parametrize("fn", [forward, infer])
@pytest.mark.parametrize("bad", ["one_row", "extra_row", "extra_column"])
def test_dropout_masks_of_the_wrong_shape_raise(fn, bad):
    # a (1, h) mask would broadcast one mask over every row
    cfg = small_config(hidden_dims=(5, 4), dropout_rate=0.3)
    p = init_params(cfg)
    x = np.zeros((4, 2))
    rows, extra = {"one_row": (1, 0), "extra_row": (5, 0), "extra_column": (4, 1)}[bad]
    masks = [np.ones((rows, h + extra)) for h in cfg.hidden_dims]
    with pytest.raises(ValueError, match="dropout mask"):
        fn(p, x, dropout_masks=masks)
    with pytest.raises(ValueError, match="dropout mask"):
        fn(p, x, dropout_masks=masks[:1])


def test_forward_shape_mismatch():
    p = init_params(small_config())
    with pytest.raises(ValueError):
        forward(p, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        infer(p, np.zeros((4, 3)))


def test_forward_trace_caches_batch_shapes():
    p = init_params(small_config(hidden_dims=(4, 4)))
    x = np.zeros((5, 2))
    _, trace = forward(p, x)
    assert isinstance(trace, ForwardTrace)
    assert trace.inputs.shape == (5, 2)
    assert [z.shape for z in trace.pre_activations] == [(5, 4), (5, 4), (5, 3)]


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_grad_out():
    cfg = small_config(seed=1)
    p = init_params(cfg)
    _, trace = forward(p, np.random.default_rng(0).normal(size=(3, 2)))
    g = backward(trace, p, np.zeros((3, 3)))
    assert all((w == 0).all() for w in g.weights)
    assert all((b == 0).all() for b in g.biases)


def test_backward_linear_layer_column_sums():
    cfg = MlpConfig(input_dim=3, output_dim=2, hidden_dims=(), seed=0)
    p = init_params(cfg)
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    _, trace = forward(p, x)
    g = backward(trace, p, np.ones((2, 2)))  # L = sum of all outputs
    assert_allclose(g.weights[0], np.repeat(x.sum(axis=0)[:, None], 2, axis=1))
    assert_allclose(g.biases[0], [2.0, 2.0])


def test_relu_blocks_gradients_when_dead():
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dims=(3,), seed=0)
    p = init_params(cfg)
    p.biases[0][:] = -100.0  # force all hidden pre-activations negative
    x = np.random.default_rng(1).normal(size=(4, 2)) * 0.01
    out, trace = forward(p, x)
    g = backward(trace, p, np.ones((4, 2)))
    assert np.array_equal(g.weights[0], np.zeros_like(g.weights[0]))


def test_check_finite_raises():
    p = init_params(small_config())
    p.weights[0][0, 0] = np.nan
    with pytest.raises(NumericError):
        check_finite(p)
    p = init_params(small_config(hidden_dims=(4, 5)))
    p.biases[-1][-1] = np.inf  # the last entry of the flat layout
    with pytest.raises(NumericError):
        check_finite(p)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_masks_prescaled():
    cfg = small_config(hidden_dims=(1000,), dropout_rate=0.3)
    masks = make_dropout_masks(cfg, 4, np.random.default_rng(0))
    (m,) = masks
    assert m.shape == (4, 1000)
    keep = 1.0 - 0.3
    assert_allclose(np.unique(m), [0.0, 1.0 / keep], atol=1e-15)
    # kept fraction concentrates around keep
    assert np.mean(m > 0) == pytest.approx(keep, abs=0.03)


def test_dropout_requires_positive_rate():
    with pytest.raises(ValueError):
        make_dropout_masks(small_config(), 4, np.random.default_rng(0))


def test_forward_ignores_dropout_without_masks():
    cfg = small_config(dropout_rate=0.5, seed=2)
    p = init_params(cfg)
    x = np.random.default_rng(3).normal(size=(5, 2))
    out1, _ = forward(p, x)
    out2, _ = forward(p, x)
    assert np.array_equal(out1, out2)


def test_dropout_zero_mask_kills_hidden_layer():
    cfg = small_config(hidden_dims=(4,), dropout_rate=0.5, seed=2)
    p = init_params(cfg)
    x = np.random.default_rng(3).normal(size=(5, 2))
    masks = [np.zeros((5, 4))]
    out, _ = forward(p, x, dropout_masks=masks)
    assert_allclose(out, np.repeat(p.biases[-1][None, :], 5, axis=0), atol=1e-15)


def test_backward_replays_dropout_masks():
    # gradients with a fixed mask must match finite differences of the
    # masked forward computation
    cfg = small_config(hidden_dims=(6,), dropout_rate=0.4, seed=5)
    p = init_params(cfg)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 2))
    masks = make_dropout_masks(cfg, 3, rng)

    def masked_loss(params):
        out, _ = forward(params, x, dropout_masks=masks)
        return float(np.sum(out**2))

    _, trace = forward(p, x, dropout_masks=masks)
    out, _ = forward(p, x, dropout_masks=masks)
    g = backward(trace, p, 2.0 * out)
    h = 1e-6
    for w, gw in zip(p.weights, g.weights):
        idx = (0, 0)
        w[idx] += h
        hi = masked_loss(p)
        w[idx] -= 2 * h
        lo = masked_loss(p)
        w[idx] += h
        assert gw[idx] == pytest.approx((hi - lo) / (2 * h), rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# finite-difference harness over every objective


def _loss_fn_for(kind):
    sch = Schedule.for_epoch(5)  # lambda=0.5, tau=0.505: all terms active

    def loss_fn(outputs):
        n, k = outputs.shape
        return objective(kind, outputs, np.eye(k)[np.arange(n) % k], sch)

    return loss_fn


@pytest.mark.parametrize("kind", [pytest.param("standard_ce", id="softmax_ce"), *LOSS_KINDS])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_finite_diff_check_all_losses(kind, seed):
    # seeds chosen so no ReLU pre-activation sits within the h=1e-5 stencil
    # of its kink (zero biases make exact zeros possible, e.g. seed 0 here)
    cfg = MlpConfig(input_dim=3, output_dim=4, hidden_dims=(8, 6), seed=seed)
    p = init_params(cfg)
    x = np.random.default_rng(100 + seed).normal(size=(5, 3))
    err = finite_diff_check(p, x, _loss_fn_for(kind))
    assert err < 1e-4, f"{kind} seed {seed}: max rel err {err:.2e}"


def test_determinism_forward_and_gradients():
    cfg = small_config(seed=11)
    x = np.random.default_rng(12).normal(size=(7, 2))

    def once():
        p = init_params(cfg)
        out, trace = forward(p, x)
        g = backward(trace, p, np.ones_like(out))
        return out, g

    out1, g1 = once()
    out2, g2 = once()
    assert np.array_equal(out1, out2)
    for a, b in zip(g1.weights, g2.weights):
        assert np.array_equal(a, b)


def test_params_copy_is_deep():
    p = init_params(small_config())
    q = p.copy()
    assert np.array_equal(p.flat, q.flat)
    assert not any(np.shares_memory(a, q.flat) for a in (p.flat, *p.weights, *p.biases))
    q.weights[0][0, 0] += 1.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]


# ---------------------------------------------------------------------------
# flat parameter layout


def test_flat_and_views_share_memory():
    p = init_params(small_config(hidden_dims=(4, 5)))
    assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
    p.flat[:] = np.arange(p.flat.size)
    assert p.weights[0][0, 0] == 0.0 and p.weights[0][0, 1] == 1.0
    assert p.biases[0][0] == sum(w.size for w in p.weights)
    assert p.biases[-1][-1] == p.flat.size - 1
    p.weights[1][2, 3] = -7.0
    p.biases[1][:] = 42.0
    start = p.weights[0].size + 2 * 5 + 3  # weights[1] is (4, 5), row-major
    assert p.flat[start] == -7.0
    assert (p.flat[-p.biases[2].size - 5 : -p.biases[2].size] == 42.0).all()


def test_ravel_is_weights_then_biases():
    p = init_params(small_config(hidden_dims=(4, 5)))
    p.biases[0][:] = 1.5  # nonzero, so a swapped block would show
    expect = np.concatenate([a.ravel() for a in (*p.weights, *p.biases)])
    assert np.array_equal(p.ravel(), expect)
    assert not np.shares_memory(p.ravel(), p.flat)


def test_constructor_packs_a_copy():
    w = [np.ones((2, 3)), np.ones((3, 1))]
    b = [np.zeros(3), np.zeros(1)]
    p = MlpParams(weights=w, biases=b)
    p.flat[:] = 5.0
    assert all((a == 1.0).all() for a in w) and all((a == 0.0).all() for a in b)
    assert [a.shape for a in p.weights] == [(2, 3), (3, 1)]
    assert [a.shape for a in p.biases] == [(3,), (1,)]
