"""Backbone network: initialization statistics, forward against a re-derived
matrix-math oracle, hand backprop against finite differences, dropout
semantics, and determinism."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evos import mlp
from evos.losses import LOSS_KINDS
from evos.mlp import (
    BLOCK_ROWS,
    ForwardTrace,
    MlpConfig,
    MlpParams,
    backward,
    forward,
    infer,
    init_params,
    make_dropout_masks,
    row_blocks,
)
from evos.errors import NumericError
from gradcheck import finite_diff_check, loss_fn_for


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
    # each block's bits are forward's on that block's rows alone; 3B + 7 ends
    # in a short block, and B + 1 would end in a lone row, which numpy
    # multiplies by another kernel
    cfg = MlpConfig(input_dim=2, output_dim=5, dropout_rate=0.25, seed=11)
    p = init_params(cfg)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 5.0, size=(n, 2))
    masks = make_dropout_masks(cfg, n, rng) if with_masks else None
    want = [forward(p, x[rows], None if masks is None else [m[rows] for m in masks])[0]
            for rows in row_blocks(n)]
    got = infer(p, x, dropout_masks=masks)
    assert got.shape == (n, 5)
    assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1, 3 * B + 7])
def test_row_blocks_cover_the_rows_in_order_without_a_lone_row(n):
    blocks = row_blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert all(1 < m <= B + 1 for m in sizes[:-1])
    assert sizes[-1] <= B + 1 and (sizes[-1] > 1 or n <= 1)


def test_infer_head_sees_each_block_once():
    p = init_params(MlpConfig(input_dim=2, output_dim=5, seed=1))
    x = np.random.default_rng(2).normal(size=(2 * B + 1, 2))
    seen = []

    def head(logits):
        seen.append(len(logits))
        return logits.sum(axis=1)

    got = infer(p, x, head=head)
    assert seen == [B, B + 1]
    want = [forward(p, x[rows])[0].sum(axis=1) for rows in row_blocks(len(x))]
    assert got.tobytes() == np.concatenate(want).tobytes()
    seen.clear()
    assert infer(p, x[:0], head=head).shape == (0,)
    assert seen == [0]


def test_infer_refuses_non_finite_logits_before_any_head():
    # the gate fit calls infer with no head; a scorer's head never sees a NaN
    # row; training's forward runs the same layer loop and its check
    p = init_params(MlpConfig(input_dim=2, output_dim=5, seed=1))
    p.weights[-1][0, 0] = np.nan
    x = np.random.default_rng(2).normal(size=(8, 2))
    seen = []
    for head in (None, seen.append):
        with pytest.raises(NumericError, match="^non-finite logits$"):
            infer(p, x, head=head)
    assert seen == []
    with pytest.raises(NumericError, match="^non-finite logits$"):
        forward(p, x)


def test_forward_shape_mismatch():
    p = init_params(small_config())
    with pytest.raises(ValueError):
        forward(p, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        infer(p, np.zeros((4, 3)))


def test_forward_trace_caches_batch_shapes():
    p = init_params(small_config(hidden_dims=(4, 4)))
    x = np.random.default_rng(3).normal(size=(5, 2))
    out, trace = forward(p, x)
    assert isinstance(trace, ForwardTrace)
    assert trace.inputs is x and trace.masks is None
    assert [a.shape for a in trace.activations] == [(5, 4), (5, 4)]
    h = x  # the activations are the hidden layers' ReLU outputs, bit for bit
    for w, b, got in zip(p.weights, p.biases, trace.activations):
        h = np.maximum(h @ w + b, 0.0)
        assert got.tobytes() == h.tobytes()
    assert out.tobytes() == (h @ p.weights[-1] + p.biases[-1]).tobytes()


def test_mlp_has_one_layer_loop():
    # forward and infer share one loop over the layers
    tree = ast.parse(Path(mlp.__file__).read_text())
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and "zip(params.weights, params.biases)" in ast.unparse(node.iter)]
    assert len(loops) == 1


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_grad_out():
    cfg = small_config(seed=1)
    p = init_params(cfg)
    _, trace = forward(p, np.random.default_rng(0).normal(size=(3, 2)))
    g = backward(trace, p, np.zeros((3, 3)), out=p.copy())
    assert all((w == 0).all() for w in g.weights)
    assert all((b == 0).all() for b in g.biases)


def test_backward_linear_layer_column_sums():
    cfg = MlpConfig(input_dim=3, output_dim=2, hidden_dims=(), seed=0)
    p = init_params(cfg)
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    _, trace = forward(p, x)
    g = backward(trace, p, np.ones((2, 2)), out=p.copy())  # L = sum of all outputs
    assert_allclose(g.weights[0], np.repeat(x.sum(axis=0)[:, None], 2, axis=1))
    assert_allclose(g.biases[0], [2.0, 2.0])


def test_relu_blocks_gradients_when_dead():
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dims=(3,), seed=0)
    p = init_params(cfg)
    p.biases[0][:] = -100.0  # force all hidden pre-activations negative
    x = np.random.default_rng(1).normal(size=(4, 2)) * 0.01
    out, trace = forward(p, x)
    g = backward(trace, p, np.ones((4, 2)), out=p.copy())
    assert np.array_equal(g.weights[0], np.zeros_like(g.weights[0]))


# ---------------------------------------------------------------------------
# dropout


def test_dropout_masks_prescaled():
    cfg = small_config(hidden_dims=(1000,), dropout_rate=0.3)
    masks = make_dropout_masks(cfg, 4, np.random.default_rng(0))
    (m,) = masks
    assert m.shape == (4, 1000)
    cut = round(0.3 * 2**16)
    assert np.unique(m).tolist() == [0.0, 2**16 / (2**16 - cut)]
    # kept fraction concentrates around 1 - rate
    assert np.mean(m > 0) == pytest.approx(1.0 - 0.3, abs=0.03)


def test_dropout_requires_positive_rate():
    with pytest.raises(ValueError, match="make_dropout_masks: dropout_rate 0.0"):
        make_dropout_masks(small_config(), 4, np.random.default_rng(0))


def reference_masks(cfg, n, bits, passes):
    """``passes`` passes' masks on ``n`` rows in plain numpy: each layer takes
    the next ceil(n * h / 4) raw outputs of ``bits``, splits each into four
    16-bit words, lowest first, and keeps the first n * h of them, row-major;
    a word below round(rate * 2**16) drops its unit."""
    cut = round(cfg.dropout_rate * 2**16)
    out = []
    for _ in range(passes):
        out.append([])
        for h in cfg.hidden_dims:
            raw = bits.random_raw(-(-n * h // 4))
            words = (raw[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)
            keep = words.ravel()[: n * h].reshape(n, h) >= cut
            out[-1].append(keep * (2**16 / (2**16 - cut)))
    return out


@pytest.mark.parametrize("n", [3, 5, 7, B + 3, 2 * B + 13])
@pytest.mark.parametrize("rows", ["all", "blocks"])
def test_dropout_mask_rows_where_a_layer_ends_inside_an_output(n, rows):
    # with widths 32 and 7 and odd n, layer and pass boundaries fall inside a
    # 64-bit output: its unused words are skipped, and the next layer starts
    # on a fresh output; mc_drop draws block j's passes from (seed, j)
    cfg = MlpConfig(input_dim=2, output_dim=5, hidden_dims=(32, 7), dropout_rate=0.25)
    assert (n * 7) % 4 and (n * 32 + n * 7) % 4
    for j, block in enumerate([slice(0, n)] if rows == "all" else row_blocks(n)):
        m = block.stop - block.start
        rng = np.random.default_rng((3, j))
        got = [make_dropout_masks(cfg, m, rng) for _ in range(4)]
        want = reference_masks(cfg, m, np.random.PCG64((3, j)), passes=4)
        assert [[g.tobytes() for g in p] for p in got] == [[w.tobytes() for w in p] for p in want]


def test_dropout_mask_rows_word_order_is_pinned():
    # the first words of PCG64(0), little-endian within each output: a unit
    # is kept when its word is at least 2**15 at rate 0.5
    first_words = [33375, 55746, 60367, 41743, 55073, 33497, 48632, 17680,
                   59576, 20173, 15785, 2685]
    cfg = small_config(hidden_dims=(12,), dropout_rate=0.5)
    (mask,) = make_dropout_masks(cfg, 1, np.random.default_rng(0))
    assert mask.tolist() == [[2.0 if w >= 2**15 else 0.0 for w in first_words]]
    assert np.random.PCG64(0).random_raw(3).astype("<u8").view("<u2").tolist() == first_words


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5])
def test_dropout_mask_rows_drop_share_and_mean(rate):
    # over 10 passes of 2B x 32 units the drop share is binomial around
    # cut / 2**16, and the mean mask around 1 (exactly 1 in expectation)
    cfg = small_config(hidden_dims=(32,), dropout_rate=rate)
    n, rng = 2 * B, np.random.default_rng(5)
    masks = np.stack([make_dropout_masks(cfg, n, rng)[0] for _ in range(10)])
    p = round(rate * 2**16) / 2**16
    assert abs(p - rate) <= 2**-17
    sd = np.sqrt(p * (1.0 - p) / masks.size)
    assert abs(np.mean(masks == 0.0) - p) < 5.0 * sd
    scale = 1.0 / (1.0 - p)
    assert set(np.unique(masks)) == {0.0, scale}
    assert abs(np.mean(masks) - 1.0) < 5.0 * sd * scale


@pytest.mark.parametrize(
    "rate", [2**-18, np.nextafter(2**-17, 0.0), 2**-17, 1.0 - 2**-17, np.nextafter(1.0, 0.0)]
)
def test_dropout_mask_rows_rejects_rates_the_16_bit_cut_cannot_hold(rate):
    # up to 2**-17 the cut rounds (half to even) to 0 and nothing is
    # dropped; from 1 - 2**-17 on it rounds to 2**16, every unit is dropped
    # and the scale is infinite
    cfg = small_config(dropout_rate=rate)
    with pytest.raises(ValueError, match=f"make_dropout_masks: dropout_rate {rate}"):
        make_dropout_masks(cfg, 4, np.random.default_rng(0))


@pytest.mark.parametrize("rate", [1.5 * 2**-17, 1.0 - 2**-16])
def test_dropout_mask_rows_accepts_the_rates_next_to_the_edges(rate):
    cfg = small_config(hidden_dims=(4,), dropout_rate=rate)
    (mask,) = make_dropout_masks(cfg, 4, np.random.default_rng(0))
    assert np.all(np.isfinite(mask)) and mask.shape == (4, 4)


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


def test_backward_fills_the_buffer_it_is_given():
    cfg = small_config(hidden_dims=(5, 6), dropout_rate=0.5, seed=2)
    p = init_params(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 2))
    out, trace = forward(p, x, dropout_masks=make_dropout_masks(cfg, 7, rng))
    grad_out = rng.normal(size=out.shape)
    kept = grad_out.copy()
    fresh = backward(trace, p, grad_out, out=p.copy())
    buf = init_params(small_config(hidden_dims=(5, 6), seed=9))
    assert backward(trace, p, grad_out, out=buf) is buf
    assert buf.flat.tobytes() == fresh.flat.tobytes()
    assert grad_out.tobytes() == kept.tobytes()


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
    g = backward(trace, p, 2.0 * out, out=p.copy())
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


@pytest.mark.parametrize("kind", [pytest.param("standard_ce", id="softmax_ce"), *LOSS_KINDS])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_finite_diff_check_all_losses(kind, seed):
    # seeds chosen so no ReLU pre-activation sits within the h=1e-5 stencil
    # of its kink (zero biases make exact zeros possible, e.g. seed 0 here)
    cfg = MlpConfig(input_dim=3, output_dim=4, hidden_dims=(8, 6), seed=seed)
    p = init_params(cfg)
    x = np.random.default_rng(100 + seed).normal(size=(5, 3))
    err = finite_diff_check(p, x, loss_fn_for(kind))
    assert err < 1e-4, f"{kind} seed {seed}: max rel err {err:.2e}"


def test_determinism_forward_and_gradients():
    cfg = small_config(seed=11)
    x = np.random.default_rng(12).normal(size=(7, 2))

    def once():
        p = init_params(cfg)
        out, trace = forward(p, x)
        g = backward(trace, p, np.ones_like(out), out=p.copy())
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


def test_flat_is_weights_then_biases():
    p = init_params(small_config(hidden_dims=(4, 5)))
    p.biases[0][:] = 1.5  # nonzero, so a swapped block would show
    expect = np.concatenate([a.ravel() for a in (*p.weights, *p.biases)])
    assert np.array_equal(p.flat, expect)


def test_constructor_packs_a_copy():
    w = [np.ones((2, 3)), np.ones((3, 1))]
    b = [np.zeros(3), np.zeros(1)]
    p = MlpParams(weights=w, biases=b)
    p.flat[:] = 5.0
    assert all((a == 1.0).all() for a in w) and all((a == 0.0).all() for a in b)
    assert [a.shape for a in p.weights] == [(2, 3), (3, 1)]
    assert [a.shape for a in p.biases] == [(3,), (1,)]
