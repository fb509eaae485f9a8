"""The five uncertainty scoring methods share one contract: per sample, a
probability vector plus a scalar uncertainty in [0, 1]."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evos import baselines, mlp
from evos.baselines import (
    METHODS,
    ensemble_score,
    entropy_score,
    mc_dropout_score,
    score_method,
    tta_score,
    uios_score,
)
from evos.data import Dataset, circle_centers, gen_blobs, split_622
from evos.errors import DataError, NumericError
from evos.head import EvidenceGate
from evos.mlp import BLOCK_ROWS, MlpConfig
from evos.numerics import softplus
from evos.training import Model, TrainConfig, evidential_alpha, predict_records, train

STANDARD_MODEL_ERROR = "^evidential_alpha: model was not trained with an evidential objective$"

LN2 = np.log(2.0)


def linear_model(biases, objective="standard_ce", input_dim=2):
    """A no-hidden-layer net with zero weights: output = biases for any x."""
    cfg = MlpConfig(
        input_dim=input_dim, output_dim=len(biases), hidden_dims=(), seed=0
    )
    params = mlp.init_params(cfg)
    params.weights[0][:] = 0.0
    params.biases[0][:] = np.asarray(biases, dtype=np.float64)
    return Model(config=cfg, params=params, objective=objective)


@pytest.fixture(scope="module")
def bench_splits():
    return split_622(gen_blobs(seed=42), seed=42)


@pytest.fixture(scope="module")
def standard_result(bench_splits):
    tr, va, _ = bench_splits
    return train(
        tr,
        va,
        TrainConfig(epochs=80, objective="standard_ce", seed=42, snapshot_count=5),
        MlpConfig(input_dim=2, output_dim=5, seed=42),
    )


@pytest.fixture(scope="module")
def dropout_model(bench_splits):
    tr, va, _ = bench_splits
    return train(
        tr,
        va,
        TrainConfig(epochs=80, objective="standard_ce", seed=42),
        MlpConfig(input_dim=2, output_dim=5, dropout_rate=0.25, seed=42),
    ).model


@pytest.fixture(scope="module")
def evidential_model(bench_splits):
    tr, va, _ = bench_splits
    return train(
        tr,
        va,
        TrainConfig(epochs=80, objective="tun", seed=42),
        MlpConfig(input_dim=2, output_dim=5, seed=42),
    ).model


@pytest.fixture(scope="module")
def probe_points():
    centers = circle_centers(5, radius=4.0)
    overlap = ((centers[0] + centers[1]) / 2.0)[None, :]
    center = centers[0][None, :]
    return overlap, center


def test_method_names_pinned():
    assert METHODS == ("uios", "entropy", "mc_drop", "ensemble", "tta")


# ---------------------------------------------------------------------------
# entropy


def test_entropy_one_hot_output_zero_uncertainty():
    model = linear_model([1000.0, 0.0])
    probs, u = entropy_score(model, np.zeros((3, 2)))
    assert_allclose(probs, [[1.0, 0.0]] * 3)
    assert_allclose(u, 0.0)


def test_entropy_uniform_output_max_uncertainty():
    model = linear_model([0.0, 0.0])
    probs, u = entropy_score(model, np.zeros((1, 2)))
    assert_allclose(probs, [[0.5, 0.5]])
    assert u[0] == pytest.approx(1.0, abs=1e-15)  # ln2 / ln2


def test_entropy_uniform_five_classes():
    model = linear_model(np.zeros(5))
    _, u = entropy_score(model, np.zeros((2, 2)))
    assert_allclose(u, 1.0)


@pytest.mark.parametrize("k", [2, 5, 7, 11])
def test_entropy_of_near_uniform_rows_stays_at_most_one(k):
    # entropy / ln K of such rows can round an ulp or two above 1
    model = linear_model(np.random.default_rng(k).standard_normal(k) * 1e-9)
    x = np.random.default_rng(0).standard_normal((64, 2))
    model.params.weights[0][:] = np.random.default_rng(1).standard_normal((2, k)) * 1e-9
    _, u = entropy_score(model, x)
    assert u.max() == 1.0
    recs = predict_records(model, Dataset(x, np.zeros(64, dtype=np.int64), k))
    assert recs.uncertainty.tobytes() == u.tobytes()


# ---------------------------------------------------------------------------
# uios


def test_uios_zero_logits_gives_known_uncertainty():
    # logits 0 -> evidence softplus(0) = ln 2 per class
    model = linear_model([0.0, 0.0], objective="tun")
    probs, u = uios_score(model, np.zeros((4, 2)))
    assert_allclose(probs, 0.5)
    assert_allclose(u, 1.0 / (1.0 + LN2))


def test_uios_rejects_standard_model(standard_result):
    with pytest.raises(DataError, match=STANDARD_MODEL_ERROR):
        uios_score(standard_result.model, np.zeros((1, 2)))


def test_uios_on_trained_model(evidential_model, bench_splits):
    _, _, te = bench_splits
    probs, u = uios_score(evidential_model, te.features)
    assert probs.shape == (len(te), 5)
    assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((u >= 0.0) & (u <= 1.0))


# ---------------------------------------------------------------------------
# mc_drop


def test_mc_dropout_rejects_a_model_without_dropout(standard_result):
    with pytest.raises(ValueError, match="dropout_rate 0.0 drops no unit"):
        mc_dropout_score(standard_result.model, np.array([[0.5, -0.5], [2.0, 1.0]]))


def test_mc_dropout_deterministic_per_seed(dropout_model):
    x = np.array([[1.0, 1.0], [-2.0, 0.5]])
    p1, u1 = mc_dropout_score(dropout_model, x, passes=10, seed=3)
    p2, u2 = mc_dropout_score(dropout_model, x, passes=10, seed=3)
    assert np.array_equal(p1, p2) and np.array_equal(u1, u2)
    _, u3 = mc_dropout_score(dropout_model, x, passes=10, seed=4)
    assert not np.array_equal(u1, u3)


def test_mc_dropout_rejects_zero_passes(dropout_model):
    with pytest.raises(ValueError):
        mc_dropout_score(dropout_model, np.zeros((1, 2)), passes=0)


def test_mc_dropout_overlap_more_uncertain_than_center(dropout_model, probe_points):
    overlap, center = probe_points
    _, u_overlap = mc_dropout_score(dropout_model, overlap, passes=10, seed=0)
    _, u_center = mc_dropout_score(dropout_model, center, passes=10, seed=0)
    assert u_overlap[0] > u_center[0]


def test_mc_dropout_output_contract(dropout_model, bench_splits):
    _, _, te = bench_splits
    probs, u = mc_dropout_score(dropout_model, te.features, passes=5, seed=0)
    assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((u >= 0.0) & (u <= 1.0))


# ---------------------------------------------------------------------------
# ensemble


def test_ensemble_needs_two_snapshots(standard_result):
    with pytest.raises(DataError, match="got 1"):
        ensemble_score(
            standard_result.model, [standard_result.model.params], np.zeros((1, 2))
        )


def test_ensemble_of_identical_members_equals_entropy(standard_result):
    model = standard_result.model
    x = np.array([[0.3, -1.2], [4.0, 0.0]])
    p_ens, u_ens = ensemble_score(model, [model.params, model.params], x)
    p_e, u_e = entropy_score(model, x)
    assert_allclose(p_ens, p_e, atol=1e-15)
    assert_allclose(u_ens, u_e, atol=1e-15)


def test_ensemble_maximal_disagreement_gives_u_one():
    a = linear_model([1000.0, 0.0])
    b = linear_model([0.0, 1000.0])
    probs, u = ensemble_score(a, [a.params, b.params], np.zeros((2, 2)))
    assert_allclose(probs, 0.5)
    assert_allclose(u, 1.0)


def test_ensemble_deterministic(standard_result):
    model = standard_result.model
    snaps = standard_result.model.snapshots
    assert len(snaps) >= 2
    x = np.array([[1.5, 2.5]])
    r1 = ensemble_score(model, snaps, x)
    r2 = ensemble_score(model, snaps, x)
    assert np.array_equal(r1[0], r2[0]) and np.array_equal(r1[1], r2[1])


# ---------------------------------------------------------------------------
# tta


def test_tta_zero_jitter_zero_uncertainty(standard_result):
    x = np.array([[0.7, -0.7], [3.0, 3.0]])
    probs, u = tta_score(standard_result.model, x, passes=5, jitter_sigma=0.0)
    assert_allclose(u, 0.0)
    p_plain, _ = entropy_score(standard_result.model, x)
    assert_allclose(probs, p_plain, atol=1e-15)


def test_tta_constant_model_zero_uncertainty():
    model = linear_model([2.0, -1.0, 0.5])
    _, u = tta_score(model, np.zeros((3, 2)), passes=8, jitter_sigma=0.5, seed=1)
    # the variance is taken about the first pass, so equal passes give 0
    assert u.tolist() == [0.0, 0.0, 0.0]


def test_tta_rejects_bad_settings(standard_result):
    with pytest.raises(ValueError):
        tta_score(standard_result.model, np.zeros((1, 2)), passes=1)
    with pytest.raises(ValueError):
        tta_score(standard_result.model, np.zeros((1, 2)), jitter_sigma=-0.1)


def test_tta_overlap_more_uncertain_than_center(standard_result, probe_points):
    overlap, center = probe_points
    _, u_overlap = tta_score(standard_result.model, overlap, seed=0)
    _, u_center = tta_score(standard_result.model, center, seed=0)
    assert u_overlap[0] > u_center[0]


def test_tta_deterministic_and_bounded(standard_result, bench_splits):
    _, _, te = bench_splits
    x = te.features[:50]
    p1, u1 = tta_score(standard_result.model, x, seed=7)
    p2, u2 = tta_score(standard_result.model, x, seed=7)
    assert np.array_equal(p1, p2) and np.array_equal(u1, u2)
    assert_allclose(p1.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((u1 >= 0.0) & (u1 <= 1.0))


# ---------------------------------------------------------------------------
# dispatcher


def test_score_method_matches_direct_calls(
    standard_result, dropout_model, evidential_model
):
    x = np.array([[1.0, -1.0], [0.0, 4.0], [2.0, 2.0]])
    snaps = standard_result.model.snapshots
    direct = {
        "uios": uios_score(evidential_model, x),
        "entropy": entropy_score(standard_result.model, x),
        "mc_drop": mc_dropout_score(dropout_model, x, seed=0),
        "ensemble": ensemble_score(standard_result.model, snaps, x),
        "tta": tta_score(standard_result.model, x, seed=0),
    }
    models = {
        "uios": evidential_model,
        "entropy": standard_result.model,
        "mc_drop": dropout_model,
        "ensemble": standard_result.model,
        "tta": standard_result.model,
    }
    for method in METHODS:
        probs, u = score_method(method, models[method], x, snapshots=snaps, seed=0)
        assert np.array_equal(probs, direct[method][0]), method
        assert np.array_equal(u, direct[method][1]), method


def test_score_method_unknown_name(standard_result):
    with pytest.raises(ValueError, match="unknown method"):
        score_method("oracle", standard_result.model, np.zeros((1, 2)))


def test_score_method_ensemble_without_snapshots():
    # no snapshots passed and none in the model
    with pytest.raises(DataError, match="got 0"):
        score_method("ensemble", linear_model([1.0, 0.0]), np.zeros((1, 2)))


def test_score_method_ensemble_takes_the_model_snapshots(standard_result):
    model = standard_result.model
    x = np.array([[0.5, -1.0], [3.0, 1.0]])
    got = score_method("ensemble", model, x)
    want = ensemble_score(model, model.snapshots, x)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_every_method_uncertainty_in_unit_interval(
    standard_result, dropout_model, evidential_model, bench_splits
):
    _, _, te = bench_splits
    x = te.features[:100]
    snaps = standard_result.model.snapshots
    models = {
        "uios": evidential_model,
        "entropy": standard_result.model,
        "mc_drop": dropout_model,
        "ensemble": standard_result.model,
        "tta": standard_result.model,
    }
    for method in METHODS:
        probs, u = score_method(method, models[method], x, snapshots=snaps, seed=0)
        assert probs.shape == (100, 5), method
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12, err_msg=method)
        assert u.shape == (100,), method
        assert np.all((u >= 0.0) & (u <= 1.0)), method


# ---------------------------------------------------------------------------
# blocked scoring against a per-block reference


def _score_block(method, model, x, snapshots, rng):
    """One row block's scores, from ``forward`` on its rows alone, then
    softplus, the gate or softmax on its (rows, K) logits; ``mc_drop``'s
    masks and ``tta``'s jitter come from ``rng`` in pass order.  The heads
    are plain-numpy copies of the formulas (``np.max``/``np.sum`` over the
    class axis), independent of evos's column-loop reductions."""

    def probs(params, xx, masks=None):
        z = mlp.forward(params, xx, masks)[0]
        ex = np.exp(z - np.max(z, axis=-1, keepdims=True))
        return ex / np.sum(ex, axis=-1, keepdims=True)

    def normalized_entropy(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(p), 0.0)
        return -np.sum(terms, axis=-1) / np.log(p.shape[-1])

    if method == "alpha":
        logits = mlp.forward(model.params, x)[0]
        alpha = softplus(logits)
        if model.gate is not None:
            alpha *= model.gate.factor(logits)[:, None]
        alpha += 1.0
        return (alpha,)
    if method == "uios":
        (alpha,) = _score_block("alpha", model, x, snapshots, rng)
        strength = np.sum(alpha, axis=-1, keepdims=True)
        return alpha / strength, alpha.shape[-1] / strength[:, 0]
    if method == "entropy":
        p = probs(model.params, x)
        return p, normalized_entropy(p)
    if method == "mc_drop":
        passes = [mlp.make_dropout_masks(model.config, len(x), rng)
                  for _ in range(baselines.DEFAULT_PASSES)]
        mean = sum(probs(model.params, x, m) for m in passes) / len(passes)
        return mean, normalized_entropy(mean)
    if method == "ensemble":
        mean = sum(probs(p, x) for p in snapshots) / len(snapshots)
        return mean, normalized_entropy(mean)
    assert method == "tta"
    stack = np.stack([
        probs(model.params, x + baselines.DEFAULT_JITTER_SIGMA * rng.standard_normal(x.shape))
        for _ in range(baselines.DEFAULT_PASSES)
    ])
    return stack.mean(axis=0), 4.0 * (stack - stack[0]).var(axis=0).mean(axis=-1)


def _score_per_block(method, model, x, snapshots=None, seed=0):
    """Every scorer's reference: ``_score_block`` on each block ``j`` of
    ``mlp.row_blocks(n)``, drawing from ``default_rng((seed, j))``, with the
    blocks' outputs stacked."""
    blocks = [_score_block(method, model, x[rows], snapshots, np.random.default_rng((seed, j)))
              for j, rows in enumerate(mlp.row_blocks(len(x)))]
    parts = tuple(np.concatenate(part) for part in zip(*blocks))
    return parts[0] if method == "alpha" else parts


@pytest.fixture(scope="module")
def wide_rows():
    """2B + 13 rows, most of them far outside the training blobs, so that
    the evidence gate damps many of them."""
    return np.random.default_rng(5).normal(0.0, 8.0, size=(2 * BLOCK_ROWS + 13, 2))


def _assert_scorers_match_per_block(x, standard_result, dropout_model, evidential_model, seed):
    models = {
        "uios": evidential_model,
        "entropy": standard_result.model,
        "mc_drop": dropout_model,
        "ensemble": standard_result.model,
        "tta": standard_result.model,
    }
    snaps = standard_result.model.snapshots
    for method in METHODS:
        got = score_method(method, models[method], x, snapshots=snaps, seed=seed)
        want = _score_per_block(method, models[method], x, snapshots=snaps, seed=seed)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), method


def test_blocked_scorers_bit_identical_to_the_block_reference(
    standard_result, dropout_model, evidential_model, wide_rows
):
    x = wide_rows
    gated = evidential_model
    assert np.any(gated.gate.factor(mlp.forward(gated.params, x)[0]) < 1.0)
    _assert_scorers_match_per_block(x, standard_result, dropout_model, gated, seed=4)
    assert np.array_equal(evidential_alpha(gated, x), _score_per_block("alpha", gated, x))


@pytest.mark.parametrize(
    "n", [1, 2, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2, 30001]
)
def test_blocked_scorers_bit_identical_at_block_edges(
    n, standard_result, dropout_model, evidential_model
):
    # B + 1 ends in a lone row that joins the block before it; mc_drop and
    # tta draw block j's passes from (seed, j)
    x = np.random.default_rng(n).normal(0.0, 8.0, size=(n, 2))
    _assert_scorers_match_per_block(x, standard_result, dropout_model, evidential_model, seed=7)


@pytest.mark.parametrize("method", ["mc_drop", "tta"])
def test_random_scorers_keep_a_block_s_scores_when_a_later_block_changes(
    method, standard_result, dropout_model, wide_rows
):
    # a block's draws depend on the seed and its index only, not on n or on
    # the rows of the other blocks
    model = dropout_model if method == "mc_drop" else standard_result.model
    x, head = wide_rows, slice(0, 2 * BLOCK_ROWS)
    moved = x.copy()
    moved[head.stop :] += 1.0
    want = score_method(method, model, x, seed=4)
    got = [score_method(method, model, other, seed=4) for other in (moved, x[: head.stop + 5])]
    for scores in got:
        assert [a[head].tobytes() for a in scores] == [a[head].tobytes() for a in want]
    assert not np.array_equal(got[0][1][head.stop :], want[1][head.stop :])


def test_predict_records_bit_identical_to_the_block_reference(
    standard_result, evidential_model, wide_rows
):
    labels = np.arange(len(wide_rows)) % 5
    ds = Dataset(features=wide_rows, labels=labels, n_classes=5)
    for model, method in ((evidential_model, "uios"), (standard_result.model, "entropy")):
        recs = predict_records(model, ds)
        probs, u = _score_per_block(method, model, wide_rows)
        assert np.array_equal(recs.probs, probs), method
        assert np.array_equal(recs.uncertainty, u), method
        assert np.array_equal(recs.predicted, np.argmax(probs, axis=-1)), method
        assert np.array_equal(recs.labels, labels), method


def test_scoring_bit_identity_holds_under_a_second_blas_kernel(haswell_passes):
    passed, output = haswell_passes
    assert passed["test_mlp.py"] + passed["test_baselines.py"] == 25, output


@pytest.mark.parametrize("scorer", ["evidential_alpha", "predict_records", "entropy_score"])
def test_scoring_memory_is_bounded(scorer):
    # blocked scoring holds one block's hidden layers, not an (n, 32) array
    # per layer: the whole-array form peaked near 98 MiB here
    n, k = 200_000, 5
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 4.0, size=(n, 2))
    cfg = MlpConfig(input_dim=2, output_dim=k, seed=6)
    params = mlp.init_params(cfg)
    objective = "standard_ce" if scorer == "entropy_score" else "tun"
    model = Model(config=cfg, params=params, objective=objective)
    if model.is_evidential:
        model.gate = EvidenceGate.fit(mlp.forward(params, x[:500])[0], np.arange(500) % k)
    ds = Dataset(features=x, labels=np.zeros(n, dtype=np.int64), n_classes=k)
    run = {
        "evidential_alpha": lambda: evidential_alpha(model, x),
        "predict_records": lambda: predict_records(model, ds),
        "entropy_score": lambda: entropy_score(model, x),
    }[scorer]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "method, n, dim", [("mc_drop", 200_000, 2), ("tta", 200_000, 2), ("tta", 50_000, 64)]
)
def test_multi_pass_scoring_memory_is_bounded(method, n, dim):
    # mc_drop draws one row block's masks per pass and tta one block's jitter
    # and T passes; all T passes over all rows peaked at 209 and 178.5 MiB on
    # 200k 2-wide rows, and all of tta's jitter at once is 250 MiB on 50k
    # 64-wide rows
    k = 5
    x = np.random.default_rng(6).normal(0.0, 4.0, size=(n, dim))
    cfg = MlpConfig(input_dim=dim, output_dim=k, dropout_rate=0.25, seed=6)
    model = Model(config=cfg, params=mlp.init_params(cfg), objective="standard_ce")
    tracemalloc.start()
    try:
        score_method(method, model, x, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.fixture(scope="module")
def method_models(standard_result, dropout_model, evidential_model):
    return {"uios": evidential_model, "entropy": standard_result.model, "mc_drop": dropout_model,
            "ensemble": standard_result.model, "tta": standard_result.model}


def test_zero_rows_give_empty_scores(method_models, standard_result):
    for method in METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs, u = score_method(method, method_models[method], np.empty((0, 2)),
                                    snapshots=standard_result.model.snapshots)
        assert probs.shape == (0, 5) and u.shape == (0,), method


def test_a_one_d_vector_is_refused_by_infer(method_models, standard_result):
    for method in METHODS:
        with pytest.raises(ValueError, match=r"^infer: the rows have 2 features in shape \(2,\)"):
            score_method(method, method_models[method], np.zeros(2),
                         snapshots=standard_result.model.snapshots)


@pytest.mark.parametrize("method", METHODS)
def test_softmax_scorers_raise_on_non_finite_logits(method, method_models, standard_result):
    # softmax of a NaN row is NaN, which entropy used to score as certain;
    # mlp.infer refuses it before any head, the evidential one (and its gate) too
    model = method_models[method]
    broken = model.params.copy()
    broken.weights[-1][0, 0] = np.nan
    bad = Model(config=model.config, params=broken, objective=model.objective, gate=model.gate)
    snaps = [broken, *standard_result.model.snapshots[1:]]
    x = np.random.default_rng(2).normal(size=(50, 2))
    with pytest.raises(NumericError, match="non-finite logits"):
        score_method(method, bad, x, snapshots=snaps)
