"""Evaluation metrics: hand-tallied confusion matrices, one-vs-rest metric
values, a pair-counting AUC oracle, and the referral protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evos.metrics import (
    MetricReport,
    binary_auc,
    confusion_matrix,
    evaluate,
    ood_detection_rate,
    ovr_auc,
    per_class_metrics,
)
from evos.records import from_scores


def make_records(predicted, labels, u=None, k=None):
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    k = k or int(max(predicted.max(), labels.max())) + 1
    n = len(predicted)
    # probability mass concentrated on the predicted class
    probs = np.full((n, k), 0.1 / (k - 1))
    probs[np.arange(n), predicted] = 0.9
    if u is None:
        u = np.full(n, 0.5)
    return from_scores(probs, np.asarray(u, dtype=float), labels)


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_all_correct_is_diagonal():
    cm = confusion_matrix(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 2]), 3)
    assert np.array_equal(cm, np.diag([1, 1, 2]))


def test_confusion_single_off_diagonal():
    cm = confusion_matrix(np.array([2]), np.array([1]), 3)
    expect = np.zeros((3, 3), dtype=int)
    expect[1, 2] = 1  # rows are true labels, columns predictions
    assert np.array_equal(cm, expect)


def test_confusion_hand_tally():
    labels = np.array([0, 0, 1, 1, 2, 2])
    predicted = np.array([0, 1, 1, 1, 0, 2])
    cm = confusion_matrix(predicted, labels, 3)
    assert np.array_equal(cm, [[1, 1, 0], [0, 2, 0], [1, 0, 1]])
    assert cm.sum() == 6


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([3]), np.array([0]), 3)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0]), np.array([-2]), 3)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
))
def test_confusion_matrix_equals_add_at_tally(case):
    k, pairs = case
    predicted = np.array([p for p, _ in pairs], dtype=np.int64)
    labels = np.array([t for _, t in pairs], dtype=np.int64)
    expected = np.zeros((k, k), dtype=np.int64)
    np.add.at(expected, (labels, predicted), 1)
    cm = confusion_matrix(predicted, labels, k)
    assert cm.dtype == expected.dtype and cm.shape == (k, k)
    assert np.array_equal(cm, expected)


# ---------------------------------------------------------------------------
# Predictions.subset, which evaluate uses to drop referred rows


@settings(deadline=None, max_examples=100, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 5))
def test_subset_equals_boolean_indexing(seed, n, k):
    rng = np.random.default_rng(seed)
    recs = from_scores(rng.random((n, k)), rng.random(n), rng.integers(-1, k, size=n))
    mask = rng.random(n) < rng.random()
    sub = recs.subset(mask)
    for name in ("predicted", "labels", "uncertainty", "probs"):
        got, want = getattr(sub, name), getattr(recs, name)[mask]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "mask",
    [[True, False, True], np.array([1, 0, 1]), np.ones(2, dtype=bool), np.ones((3, 1), dtype=bool)],
    ids=["list", "int-array", "short", "2-d"],
)
def test_subset_rejects_masks_that_are_not_boolean_rows(mask):
    recs = make_records([0, 1, 1], [0, 1, 0])
    with pytest.raises(ValueError, match="boolean mask"):
        recs.subset(mask)


# ---------------------------------------------------------------------------
# per-class metrics


def test_per_class_perfect():
    cm = np.diag([3, 4, 5])
    m = per_class_metrics(cm)
    assert_allclose(m.precision, 1.0)
    assert_allclose(m.sensitivity, 1.0)
    assert_allclose(m.specificity, 1.0)
    assert_allclose(m.f1, 1.0)
    assert m.macro_f1 == 1.0


def test_per_class_hand_values():
    cm = np.array([[1, 1], [0, 2]])
    m = per_class_metrics(cm)
    assert m.precision[0] == pytest.approx(1.0)
    assert m.sensitivity[0] == pytest.approx(0.5)
    assert m.f1[0] == pytest.approx(2.0 / 3.0)
    assert m.precision[1] == pytest.approx(2.0 / 3.0)
    assert m.sensitivity[1] == pytest.approx(1.0)
    assert m.f1[1] == pytest.approx(0.8)
    # specificity is the one-vs-rest true negative rate
    assert m.specificity[0] == pytest.approx(1.0)
    assert m.specificity[1] == pytest.approx(0.5)


def test_absent_never_predicted_class_excluded_from_macro():
    cm = np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
    m = per_class_metrics(cm)
    assert m.included.tolist() == [True, True, False]
    assert m.macro_f1 == pytest.approx(1.0)
    assert m.macro_precision == pytest.approx(1.0)


def test_zero_over_zero_metrics_are_zero():
    # class 1 exists but is never predicted: precision 0/0 -> 0, F1 0
    cm = np.array([[2, 0], [1, 0]])
    m = per_class_metrics(cm)
    assert m.precision[1] == 0.0
    assert m.f1[1] == 0.0
    assert m.included.tolist() == [True, True]


def test_macro_f1_one_iff_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 6, size=(k, k))
        if cm.sum() == 0:
            continue
        m = per_class_metrics(cm)
        assert m.macro_f1 <= 1.0 + 1e-12
        off_diagonal = cm.sum() - np.trace(cm)
        if m.macro_f1 == pytest.approx(1.0, abs=1e-12):
            assert off_diagonal == 0


# ---------------------------------------------------------------------------
# AUC


def test_binary_auc_perfectly_separated():
    assert binary_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_binary_auc_all_equal_scores():
    assert binary_auc(np.full(10, 0.3), np.arange(10) % 2) == pytest.approx(0.5)


def _pair_count_auc(scores, positives):
    pos = scores[positives == 1]
    neg = scores[positives == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_binary_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.random(n), 1)  # heavy ties
        positives = rng.integers(0, 2, size=n)
        if positives.min() == positives.max():
            continue
        assert binary_auc(scores, positives) == pytest.approx(
            _pair_count_auc(scores, positives), abs=1e-12
        )


def _rank_sum_auc(ranks, positives):
    """The rank-sum AUC formula over 1-based midranks of all scores."""
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@pytest.mark.parametrize("decimals", [None, 2, 0])
def test_midranks_match_scipy_rankdata(decimals):
    """binary_auc equals, bit for bit, the rank-sum formula over scipy's
    midranks, untied, lightly and heavily tied."""
    from scipy.stats import rankdata

    rng = np.random.default_rng(23)
    for n in (2, 7, 100, 5000):
        x = rng.normal(scale=3.0, size=n)
        if decimals is not None:
            x = np.round(x, decimals)  # ties: few at 2 decimals, heavy at 0
        positives = rng.random(n) < 0.4
        positives[0], positives[-1] = True, False
        assert binary_auc(x, positives) == _rank_sum_auc(rankdata(x, method="average"), positives)
    x, positives = np.full(9, 0.25), np.arange(9) < 4
    assert binary_auc(x, positives) == _rank_sum_auc(rankdata(x, method="average"), positives)
    assert binary_auc(x, positives) == 0.5


def _midrank_auc(scores, positives):
    """binary_auc as np.unique midranks computed it: NaNs form one top tie
    group, and -0.0 ties with +0.0."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return _rank_sum_auc(((ends - counts + ends + 1) / 2)[inverse], positives)


_TIED_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf, 5e-324])


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.lists(st.tuples(_TIED_SCORES | st.floats(), st.booleans()), min_size=2, max_size=80))
def test_binary_auc_bits_equal_midrank_formula(rows):
    scores = np.array([s for s, _ in rows])
    positives = np.array([p for _, p in rows])
    if positives.all() or not positives.any():
        positives[0] = not positives[0]
    got = binary_auc(scores, positives)
    assert np.float64(got).tobytes() == np.float64(_midrank_auc(scores, positives)).tobytes()


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    scores = rng.random(n)
    positives = rng.integers(0, 2, size=n)
    if positives.min() == positives.max():
        return
    base = binary_auc(scores, positives)
    assert binary_auc(np.exp(3 * scores), positives) == pytest.approx(base, abs=1e-12)


def test_ovr_auc_four_record_case():
    # two classes; score for class c is probs[:, c]
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.4, 0.6]])
    labels = np.array([0, 0, 1, 1])
    macro, per_class = ovr_auc(labels, probs)
    for c in (0, 1):
        assert per_class[c] == pytest.approx(
            _pair_count_auc(probs[:, c], (labels == c).astype(int))
        )
    assert macro == pytest.approx(np.mean(per_class))


def test_ovr_auc_warns_and_skips_unrepresented_class():
    probs = np.array([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.2, 0.7, 0.1]])
    labels = np.array([0, 1, 1])  # class 2 has no positives
    with pytest.warns(UserWarning):
        macro, per_class = ovr_auc(labels, probs)
    assert np.isnan(per_class[2])
    assert not np.isnan(macro)


# ---------------------------------------------------------------------------
# records


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
def test_records_reject_uncertainty_outside_unit_interval(bad):
    # NaN passes both "u < 0" and "u > 1" tests; it must still be rejected
    with pytest.raises(ValueError, match="uncertainty outside"):
        from_scores(np.full((3, 2), 0.5), [0.1, bad, 0.9], [0, 1, -1])


# ---------------------------------------------------------------------------
# ood_detection_rate


def test_ood_rate_extremes():
    assert ood_detection_rate(np.ones(5), 0.5) == 1.0
    assert ood_detection_rate(np.zeros(5), 0.5) == 0.0


def test_ood_rate_direct_count():
    assert ood_detection_rate(np.array([0.05, 0.2, 0.9]), 0.1158) == pytest.approx(
        2.0 / 3.0
    )


def test_ood_rate_boundary_counts_as_detected():
    assert ood_detection_rate(np.array([0.3, 0.1]), 0.3) == pytest.approx(0.5)


def test_ood_rate_rejects_empty():
    with pytest.raises(ValueError):
        ood_detection_rate(np.array([]), 0.5)


# ---------------------------------------------------------------------------
# evaluate: unthresholded and referral protocol


def test_evaluate_unthresholded_counts():
    recs = make_records([0, 1, 1, 0], [0, 1, 0, 0])
    rep = evaluate(recs)
    assert rep.n_total == 4
    assert rep.n_evaluated == 4
    assert rep.n_referred == 0
    assert rep.accuracy == pytest.approx(0.75)
    assert rep.available


def test_evaluate_theta_above_max_u_identical_blocks():
    u = np.array([0.2, 0.4, 0.3, 0.1])
    recs = make_records([0, 1, 1, 0], [0, 1, 0, 0], u=u)
    full = evaluate(recs)
    gated = evaluate(recs, threshold=0.9)
    assert gated.n_referred == 0
    assert gated.referral_rate == 0.0
    assert np.array_equal(gated.confusion, full.confusion)
    assert gated.per_class.macro_f1 == full.per_class.macro_f1


def test_evaluate_theta_at_min_refers_everything():
    u = np.array([0.2, 0.4, 0.3, 0.1])
    recs = make_records([0, 1, 1, 0], [0, 1, 0, 0], u=u)
    rep = evaluate(recs, threshold=0.1)
    assert rep.n_referred == 4
    assert rep.n_evaluated == 0
    assert not rep.available


def test_evaluate_referring_all_errors_gives_perfect_f1():
    predicted = np.array([0, 1, 2, 0, 1, 2])
    labels = np.array([0, 1, 2, 1, 2, 0])  # last three wrong
    u = np.array([0.1, 0.1, 0.1, 0.8, 0.9, 0.7])
    recs = make_records(predicted, labels, u=u)
    # at theta = 0.7 the row with u == theta is referred too
    for theta in (0.5, 0.7):
        rep = evaluate(recs, threshold=theta)
        assert rep.n_referred == 3
        assert rep.per_class.macro_f1 == pytest.approx(1.0)
        assert rep.accuracy == pytest.approx(1.0)


def test_evaluate_total_conservation():
    rng = np.random.default_rng(2)
    n = 60
    predicted = rng.integers(0, 4, size=n)
    labels = rng.integers(0, 4, size=n)
    u = rng.random(n)
    recs = make_records(predicted, labels, u=u, k=4)
    for theta in (0.2, 0.5, 0.8):
        rep = evaluate(recs, threshold=theta)
        assert rep.confusion.sum() + rep.n_referred == n


def test_evaluate_rejects_ood_labels():
    recs = from_scores(np.array([[0.9, 0.1]]), np.array([0.5]), np.array([-1]))
    with pytest.raises(ValueError):
        evaluate(recs)


def test_report_dict_shape():
    recs = make_records([0, 1, 1, 0], [0, 1, 0, 0], u=[0.1, 0.2, 0.9, 0.3])
    rep = evaluate(recs, threshold=0.5)
    d = rep.to_dict()
    assert isinstance(rep, MetricReport)
    assert d["n_referred"] == 1
    assert d["referral_rate"] == pytest.approx(0.25)
    assert len(d["confusion"]) == 2
    assert set(d["per_class"]) >= {"precision", "sensitivity", "specificity", "f1"}
