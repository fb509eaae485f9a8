"""Threshold selection: the crafted 4-record case, a brute-force oracle over
random instances, boundary semantics, sweep invariants, and what theta
records of its fit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evos.calibration import ThresholdCalibration, calibrate, roc_sweep
from evos.errors import DataError
from evos.records import Predictions, from_scores


def records_from(u: np.ndarray, wrong: np.ndarray) -> Predictions:
    """Build prediction records whose correctness pattern equals ``wrong``."""
    n = len(u)
    probs = np.zeros((n, 2))
    probs[:, 0] = 0.9
    probs[:, 1] = 0.1
    labels = np.where(wrong.astype(bool), 1, 0)  # predicted is always 0
    return from_scores(probs, np.asarray(u, dtype=float), labels)


# ---------------------------------------------------------------------------
# roc_sweep


def test_roc_sweep_reads_a_bool_mask_as_its_0_1_form():
    rng = np.random.default_rng(3)
    u = rng.integers(0, 6, size=300) / 5.0  # heavy ties
    wrong = rng.random(300) < 0.3
    as_bool, as_int = roc_sweep(u, wrong), roc_sweep(u, wrong.astype(np.int64))
    np.testing.assert_array_equal(np.stack(as_int), np.stack(as_bool), strict=True)
    candidates, tpr, fpr = as_bool
    assert tpr.tolist() == [np.mean(u[wrong] >= c) for c in candidates]
    assert fpr.tolist() == [np.mean(u[~wrong] >= c) for c in candidates]


def test_roc_sweep_separated_case():
    u = np.array([0.1, 0.2, 0.6, 0.8])
    wrong = np.array([0, 0, 1, 1])
    candidates, tpr, fpr = roc_sweep(u, wrong)
    i = list(candidates).index(0.6)
    assert tpr[i] == 1.0 and fpr[i] == 0.0
    # minimum candidate flags everything
    assert tpr[0] == 1.0 and fpr[0] == 1.0
    # sentinel above max flags nothing
    assert candidates[-1] > u.max()
    assert tpr[-1] == 0.0 and fpr[-1] == 0.0


def test_roc_sweep_monotone_rates():
    rng = np.random.default_rng(0)
    u = rng.random(200)
    wrong = rng.integers(0, 2, size=200)
    _, tpr, fpr = roc_sweep(u, wrong)
    assert (np.diff(tpr) <= 1e-15).all()
    assert (np.diff(fpr) <= 1e-15).all()


def test_roc_sweep_inverted_scores():
    # when correct predictions carry the *higher* uncertainty, flagging by
    # u >= theta can never beat the false-positive rate
    u = np.array([0.9, 0.8, 0.2, 0.1])
    wrong = np.array([0, 0, 1, 1])
    _, tpr, fpr = roc_sweep(u, wrong)
    assert (tpr <= fpr + 1e-15).all()


def _rate(flagged: np.ndarray) -> float:
    """The share of ``flagged`` that is set; 0 for no rows, as in the sweep."""
    return flagged.sum() / max(len(flagged), 1)


def test_roc_sweep_one_outcome_matches_brute_force():
    # with one outcome only, the other's rate is 0 at every candidate
    u = np.array([0.3, 0.1, 0.3, 0.7, 0.2])
    for outcome in (0, 1):
        wrong = np.full(len(u), outcome)
        candidates, tpr, fpr = roc_sweep(u, wrong)
        assert np.array_equal(candidates, np.append(np.unique(u), np.nextafter(u.max(), np.inf)))
        for theta, t, f in zip(candidates, tpr, fpr):
            flag = u >= theta
            assert t == _rate(flag[wrong == 1]) and f == _rate(flag[wrong == 0])
        assert not (tpr if outcome == 0 else fpr).any()


# ---------------------------------------------------------------------------
# threshold selection


def test_crafted_four_record_case():
    u = np.array([0.1, 0.2, 0.6, 0.8])
    wrong = np.array([0, 0, 1, 1])
    cal = calibrate(records_from(u, wrong))
    assert cal.threshold == pytest.approx(0.6)
    assert cal.objective_value == pytest.approx(2.0)
    assert cal.tpr_at_threshold == 1.0
    assert cal.fpr_at_threshold == 0.0


def test_identical_uncertainties_single_candidate():
    u = np.full(6, 0.5)
    wrong = np.array([0, 1, 0, 1, 0, 1])
    cal = calibrate(records_from(u, wrong))
    # candidates: 0.5 and the sentinel; both score 2*1-1=1 vs 0; 0.5 wins
    assert cal.threshold == pytest.approx(0.5)


def _brute_force(u, wrong, coefficient=2.0):
    candidates = np.append(np.unique(u), np.nextafter(u.max(), np.inf))
    best_theta, best_obj = None, -np.inf
    for theta in candidates:
        flag = u >= theta
        obj = coefficient * _rate(flag[wrong == 1]) - _rate(flag[wrong == 0])
        if obj > best_obj or (obj == best_obj and theta > best_theta):
            best_theta, best_obj = theta, obj
    return best_theta, best_obj


def test_select_threshold_matches_brute_force_sweep():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        u = np.round(rng.random(n), 2)  # coarse grid forces frequent ties
        wrong = rng.integers(0, 2, size=n)  # one outcome only in about 1 in 2**(n-1)
        cal = calibrate(records_from(u, wrong))
        theta, obj = _brute_force(u, wrong)
        assert cal.threshold == pytest.approx(theta), f"trial {trial}"
        assert cal.objective_value == pytest.approx(obj), f"trial {trial}"


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.5, 5.0))
def test_select_threshold_brute_force_any_coefficient(seed, coefficient):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    u = rng.random(n)
    wrong = rng.integers(0, 2, size=n)
    cal = calibrate(records_from(u, wrong), coefficient=coefficient)
    theta, obj = _brute_force(u, wrong, coefficient)
    assert cal.threshold == pytest.approx(theta)
    assert cal.objective_value == pytest.approx(obj)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.integers(0, 1)),
        min_size=2,
        max_size=60,
    )
)
def test_roc_sweep_heavy_ties_match_brute_force(rows):
    u = np.array([r[0] for r in rows])
    wrong = np.array([r[1] for r in rows])
    if wrong.min() == wrong.max():
        return
    candidates, tpr, fpr = roc_sweep(u, wrong)
    assert np.array_equal(candidates, np.append(np.unique(u), np.nextafter(u.max(), np.inf)))
    for theta, t, f in zip(candidates, tpr, fpr):
        flag = u >= theta
        assert t == flag[wrong == 1].mean() and f == flag[wrong == 0].mean()
    cal = calibrate(records_from(u, wrong))
    theta, obj = _brute_force(u, wrong)
    assert cal.threshold == theta
    assert cal.objective_value == pytest.approx(obj)


def test_roc_sweep_memory_is_linear():
    # the sweep must not build a (candidates x rows) matrix: 200k distinct
    # u values would need about 40 GB that way
    rng = np.random.default_rng(3)
    u = rng.random(200_000)
    wrong = rng.integers(0, 2, size=u.size)
    tracemalloc.start()
    try:
        candidates, tpr, fpr = roc_sweep(u, wrong)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert len(candidates) == u.size + 1
    assert tpr[0] == fpr[0] == 1.0 and tpr[-1] == fpr[-1] == 0.0


def test_threshold_in_candidates_and_maximal():
    rng = np.random.default_rng(1)
    u = rng.random(40)
    wrong = rng.integers(0, 2, size=40)
    cal = calibrate(records_from(u, wrong))
    candidates, tpr, fpr = roc_sweep(u, wrong)
    i = list(candidates).index(cal.threshold)
    assert (cal.tpr_at_threshold, cal.fpr_at_threshold) == (tpr[i], fpr[i])
    assert cal.objective_value == pytest.approx((2.0 * tpr - fpr).max())


# ---------------------------------------------------------------------------
# calibrate over records


def test_calibrate_end_to_end_matches_sweep():
    rng = np.random.default_rng(3)
    u = rng.random(30)
    wrong = rng.integers(0, 2, size=30)
    recs = records_from(u, wrong)
    cal = calibrate(recs)
    _, tpr, fpr = roc_sweep(u, wrong)
    assert cal.tpr.tobytes() == tpr.tobytes() and cal.fpr.tobytes() == fpr.tobytes()
    assert cal.threshold == _brute_force(u, wrong)[0]
    assert cal.n_wrong == wrong.sum()


def test_theta_records_the_scoring_it_was_fitted_on():
    rng = np.random.default_rng(5)
    recs = records_from(rng.random(30), rng.integers(0, 2, size=30))
    assert calibrate(recs).scoring == {"method": "uios"}
    cal = calibrate(recs, 1.5, "tta", passes=4, jitter_sigma=0.2)
    assert cal.scoring == {"method": "tta", "passes": 4, "jitter_sigma": 0.2}
    assert cal.threshold == calibrate(recs, 1.5).threshold


def test_calibrate_without_errors_refers_nothing():
    u = np.array([0.2, 0.1, 0.3, 0.3])
    cal = calibrate(records_from(u, np.zeros(4, dtype=int)))
    assert cal.threshold == np.nextafter(u.max(), np.inf) == _brute_force(u, np.zeros(4))[0]
    assert not (u >= cal.threshold).any()
    assert cal.n_wrong == 0 and cal.tpr_at_threshold == cal.fpr_at_threshold == 0.0


def test_calibrate_without_correct_records_refers_everything():
    u = np.array([0.2, 0.1, 0.3, 0.3])
    cal = calibrate(records_from(u, np.ones(4, dtype=int)))
    assert cal.threshold == u.min() == _brute_force(u, np.ones(4))[0]
    assert (u >= cal.threshold).all()
    assert cal.n_wrong == 4 and cal.tpr_at_threshold == 1.0 and cal.fpr_at_threshold == 0.0


def test_calibrate_rejects_zero_records():
    # a DataError, so the CLI maps it to the data-error exit code
    with pytest.raises(DataError, match="no validation records"):
        calibrate(records_from(np.array([]), np.array([], dtype=int)))


def test_recalibration_idempotent():
    rng = np.random.default_rng(8)
    u = rng.random(25)
    wrong = rng.integers(0, 2, size=25)
    recs = records_from(u, wrong)
    assert calibrate(recs).threshold == calibrate(recs).threshold


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flag_partition_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    u = rng.random(n)
    wrong = rng.integers(0, 2, size=n)
    if wrong.min() == wrong.max():
        return
    cal = calibrate(records_from(u, wrong))
    flags = u >= cal.threshold
    # records hold u in [0, 1], so each transform maps [0, 1) into it
    transforms = (lambda v: v**3, lambda v: np.expm1(2 * v) / np.expm1(2), lambda v: v / 3 + 0.1)
    for transform in transforms:
        tu = transform(u)
        tcal = calibrate(records_from(tu, wrong))
        assert np.array_equal(tu >= tcal.threshold, flags)


# ---------------------------------------------------------------------------
# serialization round-trip


def test_calibration_dict_round_trip():
    rng = np.random.default_rng(4)
    u = rng.random(20)
    wrong = rng.integers(0, 2, size=20)
    recs = records_from(u, wrong)
    cal = calibrate(recs)
    clone = ThresholdCalibration.from_dict(cal.to_dict())
    assert clone.threshold == cal.threshold
    assert_allclose(clone.tpr, cal.tpr)
    assert_allclose(clone.fpr, cal.fpr)
    assert clone.coefficient == cal.coefficient
    assert clone.n_wrong == cal.n_wrong and clone.scoring == cal.scoring
