"""Tests of the benchmark's oracles against brute force and hand-built cases.

    python3 -m pytest perfbench
"""

import base64
import json
import math

import numpy as np

import oracles


def _brute_threshold(u, wrong, coefficient):
    cands = sorted(set(u.tolist()))
    cands.append(np.nextafter(cands[-1], np.inf))
    n_wrong = sum(wrong)
    n_right = len(u) - n_wrong
    best, best_theta = None, None
    for theta in cands:
        tp = sum(1 for ui, wi in zip(u, wrong) if ui >= theta and wi)
        fp = sum(1 for ui, wi in zip(u, wrong) if ui >= theta and not wi)
        obj = coefficient * (tp / n_wrong) - fp / n_right
        if best is None or obj >= best:  # ascending candidates: ties go to the largest
            best, best_theta = obj, theta
    return best_theta


def test_threshold_matches_brute_force_with_heavy_ties():
    rng = np.random.default_rng(0)
    for trial in range(400):
        n = int(rng.integers(2, 40))
        levels = rng.random(int(rng.integers(1, 6)))
        u = rng.choice(levels, size=n)
        wrong = rng.random(n) < rng.uniform(0.1, 0.9)
        wrong[0], wrong[1] = True, False  # both outcomes present
        coefficient = [2.0, 1.0, 0.5][trial % 3]
        assert oracles.select_threshold(u, wrong, coefficient) == _brute_threshold(
            u, wrong, coefficient
        )


def test_threshold_flags_only_the_wrong_rows_when_they_are_separable():
    u = np.array([0.1, 0.2, 0.2, 0.7, 0.9])
    wrong = np.array([False, False, False, True, True])
    assert oracles.select_threshold(u, wrong) == 0.7


def test_pairwise_auc_matches_loops_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        s = rng.choice(rng.random(4), size=n)
        pos = rng.random(n) < 0.4
        pos[0], pos[1] = True, False
        wins = 0.0
        for a in s[pos]:
            for b in s[~pos]:
                wins += 1.0 if a > b else 0.5 if a == b else 0.0
        assert math.isclose(
            oracles.pairwise_auc(s, pos), wins / (pos.sum() * (~pos).sum()), abs_tol=1e-15
        )


def test_confusion_and_macro_f1_by_hand():
    labels = np.array([0, 0, 1, 1, 2])
    predicted = np.array([0, 1, 1, 1, 0])
    cm = oracles.confusion(labels, predicted, 4)
    assert cm.tolist() == [[1, 1, 0, 0], [0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
    f1, acc = oracles.macro_f1_accuracy(cm)
    # class 0: P 1/2 R 1/2 -> 1/2; class 1: P 2/3 R 1 -> 4/5; class 2: 0; class 3 absent
    assert math.isclose(f1, (0.5 + 0.8 + 0.0) / 3, abs_tol=1e-15)
    assert acc == 3 / 5


def test_detection_rate_counts_ties_as_referred():
    assert oracles.detection_rate([0.1, 0.5, 0.5, 0.9], 0.5) == 0.75


def _loop_forward(weights, biases, gate, row):
    h = list(row)
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = [sum(h[j] * w[j][c] for j in range(len(h))) + b[c] for c in range(len(b))]
        if i < len(weights) - 1:
            h = [max(v, 0.0) for v in h]
    k = len(h)
    e = [math.log1p(math.exp(v)) for v in h]
    if gate is not None:
        means, scale, onset = gate
        d2 = min(sum(((h[c] - m[c]) * scale[c]) ** 2 for c in range(k)) for m in means)
        g = math.exp(-0.5 * max(d2 - onset, 0.0) / k)
        e = [g * v for v in e]
    s = sum(v + 1.0 for v in e)
    return [(v + 1.0) / s for v in e], k / s


def test_uios_forward_matches_scalar_loops_with_and_without_gate():
    rng = np.random.default_rng(2)
    weights = [rng.normal(size=(2, 4)), rng.normal(size=(4, 3))]
    biases = [rng.normal(size=4), rng.normal(size=3)]
    gate = (rng.normal(size=(3, 3)), np.abs(rng.normal(size=3)), 0.5)
    x = 3.0 * rng.normal(size=(25, 2))
    for g in (None, gate):
        probs, u = oracles.uios_forward(weights, biases, g, x)
        for row, p_row, u_row in zip(x, probs, u):
            p_ref, u_ref = _loop_forward(weights, biases, g, row)
            assert np.allclose(p_row, p_ref, rtol=0, atol=1e-13)
            assert math.isclose(u_row, u_ref, abs_tol=1e-13)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_gate_leaves_rows_inside_the_onset_untouched():
    weights, biases = [np.eye(2)], [np.zeros(2)]
    x = np.array([[0.5, -0.5], [40.0, 40.0]])
    plain_p, plain_u = oracles.uios_forward(weights, biases, None, x)
    gate = (np.array([[0.5, -0.5]]), np.ones(2), 1.0)
    p, u = oracles.uios_forward(weights, biases, gate, x)
    assert p[0].tolist() == plain_p[0].tolist() and u[0] == plain_u[0]
    assert u[1] > 0.999 and plain_u[1] < 0.05


def _encode(a):
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode()}


def test_read_checkpoint_and_csv(tmp_path):
    w = np.arange(6.0).reshape(2, 3)
    obj = {
        "params": {"weights": [_encode(w)], "biases": [_encode(np.ones(3))]},
        "gate": {"means": _encode(np.zeros((3, 3))), "scale": _encode(np.ones(3)),
                 "onset": _encode(2.5)},
        "calibration": None,
    }
    (tmp_path / "c.json").write_text(json.dumps(obj))
    ck = oracles.read_checkpoint(tmp_path / "c.json")
    assert ck["weights"][0].tolist() == w.tolist() and ck["gate"][2] == 2.5
    (tmp_path / "d.csv").write_text("f0,f1,label\n0.1,-2.0,3\n1e3,0.25,ood\n")
    x, y = oracles.read_csv(tmp_path / "d.csv")
    assert x.tolist() == [[0.1, -2.0], [1000.0, 0.25]] and y.tolist() == [3, -1]
