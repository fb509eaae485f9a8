"""Computations made apart from evos, used to check what it outputs.

Plain NumPy and the standard library only: nothing here imports evos, so a
fault in one of its layers cannot hide in the check of that layer.

- ``read_csv`` / ``read_checkpoint``: the file formats, parsed anew.
- ``uios_forward``: the network, softplus evidence, the evidence gate
  ``g = exp(-1/2 * max(d2 - onset, 0) / K)``, ``alpha = g * e + 1`` and
  ``u = K / S``.
- ``select_threshold``: the theta that maximises ``c * TPR - FPR`` (ties to
  the largest theta), from one sort and cumulative counts.
- ``confusion`` / ``macro_f1_accuracy`` / ``detection_rate`` /
  ``pairwise_auc``: the reported quality figures, recomputed from counts.
"""

from __future__ import annotations

import base64
import csv
import json

import numpy as np


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a dataset CSV; an ``ood`` label reads as -1."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([[float(v) for v in row[:-1]] for row in rows])
    y = np.array([-1 if row[-1] == "ood" else int(row[-1]) for row in rows], dtype=np.int64)
    return x, y


def _array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])


def read_checkpoint(path) -> dict:
    """Weights, biases, gate and calibration of a checkpoint file."""
    with open(path) as fh:
        obj = json.load(fh)
    gate = obj["gate"]
    return {
        "weights": [_array(w) for w in obj["params"]["weights"]],
        "biases": [_array(b) for b in obj["params"]["biases"]],
        "gate": None
        if gate is None
        else (_array(gate["means"]), _array(gate["scale"]), float(_array(gate["onset"]))),
        "calibration": obj["calibration"],
    }


def uios_forward(weights, biases, gate, x) -> tuple[np.ndarray, np.ndarray]:
    """Expected probabilities alpha/S and uncertainty K/S of each row of x.

    ``gate`` is ``(means, scale, onset)`` or None for the plain head.
    """
    h = np.asarray(x, dtype=np.float64)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < last:
            h = np.where(h > 0.0, h, 0.0)
    k = h.shape[1]
    evidence = np.logaddexp(0.0, h)
    if gate is not None:
        means, scale, onset = gate
        d2 = np.full(len(h), np.inf)
        for mean in means:
            d2 = np.minimum(d2, (((h - mean) * scale) ** 2).sum(axis=1))
        evidence = evidence * np.exp(-0.5 * np.maximum(d2 - onset, 0.0) / k)[:, None]
    alpha = evidence + 1.0
    strength = alpha.sum(axis=1)
    return alpha / strength[:, None], k / strength


def select_threshold(u, wrong, coefficient: float = 2.0) -> float:
    """theta maximising coefficient * TPR - FPR of the rule "flag iff u >= theta".

    Candidates are the distinct u plus one just above the largest ("flag
    nothing"); ties go to the largest theta.  One descending sort gives the
    flagged wrong and right counts at each candidate as cumulative sums.
    """
    u = np.asarray(u, dtype=np.float64)
    wrong = np.asarray(wrong, dtype=bool)
    n_wrong = int(wrong.sum())
    n_right = len(u) - n_wrong
    order = np.argsort(-u, kind="stable")
    u_desc, w_desc = u[order], wrong[order]
    last_of_value = np.append(u_desc[1:] != u_desc[:-1], True)
    cand = np.concatenate([[np.nextafter(u_desc[0], np.inf)], u_desc[last_of_value]])
    tp = np.concatenate([[0], np.cumsum(w_desc)[last_of_value]])
    fp = np.concatenate([[0], np.cumsum(~w_desc)[last_of_value]])
    objective = coefficient * (tp / n_wrong) - fp / n_right
    # candidates descend, so the first maximiser is the largest theta
    return float(cand[np.flatnonzero(objective == objective.max())[0]])


def confusion(labels, predicted, n_classes: int) -> np.ndarray:
    """(K, K) counts; rows are true classes, columns predicted ones."""
    labels = np.asarray(labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    flat = np.bincount(labels * n_classes + predicted, minlength=n_classes * n_classes)
    return flat.reshape(n_classes, n_classes)


def macro_f1_accuracy(cm: np.ndarray) -> tuple[float, float]:
    """Macro-F1 over classes with TP+FP+FN > 0 (0/0 read as 0), and accuracy."""
    cm = np.asarray(cm)
    f1s = []
    for k in range(len(cm)):
        tp = int(cm[k, k])
        fn = int(cm[k].sum()) - tp
        fp = int(cm[:, k].sum()) - tp
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(
            2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    total = int(cm.sum())
    return (sum(f1s) / len(f1s) if f1s else 0.0), int(np.trace(cm)) / total


def detection_rate(u, theta: float) -> float:
    """Share of rows referred (u >= theta)."""
    u = np.asarray(u, dtype=np.float64)
    return int(np.count_nonzero(u >= theta)) / len(u)


def pairwise_auc(scores, positive) -> float:
    """P(score of a positive > score of a negative), ties counting 1/2,
    from every positive-negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    pos, neg = scores[positive], scores[~positive]
    wins = 0.0
    for chunk in np.array_split(pos, max(1, len(pos) // 256)):
        diff = chunk[:, None] - neg[None, :]
        wins += np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
    return wins / (len(pos) * len(neg))
