"""Central finite differences against hand backprop, for the gradient tests
of ``test_mlp.py`` and acceptance criterion 3."""

import numpy as np

from evos.losses import Schedule, logit_grad, logit_losses
from evos.mlp import MlpParams, backward, forward


def loss_fn_for(kind):
    """``outputs -> (mean loss, d loss / d outputs)`` of the training
    objective ``kind`` mid-anneal (lambda = 0.5, tau = 0.505: every term is
    active), with the labels cycling through the classes."""
    sch = Schedule.for_epoch(5)

    def loss_fn(outputs):
        n, k = outputs.shape
        y = np.eye(k)[np.arange(n) % k]
        loss = float(np.mean(logit_losses(kind, outputs, y, sch)))
        return loss, logit_grad(kind, outputs, y, sch)

    return loss_fn


def finite_diff_check(
    params: MlpParams,
    batch: np.ndarray,
    loss_fn,
    h: float = 1e-5,
) -> float:
    """Max relative error between backprop and central finite differences.

    ``loss_fn(outputs) -> (loss, dloss_doutputs)`` must be deterministic.
    The relative error per parameter is
    |analytic - numeric| / (|numeric| + 1e-8).
    """
    out, trace = forward(params, batch)
    _, grad_out = loss_fn(out)
    analytic = backward(trace, params, grad_out, out=params.copy())

    def loss_at(p: MlpParams) -> float:
        o, _ = forward(p, batch)
        val, _ = loss_fn(o)
        return float(val)

    worst = 0.0
    work = params.copy()
    for j, g in enumerate(analytic.flat):
        orig = work.flat[j]
        work.flat[j] = orig + h
        up = loss_at(work)
        work.flat[j] = orig - h
        down = loss_at(work)
        work.flat[j] = orig
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, abs(g - numeric) / (abs(numeric) + 1e-8))
    return worst
