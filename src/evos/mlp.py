"""Small fully connected ReLU network with hand-derived backprop.

This replaces a large pretrained feature extractor for the synthetic
benchmarks: the last linear layer produces one raw output per class, which
the evidential head turns into evidence.  No autograd framework is used;
``backward`` implements the chain rule explicitly and ``finite_diff_check``
validates it against central differences.

Dropout is the inverted kind (mask / (1 - rate)) and is only applied when
the caller passes masks, so plain forward passes are deterministic.  The
Monte Carlo dropout baseline supplies fresh masks per pass.

Scoring (``infer``) runs in blocks of ``BLOCK_ROWS`` rows, so that a block's
layers and the caller's row-wise head stay in L2 cache and the intermediates
are O(block), not one (n, 32) array per layer; the bits are ``forward``'s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

BLOCK_ROWS = 2048


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    output_dim: int
    hidden_dims: tuple[int, ...] = (32, 32)
    activation: str = "relu"
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("MlpConfig: dims must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("MlpConfig: hidden dims must be positive")
        if self.activation != "relu":
            raise ValueError("MlpConfig: only 'relu' is supported")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("MlpConfig: dropout_rate must be in [0, 1)")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class MlpParams:
    """Weight matrices (fan_in, fan_out) and bias vectors, one per layer.

    All of them are views into one contiguous float64 vector, ``flat``:
    the weights layer by layer, then the biases.  The constructor packs
    (copies) the arrays it is given, so writing through a view writes
    ``flat`` and vice versa.  The same container is reused for gradients,
    which are parameter-shaped by construction.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = [np.asarray(a, dtype=np.float64) for a in (*self.weights, *self.biases)]
        self.flat = np.concatenate([a.ravel() for a in blocks])
        ends = itertools.accumulate(a.size for a in blocks)
        views = [self.flat[e - a.size : e].reshape(a.shape) for a, e in zip(blocks, ends)]
        n_layers = len(self.weights)
        self.weights, self.biases = views[:n_layers], views[n_layers:]

    def copy(self) -> "MlpParams":
        return MlpParams(weights=self.weights, biases=self.biases)

    def ravel(self) -> np.ndarray:
        return self.flat.copy()


@dataclass
class ForwardTrace:
    """Cached intermediates from one forward pass, consumed by backward."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)  # post-dropout
    masks: list[np.ndarray] | None = None  # scaled dropout masks, if any


def init_params(cfg: MlpConfig) -> MlpParams:
    """He-normal weights (std sqrt(2 / fan_in)), zero biases.

    Deterministic for a given cfg.seed (PCG64 via numpy default_rng).
    """
    rng = np.random.default_rng(cfg.seed)
    weights, biases = [], []
    for fan_in, fan_out in cfg.layer_dims:
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def make_dropout_masks(
    cfg: MlpConfig, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Pre-scaled inverted-dropout masks, one per hidden layer."""
    if cfg.dropout_rate <= 0.0:
        raise ValueError("make_dropout_masks: dropout_rate is 0")
    keep = 1.0 - cfg.dropout_rate
    return [
        (rng.random((batch_size, h)) >= cfg.dropout_rate).astype(np.float64) / keep
        for h in cfg.hidden_dims
    ]


def _checked_batch(params: MlpParams, batch, dropout_masks) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise ValueError("forward: batch shape does not match the first layer")
    if dropout_masks is not None:
        shapes = [(len(x), w.shape[1]) for w in params.weights[:-1]]
        if [np.shape(m) for m in dropout_masks] != shapes:
            raise ValueError("forward: need one (rows, width) dropout mask per hidden layer")
    return x


def forward(
    params: MlpParams,
    batch: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network on a (n, input_dim) batch; returns (outputs, trace)."""
    x = _checked_batch(params, batch, dropout_masks)
    n_hidden = len(params.weights) - 1
    trace = ForwardTrace(inputs=x, masks=dropout_masks)
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        trace.pre_activations.append(z)
        if i < n_hidden:
            h = np.maximum(z, 0.0)
            if dropout_masks is not None:
                h = h * dropout_masks[i]
            trace.activations.append(h)
        else:
            h = z  # linear output layer
    return h, trace


def infer(
    params: MlpParams,
    batch: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
    head=None,
) -> np.ndarray:
    """``forward(params, batch, dropout_masks)[0]`` bit for bit, for scoring,
    in blocks of at most ``BLOCK_ROWS + 1`` rows.  A row-wise ``head`` maps
    each block's outputs while they are in cache; with no rows it sees one
    empty block, so a head that rejects empty input raises."""
    x = _checked_batch(params, batch, dropout_masks)
    n, n_hidden = len(x), len(params.weights) - 1
    # A lone last row joins the block before it: numpy multiplies a 1-row
    # matrix by another (gemv) kernel, whose last bits differ.
    starts = list(range(0, n, BLOCK_ROWS)) or [0]
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    out = None
    for start, stop in zip(starts, [*starts[1:], n]):
        rows = slice(start, stop)
        h = x[rows]
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = h @ w
            h += b
            if i < n_hidden:
                np.maximum(h, 0.0, out=h)
                if dropout_masks is not None:
                    h *= dropout_masks[i][rows]
        if head is not None:
            h = head(h)
        if out is None:
            out = np.empty((n, *h.shape[1:]), dtype=h.dtype)
        out[rows] = h
    return out


def backward(trace: ForwardTrace, params: MlpParams, grad_out: np.ndarray) -> MlpParams:
    """Backpropagate d(loss)/d(outputs) to parameter gradients."""
    if len(trace.pre_activations) != len(params.weights):
        raise ValueError("backward: trace does not match params")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != trace.pre_activations[-1].shape:
        raise ValueError("backward: grad_out shape does not match the forward pass")
    n_layers = len(params.weights)
    grad_w = [np.empty(0)] * n_layers
    grad_b = [np.empty(0)] * n_layers
    delta = g
    for i in range(n_layers - 1, -1, -1):
        below = trace.inputs if i == 0 else trace.activations[i - 1]
        grad_w[i] = below.T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            da = delta @ params.weights[i].T
            if trace.masks is not None:
                da = da * trace.masks[i - 1]
            delta = da * (trace.pre_activations[i - 1] > 0.0)
    return MlpParams(weights=grad_w, biases=grad_b)


def check_finite(grads: MlpParams):
    """Raise NumericError if any gradient entry is NaN/Inf."""
    if not np.all(np.isfinite(grads.flat)):
        raise NumericError("non-finite gradient")


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
    analytic = backward(trace, params, grad_out)

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
