"""Small fully connected ReLU network with hand-derived backprop.

This replaces a large pretrained feature extractor for the synthetic
benchmarks: the last linear layer produces one raw output per class, which
the evidential head turns into evidence.  No autograd framework is used:
``backward`` implements the chain rule explicitly.

Dropout is the inverted kind (kept units are scaled so that a mask's
expected value is 1) and is only applied when the caller passes masks, so
plain forward passes are deterministic.  Training and the Monte Carlo
dropout baseline both draw their masks with ``make_dropout_masks``.

One layer loop, ``_layers``, runs the network for both callers.
``forward`` (training) runs it on the whole batch and keeps each hidden
layer's post-dropout activation, which is all ``backward`` reads.
``infer`` (scoring) runs it in the blocks of ``row_blocks``, so that a
block's layers and the caller's row-wise head stay in L2 cache and the
intermediates are O(block), not one (n, 32) array per layer; a block's bits
are those of ``forward`` on that block's rows by construction.  ``_layers``
refuses a non-finite output, for training and for every scorer before any head.
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
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("MlpConfig: dims must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("MlpConfig: hidden dims must be positive")
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


@dataclass
class ForwardTrace:
    """Cached intermediates from one forward pass, consumed by backward."""

    inputs: np.ndarray
    activations: list[np.ndarray] = field(default_factory=list)  # post-dropout, per hidden layer
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


def make_dropout_masks(cfg: MlpConfig, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Scaled inverted-dropout masks on ``n`` rows, one per hidden layer.
    Each layer's keep decisions are the next 16-bit words of
    ``rng.bit_generator.random_raw``, four per output in little-endian order,
    rows in row-major order; a layer starts on a fresh output.  A unit is
    dropped when its word is below cut = round(rate * 2**16); kept units are
    scaled by 2**16 / (2**16 - cut), so E[mask] = 1.
    """
    cut = round(cfg.dropout_rate * 2**16)
    if not 0 < cut < 2**16:
        raise ValueError(f"make_dropout_masks: dropout_rate {cfg.dropout_rate} "
                         "drops no unit or every unit at 16-bit resolution")
    masks = []
    for h in cfg.hidden_dims:
        words = rng.bit_generator.random_raw(-(-n * h // 4)).astype("<u8", copy=False).view("<u2")
        mask = (words[: n * h] >= cut).astype(np.float64)
        mask *= 2**16 / (2**16 - cut)
        masks.append(mask.reshape(n, h))
    return masks


def _layers(params: MlpParams, h: np.ndarray, masks=None, activations=None) -> np.ndarray:
    """The network's outputs on rows ``h``: each layer is ``h @ w + b``, then
    on hidden layers ReLU and the layer's mask, in place.  Each hidden
    activation is appended to ``activations`` when a list is given.  A
    non-finite output raises NumericError, in training and in scoring alike."""
    n_hidden = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w
        h += b
        if i < n_hidden:
            np.maximum(h, 0.0, out=h)
            if masks is not None:
                h *= masks[i]
            if activations is not None:
                activations.append(h)
    if not np.isfinite(h).all():
        raise NumericError("non-finite logits")
    return h


def forward(
    params: MlpParams,
    batch: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network on a float64 (n, input_dim) batch; returns (outputs,
    trace); a non-finite output raises NumericError.  Shapes are unchecked:
    ``train`` has matched the network to its data, and ``dropout_masks``, if
    given, are ``make_dropout_masks``'s for this batch."""
    trace = ForwardTrace(inputs=batch, masks=dropout_masks)
    return _layers(params, batch, dropout_masks, trace.activations), trace


def row_blocks(n: int) -> list[slice]:
    """The row blocks ``infer`` scores ``n`` rows in, in order, with one empty
    block when ``n`` is 0.  A lone last row joins the block before it: numpy
    multiplies a 1-row matrix by another (gemv) kernel, whose last bits
    differ.  A scorer that loops over these blocks itself and calls
    ``infer`` on each gets the bits of one ``infer`` call on all rows.

    The contract is that a row's bits depend on its company: the same row
    scored in another call, such as a one-row CSV, may differ in the last
    bits of its logits and of the ``u`` built from them.  So may ``forward``
    on all rows at once, under a BLAS kernel (such as OpenBLAS's Haswell)
    whose product bits depend on the shape of the matrix."""
    starts = list(range(0, n, BLOCK_ROWS)) or [0]
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def infer(
    params: MlpParams,
    batch: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
    head=None,
) -> np.ndarray:
    """``forward(params, batch, dropout_masks)[0]`` for scoring, in the blocks
    of ``row_blocks``: each block runs ``forward``'s layer loop on its rows,
    so its bits are those of ``forward`` on them by construction.
    ``dropout_masks``, if given, are one (rows, width) mask per hidden
    layer, as ``make_dropout_masks`` draws them.  A row-wise ``head`` maps
    each block's outputs while they are in cache; with no rows it sees one
    empty block, and zero rows give zero rows out.  A non-finite output
    raises NumericError in ``_layers``, before any head sees its block."""
    x = np.asarray(batch, dtype=np.float64)
    width = params.weights[0].shape[0]
    if x.ndim != 2 or x.shape[1] != width:  # the one guard between a CSV and a checkpoint
        raise ValueError(f"infer: the rows have {x.shape[-1]} features in shape {x.shape}, "
                         f"but the network's input width is {width}, so it takes (n, {width})")
    n, out = len(x), None
    for rows in row_blocks(n):
        masks = None if dropout_masks is None else [m[rows] for m in dropout_masks]
        h = _layers(params, x[rows], masks)
        if head is not None:
            h = head(h)
        if out is None:
            out = np.empty((n, *h.shape[1:]), dtype=h.dtype)
        out[rows] = h
    return out


def backward(trace: ForwardTrace, params: MlpParams, grad_out: np.ndarray, out: MlpParams) -> MlpParams:
    """Backpropagate d(loss)/d(outputs), shaped like the outputs of the
    forward pass that made ``trace``, to parameter gradients in ``out``.
    The ReLU gate reads the post-dropout activation: a dropped unit's delta
    is already +-0, and a kept unit's activation is above 0 exactly where
    its pre-activation is, as the mask's scale is positive."""
    delta = grad_out
    for i in range(len(params.weights) - 1, -1, -1):
        below = trace.inputs if i == 0 else trace.activations[i - 1]
        np.matmul(below.T, delta, out=out.weights[i])
        np.add.reduce(delta, axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            if trace.masks is not None:
                delta *= trace.masks[i - 1]
            delta *= below > 0.0
    return out

