"""Minimal dense-network stack: forward pass, softmax/cross-entropy,
hand-written backpropagation, and SGD/Adam updates.

All arithmetic is float64. Matrices are 2-D numpy arrays in row-major
order; a batch is (B, d_in) and logits are (B, C).

A model keeps all its parameters in one flat vector, `MlpModel.params`,
with per-layer weight and bias views into it. `backward` returns a flat
gradient and the Adam moments are flat vectors of the same layout, so
`optimizer_step` updates every parameter with a few whole-vector
operations.

A training loop passes a `Workspace` to `forward` and `backward`, and
`make_optimizer` gives Adam its scratch vector, so a step reuses its
buffers instead of allocating them. Every operation and its order is the
same with or without one, so the results are bitwise equal.

Each hidden layer has one row buffer: `forward` applies the rectifier in
place, and with a workspace `backward` writes each layer's delta over
that layer's activations, which it has finished reading. So a cache is
spent once `backward` has used it with a workspace. `optimizer_step`
overwrites `grads`, which the update no longer needs once both Adam
moments hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, ShapeError

Matrix = np.ndarray

OPTIMIZER_KINDS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Layer:
    """One dense layer; inside an MlpModel both arrays are views into its params."""

    weight: Matrix  # (out, in)
    bias: np.ndarray  # (out,)


class MlpModel:
    """Fully connected net with rectifier hidden units and identity output.

    Every parameter lives in one contiguous float64 vector, `params`, laid
    out layer by layer as the row-major weight followed by the bias. Each
    layer's weight and bias are views into it, so a write through either
    changes `params`. Gradients and optimizer moments share this layout.
    """

    def __init__(self, layers: list[Layer]):
        for layer in layers:
            if np.ndim(layer.weight) != 2 or np.shape(layer.bias) != np.shape(layer.weight)[:1]:
                raise ShapeError(
                    f"layer weight {np.shape(layer.weight)} and bias {np.shape(layer.bias)} "
                    "do not form a dense layer"
                )
        self.shapes = tuple(np.shape(layer.weight) for layer in layers)  # (out, in) per layer
        self.params = np.concatenate(
            [np.ravel(a) for layer in layers for a in (layer.weight, layer.bias)], dtype=float
        )
        self.layers = [Layer(w, b) for w, b in self.layer_views(self.params)]

    def __reduce__(self):
        # Views pickle as copies, so rebuild the shared vector on unpickling.
        return MlpModel, (self.layers,)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def num_classes(self) -> int:
        return self.shapes[-1][0]

    def layer_views(self, vector: np.ndarray) -> list[tuple[Matrix, np.ndarray]]:
        """Per-layer (weight, bias) views into a vector laid out like `params`."""
        if vector.shape != self.params.shape:
            raise ShapeError(f"vector shape {vector.shape}, expected {self.params.shape}")
        views, pos = [], 0
        for rows, cols in self.shapes:
            end = pos + rows * cols
            views.append((vector[pos:end].reshape(rows, cols), vector[end : end + rows]))
            pos = end + rows
        return views

    def copy(self) -> "MlpModel":
        return MlpModel(self.layers)


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by backward()."""

    inputs: Matrix
    activations: list[Matrix]  # hidden-layer outputs, after the rectifier


class _RowBuffers(NamedTuple):
    """The `out=` targets of one step; None entries make numpy allocate."""

    hidden: list[Matrix | None]  # per hidden layer: z, then the activations, then the delta
    logits: Matrix | None


class Workspace:
    """Buffers that one model's training steps reuse instead of allocating.

    It holds the flat gradient and the row buffers: the logits and one
    buffer per hidden layer, which holds the layer's activations and then
    its delta. The row buffers are sized from the first batch and grow only when a batch
    has more rows; a shorter batch gets leading-row views of them, made
    once per row count. With a workspace, the logits and cache that
    `forward` returns and the gradient that `backward` returns are
    overwritten by the next call with the same workspace, and `backward`
    overwrites the cache's activations.
    """

    def __init__(self, model: MlpModel) -> None:
        self.shapes = model.shapes
        self.grads = np.empty_like(model.params)
        self.grad_views = model.layer_views(self.grads)
        self._full: _RowBuffers | None = None
        self._views: dict[int, _RowBuffers] = {}

    def rows(self, n: int) -> _RowBuffers:
        """Views of the row buffers for an n-row batch."""
        views = self._views.get(n)
        if views is None:
            if self._full is None or n > len(self._full.logits):
                widths = [rows for rows, _ in self.shapes]
                self._full = _RowBuffers(
                    [np.empty((n, w)) for w in widths[:-1]], np.empty((n, widths[-1]))
                )
                self._views = {}
            full = self._full
            views = self._views[n] = _RowBuffers([b[:n] for b in full.hidden], full.logits[:n])
        return views


def _row_buffers(model: MlpModel, n: int, ws: Workspace | None) -> _RowBuffers:
    if ws is None:
        return _RowBuffers([None] * (len(model.layers) - 1), None)
    _check_fits(model, ws)
    return ws.rows(n)


def _check_fits(model: MlpModel, ws: Workspace) -> None:
    if ws.shapes != model.shapes:
        raise ShapeError(f"workspace is for layers {ws.shapes}, the model has {model.shapes}")


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    # Adam's moment estimates, laid out like the model's params.
    moment1: np.ndarray | None = field(default=None, repr=False)
    moment2: np.ndarray | None = field(default=None, repr=False)
    # Adam's temporary, reused by every step; None makes a step allocate it.
    scratch: np.ndarray | None = field(default=None, repr=False)


def init_mlp(seed: int, layer_dims: list[int]) -> MlpModel:
    """Build an MLP with uniform fan-in-scaled weights and zero biases.

    Weights are drawn from U(-sqrt(6/fan_in), +sqrt(6/fan_in)). The same
    seed and dims always produce a bit-identical model.
    """
    if len(layer_dims) < 2:
        raise InvalidArgumentError(f"need at least 2 layer dims, got {layer_dims}")
    if any(int(d) <= 0 for d in layer_dims):
        raise InvalidArgumentError(f"layer dims must be positive, got {layer_dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(weight, np.zeros(fan_out)))
    return MlpModel(layers)


def forward(
    model: MlpModel, batch: Matrix, ws: Workspace | None = None
) -> tuple[Matrix, ForwardCache]:
    """Run the net on a batch, returning logits and the cache for backward().

    With a workspace the logits and the cache live in its buffers, valid
    until the next call with that workspace; without one they are fresh.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} features, model expects {model.input_dim}"
        )
    out = _row_buffers(model, batch.shape[0], ws)
    activations = []
    a = batch
    for layer, a_out in zip(model.layers[:-1], out.hidden):
        a = np.matmul(a, layer.weight.T, out=a_out)
        a += layer.bias
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    last = model.layers[-1]
    logits = np.matmul(a, last.weight.T, out=out.logits)
    logits += last.bias
    return logits, ForwardCache(batch, activations)


def row_max(z: Matrix) -> Matrix:
    """Each row's maximum as a column: z.max(axis=1, keepdims=True).

    numpy reduces a short last axis one row at a time; the maximum down the
    columns of a transposed copy costs a third to a half of that at 4 to 10
    classes and batch 64 or more. The maximum is exact, so the values are
    the same, except that a tie of +0.0 and -0.0 may yield the other zero,
    which changes no softmax or log-softmax value.
    """
    return np.ascontiguousarray(z.T).max(axis=0)[:, None]


def softmax_t(logits: Matrix, temperature: float = 1.0) -> Matrix:
    """Row-wise tempered softmax with max-subtraction for stability."""
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - row_max(z)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_t(logits: Matrix, temperature: float = 1.0) -> Matrix:
    """Row-wise log of the tempered softmax (log-sum-exp form)."""
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - row_max(z)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def cross_entropy(logits: Matrix, labels: np.ndarray) -> tuple[float, Matrix]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Returns (loss, dlogits) with dlogits = (softmax - one_hot) / B.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InvalidArgumentError(f"labels must lie in [0, {c}), got {labels}")
    logp = log_softmax_t(logits)
    loss = -float(logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def backward(
    model: MlpModel, cache: ForwardCache, dlogits: Matrix, ws: Workspace | None = None
) -> np.ndarray:
    """Exact reverse-mode gradients for the loss whose logit-gradient is dlogits.

    Returns one flat vector laid out like `model.params`; `model.layer_views`
    splits it into per-layer (dweight, dbias) pairs. With a workspace the
    vector is the workspace's, valid until the next call with it, and each
    hidden layer's delta is written over its activations in `cache`.
    """
    dlogits = np.asarray(dlogits, dtype=float)
    n = cache.inputs.shape[0]
    if dlogits.shape != (n, model.num_classes):
        raise ShapeError(
            f"dlogits shape {dlogits.shape}, expected {(n, model.num_classes)}"
        )
    if ws is None:
        grads = np.empty_like(model.params)
        views = model.layer_views(grads)
    else:
        _check_fits(model, ws)
        grads, views = ws.grads, ws.grad_views
    delta = dlogits
    for k in range(len(model.layers) - 1, -1, -1):
        a_prev = cache.activations[k - 1] if k > 0 else cache.inputs
        dw, db = views[k]
        np.matmul(delta.T, a_prev, out=dw)
        delta.sum(axis=0, out=db)
        if k > 0:
            # max(z, 0) > 0 exactly where z > 0, for NaN and -0.0 too, so the
            # activations give the rectifier's mask; take it before they are overwritten.
            mask = a_prev > 0
            delta = np.matmul(delta, model.layers[k].weight, out=None if ws is None else a_prev)
            delta *= mask
    return grads


def make_optimizer(model: MlpModel, kind: str, learning_rate: float) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise InvalidArgumentError(f"unknown optimizer {kind!r}, expected one of {OPTIMIZER_KINDS}")
    if learning_rate <= 0:
        raise InvalidArgumentError(f"learning rate must be > 0, got {learning_rate}")
    state = OptimizerState(kind, learning_rate)
    if kind == "adam":
        state.moment1, state.moment2 = np.zeros_like(model.params), np.zeros_like(model.params)
        state.scratch = np.empty_like(model.params)
    return state


def optimizer_step(
    model: MlpModel, grads: np.ndarray, state: OptimizerState
) -> tuple[MlpModel, OptimizerState]:
    """Apply one update to `model.params` in place and return the (model, state) pair.

    `grads` is a flat vector laid out like `model.params`, as backward returns.
    The step overwrites it.
    """
    params = model.params
    if np.shape(grads) != params.shape:
        raise ShapeError(f"gradient shape {np.shape(grads)} does not match params {params.shape}")
    lr = state.learning_rate
    if state.kind == "sgd":
        grads *= lr
        params -= grads
        state.step += 1
        return model, state
    # Adam with bias-corrected moments:
    #   m1 = b1*m1 + (1-b1)*g,  m2 = b2*m2 + (1-b2)*(g*g),
    #   p -= lr*(m1/corr1) / (sqrt(m2/corr2) + eps).
    # Each operation is the formula's own, in its order, so the update is
    # bitwise the same as evaluating it term by term; only the buffers are reused.
    # The gradient is dead once both moments hold it, so its vector takes the update.
    state.step += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.step
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m1, m2 = state.moment1, state.moment2
    buf = np.multiply(grads, 1 - b1, out=state.scratch)
    m1 *= b1
    m1 += buf
    np.multiply(grads, grads, out=buf)
    buf *= 1 - b2
    m2 *= b2
    m2 += buf
    np.divide(m2, corr2, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPS
    update = np.divide(m1, corr1, out=grads)
    update *= lr
    update /= buf
    params -= update
    return model, state
