"""Minimal dense-network stack: forward pass, softmax/cross-entropy,
hand-written backpropagation, and SGD/Adam updates.

All arithmetic is float64. Matrices are 2-D numpy arrays in row-major
order; a batch is (B, d_in) and logits are (B, C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ShapeError

Matrix = np.ndarray

OPTIMIZER_KINDS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Layer:
    weight: Matrix  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class MlpModel:
    """Fully connected net with rectifier hidden units and identity output."""

    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel([Layer(l.weight.copy(), l.bias.copy()) for l in self.layers])


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by backward()."""

    inputs: Matrix
    pre_activations: list[Matrix]  # hidden-layer z, before the rectifier
    activations: list[Matrix]  # hidden-layer outputs, after the rectifier


# Gradients mirror the model layout: one (dweight, dbias) pair per layer.
Gradients = list[tuple[Matrix, np.ndarray]]


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    moment1: Gradients | None = field(default=None, repr=False)
    moment2: Gradients | None = field(default=None, repr=False)


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


def forward(model: MlpModel, batch: Matrix) -> tuple[Matrix, ForwardCache]:
    """Run the net on a batch, returning logits and the cache for backward()."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} features, model expects {model.input_dim}"
        )
    pre, post = [], []
    a = batch
    for layer in model.layers[:-1]:
        z = a @ layer.weight.T + layer.bias
        a = np.maximum(z, 0.0)
        pre.append(z)
        post.append(a)
    last = model.layers[-1]
    logits = a @ last.weight.T + last.bias
    return logits, ForwardCache(batch, pre, post)


def softmax_t(logits: Matrix, temperature: float = 1.0) -> Matrix:
    """Row-wise tempered softmax with max-subtraction for stability."""
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_t(logits: Matrix, temperature: float = 1.0) -> Matrix:
    """Row-wise log of the tempered softmax (log-sum-exp form)."""
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max(axis=1, keepdims=True)
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


def backward(model: MlpModel, cache: ForwardCache, dlogits: Matrix) -> Gradients:
    """Exact reverse-mode gradients for the loss whose logit-gradient is dlogits."""
    dlogits = np.asarray(dlogits, dtype=float)
    n = cache.inputs.shape[0]
    if dlogits.shape != (n, model.num_classes):
        raise ShapeError(
            f"dlogits shape {dlogits.shape}, expected {(n, model.num_classes)}"
        )
    grads: Gradients = [None] * len(model.layers)  # type: ignore[list-item]
    delta = dlogits
    for k in range(len(model.layers) - 1, -1, -1):
        a_prev = cache.activations[k - 1] if k > 0 else cache.inputs
        grads[k] = (delta.T @ a_prev, delta.sum(axis=0))
        if k > 0:
            delta = (delta @ model.layers[k].weight) * (cache.pre_activations[k - 1] > 0)
    return grads


def make_optimizer(model: MlpModel, kind: str, learning_rate: float) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise InvalidArgumentError(f"unknown optimizer {kind!r}, expected one of {OPTIMIZER_KINDS}")
    if learning_rate <= 0:
        raise InvalidArgumentError(f"learning rate must be > 0, got {learning_rate}")
    m1 = m2 = None
    if kind == "adam":
        m1 = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.layers]
        m2 = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.layers]
    return OptimizerState(kind, learning_rate, 0, m1, m2)


def optimizer_step(
    model: MlpModel, grads: Gradients, state: OptimizerState
) -> tuple[MlpModel, OptimizerState]:
    """Apply one update in place and return the (model, state) pair."""
    if len(grads) != len(model.layers):
        raise ShapeError(f"got {len(grads)} gradient pairs for {len(model.layers)} layers")
    for layer, (dw, db) in zip(model.layers, grads):
        if dw.shape != layer.weight.shape or db.shape != layer.bias.shape:
            raise ShapeError(
                f"gradient shapes {(dw.shape, db.shape)} do not match layer "
                f"{(layer.weight.shape, layer.bias.shape)}"
            )
    lr = state.learning_rate
    if state.kind == "sgd":
        for layer, (dw, db) in zip(model.layers, grads):
            layer.weight -= lr * dw
            layer.bias -= lr * db
        state.step += 1
        return model, state
    # Adam with bias-corrected moments.
    state.step += 1
    b1, b2, eps, t = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.step
    assert state.moment1 is not None and state.moment2 is not None
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for layer, (dw, db), (m1w, m1b), (m2w, m2b) in zip(
        model.layers, grads, state.moment1, state.moment2
    ):
        m1w *= b1
        m1w += (1 - b1) * dw
        m1b *= b1
        m1b += (1 - b1) * db
        m2w *= b2
        m2w += (1 - b2) * dw**2
        m2b *= b2
        m2b += (1 - b2) * db**2
        layer.weight -= lr * (m1w / corr1) / (np.sqrt(m2w / corr2) + eps)
        layer.bias -= lr * (m1b / corr1) / (np.sqrt(m2b / corr2) + eps)
    return model, state
