"""Single-layer sigmoid classifier trained by full-batch gradient descent on
mean cross-entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore
from .splits import EvaluationSplit


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    early_stop_tol: float = 1e-6
    l2: float = 0.0

    def __post_init__(self):
        # comparison form: NaN fails too. An infinite early_stop_tol is
        # valid: training stops at the first epoch whose loss does not rise
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.early_stop_tol >= 0:
            raise ValueError("early_stop_tol must be >= 0")
        if not 0 <= self.l2 < math.inf:
            raise ValueError("l2 must be finite and >= 0")


@dataclass(frozen=True)
class PerceptronModel:
    weights: np.ndarray
    bias: float
    train_loss_trace: tuple[float, ...]

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise ValueError("non-finite model parameters")

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss_trace)


def sigmoid(z):
    """Numerically stable logistic function, elementwise.

    One `exp` of -|z| serves both signs: 1/(1+e) for z >= 0 and e/(1+e)
    below, so no `exp` argument is positive and nothing overflows.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = np.where(z >= 0, 1.0 / d, e / d)
    if out.ndim == 0:
        return float(out)
    return out


def cross_entropy(z: np.ndarray, y: np.ndarray):
    """Mean cross-entropy from logits over the last axis, via the stable
    softplus form: a number for one model's z, one per model for a stack."""
    return np.add.reduce(np.logaddexp(0.0, z) - y * z, axis=-1) / z.shape[-1]


def train(
    split: EvaluationSplit, store: EmbeddingStore, cfg: TrainConfig = TrainConfig()
) -> PerceptronModel:
    """Fit weights and bias on the split's training half: `train_many` on a
    stack of one."""
    return train_many([split], store, cfg)[0]


# Stacking pays while one model's float64 training matrix is small: then a
# fit is mostly numpy call overhead, which K models share, and a stack of
# STACK_BYTES stays in L2. As the matrix grows, the products, not the calls,
# take a fit's time: at d = 300 on 2 vCPUs, stacks took 0.8x the time of
# one-at-a-time fits at 150 words (360 KiB a fit) but 1.06x at 232 words
# and 1.26x at 400. Fits above MAX_STACKED_FIT_BYTES (n > 108 words at
# d = 300) train one at a time, and a stack of one is the serial trainer.
MAX_STACKED_FIT_BYTES = 256 * 1024
STACK_BYTES = 2 * 1024 * 1024


def stack_size(train_rows: int, dimension: int) -> int:
    """Fits to train together when each has `train_rows` rows of
    `dimension` floats; 1 means train them one at a time."""
    fit_bytes = train_rows * dimension * 8
    if fit_bytes > MAX_STACKED_FIT_BYTES:
        return 1
    return STACK_BYTES // fit_bytes


def train_many(
    splits, store: EmbeddingStore, cfg: TrainConfig = TrainConfig()
) -> list[PerceptronModel]:
    """Fit one model on each split's training half; the splits share their
    training labels.

    Zero initialization and full-batch updates of all live models through one
    `loss_and_gradient` call per epoch. Each model keeps its own learning
    rate, halved whenever its epoch loss goes up, and stops once its loss
    decrease drops below `early_stop_tol`. Every slice of a stack takes the
    same BLAS calls and reductions as a stack of one, so a model is bitwise
    the same whatever the other splits are. Deterministic in all inputs;
    accumulation is in float64 regardless of the store's dtype. Raises
    FloatingPointError for the first model whose loss turns non-finite.
    """
    X = store.gather(np.stack([s.train_rows for s in splits]))
    # a label row per model: ufuncs on operands of one shape do not broadcast
    y = np.tile(splits[0].train_labels(), (len(splits), 1))
    theta, bias = np.zeros((len(splits), store.dimension)), np.zeros(len(splits))
    lr = np.full(len(splits), float(cfg.learning_rate))
    traces: list[list[float]] = [[] for _ in splits]
    models: list = [None] * len(splits)
    live = list(range(len(splits)))  # the split of each stack row
    for epoch in range(cfg.epochs):
        loss, grad_theta, grad_bias = loss_and_gradient(X, y, theta, bias, cfg.l2)
        keep = []
        for j, (i, value) in enumerate(zip(live, loss.tolist())):
            if not math.isfinite(value):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch} (learning rate {lr[j]})"
                )
            trace = traces[i]
            trace.append(value)
            if len(trace) > 1:
                if value > trace[-2]:
                    lr[j] *= 0.5
                elif trace[-2] - value < cfg.early_stop_tol:
                    models[i] = PerceptronModel(theta[j], float(bias[j]), tuple(trace))
                    continue
            keep.append(j)
        if len(keep) < len(live):
            if not keep:
                return models
            live = [live[j] for j in keep]
            X, y, theta, bias, lr = X[keep], y[keep], theta[keep], bias[keep], lr[keep]
            grad_theta, grad_bias = grad_theta[keep], grad_bias[keep]
        theta = theta - lr[:, None] * grad_theta
        bias = bias - lr * grad_bias
    for j, i in enumerate(live):
        models[i] = PerceptronModel(theta[j], float(bias[j]), tuple(traces[i]))
    return models


def score(model: PerceptronModel, store: EmbeddingStore, rows) -> np.ndarray:
    """Sigmoid scores in (0, 1) for the vocabulary `rows`, order-preserving.

    A row's score is bitwise independent of the other rows in the call,
    including their order and how many there are. `X @ w` does not give that,
    since BLAS `dgemv` may sum a row in an order that depends on its position
    and on the batch size; `einsum` reduces each row on its own.
    """
    X = store.gather(rows)
    return sigmoid(np.einsum("ij,j->i", X, model.weights) + model.bias)


def loss_and_gradient(X, y, theta, bias, l2: float = 0.0):
    """Mean cross-entropy plus `l2 * |theta|^2`, and its analytic gradient
    w.r.t. (theta, bias).

    The one loss every fit descends, for one model (X (m, d), y (m,), theta
    (d,), a number as bias; numpy float scalars out) or for a stack of K (X
    (K, m, d), y (K, m) or (m,), theta (K, d), bias (K,); one value per
    model out). A stack's slice takes the same BLAS calls and reductions as
    its one-model call, so its results are bitwise that call's. The tests
    check it against finite differences. X, y and theta are float64 arrays.
    """
    z = (X @ theta[..., None])[..., 0] + np.asarray(bias)[..., None]
    loss = cross_entropy(z, y)
    resid = sigmoid(z) - y
    grad_theta = (X.swapaxes(-1, -2) @ resid[..., None])[..., 0] / y.shape[-1]
    if l2 > 0.0:
        loss = loss + l2 * (theta[..., None, :] @ theta[..., :, None])[..., 0, 0]
        grad_theta = grad_theta + 2.0 * l2 * theta
    return loss, grad_theta, np.add.reduce(resid, axis=-1) / y.shape[-1]
