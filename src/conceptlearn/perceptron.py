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
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)


def train(
    split: EvaluationSplit, store: EmbeddingStore, cfg: TrainConfig = TrainConfig()
) -> PerceptronModel:
    """Fit weights and bias on the split's training half.

    Zero initialization, full-batch updates, and a halved learning rate
    whenever the epoch loss goes up; stops early once the loss decrease drops
    below `early_stop_tol`. Deterministic in all inputs. Accumulation is in
    float64 regardless of the store's dtype.
    """
    X = store.gather(split.train_rows)
    y = split.train_labels()

    theta = np.zeros(X.shape[1])
    bias = 0.0
    lr = cfg.learning_rate
    trace: list[float] = []
    prev = None
    for epoch in range(cfg.epochs):
        loss, grad_theta, grad_bias = loss_and_gradient(X, y, theta, bias, cfg.l2)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite training loss at epoch {epoch} (learning rate {lr})"
            )
        trace.append(loss)
        if prev is not None:
            if loss > prev:
                lr *= 0.5
            elif prev - loss < cfg.early_stop_tol:
                break
        prev = loss
        theta = theta - lr * grad_theta
        bias = bias - lr * grad_bias

    return PerceptronModel(weights=theta, bias=bias, train_loss_trace=tuple(trace))


# Stacked training (`train_many`) pays while one model's float64 training
# matrix is small: then a fit is mostly numpy call overhead, which K models
# share. A stack of STACK_BYTES stays in L2; above MAX_STACKED_FIT_BYTES per
# model (n > 108 words at d = 300) stacked fits ran slower than serial ones.
# The serial `train` keeps its own loop and loss: both one-fit alternatives
# were bitwise equal but slower (at d = 300, `train_many` on one fit took
# 1.26-1.55x as long for n = 232-908, and one loss written for both shapes
# 1.09-1.17x as long per serial call), so a change to the loss must edit
# both `loss_and_gradient` and `_stacked_loss_and_gradient`.
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
    """`train` for each of K splits with the same training labels, as one
    stacked fit.

    Each epoch runs the K matrix-vector products through one stacked
    `np.matmul`, which hands every slice to the same BLAS call as `train`,
    and keeps a learning rate and stop rule per model, so model k is bitwise
    `train(splits[k], store, cfg)` whatever the other splits are. Raises
    FloatingPointError if any model's loss turns non-finite.
    """
    rows = np.stack([s.train_rows for s in splits])
    X = store.gather(rows)
    y = splits[0].train_labels()
    k, epochs = len(splits), cfg.epochs

    weights, biases = np.zeros((k, store.dimension)), np.zeros(k)
    epochs_run = np.full(k, epochs)
    losses = np.empty((epochs, k))
    # state of the models still training, compacted whenever some stop
    live = np.arange(k)
    theta, bias = np.zeros((k, store.dimension)), np.zeros(k)
    lr = np.full(k, float(cfg.learning_rate))
    prev = None
    for epoch in range(epochs):
        loss, grad_theta, grad_bias = _stacked_loss_and_gradient(
            X, y, theta, bias, cfg.l2
        )
        if not np.isfinite(loss).all():
            raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
        losses[epoch, live] = loss
        if prev is not None:
            up = loss > prev
            lr[up] *= 0.5
            stop = ~up & (prev - loss < cfg.early_stop_tol)
            if stop.any():
                done = live[stop]
                weights[done], biases[done] = theta[stop], bias[stop]
                epochs_run[done] = epoch + 1
                keep = ~stop
                live, X, lr = live[keep], X[keep], lr[keep]
                theta, bias, loss = theta[keep], bias[keep], loss[keep]
                grad_theta, grad_bias = grad_theta[keep], grad_bias[keep]
                if not live.size:
                    break
        prev = loss
        theta = theta - lr[:, None] * grad_theta
        bias = bias - lr * grad_bias
    weights[live], biases[live] = theta, bias

    return [
        PerceptronModel(
            weights=weights[i],
            bias=float(biases[i]),
            train_loss_trace=tuple(losses[: epochs_run[i], i].tolist()),
        )
        for i in range(k)
    ]


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

    The one loss `train` descends; the tests check it against finite
    differences. X, y and theta are float64 arrays.
    """
    z = X @ theta + bias
    loss = float(cross_entropy(z, y))
    resid = sigmoid(z) - y
    grad_theta = X.T @ resid / len(y)
    if l2 > 0.0:
        loss += l2 * float(theta @ theta)
        grad_theta = grad_theta + 2.0 * l2 * theta
    return loss, grad_theta, float(np.mean(resid))


def _stacked_loss_and_gradient(X, y, theta, bias, l2: float):
    """`loss_and_gradient` of K models at once: X (K, m, d), theta (K, d),
    bias (K,). Every slice takes the operations of the serial function in
    the same order, so its results are bitwise the serial ones."""
    z = (X @ theta[:, :, None])[:, :, 0] + bias[:, None]
    loss = cross_entropy(z, y)
    resid = sigmoid(z) - y
    grad_theta = (np.swapaxes(X, 1, 2) @ resid[:, :, None])[:, :, 0] / len(y)
    if l2 > 0.0:
        loss = loss + l2 * (theta[:, None, :] @ theta[:, :, None])[:, 0, 0]
        grad_theta = grad_theta + 2.0 * l2 * theta
    return loss, grad_theta, np.mean(resid, axis=1)
