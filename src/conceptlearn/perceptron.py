"""Single-layer sigmoid classifier trained by full-batch gradient descent on
mean cross-entropy."""

from __future__ import annotations

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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stop_tol < 0:
            raise ValueError("early_stop_tol must be >= 0")


@dataclass(frozen=True)
class PerceptronModel:
    weights: np.ndarray
    bias: float
    train_loss_trace: tuple[float, ...]
    epochs_run: int

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise ValueError("non-finite model parameters")


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy from logits, via the stable softplus form."""
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def train(
    split: EvaluationSplit, store: EmbeddingStore, cfg: TrainConfig = TrainConfig()
) -> PerceptronModel:
    """Fit weights and bias on the split's training half.

    Zero initialization, full-batch updates, and a halved learning rate
    whenever the epoch loss goes up; stops early once the loss decrease drops
    below `early_stop_tol`. Deterministic in all inputs. Accumulation is in
    float64 regardless of the store's dtype.
    """
    X = np.asarray(store.vectors[split.train_rows], dtype=np.float64)
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

    return PerceptronModel(
        weights=theta, bias=bias, train_loss_trace=tuple(trace), epochs_run=len(trace)
    )


def score(model: PerceptronModel, store: EmbeddingStore, rows) -> np.ndarray:
    """Sigmoid scores in (0, 1) for the vocabulary `rows`, order-preserving.

    A row's score is bitwise independent of the other rows in the call,
    including their order and how many there are. `X @ w` does not give that,
    since BLAS `dgemv` may sum a row in an order that depends on its position
    and on the batch size; `einsum` reduces each row on its own.
    """
    X = np.asarray(store.vectors[rows], dtype=np.float64)
    return sigmoid(np.einsum("ij,j->i", X, model.weights) + model.bias)


def loss_and_gradient(X, y, theta, bias, l2: float = 0.0):
    """Mean cross-entropy plus `l2 * |theta|^2`, and its analytic gradient
    w.r.t. (theta, bias).

    The one loss `train` descends; the tests check it against finite
    differences.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    z = X @ theta + bias
    loss = cross_entropy(z, y)
    resid = sigmoid(z) - y
    grad_theta = X.T @ resid / len(y)
    if l2 > 0.0:
        loss += l2 * float(theta @ theta)
        grad_theta = grad_theta + 2.0 * l2 * theta
    return loss, grad_theta, float(np.mean(resid))
