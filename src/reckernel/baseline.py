"""Multiclass logistic regression trained by full-batch gradient descent.

A linear softmax model on preprocessed feature vectors, with a bias column.
Deterministic (zero initialization, fixed schedule), no external optimizer.
It remains only because perfbench/ and acceptance criterion 7 call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import check_labels


#: the learning rate at step t is LR / (1 + t / DECAY)
LR = 2.0
DECAY = 200.0


@dataclass(frozen=True)
class LogisticConfig:
    n_classes: int = 10
    iters: int = 400

    def __post_init__(self):
        # zero steps would leave W = 0, which predicts class 0 for every row
        if self.iters < 1:
            raise ValueError(f"iters must be at least 1, got {self.iters}")


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def train_logistic(X, labels, cfg: LogisticConfig) -> np.ndarray:
    """Weight matrix (n_classes, d + 1); the last column is the bias."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    check_labels(labels, cfg.n_classes)
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    Y = np.zeros((n, cfg.n_classes))
    Y[np.arange(n), labels] = 1.0
    W = np.zeros((cfg.n_classes, d + 1))
    for t in range(cfg.iters):
        P = _softmax(Xb @ W.T)
        grad = (P - Y).T @ Xb / n
        W -= (LR / (1.0 + t / DECAY)) * grad
    return W


def predict_logistic(W: np.ndarray, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Xb = np.hstack([X, np.ones((len(X), 1))])
    return np.argmax(Xb @ W.T, axis=1)
