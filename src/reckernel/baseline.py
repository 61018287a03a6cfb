"""Multiclass logistic regression trained by full-batch gradient descent.

The comparison baseline for the benchmark: a linear softmax model on the same
preprocessed feature vectors, with a bias column.  Deterministic (zero
initialization, fixed schedule), no external optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: the learning rate at step t is LR / (1 + t / DECAY)
LR = 2.0
DECAY = 200.0


@dataclass(frozen=True)
class LogisticConfig:
    n_classes: int = 10
    iters: int = 400


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def train_logistic(X, labels, cfg: LogisticConfig) -> np.ndarray:
    """Weight matrix (n_classes, d + 1); the last column is the bias."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
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
