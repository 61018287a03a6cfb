"""Norm-ball constrained kernel empirical risk minimization.

Training solves

    min_alpha  (1/n) sum_j loss((G alpha)_j, y_j)   s.t.  alpha' G alpha <= B^2

by projected subgradient descent in the function space induced by the kernel:
the subgradient of the empirical risk at f is (1/n) sum_j loss'_j K(x_j, .),
whose coefficient representation is simply s/n, and projection onto the
radius-B ball is an exact radial scaling.  Iterates stay feasible throughout
and the incumbent (best objective seen) is returned.  Multiclass runs
one-vs-all as one batched solve over a shared Gram matrix; binary is its
one-class case.  Training is deterministic for a fixed config; returned
predictors are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import KernelStack, gram, kernel_matrix

LOSS_KINDS = ("hinge", "logistic", "squared")


class SolverDivergenceError(ArithmeticError):
    """Objective became non-finite during training."""

    def __init__(self, message, iteration, objective, alpha_norm):
        super().__init__(message)
        self.iteration = iteration
        self.objective = objective
        self.alpha_norm = alpha_norm


class DegenerateClassError(ValueError):
    """A class index in the requested range never occurs in the labels."""


class NumericalError(ArithmeticError):
    """A quantity that is nonnegative in exact arithmetic came out negative."""


@dataclass(frozen=True)
class Loss:
    """Convex loss with its subgradient and the constants used by the
    sample-size bound: Lipschitz constant ``rho`` in the prediction argument
    and range bound ``range_bound`` over predictions in [-B, B]."""

    kind: str
    rho: float
    range_bound: float

    def value(self, pred: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - y * pred)
        if self.kind == "logistic":
            return np.logaddexp(0.0, -y * pred)
        return (pred - y) ** 2

    def subgradient(self, pred: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "hinge":
            # at the kink (margin exactly 1) take the zero element
            return np.where(1.0 - y * pred > 0.0, -y, 0.0)
        if self.kind == "logistic":
            return -y * np.exp(-np.logaddexp(0.0, y * pred))
        return 2.0 * (pred - y)


def make_loss(kind: str, B: float) -> Loss:
    """Loss with constants instantiated for the budget B."""
    if kind == "hinge":
        return Loss(kind, rho=1.0, range_bound=1.0 + B)
    if kind == "logistic":
        # log(1 + e^B), computed stably for large B
        return Loss(kind, rho=1.0, range_bound=float(np.logaddexp(0.0, B)))
    if kind == "squared":
        # constants for predictions clipped to [-B, B] against labels in [-1, 1]
        return Loss(kind, rho=2.0 * (B + 1.0), range_bound=(B + 1.0) ** 2)
    raise ValueError(f"unknown loss {kind!r}; supported: {', '.join(LOSS_KINDS)}")


@dataclass(frozen=True)
class TrainConfig:
    depth: int
    budget: float
    loss: str = "hinge"
    max_iters: int = 5000
    #: initial step size; defaults to budget / rho
    eta0: Optional[float] = None
    #: stop when the best objective improves by less than this (relative)
    #: over ``patience`` iterations
    tolerance: float = 1e-6
    patience: int = 100

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        # negated so that NaN fails too
        if not 0.0 <= self.budget < math.inf:
            raise ValueError(f"budget must be finite and nonnegative, got {self.budget}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass(frozen=True)
class SolveReport:
    """How the solve of one class ended.

    ``stop_reason`` is ``window`` (the best objective improved by less than
    the tolerance over a patience window), ``max_iters``
    or ``zero_subgradient`` (the incumbent cannot improve).
    ``constraint_use`` is ``alpha' G alpha / B^2`` of the returned
    coefficients, 0 at B = 0.
    """

    iterations: int
    stop_reason: str
    best_objective: float
    constraint_use: float


def project(alpha: np.ndarray, G, B: float) -> np.ndarray:
    """Exact projection onto the RKHS ball of radius B.

    Scaling by B / sqrt(alpha' G alpha) is the metric projection because the
    quadratic form is the squared RKHS norm of the represented function.
    """
    A = np.array(alpha, dtype=float, ndmin=2)
    _scale_onto_ball(A, A @ np.asarray(G, dtype=float), B)
    return A.reshape(np.shape(alpha))


def _scale_onto_ball(A: np.ndarray, P: np.ndarray, B: float) -> np.ndarray:
    """Project each row of ``A`` in place, scaling ``P = A @ G`` alike;
    returns the quadratic forms before scaling."""
    q = np.einsum("ij,ij->i", A, P)
    if q.min() < -1e-8:
        raise NumericalError(f"quadratic form came out {q.min():.3g} < -1e-8; Gram is not PSD")
    over = q > B * B
    c = (B / np.sqrt(q[over]))[:, None]
    A[over] *= c
    P[over] *= c
    return q


def _check_unit_rows(X: np.ndarray):
    norms = np.linalg.norm(X, axis=1)
    # negated so that NaN norms fail too
    bad = np.nonzero(~(np.abs(norms - 1.0) <= 1e-6))[0]
    if bad.size:
        i = int(bad[0])
        kind = "" if math.isfinite(norms[i]) else "non-finite "
        raise ValueError(
            f"training rows must be unit-norm; row {i} has {kind}norm {norms[i]:.9g} "
            f"({bad.size} offending rows)")


def _minimize_on_gram(G: np.ndarray, Y: np.ndarray, cfg: TrainConfig,
                      callback: Optional[Callable[[int, int, float, float], None]] = None,
                      ) -> tuple[np.ndarray, tuple[SolveReport, ...]]:
    """Projected subgradient descent on the problems whose +-1 labels are the
    rows of ``Y`` (C, n), one row of the iterate ``A`` each.  Every rule acts
    per row, and a row that stops leaves the live set.  Returns each row's
    projected incumbent and report.  ``callback(c, t, objective, best)`` runs
    for every live row at t before any row at t + 1."""
    (C, n), B = Y.shape, cfg.budget
    loss = make_loss(cfg.loss, B)
    eta0 = cfg.eta0 if cfg.eta0 is not None else B / loss.rho
    live, A, best = np.arange(C), np.zeros((C, n)), np.zeros((C, n))
    best_obj, window_best = np.full(C, math.inf), np.full(C, math.inf)
    iterations, reasons = np.full(C, cfg.max_iters), np.full(C, "max_iters", dtype=object)
    for t in range(1, cfg.max_iters + 1):
        P = A @ G  # one GEMM for all live rows; G is exactly symmetric, so row c is G a_c
        _scale_onto_ball(A, P, B)
        obj = np.mean(loss.value(P, Y), axis=1)
        if not np.all(np.isfinite(obj)):
            i = int(np.argmin(np.isfinite(obj)))
            norm = float(np.linalg.norm(A[i]))
            raise SolverDivergenceError(f"class {live[i]}: objective became {obj[i]} at "
                                        f"iteration {t} (|alpha| = {norm:.3g})", t, obj[i], norm)
        better = obj < best_obj[live]
        best_obj[live[better]], best[live[better]] = obj[better], A[better]
        if callback is not None:
            for c, o, b in zip(live.tolist(), obj.tolist(), best_obj[live].tolist()):
                callback(c, t, o, b)
        stalled = np.zeros(len(live), dtype=bool)
        if t % cfg.patience == 0:
            # the first window has no earlier best to compare against
            prev, window_best[live] = window_best[live], best_obj[live]
            stalled = np.isfinite(prev) & (
                prev - best_obj[live] <= cfg.tolerance * np.maximum(np.abs(prev), 1e-12))
        S = loss.subgradient(P, Y)
        stop = stalled | ~S.any(axis=1)  # zero subgradient: the incumbent cannot improve
        if stop.any():
            iterations[live[stop]] = t
            reasons[live[stop]] = np.where(stalled[stop], "window", "zero_subgradient")
            live, A, Y, S = live[~stop], A[~stop], Y[~stop], S[~stop]
            if not live.size:
                break
        A = A - (eta0 / math.sqrt(t)) * (S / n)
    q = _scale_onto_ball(best, best @ G, B)
    use = q / (B * B) if B > 0 else np.zeros(C)  # at B = 0 the ball is the zero function
    return best, tuple(SolveReport(int(k), str(r), float(o), min(float(u), 1.0))
                       for k, r, o, u in zip(iterations, reasons, best_obj, use))


@dataclass(frozen=True)
class OneVsAllPredictor:
    """Per-class predictors ``f_c(x) = sum_i alphas[c, i] K_depth(x_i, x)``
    sharing one support set; argmax wins, ties broken toward the smallest
    class index.  A binary predictor has one class, and its decision value
    is ``scores(x)[0]``."""

    support: np.ndarray
    alphas: np.ndarray  # (n_classes, n_support)
    classes: tuple[int, ...]
    depth: int
    budget: float
    loss_kind: str
    reports: tuple[SolveReport, ...] = ()  # one per class; empty when loaded

    def __post_init__(self):
        for name in ("support", "alphas"):
            # a read-only view: no copy, and the caller's array keeps its flags
            a = np.asarray(getattr(self, name), dtype=float).view()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def scores_many(self, Xe) -> np.ndarray:
        K = kernel_matrix(self.depth, Xe, self.support, label="evaluation row {}")
        return K @ self.alphas.T

    def scores(self, x) -> np.ndarray:
        return self.scores_many(np.asarray(x, dtype=float)[None, :])[0]

    def classify_many(self, Xe) -> np.ndarray:
        idx = np.argmax(self.scores_many(Xe), axis=1)
        return np.array([self.classes[i] for i in idx])

    def classify(self, x) -> int:
        return int(self.classify_many(np.asarray(x, dtype=float)[None, :])[0])


def train(X, y, cfg: TrainConfig,
          callback: Optional[Callable[[int, float, float], None]] = None) -> OneVsAllPredictor:
    """Binary constrained kernel ERM; labels must be +-1.  Returns a
    one-class predictor whose ``alphas[0]`` is the coefficient vector."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_unit_rows(X)
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("binary labels must be +1 or -1")
    cb = (lambda c, t, o, b: callback(t, o, b)) if callback else None
    alphas, reports = _minimize_on_gram(gram(KernelStack(cfg.depth), X).entries, y[None], cfg, cb)
    return OneVsAllPredictor(support=X, alphas=alphas, classes=(1,), depth=cfg.depth,
                             budget=cfg.budget, loss_kind=cfg.loss, reports=reports)


def train_multiclass(X, labels, cfg: TrainConfig,
                     callback: Optional[Callable[[int, int, float, float], None]] = None,
                     n_classes: Optional[int] = None) -> OneVsAllPredictor:
    """One-vs-all training over class indices 0..C-1.

    C defaults to max label + 1; pass ``n_classes`` to pin it (labels must
    then cover every index below it).  All classes are solved together over
    one Gram matrix.  ``callback(class_index, iteration, objective,
    best_objective)`` runs iteration-major: every live class at iteration t
    before any class at t + 1.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != len(X):
        raise ValueError("labels must be one integer per row of X")
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if len(labels) else 0
    elif len(labels) and int(labels.max()) >= n_classes:
        raise ValueError(
            f"labels reach {int(labels.max())} but only {n_classes} classes requested")
    if n_classes < 2:
        raise ValueError("multiclass training needs at least 2 classes")
    present = set(int(v) for v in np.unique(labels))
    missing = [c for c in range(n_classes) if c not in present]
    if missing:
        raise DegenerateClassError(
            f"classes {missing} never occur in the training labels")
    _check_unit_rows(X)
    Y = np.where(np.arange(n_classes)[:, None] == labels[None, :], 1.0, -1.0)
    alphas, reports = _minimize_on_gram(gram(KernelStack(cfg.depth), X).entries, Y, cfg, callback)
    return OneVsAllPredictor(support=X, alphas=alphas,
                             classes=tuple(range(n_classes)), depth=cfg.depth,
                             budget=cfg.budget, loss_kind=cfg.loss, reports=reports)


def sample_size(B: float, eps: float, delta: float, loss: Loss) -> int:
    """Smallest n with ``2*rho*B*sqrt(2/n) + M*sqrt(log(1/delta)/(2n)) <= eps``.

    The first term is twice the complexity bound sqrt(2 B^2 / n) scaled by the
    loss Lipschitz constant; the second is the deviation term at confidence
    delta with loss range M.
    """
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    if B <= 0:
        raise ValueError("B must be positive")
    a = 2.0 * loss.rho * B * math.sqrt(2.0)
    b = loss.range_bound * math.sqrt(math.log(1.0 / delta) / 2.0)

    def bound(n: int) -> float:
        return (a + b) / math.sqrt(n)

    n = max(1, math.ceil(((a + b) / eps) ** 2))
    while bound(n) > eps:
        n += 1
    while n > 1 and bound(n - 1) <= eps:
        n -= 1
    return n
