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

Each step's one product with the n x n Gram, ``P = A @ G``, is reused while
the subgradient repeats (``P' = P - eta (S @ G) / n``, ``S @ G`` computed
once), and recomputed after a change or every ``REFRESH`` such steps: at
B <= 1 the hinge keeps every pair active, so a solve takes about
``max_iters / REFRESH`` products.  Results equal the product-per-step rule
to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import NORM_TOL, cross_kernel_blocks, kernel_matrix, row_norms

#: running steps of ``P`` between exact products ``A @ G``, against drift
REFRESH = 50


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


#: per loss: its value and subgradient at (pred, y), and its (rho, range_bound) at budget B
_LOSSES = {
    "hinge": (lambda pred, y: np.maximum(0.0, 1.0 - y * pred),
              # at the kink (margin exactly 1) take the zero element
              lambda pred, y: np.where(1.0 - y * pred > 0.0, -y, 0.0),
              lambda B: (1.0, 1.0 + B)),
    "logistic": (lambda pred, y: np.logaddexp(0.0, -y * pred),
                 lambda pred, y: -y * np.exp(-np.logaddexp(0.0, y * pred)),
                 # log(1 + e^B), computed stably for large B
                 lambda B: (1.0, float(np.logaddexp(0.0, B)))),
    # constants for predictions clipped to [-B, B] against labels in [-1, 1]
    "squared": (lambda pred, y: (pred - y) ** 2,
                lambda pred, y: 2.0 * (pred - y),
                lambda B: (2.0 * (B + 1.0), (B + 1.0) ** 2)),
}
LOSS_KINDS = tuple(_LOSSES)


@dataclass(frozen=True)
class Loss:
    """Convex loss with its subgradient and the constants used by the
    sample-size bound: Lipschitz constant ``rho`` in the prediction argument
    and range bound ``range_bound`` over predictions in [-B, B]."""

    kind: str
    rho: float
    range_bound: float
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    subgradient: Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_loss(kind: str, B: float) -> Loss:
    """Loss with constants instantiated for the budget B."""
    if kind not in _LOSSES:
        raise ValueError(f"unknown loss {kind!r}; supported: {', '.join(LOSS_KINDS)}")
    value, subgradient, constants = _LOSSES[kind]
    return Loss(kind, *constants(B), value, subgradient)


@dataclass(frozen=True)
class TrainConfig:
    depth: int
    budget: float
    loss: str = "hinge"
    max_iters: int = 5000
    #: initial step size, > 0 (+inf included); defaults to budget / rho
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
        if not self.tolerance > 0:  # NaN fails too
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        make_loss(self.loss, self.budget)  # refuses an unknown loss
        # negated so that NaN fails too
        if self.eta0 is not None and not self.eta0 > 0.0:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")


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


def _scale_onto_ball(A: np.ndarray, P: np.ndarray, B: float) -> np.ndarray:
    """Project each row of ``A`` in place onto the RKHS ball of radius B,
    scaling ``P = A @ G`` alike; returns the quadratic forms before scaling.

    Scaling by B / sqrt(alpha' G alpha) is the metric projection because the
    quadratic form is the squared RKHS norm of the represented function.
    """
    q = np.einsum("ij,ij->i", A, P)
    if q.min() < -1e-8:
        raise NumericalError(f"quadratic form came out {q.min():.3g} < -1e-8; Gram is not PSD")
    over = q > B * B
    c = (B / np.sqrt(q[over]))[:, None]
    A[over] *= c
    P[over] *= c
    return q


def _check_unit_rows(X: np.ndarray):
    """Refuse rows whose norm is not in [1 - 1e-6, 1 + NORM_TOL]: below, they
    are not unit-norm; above, the kernel would refuse them."""
    norms = row_norms(X)
    # negated so that NaN norms fail too
    bad = np.nonzero(~((1.0 - 1e-6 <= norms) & (norms <= 1.0 + NORM_TOL)))[0]
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
    for every live row at t before any row at t + 1.

    ``P = A @ G`` is the running product of the module docstring: it steps by
    the cached ``Q = S @ G`` while every live row's subgradient repeats."""
    (C, n), B = Y.shape, cfg.budget
    loss = make_loss(cfg.loss, B)
    eta0 = cfg.eta0 if cfg.eta0 is not None else B / loss.rho
    live, A, best = np.arange(C), np.zeros((C, n)), np.zeros((C, n))
    best_obj, window_best = np.full(C, math.inf), np.full(C, math.inf)
    iterations, reasons = np.full(C, cfg.max_iters), np.full(C, "max_iters", dtype=object)
    # A = 0, so P = A @ G = 0; no live row's S is zero, so step 1 is a change
    P, Q, S_prev, run = np.zeros((C, n)), None, np.zeros((C, n)), 0
    for t in range(1, cfg.max_iters + 1):
        if P is None:
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
            live, A, Y, S, P, S_prev = (v[~stop] for v in (live, A, Y, S, P, S_prev))
            Q = None if Q is None else Q[~stop]
            if not live.size:
                break
        eta = eta0 / math.sqrt(t)
        A = A - eta * (S / n)
        # while S repeats, P advances by the cached Q = S @ G, as A does by S
        if not np.array_equal(S, S_prev):
            Q = None
        elif Q is None:
            Q = S @ G
        P, run = (P - eta * (Q / n), run + 1) if Q is not None and run < REFRESH else (None, 0)
        S_prev = S
    q = _scale_onto_ball(best, best @ G, B)
    use = q / (B * B) if B > 0 else np.zeros(C)  # at B = 0 the ball is the zero function
    return best, tuple(SolveReport(int(k), str(r), float(o), min(float(u), 1.0))
                       for k, r, o, u in zip(iterations, reasons, best_obj, use))


@dataclass(frozen=True)
class OneVsAllPredictor:
    """Per-class predictors ``f_c(x) = sum_i alphas[c, i] K_depth(x_i, x)``
    sharing one support set; argmax wins, ties broken toward the smallest
    class index.  A binary predictor has one class, ``(1,)``, and its
    decision value is ``scores(x)[0]``: it classifies as +1 where that is
    > 0, else -1."""

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
        """Scores of each row of Xe, one column per class.  Rows are scored
        ROW_BLOCK at a time (:func:`~reckernel.kernel.cross_kernel_blocks`),
        so memory beyond the result is O(ROW_BLOCK x n_support) whatever the
        row count, and the scores equal the one-shot product to rounding."""
        Xe = np.atleast_2d(np.asarray(Xe, dtype=float))
        out = np.empty((len(Xe), len(self.alphas)))
        for i, K in cross_kernel_blocks(self.depth, Xe, self.support,
                                        label="evaluation row {}"):
            np.matmul(K, self.alphas.T, out=out[i:i + len(K)])
        return out

    def scores(self, x) -> np.ndarray:
        return self.scores_many(np.asarray(x, dtype=float)[None, :])[0]

    def classify_many(self, Xe) -> np.ndarray:
        S = self.scores_many(Xe)
        if len(self.classes) == 1:
            return np.where(S[:, 0] > 0.0, 1, -1)
        return np.asarray(self.classes)[np.argmax(S, axis=1)]

    def classify(self, x) -> int:
        return int(self.classify_many(np.asarray(x, dtype=float)[None, :])[0])


def _fit(X: np.ndarray, Y: np.ndarray, classes: tuple[int, ...], cfg: TrainConfig,
         callback: Optional[Callable[[int, int, float, float], None]]) -> OneVsAllPredictor:
    """Solve the +-1 problems in the rows of ``Y`` over one read-only Gram of X."""
    _check_unit_rows(X)
    G = kernel_matrix(cfg.depth, X)
    G.setflags(write=False)
    alphas, reports = _minimize_on_gram(G, Y, cfg, callback)
    return OneVsAllPredictor(support=X, alphas=alphas, classes=classes, depth=cfg.depth,
                             budget=cfg.budget, loss_kind=cfg.loss, reports=reports)


def train(X, y, cfg: TrainConfig,
          callback: Optional[Callable[[int, float, float], None]] = None) -> OneVsAllPredictor:
    """Binary constrained kernel ERM; labels must be +-1.  Returns a
    one-class predictor whose ``alphas[0]`` is the coefficient vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (len(X),) or not np.all(np.abs(y) == 1.0):
        raise ValueError("binary labels must be one +1 or -1 per row of X")
    cb = (lambda c, t, o, b: callback(t, o, b)) if callback else None
    return _fit(np.asarray(X, dtype=float), y[None], (1,), cfg, cb)


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
    Y = np.where(np.arange(n_classes)[:, None] == labels[None, :], 1.0, -1.0)
    return _fit(X, Y, tuple(range(n_classes)), cfg, callback)


def sample_size(B: float, eps: float, delta: float, loss: Loss) -> int:
    """Smallest n with ``2*rho*B*sqrt(2/n) + M*sqrt(log(1/delta)/(2n)) <= eps``.

    The first term is twice the complexity bound sqrt(2 B^2 / n) scaled by the
    loss Lipschitz constant; the second is the deviation term at confidence
    delta with loss range M.
    """
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    if not 0 < B < math.inf:  # NaN fails too
        raise ValueError(f"B must be positive and finite, got {B!r}")
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
