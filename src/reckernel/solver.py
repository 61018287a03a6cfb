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

The predictions ``P = A @ G`` are a running product: ``P`` steps by
``Q = S_Q @ G`` as ``A`` steps by the subgradient ``S``
(``P' = P - eta Q / n``).  ``Q`` follows ``S`` only where ``S`` differs from
the ``S_Q`` it was taken with.  When at most ``DELTA_SHARE`` of the entries
changed, each class adds its changed entries of ``S - S_Q`` times their rows
of G (G is symmetric, so rows stand in for columns); otherwise ``Q`` is one
dense ``S @ G``.  So a step takes at most one product with the n x n Gram:
at B <= 1 the hinge keeps every pair active and ``S`` never changes, so a
solve takes two products, ``S @ G`` after its first step and the final
``best @ G``, and at larger budgets, where few hinge pairs flip per step,
most steps read a few rows of G.

Results equal the product-per-step rule to rounding, not bit for bit.  To
first order a dot product of m terms errs by at most m eps times the sum of
its |terms| (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
section 3.1).  So with hinge coefficients in {-1, 0, 1} and g1 the largest
column sum of |G|, k deltas leave ``|Q - S_Q @ G| <= e_Q = 2 (k + 1) n eps g1``
(2 for the additions into ``Q``), and s steps, each adding its own rounding
and ``eta / n <= B / n`` times Q's error to ``P``, which starts exact, leave
``|P - A @ G| <= (s + 1) (n eps max(|A| @ |G|) + B e_Q / n)``.  A hinge
subgradient reads ``P`` only through the sign of ``1 - y P``, so where no
margin comes within that bound of 1 and the ball does not bind (its scaling
reads ``P`` too), the iterates are bit-identical to those of a dense product
at every change.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import ROW_BLOCK, _check_rows, cross_kernel_blocks, kernel_matrix

#: the largest budget whose (2B)^2 is finite.  From a point on the ball a step
#: adds RKHS norm at most (B / rho) * rho = B on unit rows, so the quadratic
#: form before projection is at most (2B)^2.
MAX_BUDGET = math.sqrt(np.finfo(float).max) / 2

#: the smallest positive budget whose B * B is a normal double, 2**-511.  Below
#: it the quadratic form of an iterate off the ball can underflow to 0, and the
#: projection would leave it there; at it, solves keep alpha' G alpha within
#: B^2 (1 + 1e-14).
MIN_BUDGET = math.sqrt(np.finfo(float).tiny)

#: a step whose ``S`` changed in at most this share of its C x n entries
#: updates ``Q`` through those entries alone, reading one row of G for each;
#: above it, one dense ``S @ G`` is cheaper than the gathers
DELTA_SHARE = 0.08

#: the window rule: a class stops once ``patience`` steps cut its best
#: objective by at most this share of it
WINDOW_TOL = 1e-6


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
    """A fit's settings, checked here alone: the CLI's train, bench and eval build one."""

    depth: int
    budget: float
    loss: str = "hinge"
    max_iters: int = 5000
    #: steps per window of the window rule (see ``WINDOW_TOL``)
    patience: int = 100

    def __post_init__(self):
        for name, low in (("depth", 0), ("max_iters", 1), ("patience", 1)):
            value = getattr(self, name)
            # numpy integers pass; a bool is an Integral but no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        # a bool is a Real but no budget; negated so that NaN fails too
        if (isinstance(self.budget, bool) or not isinstance(self.budget, numbers.Real)
                or not 0.0 <= self.budget < math.inf):
            raise ValueError(f"budget must be a finite nonnegative real, got {self.budget!r}")
        if self.budget > MAX_BUDGET:
            raise OverflowError(f"budget must be at most {MAX_BUDGET!r}, above which "
                                f"(2 * budget)^2 overflows; got {self.budget}")
        if 0.0 < self.budget < MIN_BUDGET:
            raise FloatingPointError(f"budget must be 0 or at least {MIN_BUDGET!r}, below "
                                     f"which budget^2 underflows; got {self.budget}")
        make_loss(self.loss, self.budget)  # refuses an unknown loss


@dataclass(frozen=True)
class SolveReport:
    """How the solve of one class ended.

    ``stop_reason`` is ``window`` (the best objective improved by at most
    ``WINDOW_TOL`` of itself over a patience window), ``max_iters``
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
    """Refuse rows outside the unit ball as the kernel does, with its
    NormBoundError, then rows inside it but below 1 - 1e-6, which are not
    unit-norm."""
    norms = _check_rows(X, "training row {}")
    short = np.flatnonzero(norms < 1.0 - 1e-6)
    if short.size:
        i = int(short[0])
        raise ValueError(f"training rows must be unit-norm; row {i} has norm "
                         f"{norms[i]:.9g} ({short.size} offending rows)")


def _add_changed_rows(Q: np.ndarray, S: np.ndarray, S_Q: np.ndarray,
                      changed: np.ndarray, G: np.ndarray) -> None:
    """Add ``(S - S_Q) @ G`` to ``Q`` in place through the entries that
    ``changed`` marks alone: per class c, the changed columns j contribute
    ``(S - S_Q)[c, j] @ G[j]``, gathered at most ROW_BLOCK rows of G at a
    time, so the temporaries are O(ROW_BLOCK x n) whatever the change."""
    for c in np.flatnonzero(changed.any(axis=1)):
        j = np.flatnonzero(changed[c])
        for i in range(0, len(j), ROW_BLOCK):
            rows = j[i:i + ROW_BLOCK]
            Q[c] += (S[c, rows] - S_Q[c, rows]) @ G[rows]


def _minimize_on_gram(G: np.ndarray, Y: np.ndarray, cfg: TrainConfig,
                      callback: Optional[Callable[[int, int, float, float], None]] = None,
                      work: Optional[dict] = None,
                      ) -> tuple[np.ndarray, tuple[SolveReport, ...]]:
    """Projected subgradient descent on the problems whose +-1 labels are the
    rows of ``Y`` (C, n), one row of the iterate ``A`` each.  Every rule acts
    per row, and a row that stops leaves the live set.  Returns each row's
    projected incumbent and report.  ``callback(c, t, objective, best)`` runs
    for every live row at t before any row at t + 1.  A ``work`` dict gets
    ``gram_products``, the dense products with G (the final ``best @ G``
    included), and ``gram_rows_read``: n per dense product plus one row per
    changed entry of each delta.

    ``P = A @ G`` is the running product of the module docstring, and
    ``Q == S_Q @ G`` for the subgradient ``S_Q`` last multiplied.  ``A``,
    ``P``, ``Q`` and ``S_Q`` all start at zero, so both hold exactly at t = 1,
    and within the module docstring's rounding bounds after."""
    (C, n), B = Y.shape, cfg.budget
    loss = make_loss(cfg.loss, B)
    live, A, best = np.arange(C), np.zeros((C, n)), np.zeros((C, n))
    best_obj, window_best = np.full(C, math.inf), np.full(C, math.inf)
    iterations, reasons = np.full(C, cfg.max_iters), np.full(C, "max_iters", dtype=object)
    P, Q, S_Q = np.zeros((C, n)), np.zeros((C, n)), np.zeros((C, n))
    products = delta_rows = 0
    for t in range(1, cfg.max_iters + 1):
        _scale_onto_ball(A, P, B)
        obj = np.mean(loss.value(P, Y), axis=1)
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
                prev - best_obj[live] <= WINDOW_TOL * np.maximum(np.abs(prev), 1e-12))
        S = loss.subgradient(P, Y)
        stop = stalled | ~S.any(axis=1)  # zero subgradient: the incumbent cannot improve
        if stop.any():
            iterations[live[stop]] = t
            reasons[live[stop]] = np.where(stalled[stop], "window", "zero_subgradient")
            live, A, Y, S, P, Q, S_Q = (v[~stop] for v in (live, A, Y, S, P, Q, S_Q))
        if not live.size or t == cfg.max_iters:
            break  # no step, so no product, after the last
        eta = B / loss.rho / math.sqrt(t)
        A = A - eta * (S / n)
        changed = S != S_Q
        m = int(np.count_nonzero(changed))
        if m > DELTA_SHARE * changed.size:
            Q = S @ G  # one GEMM for all live rows; G is exactly symmetric, so row c is G s_c
            products += 1
        elif m:
            _add_changed_rows(Q, S, S_Q, changed, G)
            delta_rows += m
        S_Q = S
        P = P - eta * (Q / n)
    q = _scale_onto_ball(best, best @ G, B)
    products += 1
    if work is not None:
        work.update(gram_products=products, gram_rows_read=products * n + delta_rows)
    use = q / (B * B) if B > 0 else np.zeros(C)
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
    reports: tuple[SolveReport, ...] = ()  # one per class; empty when loaded
    #: the fit's reads of its Gram (see ``_minimize_on_gram``); 0 when loaded
    gram_products: int = 0
    gram_rows_read: int = 0

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
    work: dict = {}
    alphas, reports = _minimize_on_gram(G, Y, cfg, callback, work)
    return OneVsAllPredictor(support=X, alphas=alphas, classes=classes, depth=cfg.depth,
                             reports=reports, **work)


def train(X, y, cfg: TrainConfig,
          callback: Optional[Callable[[int, float, float], None]] = None) -> OneVsAllPredictor:
    """Binary constrained kernel ERM; labels must be +-1.  Returns a
    one-class predictor whose ``alphas[0]`` is the coefficient vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (len(X),) or not np.all(np.abs(y) == 1.0):
        raise ValueError("binary labels must be one +1 or -1 per row of X")
    cb = (lambda c, t, o, b: callback(t, o, b)) if callback else None
    return _fit(np.asarray(X, dtype=float), y[None], (1,), cfg, cb)


def check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Refuse a label that is not a class index 0..n_classes-1, naming the
    first such row: it would otherwise train as no class, or wrap onto one."""
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes) | (labels != np.trunc(labels)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"label {labels[i]} at row {i} is not a class index "
                         f"0..{n_classes - 1} ({bad.size} offending rows)")


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
        # from the whole labels alone, so that check_labels names a NaN's row
        whole = np.isfinite(labels) & (labels == np.trunc(labels))
        n_classes = int(np.max(labels, where=whole, initial=-1)) + 1
    if n_classes < 2:
        raise ValueError("multiclass training needs at least 2 classes")
    check_labels(labels, n_classes)
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
