"""Activations represented by their power series, and the capacity recursion built on them.

An :class:`Activation` is a name, a closed form for ``sigma``, and a stream
``j -> ln |beta_j|`` of its power-series coefficients, ``sigma(x) = sum_j
beta_j x^j``.  From the coefficients we derive the level function

    H(lam) = L * sqrt( sum_j 2^(j+1) beta_j^2 lam^(2j) )

and its k-fold self-composition ``F(k, L) = H^(k)(L)`` starting at ``lam = L``.
For saturating activations these quantities grow doubly exponentially, so the
capacity sums run in the log domain (:class:`LogValue`), one array per series.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

LN2 = math.log(2.0)
LOG10E = math.log10(math.e)

KINDS = ("polynomial", "sigmoid_like", "relu_like")

#: series summation stops after this many consecutive relatively-negligible terms
CONVERGENCE_RUN = 5
#: a term is negligible below this fraction of the running sum
SERIES_TOL = 1e-12
#: hard cap on series terms; hitting it without convergence is a divergence
TERM_CAP = 10_000
#: most series settle within a few hundred terms: sum this many before the whole table
_PREFIX_TERMS = 512


class UnknownActivationError(ValueError):
    """Requested activation name is not a builtin."""


class SeriesDivergenceError(ArithmeticError):
    """A capacity series failed to converge within the term cap.

    Carries the partial series sum accumulated so far (before the square
    root and the L scaling), the number of terms consumed, and, when raised
    from the capacity recursion, the 1-based composition level at which the
    failure occurred.
    """

    def __init__(self, message: str, partial: "LogValue", terms_used: int,
                 level: Optional[int] = None):
        super().__init__(message)
        self.partial = partial
        self.terms_used = terms_used
        self.level = level


# ---------------------------------------------------------------------------
# log-domain nonnegative reals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=False)
class LogValue:
    """A nonnegative real carried as its natural log; zero is a log of -inf.

    Needed because capacity values overflow floats already at two composition
    levels for saturating activations.  The capacity sums run on arrays of
    logs (``np.logaddexp.accumulate``); this type carries the results and
    orders them.  A NaN log is refused.
    """

    log_magnitude: float

    def __post_init__(self):
        if math.isnan(self.log_magnitude):
            raise ValueError("LogValue cannot hold NaN")

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if not x >= 0:
            raise ValueError(f"LogValue holds nonnegative reals, got {x}")
        return LogValue(math.log(x) if x else -math.inf)

    def to_float(self) -> float:
        try:
            return math.exp(self.log_magnitude)
        except OverflowError:
            return math.inf

    @property
    def log10(self) -> float:
        return self.log_magnitude * LOG10E

    def __lt__(self, other: "LogValue") -> bool:
        return self.log_magnitude < other.log_magnitude


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Activation:
    """A named activation: its power-series coefficients and its closed form.

    ``log_abs_coeff_fn(j)`` returns ``ln |beta_j|`` of ``sigma(x) = sum_j
    beta_j x^j`` as a double (or ``None`` for an exactly-zero coefficient)
    and stays accurate where ``beta_j`` itself underflows; the capacity sums
    need only these magnitudes.  ``closed_form`` evaluates sigma itself, for
    forward propagation and the shape diagnostic.  Both are required.
    Coefficient queries are pure, so repeated calls are bit-identical.
    """

    name: str
    kind: str
    log_abs_coeff_fn: Callable[[int], Optional[float]]
    closed_form: Callable[[float], float]
    max_degree: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "polynomial" and self.max_degree is None:
            raise ValueError("polynomial activations must declare max_degree")

    def log_abs_coeff(self, j: int) -> Optional[float]:
        """ln |beta_j|, or None when beta_j is exactly zero."""
        if self.max_degree is not None and j > self.max_degree:
            return None
        return self.log_abs_coeff_fn(j)

    @functools.cached_property
    def _log_series_weights(self) -> np.ndarray:
        """Read-only ``ln(2^(j+1) beta_j^2)``, j <= max_degree or TERM_CAP; -inf at beta_j = 0."""
        n = TERM_CAP + 1 if self.max_degree is None else self.max_degree + 1
        w = np.array([-math.inf if lb is None else (j + 1) * LN2 + 2.0 * lb
                      for j, lb in enumerate(map(self.log_abs_coeff, range(n)))])
        w.flags.writeable = False
        return w

    def evaluate(self, x: float) -> float:
        """Pointwise value through the closed form."""
        return self.closed_form(float(x))


def transfer(act: Activation, x: float) -> float:
    """The saturating transfer of a sigmoid-like or relu-like activation:
    ``sigma(x)`` for the first, the unit difference ``sigma(x) - sigma(x - 1)``
    for the second.  Both rise from 0 to 1; polynomial activations do not
    saturate, and callers refuse them before asking."""
    if act.kind == "relu_like":
        return act.evaluate(x) - act.evaluate(x - 1.0)
    return act.evaluate(x)


def _quadratic_closed(x: float) -> float:
    return x * x


def _shifted_erf_closed(x: float) -> float:
    return 0.5 * (1.0 + math.erf(math.sqrt(math.pi) * x))


def _smoothed_hinge_closed(x: float) -> float:
    # antiderivative of the shifted erf, anchored so that the value at 0 is 0
    # (matching the series, which carries no constant term)
    return _shifted_erf_closed(x) * x + (math.exp(-math.pi * x * x) - 1.0) / (2.0 * math.pi)


def _shifted_erf_log_abs(j: int) -> Optional[float]:
    if j == 0:
        return math.log(0.5)
    if j % 2 == 0:
        return None
    m = (j - 1) // 2
    return m * math.log(math.pi) - math.lgamma(m + 1) - math.log(2 * m + 1)


def _smoothed_hinge_log_abs(j: int) -> Optional[float]:
    lb = _shifted_erf_log_abs(j - 1) if j else None  # the integral: beta_j = beta'_(j-1) / j
    return None if lb is None else lb - math.log(j)


#: one shared frozen instance each, so a process tabulates each series once
_BUILTINS = {act.name: act for act in (
    Activation("quadratic", "polynomial", lambda j: 0.0 if j == 2 else None,
               _quadratic_closed, max_degree=2),
    Activation("shifted_erf", "sigmoid_like", _shifted_erf_log_abs, _shifted_erf_closed),
    Activation("smoothed_hinge", "relu_like", _smoothed_hinge_log_abs, _smoothed_hinge_closed),
)}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_activation(name: str) -> Activation:
    """Return one of the builtin activations by name.

    quadratic        x^2                       (polynomial, degree 2)
    shifted_erf      (1 + erf(sqrt(pi) x)) / 2 (sigmoid-like)
    smoothed_hinge   integral of shifted_erf   (relu-like; series anchored at 0)
    """
    if name not in _BUILTINS:
        raise UnknownActivationError(
            f"unknown activation {name!r}; supported: {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name]


# ---------------------------------------------------------------------------
# capacity quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityReport:
    """Per-level values of the capacity recursion for one activation."""

    activation: str
    k: int
    L: float
    levels: tuple[LogValue, ...]
    terms_used: int
    #: True when every level satisfied H(lam) >= lam on this run (recorded, not assumed)
    non_decreasing: bool = True

    @property
    def value(self) -> LogValue:
        return self.levels[-1]


def _h_series_log(act: Activation, log_lam: LogValue, tol: float,
                  level: Optional[int] = None) -> tuple[float, int]:
    """Log of sum_j 2^(j+1) beta_j^2 lam^(2j), plus the number of terms read.

    The terms and their running sums are arrays, summed in term order; a
    polynomial's sum covers all its max_degree + 1 terms.  Other series stop
    at the first j >= CONVERGENCE_RUN closing a run of CONVERGENCE_RUN terms
    each below ``tol`` relative to the running sum; with no such j among the
    first TERM_CAP + 1 terms, SeriesDivergenceError is raised.
    """
    weights = act._log_series_weights
    for n in (len(weights),) if act.max_degree is not None else (_PREFIX_TERMS, len(weights)):
        terms = weights[:n].copy()
        # j = 0 has no lam factor (lam = 0 keeps it); a zero beta_j stays zero at lam = inf.
        # As in float arithmetic, lam^(2j) may overflow to inf and inf - inf is not below tol.
        with np.errstate(over="ignore", invalid="ignore"):
            terms[1:] += np.where(np.isneginf(weights[1:n]), 0.0,
                                  2.0 * np.arange(1, n) * log_lam.log_magnitude)
            total = np.logaddexp.accumulate(terms)
            if act.max_degree is not None:
                return float(total[-1]), n
            run = np.cumsum((terms == -np.inf) | (terms - total < math.log(tol)))
        closes = np.flatnonzero(run[CONVERGENCE_RUN:] - run[:-CONVERGENCE_RUN]
                                == CONVERGENCE_RUN)
        if closes.size:
            j = CONVERGENCE_RUN + int(closes[0])
            return float(total[j]), j + 1
    raise SeriesDivergenceError(
        f"capacity series for {act.name!r} did not converge within "
        f"{TERM_CAP} terms" + (f" at composition level {level}" if level else ""),
        partial=LogValue(float(total[-1])), terms_used=TERM_CAP + 1, level=level)


def _h_log(act: Activation, L: float, log_lam: LogValue,
           level: Optional[int] = None) -> tuple[LogValue, int]:
    log_sum, used = _h_series_log(act, log_lam, SERIES_TOL, level=level)
    return LogValue(math.log(L) + 0.5 * log_sum), used


def _check_capacity_args(L: float) -> None:
    if not 0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L!r}")


def compute_H(act: Activation, L: float, lam: float) -> LogValue:
    """The level function ``L * sqrt(sum_j 2^(j+1) beta_j^2 lam^(2j))``."""
    _check_capacity_args(L)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam!r}")
    value, _ = _h_log(act, L, LogValue.from_float(lam))
    return value


def compute_F(act: Activation, k: int, L: float) -> CapacityReport:
    """Iterate the level function k times starting at ``lam = L``.

    Returns all intermediate levels.  A series that fails to converge at some
    level raises SeriesDivergenceError with that 1-based level attached.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_capacity_args(L)
    lam = LogValue.from_float(L)
    levels: list[LogValue] = []
    total_terms = 0
    non_decreasing = True
    for p in range(1, k + 1):
        value, used = _h_log(act, L, lam, level=p)
        total_terms += used
        if value < lam:
            non_decreasing = False
        levels.append(value)
        lam = value
    return CapacityReport(activation=act.name, k=k, L=L, levels=tuple(levels),
                          terms_used=total_terms, non_decreasing=non_decreasing)


# ---------------------------------------------------------------------------
# the shape diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeReport:
    """Finite-grid monotonicity diagnostic; advisory, not a proof."""

    activation: str
    kind_checked: Optional[str]
    grid: tuple[float, ...]
    values: tuple[float, ...]
    #: (x_left, x_right, value_left, value_right) for each observed descent
    violations: tuple[tuple[float, float, float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_shape(act: Activation, grid: Sequence[float],
                kind: Optional[str] = None) -> ShapeReport:
    """Check the activation's shape contract on a grid of points.

    The :func:`transfer` values must be non-decreasing along the grid:
    ``sigma(x)`` for sigmoid_like, ``sigma(x) - sigma(x - 1)`` for relu_like.
    Polynomial activations carry no shape contract.  ``kind`` checks a copy
    of the activation of that kind instead.  The grid must be finite, sorted
    ascending and contain at least two points.
    """
    pts = [float(g) for g in grid]
    if len(pts) < 2:
        raise ValueError("grid needs at least two points")
    bad = next((i for i, x in enumerate(pts) if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"grid has a non-finite point at index {bad}: {pts[bad]!r}")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be sorted ascending")
    if kind is not None:
        act = dataclasses.replace(act, kind=kind)
    if act.kind == "polynomial":
        return ShapeReport(act.name, None, tuple(pts), (), ())
    vals = [transfer(act, x) for x in pts]

    scale = max(1.0, max(abs(v) for v in vals))
    slack = 1e-12 * scale
    violations = tuple(
        (pts[i], pts[i + 1], vals[i], vals[i + 1])
        for i in range(len(pts) - 1)
        if vals[i + 1] < vals[i] - slack
    )
    return ShapeReport(act.name, act.kind, tuple(pts), tuple(vals), violations)
