"""Activations represented by their power series, and the capacity recursion built on them.

An :class:`Activation` is a name plus a coefficient stream ``j -> beta_j`` for
``sigma(x) = sum_j beta_j x^j``.  From the coefficients we derive the level
function

    H(lam) = L * sqrt( sum_j 2^(j+1) beta_j^2 lam^(2j) )

and its k-fold self-composition ``F(k, L) = H^(k)(L)`` starting at ``lam = L``.
For saturating activations these quantities grow doubly exponentially, so all
capacity arithmetic runs in the log domain (:class:`LogValue`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath

LN2 = math.log(2.0)
LOG10E = math.log10(math.e)

KINDS = ("polynomial", "sigmoid_like", "relu_like")
BUILTIN_NAMES = ("quadratic", "shifted_erf", "smoothed_hinge")

#: series summation stops after this many consecutive relatively-negligible terms
CONVERGENCE_RUN = 5
#: hard cap on series terms; hitting it without convergence is a divergence
TERM_CAP = 10_000
#: mpmath working precision above this many digits is refused as out of range
MAX_EVAL_DIGITS = 400


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


class ActivationRangeError(ArithmeticError):
    """Series evaluation was requested outside its numerically reliable range."""


# ---------------------------------------------------------------------------
# log-domain nonnegative reals
# ---------------------------------------------------------------------------

def _logaddexp(a: float, b: float) -> float:
    """``ln(e^a + e^b)``, where a log of -inf stands for zero."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == -math.inf or hi == math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


@dataclass(frozen=True, order=False)
class LogValue:
    """A nonnegative real carried as its natural log; zero is a log of -inf.

    Needed because capacity values overflow floats already at two composition
    levels for saturating activations.  Addition and multiplication are exact
    to relative error <= 1e-12 per operation (they reduce to log-sum-exp and
    log addition on IEEE doubles).  A NaN log is refused.
    """

    log_magnitude: float

    def __post_init__(self):
        if math.isnan(self.log_magnitude):
            raise ValueError("LogValue cannot hold NaN")

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(-math.inf)

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if not x >= 0:
            raise ValueError(f"LogValue holds nonnegative reals, got {x}")
        return LogValue(math.log(x) if x else -math.inf)

    @staticmethod
    def from_log(log_magnitude: float) -> "LogValue":
        return LogValue(float(log_magnitude))

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == -math.inf

    def add(self, other: "LogValue") -> "LogValue":
        return LogValue(_logaddexp(self.log_magnitude, other.log_magnitude))

    def mul(self, other: "LogValue") -> "LogValue":
        if self.is_zero or other.is_zero:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude)

    def sqrt(self) -> "LogValue":
        return LogValue(0.5 * self.log_magnitude)

    def to_float(self) -> float:
        try:
            return math.exp(self.log_magnitude)
        except OverflowError:
            return math.inf

    @property
    def log10(self) -> float:
        return self.log_magnitude * LOG10E

    def __le__(self, other: "LogValue") -> bool:
        return self.log_magnitude <= other.log_magnitude

    def __lt__(self, other: "LogValue") -> bool:
        return self.log_magnitude < other.log_magnitude


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Activation:
    """A named activation defined by its power-series coefficients.

    Each coefficient ``beta_j`` of ``sigma(x) = sum_j beta_j x^j`` comes in
    two forms with different jobs.  ``log_abs_coeff_fn(j)`` returns
    ``ln |beta_j|`` as a double (or ``None`` for an exactly-zero coefficient)
    and stays accurate where ``beta_j`` itself underflows; it drives the
    capacity sums and the scans that size a series evaluation.
    ``coeff_mp_fn(j)`` returns ``beta_j`` at the current mpmath precision and
    feeds the extended-precision sums of :func:`taylor_value`.
    ``closed_form`` is an exact evaluator used for forward propagation.  All
    three are required.  Coefficient queries are pure, so repeated calls are
    bit-identical.
    """

    name: str
    kind: str
    log_abs_coeff_fn: Callable[[int], Optional[float]]
    coeff_mp_fn: Callable[[int], "mpmath.mpf"]
    closed_form: Callable[[float], float]
    max_degree: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "polynomial" and self.max_degree is None:
            raise ValueError("polynomial activations must declare max_degree")

    def coeff(self, j: int) -> float:
        """beta_j: the mpmath coefficient rounded to a double."""
        if j < 0:
            raise ValueError("coefficient index must be nonnegative")
        if self.max_degree is not None and j > self.max_degree:
            return 0.0
        return float(self.coeff_mp_fn(j))

    def log_abs_coeff(self, j: int) -> Optional[float]:
        """ln |beta_j|, or None when beta_j is exactly zero."""
        if self.max_degree is not None and j > self.max_degree:
            return None
        return self.log_abs_coeff_fn(j)

    def evaluate(self, x: float) -> float:
        """Pointwise value through the closed form."""
        return self.closed_form(float(x))


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


def _shifted_erf_coeff_mp(j: int):
    if j == 0:
        return mpmath.mpf("0.5")
    if j % 2 == 0:
        return mpmath.mpf(0)
    m = (j - 1) // 2
    # the exact integer m!, rounded once: mpmath.factorial takes a slower
    # gamma path for m >= 150, and gives an equal table at the precisions
    # of the shape check's [-10, 10] grid
    val = mpmath.power(mpmath.pi, m) / (mpmath.mpf(math.factorial(m)) * (2 * m + 1))
    return -val if m % 2 else val


def _smoothed_hinge_log_abs(j: int) -> Optional[float]:
    if j == 1:
        return math.log(0.5)
    if j < 2 or j % 2 == 1:
        return None
    m = (j - 2) // 2
    return (m * math.log(math.pi) - math.lgamma(m + 1)
            - math.log(2 * m + 1) - math.log(2 * m + 2))


def _smoothed_hinge_coeff_mp(j: int):
    if j == 1:
        return mpmath.mpf("0.5")
    if j < 2 or j % 2 == 1:
        return mpmath.mpf(0)
    m = (j - 2) // 2
    val = mpmath.power(mpmath.pi, m) / (mpmath.mpf(math.factorial(m))
                                         * (2 * m + 1) * (2 * m + 2))
    return -val if m % 2 else val


def builtin_activation(name: str) -> Activation:
    """Return one of the builtin activations by name.

    quadratic        x^2                       (polynomial, degree 2)
    shifted_erf      (1 + erf(sqrt(pi) x)) / 2 (sigmoid-like)
    smoothed_hinge   integral of shifted_erf   (relu-like; series anchored at 0)
    """
    if name == "quadratic":
        return Activation(
            name="quadratic",
            kind="polynomial",
            log_abs_coeff_fn=lambda j: 0.0 if j == 2 else None,
            coeff_mp_fn=lambda j: mpmath.mpf(1 if j == 2 else 0),
            closed_form=_quadratic_closed,
            max_degree=2,
        )
    if name == "shifted_erf":
        return Activation(
            name="shifted_erf",
            kind="sigmoid_like",
            log_abs_coeff_fn=_shifted_erf_log_abs,
            coeff_mp_fn=_shifted_erf_coeff_mp,
            closed_form=_shifted_erf_closed,
        )
    if name == "smoothed_hinge":
        return Activation(
            name="smoothed_hinge",
            kind="relu_like",
            log_abs_coeff_fn=_smoothed_hinge_log_abs,
            coeff_mp_fn=_smoothed_hinge_coeff_mp,
            closed_form=_smoothed_hinge_closed,
        )
    raise UnknownActivationError(
        f"unknown activation {name!r}; supported: {', '.join(BUILTIN_NAMES)}")


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

    Polynomial activations are summed exactly over their finite support.  For
    the rest, summation stops once CONVERGENCE_RUN consecutive terms each
    contribute less than ``tol`` relative to the running sum; exceeding
    TERM_CAP without that happening raises SeriesDivergenceError.
    """
    loglam = log_lam.log_magnitude

    def term(j: int) -> float:
        lb = act.log_abs_coeff(j)
        if lb is None:
            return -math.inf
        if j == 0:
            return LN2 + 2.0 * lb
        return (j + 1) * LN2 + 2.0 * lb + (2.0 * j) * loglam

    total = -math.inf
    if act.max_degree is not None:
        for j in range(act.max_degree + 1):
            total = _logaddexp(total, term(j))
        return total, act.max_degree + 1

    small_run = 0
    for j in range(TERM_CAP + 1):
        t = term(j)
        total = _logaddexp(total, t)
        if t == -math.inf or t - total < math.log(tol):
            small_run += 1
            if small_run >= CONVERGENCE_RUN and j >= CONVERGENCE_RUN:
                return total, j + 1
        else:
            small_run = 0
    raise SeriesDivergenceError(
        f"capacity series for {act.name!r} did not converge within "
        f"{TERM_CAP} terms" + (f" at composition level {level}" if level else ""),
        partial=LogValue(total), terms_used=TERM_CAP + 1, level=level)


def _h_log(act: Activation, L: float, log_lam: LogValue, tol: float,
           level: Optional[int] = None) -> tuple[LogValue, int]:
    log_sum, used = _h_series_log(act, log_lam, tol, level=level)
    return LogValue(math.log(L) + 0.5 * log_sum), used


def compute_H(act: Activation, L: float, lam: float, tol: float = 1e-12) -> LogValue:
    """The level function ``L * sqrt(sum_j 2^(j+1) beta_j^2 lam^(2j))``."""
    if not 0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L!r}")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    value, _ = _h_log(act, L, LogValue.from_float(lam), tol)
    return value


def compute_F(act: Activation, k: int, L: float, tol: float = 1e-12) -> CapacityReport:
    """Iterate the level function k times starting at ``lam = L``.

    Returns all intermediate levels.  A series that fails to converge at some
    level raises SeriesDivergenceError with that 1-based level attached.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    lam = LogValue.from_float(L)
    levels: list[LogValue] = []
    total_terms = 0
    non_decreasing = True
    for p in range(1, k + 1):
        value, used = _h_log(act, L, lam, tol, level=p)
        total_terms += used
        if value < lam:
            non_decreasing = False
        levels.append(value)
        lam = value
    return CapacityReport(activation=act.name, k=k, L=L, levels=tuple(levels),
                          terms_used=total_terms, non_decreasing=non_decreasing)


# ---------------------------------------------------------------------------
# pointwise series evaluation and the shape diagnostic
# ---------------------------------------------------------------------------

def _series_scan(act: Activation, x: float) -> tuple[float, int]:
    """Estimate peak log-magnitude of |beta_j x^j| and a safe truncation index.

    Works on the cheap float log-coefficients.  Raises ActivationRangeError
    when terms have not decayed to negligibility within the term cap (the
    point is outside the series' usable range).
    """
    log_ax = math.log(abs(x)) if x != 0 else float("-inf")
    peak = float("-inf")
    small_run = 0
    seen_nonzero = False
    for j in range(TERM_CAP + 1):
        lb = act.log_abs_coeff(j)
        if lb is None:
            t = float("-inf")
        else:
            t = lb + j * log_ax if j > 0 else lb
            # at x = 0 the terms past j = 0 vanish but still count as small
            seen_nonzero = True
        if t > peak:
            peak = t
        if seen_nonzero:
            # e^-55 ~ 1e-24: far below double precision on O(1) values
            if t < -55.0:
                small_run += 1
                if small_run >= 2 * CONVERGENCE_RUN:
                    return peak, j
            else:
                small_run = 0
    if not seen_nonzero:
        return float("-inf"), 0
    raise ActivationRangeError(
        f"series for {act.name!r} does not decay at x={x!r}; "
        "outside the numerically reliable range")


def taylor_value(act: Activation, x: float) -> float:
    """Evaluate ``sum_j beta_j x^j`` by truncated summation.

    The float log-coefficients size the sum: they predict the peak term and
    the truncation index.  Alternating series cancel catastrophically in
    double precision, so the sum itself runs over ``coeff_mp_fn`` at an
    mpmath precision adapted to that peak.  Polynomials are summed exactly
    over their finite support.
    """
    return _series_values(act, [x])[0]


def _series_values(act: Activation, xs: Sequence[float]) -> list[float]:
    """:func:`taylor_value` at each point of ``xs``: one mpmath coefficient table
    per call, at the largest precision needed, and one sum per distinct point."""
    xs = [float(x) for x in xs]
    bad = next((x for x in xs if not math.isfinite(x)), None)
    if bad is not None:
        raise ActivationRangeError(
            f"cannot evaluate {act.name!r} at the non-finite point x={bad!r}")
    if act.max_degree is not None:
        return [math.fsum(act.coeff(j) * x ** j for j in range(act.max_degree + 1))
                for x in xs]
    values, plans = {}, {}  # plans: x -> (digits, cutoff) of an mpmath sum
    for x in dict.fromkeys(xs):
        peak, cutoff = _series_scan(act, x)
        if peak == float("-inf"):
            values[x] = 0.0
            continue
        digits = max(30, int(peak * LOG10E) + 30)
        if digits > MAX_EVAL_DIGITS:
            raise ActivationRangeError(
                f"evaluating {act.name!r} at x={x!r} needs ~{digits} digits, "
                f"above the {MAX_EVAL_DIGITS}-digit cap")
        plans[x] = (digits, cutoff)
    if plans:
        with mpmath.workdps(max(d for d, _ in plans.values())):
            coeffs = [act.coeff_mp_fn(j) for j in range(max(c for _, c in plans.values()) + 1)]
    for x, (digits, cutoff) in plans.items():
        with mpmath.workdps(digits):
            mx, power, total = mpmath.mpf(x), mpmath.mpf(1), mpmath.mpf(0)
            for c in coeffs[:cutoff + 1]:
                if c:
                    total += c * power
                power *= mx
            values[x] = float(total)
    return [values[x] for x in xs]


@dataclass(frozen=True)
class ShapeReport:
    """Finite-grid monotonicity diagnostic; advisory, not a proof."""

    activation: str
    kind_checked: Optional[str]
    grid: tuple[float, ...]
    values: tuple[float, ...]
    #: (x_left, x_right, value_left, value_right) for each observed descent
    violations: tuple[tuple[float, float, float, float], ...]
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


def check_shape(act: Activation, grid: Sequence[float],
                kind: Optional[str] = None) -> ShapeReport:
    """Check the activation's shape contract on a grid of points.

    sigmoid_like: the truncated-series values must be non-decreasing along the
    grid.  relu_like: the differences ``sigma(x) - sigma(x - 1)`` must be.
    The grid must be sorted ascending, contain at least two points, and stay
    inside [-10, 10]; points outside that window raise ActivationRangeError.
    """
    pts = [float(g) for g in grid]
    if len(pts) < 2:
        raise ValueError("grid needs at least two points")
    bad = next((i for i, x in enumerate(pts) if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"grid has a non-finite point at index {bad}: {pts[bad]!r}")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be sorted ascending")
    checked = kind if kind is not None else act.kind
    if checked == "polynomial":
        return ShapeReport(act.name, None, tuple(pts), (), (),
                           note="polynomial activations carry no shape contract")
    if checked not in ("sigmoid_like", "relu_like"):
        raise ValueError(f"kind must be one of {KINDS}, got {checked!r}")
    if pts[0] < -10.0 or pts[-1] > 10.0:
        raise ActivationRangeError(
            f"grid spans [{pts[0]}, {pts[-1]}]; the shape check is limited to [-10, 10]")

    if checked == "sigmoid_like":
        vals = _series_values(act, pts)
    else:
        both = _series_values(act, pts + [x - 1.0 for x in pts])
        vals = [a - b for a, b in zip(both, both[len(pts):])]

    scale = max(1.0, max(abs(v) for v in vals))
    slack = 1e-12 * scale
    violations = tuple(
        (pts[i], pts[i + 1], vals[i], vals[i + 1])
        for i in range(len(pts) - 1)
        if vals[i + 1] < vals[i] - slack
    )
    return ShapeReport(act.name, checked, tuple(pts), tuple(vals), violations)
