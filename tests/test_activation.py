import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckernel import activation
from reckernel.activation import (
    LOG10E,
    MAX_EVAL_DIGITS,
    ActivationRangeError,
    Activation,
    LogValue,
    SeriesDivergenceError,
    UnknownActivationError,
    builtin_activation,
    check_shape,
    compute_F,
    compute_H,
    taylor_value,
    _series_scan,
    _series_values,
)

QUAD = builtin_activation("quadratic")
ERF = builtin_activation("shifted_erf")
SH = builtin_activation("smoothed_hinge")

ROOT8 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_quadratic_coefficients():
    assert QUAD.coeff(2) == 1.0
    for j in (0, 1, 3, 4, 17):
        assert QUAD.coeff(j) == 0.0


def test_shifted_erf_coefficients():
    assert ERF.coeff(0) == 0.5
    assert ERF.coeff(1) == 1.0  # pi^0 / (0! * 1)
    assert ERF.coeff(2) == 0.0
    assert ERF.coeff(3) == pytest.approx(-math.pi / 3.0, rel=1e-15)
    assert ERF.coeff(5) == pytest.approx(math.pi ** 2 / 10.0, rel=1e-15)


def test_smoothed_hinge_coefficients():
    assert SH.coeff(0) == 0.0
    assert SH.coeff(1) == 0.5
    assert SH.coeff(2) == 0.5  # pi^0 / (0! * 1 * 2)
    assert SH.coeff(3) == 0.0
    assert SH.coeff(4) == pytest.approx(-math.pi / 12.0, rel=1e-15)


def test_coefficients_are_deterministic():
    for act in (QUAD, ERF, SH):
        for j in range(40):
            assert act.coeff(j) == act.coeff(j)


@pytest.mark.parametrize("act, table", [(ERF, 1808), (SH, 2157)], ids=["shifted_erf", "smoothed_hinge"])
def test_log_and_mpmath_coefficients_agree(act, table):
    # every index of the table check_shape builds on the benchmark grid
    for j in range(table):
        exact = act.coeff_mp_fn(j)
        assert act.coeff(j) == float(exact)
        la = act.log_abs_coeff(j)
        assert (la is None) == (exact == 0), j
        if la is not None:
            with mpmath.workdps(30):
                ref = float(mpmath.log(abs(act.coeff_mp_fn(j))))
            # the logs reach about -5000, where doubles are 9.1e-13 apart
            assert abs(la - ref) <= 1e-12 * max(1.0, abs(ref)), j


def test_unknown_activation_lists_supported():
    with pytest.raises(UnknownActivationError, match="quadratic.*shifted_erf.*smoothed_hinge"):
        builtin_activation("relu")


def test_closed_form_matches_series_pointwise():
    for act in (ERF, SH):
        for x in (-2.0, -0.75, -0.1, 0.0, 0.3, 1.5, 2.0):
            assert taylor_value(act, x) == pytest.approx(act.evaluate(x), abs=1e-11)


# ---------------------------------------------------------------------------
# LogValue arithmetic
# ---------------------------------------------------------------------------

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


@given(positive, positive)
def test_logvalue_add_exact(a, b):
    got = LogValue.from_float(a).add(LogValue.from_float(b)).to_float()
    assert got == pytest.approx(a + b, rel=1e-12)


@given(positive, positive)
def test_logvalue_mul_exact(a, b):
    got = LogValue.from_float(a).mul(LogValue.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12)


def test_logvalue_zero_behavior():
    z = LogValue.zero()
    v = LogValue.from_float(3.0)
    assert z.add(v).to_float() == pytest.approx(3.0, rel=1e-15)
    assert z.mul(v).is_zero
    assert z.sqrt().is_zero
    assert z.to_float() == 0.0
    assert z <= v and not (v <= z)
    with pytest.raises(ValueError):
        LogValue.from_float(-1.0)


def test_logvalue_has_one_zero_and_refuses_nan():
    z = LogValue.from_log(-math.inf)
    assert z == LogValue.zero() == LogValue.from_float(0.0)
    assert z.is_zero
    assert z.add(z) == LogValue.zero()
    inf = LogValue.from_log(math.inf)
    assert inf.add(inf) == inf and inf.mul(z) == z
    with pytest.raises(ValueError):
        LogValue.from_float(math.nan)
    with pytest.raises(ValueError):
        LogValue.from_log(math.nan)


def test_logvalue_survives_doubly_exponential_range():
    huge = LogValue.from_log(1e60)
    assert huge.mul(huge).log_magnitude == 2e60
    assert huge.to_float() == math.inf


# ---------------------------------------------------------------------------
# the level function H
# ---------------------------------------------------------------------------

def test_h_quadratic_single_term():
    # only j=2 contributes: sqrt(2^3 * lam^4) at L=1, lam=2 -> sqrt(128)
    got = compute_H(QUAD, 1.0, 2.0).to_float()
    assert got == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-14)


def test_h_all_zero_series_is_zero():
    zero = Activation("null", "sigmoid_like", lambda j: None,
                      lambda j: mpmath.mpf(0), lambda x: 0.0)
    assert compute_H(zero, 1.0, 5.0).is_zero
    assert compute_H(zero, 3.0, 0.0).is_zero


def test_h_polynomial_matches_rational_arithmetic():
    # independent route: exact Fraction sum of 2^(j+1) beta_j^2 lam^(2j)
    for lam in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
        inner = Fraction(2 ** 3) * lam ** 4
        expect = 1.5 * math.sqrt(float(inner))
        got = compute_H(QUAD, 1.5, float(lam)).to_float()
        assert got == pytest.approx(expect, rel=1e-12)


def test_h_lambda_zero_keeps_constant_term():
    # only the j = 0 coefficient survives: sqrt(2 * beta_0^2)
    got = compute_H(ERF, 1.0, 0.0).to_float()
    assert got == pytest.approx(math.sqrt(2.0) * 0.5, rel=1e-14)


@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.0, max_value=3.5))
@settings(max_examples=40, deadline=None)
def test_h_scales_linearly_in_L(L, lam):
    one = compute_H(ERF, L, lam).to_float()
    two = compute_H(ERF, 2.0 * L, lam).to_float()
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def _saturating_bound_factor(lam):
    # 4 lam^2 (1 + 3 e pi lam^2 e^(4 pi lam^2)) in the log domain
    inner = LogValue.from_float(1.0).add(
        LogValue.from_float(3 * math.e * math.pi * lam * lam)
        .mul(LogValue.from_log(4 * math.pi * lam * lam)))
    return LogValue.from_float(4 * lam * lam).mul(inner)


@pytest.mark.parametrize("lam", [3.0, 4.0, 5.0])
def test_h_closed_form_bounds(lam):
    h_erf = compute_H(ERF, 1.0, lam)
    assert h_erf <= LogValue.from_float(0.5).add(_saturating_bound_factor(lam)).sqrt()
    h_sh = compute_H(SH, 1.0, lam)
    rhs = LogValue.from_float(lam * lam).add(
        LogValue.from_float(2 * lam * lam).mul(_saturating_bound_factor(lam)))
    assert h_sh <= rhs.sqrt()
    # squared chain for the integral activation
    assert h_sh.mul(h_sh) <= rhs


def test_h_divergence_carries_partial_sum():
    ones = Activation("ones", "sigmoid_like", lambda j: 0.0,
                      lambda j: mpmath.mpf(1), lambda x: 1.0 / (1.0 - x))
    with pytest.raises(SeriesDivergenceError) as exc:
        compute_H(ones, 1.0, 1.0)
    assert exc.value.terms_used == 10001
    assert not exc.value.partial.is_zero


# ---------------------------------------------------------------------------
# the capacity recursion F
# ---------------------------------------------------------------------------

def test_f_quadratic_first_levels():
    assert compute_F(QUAD, 1, 1.0).value.to_float() == pytest.approx(ROOT8, rel=1e-14)
    assert compute_F(QUAD, 2, 1.0).value.to_float() == pytest.approx(16 * math.sqrt(2), rel=1e-13)


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
def test_f_quadratic_matches_hand_iteration(L):
    # hand oracle: lam <- 2 sqrt(2) L lam^2 in the log domain
    log_lam = math.log(L)
    report = compute_F(QUAD, 6, L)
    for p in range(6):
        log_lam = math.log(ROOT8 * L) + 2.0 * log_lam
        assert report.levels[p].log_magnitude == pytest.approx(log_lam, abs=1e-10)


@pytest.mark.parametrize("L", [1.0, 2.0])
def test_f_quadratic_composition_bound(L):
    for k in range(1, 7):
        F = compute_F(QUAD, k, L).value
        assert F <= LogValue.from_log((2 ** (k + 1) - 1) * math.log(ROOT8 * L))


def test_f_depth_one_equals_h_exactly():
    for act in (QUAD, ERF, SH):
        for L in (0.7, 1.0, 3.0):
            assert compute_F(act, 1, L).value == compute_H(act, L, L)


def test_f_reports_all_levels_and_terms():
    rep = compute_F(QUAD, 3, 1.0)
    assert len(rep.levels) == 3
    assert rep.terms_used >= 3
    assert rep.non_decreasing


def test_f_records_shrinking_levels():
    # at L = 0.5 the quadratic level map contracts: 2 sqrt(2) L lam^2 < lam
    rep = compute_F(QUAD, 3, 0.5)
    assert not rep.non_decreasing
    assert rep.levels[2] < rep.levels[1] < rep.levels[0]


def test_f_divergence_identifies_level():
    with pytest.raises(SeriesDivergenceError) as exc:
        compute_F(ERF, 2, 3.0)
    assert exc.value.level == 2


def test_f_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compute_F(QUAD, 0, 1.0)
    with pytest.raises(ValueError):
        compute_F(QUAD, 1, -1.0)
    with pytest.raises(ValueError):
        compute_H(QUAD, 1.0, 1.0, tol=0.0)


@pytest.mark.parametrize("call", [
    lambda: compute_F(ERF, 2, math.nan),
    lambda: compute_F(ERF, 1, math.inf),
    lambda: compute_F(ERF, 1, 1.0, tol=math.nan),
    lambda: compute_F(SH, 1, 1.0, tol=math.inf),
    lambda: compute_H(ERF, math.nan, 1.0),
    lambda: compute_H(ERF, 1.0, math.nan),
    lambda: compute_H(ERF, 1.0, math.inf),
    lambda: compute_H(ERF, 1.0, 1.0, tol=math.nan),
])
def test_capacity_rejects_non_finite_arguments(call):
    # a NaN level would run the series to its term cap and pass for a divergence
    with pytest.raises(ValueError, match="finite"):
        call()


# ---------------------------------------------------------------------------
# shape diagnostics
# ---------------------------------------------------------------------------

def test_shape_erf_monotone():
    grid = [x * 0.5 for x in range(-6, 7)]
    report = check_shape(ERF, grid)
    assert report.ok
    assert report.kind_checked == "sigmoid_like"


def test_shape_quadratic_descent_flagged():
    report = check_shape(QUAD, [-1.0, 0.0, 1.0], kind="sigmoid_like")
    assert not report.ok
    assert report.violations[0][:2] == (-1.0, 0.0)


def test_shape_smoothed_hinge_difference_monotone():
    grid = [x * 0.5 for x in range(-6, 7)]
    report = check_shape(SH, grid)
    assert report.ok
    assert report.kind_checked == "relu_like"
    # the unit differences approach 0 on the left, 1 on the right
    assert report.values[0] < 0.01
    assert report.values[-1] > 0.95


def test_shape_polynomial_kind_has_no_contract():
    report = check_shape(QUAD, [-1.0, 0.0, 1.0])
    assert report.ok
    assert report.kind_checked is None


def test_shape_rejects_bad_grids():
    with pytest.raises(ValueError):
        check_shape(ERF, [0.0])
    with pytest.raises(ValueError):
        check_shape(ERF, [1.0, 0.0])
    with pytest.raises(ActivationRangeError):
        check_shape(ERF, [-12.0, 0.0, 12.0])


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [-math.inf, 0.0], [0.0, math.inf]])
def test_shape_rejects_non_finite_grid_points(grid):
    # NaN passes the sort and window checks, so it must be caught first
    with pytest.raises(ValueError, match="non-finite point"):
        check_shape(ERF, grid)


def test_taylor_range_error_outside_convergence_radius():
    geometric = Activation("geometric", "sigmoid_like", lambda j: 0.0,
                           lambda j: mpmath.mpf(1), lambda x: 1.0 / (1.0 - x))
    with pytest.raises(ActivationRangeError):
        taylor_value(geometric, 1.5)


@pytest.mark.parametrize("act", [QUAD, ERF, SH], ids=lambda a: a.name)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_series_rejects_non_finite_points(act, x):
    # smoothed_hinge used to return 0.0 at NaN, and quadratic NaN at NaN or inf
    with pytest.raises(ActivationRangeError, match="non-finite point"):
        taylor_value(act, x)
    with pytest.raises(ActivationRangeError, match="non-finite point"):
        _series_values(act, [0.5, x])


def test_wide_grid_within_window_is_fine():
    report = check_shape(ERF, [float(x) for x in range(-10, 11)])
    assert report.ok


# ---------------------------------------------------------------------------
# the batched series evaluator against the per-point summation it replaced
# ---------------------------------------------------------------------------

def _taylor_value_oracle(act, x):
    """Per-point mpmath summation: every coefficient and power built afresh."""
    x = float(x)
    if x == 0.0:
        return act.coeff(0)
    peak, cutoff = _series_scan(act, x)
    if peak == float("-inf"):
        return 0.0
    digits = max(30, int(peak * LOG10E) + 30)
    assert digits <= MAX_EVAL_DIGITS
    with mpmath.workdps(digits):
        mx = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for j in range(cutoff + 1):
            c = act.coeff_mp_fn(j)
            if c:
                total += c * mx ** j
        return float(total)


GRID41 = [float(x) for x in np.linspace(-10.0, 10.0, 41)]


@pytest.mark.parametrize("act", [ERF, SH], ids=lambda a: a.name)
def test_series_values_match_per_point_oracle(act):
    rng = np.random.default_rng(20151)
    pts = GRID41 + [x - 1.0 for x in GRID41] + list(rng.uniform(-11.0, 10.0, 200))
    got = _series_values(act, pts)
    want = [_taylor_value_oracle(act, x) for x in pts]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-25
    # one point alone builds its table at its own precision, so it may differ
    # from the batched value in the last few of its 30+ digits
    assert all(abs(taylor_value(act, x) - w) <= 1e-25 for x, w in zip(pts[::17], want[::17]))


@pytest.mark.parametrize("act, kind, ok", [
    (ERF, "sigmoid_like", True),
    (ERF, "relu_like", False),  # the erf's unit differences rise, then fall
    (SH, "sigmoid_like", True),
    (SH, "relu_like", True),
], ids=["erf-sigmoid", "erf-relu", "hinge-sigmoid", "hinge-relu"])
def test_shape_report_matches_per_point_oracle(act, kind, ok, monkeypatch):
    got = check_shape(act, GRID41, kind=kind)
    monkeypatch.setattr(activation, "_series_values",
                        lambda a, xs: [_taylor_value_oracle(a, x) for x in xs])
    want = check_shape(act, GRID41, kind=kind)
    assert got.ok == want.ok == ok
    assert got.violations == want.violations
    assert max(abs(g - w) for g, w in zip(got.values, want.values)) <= 1e-25


@pytest.mark.parametrize("act, table", [(ERF, 1808), (SH, 2157)], ids=["shifted_erf", "smoothed_hinge"])
def test_check_shape_builds_one_coefficient_table(act, table):
    calls = []

    def counted(j):
        calls.append(j)
        return act.coeff_mp_fn(j)

    pts = GRID41 if act.kind == "sigmoid_like" else GRID41 + [x - 1.0 for x in GRID41]
    cutoff = max(_series_scan(act, x)[1] for x in pts if x != 0.0)
    check_shape(dataclasses.replace(act, coeff_mp_fn=counted), GRID41)
    assert cutoff + 1 == table
    assert len(calls) <= cutoff + 1


def test_series_values_rebuild_the_table_in_every_call():
    # no coefficient table outlives a call, so repeated calls repeat the work
    calls = []

    def counted(j):
        calls.append(j)
        return ERF.coeff_mp_fn(j)

    act = dataclasses.replace(ERF, coeff_mp_fn=counted)
    once = _series_values(act, [2.5])
    n = len(calls)
    assert _series_values(act, [2.5, 2.5, 2.5]) == once * 3
    assert len(calls) == 2 * n


def _shifted_erf_coeff_mp_oracle(j):
    """beta_j of the shifted erf through mpmath.factorial."""
    if j == 0:
        return mpmath.mpf("0.5")
    if j % 2 == 0:
        return mpmath.mpf(0)
    m = (j - 1) // 2
    val = mpmath.power(mpmath.pi, m) / (mpmath.factorial(m) * (2 * m + 1))
    return -val if m % 2 else val


def _smoothed_hinge_coeff_mp_oracle(j):
    """beta_j of the smoothed hinge through mpmath.factorial."""
    if j == 1:
        return mpmath.mpf("0.5")
    if j < 2 or j % 2 == 1:
        return mpmath.mpf(0)
    m = (j - 2) // 2
    val = mpmath.power(mpmath.pi, m) / (mpmath.factorial(m) * (2 * m + 1) * (2 * m + 2))
    return -val if m % 2 else val


@pytest.mark.parametrize("act, oracle, digits, table", [
    (ERF, _shifted_erf_coeff_mp_oracle, 162, 1808),
    (SH, _smoothed_hinge_coeff_mp_oracle, 189, 2157),
], ids=["shifted_erf", "smoothed_hinge"])
def test_coefficient_table_equals_mpmath_factorial_table(act, oracle, digits, table):
    # the table check_shape builds on the 41-point [-10, 10] grid, at its precision
    pts = GRID41 if act.kind == "sigmoid_like" else GRID41 + [x - 1.0 for x in GRID41]
    scans = [_series_scan(act, x) for x in pts if x != 0.0]
    assert max(max(30, int(peak * LOG10E) + 30) for peak, _ in scans) == digits
    assert max(cutoff for _, cutoff in scans) + 1 == table
    with mpmath.workdps(digits):
        assert [act.coeff_mp_fn(j) for j in range(table)] == [oracle(j) for j in range(table)]
