import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckernel import activation
from reckernel.activation import (
    Activation,
    LogValue,
    SeriesDivergenceError,
    UnknownActivationError,
    builtin_activation,
    check_shape,
    compute_F,
    compute_H,
)

import oracles

QUAD = builtin_activation("quadratic")
ERF = builtin_activation("shifted_erf")
SH = builtin_activation("smoothed_hinge")

ROOT8 = 2.0 * math.sqrt(2.0)

GRID41 = [float(x) for x in np.linspace(-10.0, 10.0, 41)]


# ---------------------------------------------------------------------------
# the signed power series at fixed precision: the oracle for sigma itself
# ---------------------------------------------------------------------------

#: the largest term on [-11, 10] is about 4e161 (shifted_erf at -11), so
#: 250 digits leave some 88 below it
ORACLE_DIGITS = 250


@functools.lru_cache(maxsize=None)
def _coeff_oracle(name, j):
    """The signed beta_j at ORACLE_DIGITS digits, through mpmath.factorial."""
    with mpmath.workdps(ORACLE_DIGITS):
        if name == "quadratic":
            return mpmath.mpf(1 if j == 2 else 0)
        if name == "shifted_erf":
            if j == 0:
                return mpmath.mpf("0.5")
            if j % 2 == 0:
                return mpmath.mpf(0)
            m = (j - 1) // 2
            val = mpmath.power(mpmath.pi, m) / (mpmath.factorial(m) * (2 * m + 1))
        else:
            if j == 1:
                return mpmath.mpf("0.5")
            if j < 2 or j % 2 == 1:
                return mpmath.mpf(0)
            m = (j - 2) // 2
            val = mpmath.power(mpmath.pi, m) / (mpmath.factorial(m) * (2 * m + 1) * (2 * m + 2))
        return -val if m % 2 else val


@functools.lru_cache(maxsize=None)
def _series_oracle(name, x):
    """sum_j beta_j x^j at ORACLE_DIGITS digits, stopped after two nonzero
    terms in a row below 1e-40 (the terms fall monotonically past their peak)."""
    last = 2 if name == "quadratic" else 4000
    with mpmath.workdps(ORACLE_DIGITS):
        mx, power, total, small = mpmath.mpf(x), mpmath.mpf(1), mpmath.mpf(0), 0
        for j in range(last + 1):
            c = _coeff_oracle(name, j)
            if c:
                term = c * power
                total += term
                small = small + 1 if abs(term) < 1e-40 else 0
                if small == 2:
                    break
            power *= mx
        else:
            assert name == "quadratic", f"the {name} series has not settled at x={x}"
        return float(total)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_quadratic_coefficients():
    assert QUAD.log_abs_coeff(2) == 0.0
    for j in (0, 1, 3, 4, 17):
        assert QUAD.log_abs_coeff(j) is None


def test_shifted_erf_coefficients():
    assert ERF.log_abs_coeff(0) == math.log(0.5)
    assert ERF.log_abs_coeff(1) == 0.0  # pi^0 / (0! * 1)
    assert ERF.log_abs_coeff(2) is None
    assert math.exp(ERF.log_abs_coeff(3)) == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert math.exp(ERF.log_abs_coeff(5)) == pytest.approx(math.pi ** 2 / 10.0, rel=1e-15)
    # the oracle carries the signs the logs drop
    assert float(_coeff_oracle("shifted_erf", 3)) == pytest.approx(-math.pi / 3.0, rel=1e-15)
    assert float(_coeff_oracle("shifted_erf", 5)) == pytest.approx(math.pi ** 2 / 10.0, rel=1e-15)


def test_smoothed_hinge_coefficients():
    assert SH.log_abs_coeff(0) is None
    assert SH.log_abs_coeff(1) == math.log(0.5)
    assert SH.log_abs_coeff(2) == math.log(0.5)  # pi^0 / (0! * 1 * 2)
    assert SH.log_abs_coeff(3) is None
    assert math.exp(SH.log_abs_coeff(4)) == pytest.approx(math.pi / 12.0, rel=1e-15)
    assert float(_coeff_oracle("smoothed_hinge", 4)) == pytest.approx(-math.pi / 12.0, rel=1e-15)


def test_smoothed_hinge_series_is_the_written_out_one_bit_for_bit():
    # the library derives it from the shifted erf's: beta_j = beta'_(j-1) / j
    terms = range(activation.TERM_CAP + 1)
    for j in terms:
        assert SH.log_abs_coeff(j) == oracles.smoothed_hinge_log_abs(j), j
    weights = [-math.inf if lb is None else (j + 1) * activation.LN2 + 2.0 * lb
               for j, lb in enumerate(map(oracles.smoothed_hinge_log_abs, terms))]
    assert SH._log_series_weights.tobytes() == np.array(weights).tobytes()


def test_coefficients_are_deterministic():
    for act in (QUAD, ERF, SH):
        for j in range(40):
            assert act.log_abs_coeff(j) == act.log_abs_coeff(j)


@pytest.mark.parametrize("act", [ERF, SH], ids=["shifted_erf", "smoothed_hinge"])
def test_log_and_mpmath_coefficients_agree(act):
    # every index the oracle reads on [-11, 10]: its sum stops by j = 2228
    for j in range(2230):
        exact = _coeff_oracle(act.name, j)
        la = act.log_abs_coeff(j)
        assert (la is None) == (exact == 0), j
        if la is not None:
            with mpmath.workdps(30):
                ref = float(mpmath.log(abs(exact)))
            # the logs reach about -5000, where doubles are 9.1e-13 apart
            assert abs(la - ref) <= 1e-12 * max(1.0, abs(ref)), j


def test_unknown_activation_lists_supported():
    with pytest.raises(UnknownActivationError, match="quadratic.*shifted_erf.*smoothed_hinge"):
        builtin_activation("relu")


def test_closed_form_matches_series_pointwise():
    # the benchmark grid, its unit shifts and random points in [-11, 10]
    rng = np.random.default_rng(20151)
    pts = GRID41 + [x - 1.0 for x in GRID41] + list(rng.uniform(-11.0, 10.0, 200))
    for act in (QUAD, ERF, SH):
        err = max(abs(act.evaluate(x) - _series_oracle(act.name, x)) for x in pts)
        assert err <= 1e-14, act.name


def _term_ratio_table(name, n):
    """The signed beta_j, j < n, at ORACLE_DIGITS digits without a factorial:
    the erf's odd terms through the ratio beta_(2m+3) / beta_(2m+1) =
    -pi (2m+1) / ((m+1)(2m+3)), the hinge as the erf integrated term by term."""
    with mpmath.workdps(ORACLE_DIGITS):
        erf = [mpmath.mpf(0)] * (n + 1)
        erf[0], erf[1] = mpmath.mpf("0.5"), mpmath.mpf(1)
        for j in range(1, n - 1, 2):
            m = (j - 1) // 2
            erf[j + 2] = erf[j] * -mpmath.pi * (2 * m + 1) / ((m + 1) * (2 * m + 3))
        if name == "shifted_erf":
            return erf[:n]
        return [mpmath.mpf(0)] + [erf[j] / (j + 1) for j in range(n - 1)]


@pytest.mark.parametrize("act", [ERF, SH], ids=["shifted_erf", "smoothed_hinge"])
def test_coefficient_table_equals_mpmath_factorial_table(act):
    # the table the series oracle sums on [-11, 10]: its sum stops by j = 2228
    table = 2230
    ratio = _term_ratio_table(act.name, table)
    with mpmath.workdps(ORACLE_DIGITS):
        for j in range(table):
            exact = _coeff_oracle(act.name, j)
            assert (ratio[j] == 0) == (exact == 0), j
            # some 2230 roundings at 250 digits stay far below 1e-240
            assert abs(ratio[j] - exact) <= mpmath.mpf("1e-240") * abs(exact), j


def _closed_form_mp(name, x):
    """sigma(x) from mpmath's erfc at 60 digits; erfc keeps the left tail exact."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        erf = mpmath.erfc(-mpmath.sqrt(mpmath.pi) * x) / 2
        if name == "shifted_erf":
            return float(erf)
        return float(erf * x + (mpmath.exp(-mpmath.pi * x * x) - 1) / (2 * mpmath.pi))


@pytest.mark.parametrize("act", [ERF, SH], ids=lambda a: a.name)
def test_series_values_match_per_point_oracle(act):
    # on the benchmark grid, its unit shifts and random points; the series
    # stops at terms below 1e-40, so far-left values agree only absolutely
    rng = np.random.default_rng(20151)
    pts = GRID41 + [x - 1.0 for x in GRID41] + list(rng.uniform(-11.0, 10.0, 200))
    for x in pts:
        assert abs(_series_oracle(act.name, x) - _closed_form_mp(act.name, x)) <= 1e-25, x


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

def test_logvalue_zero_behavior():
    z = LogValue.from_float(0.0)
    v = LogValue.from_float(3.0)
    assert z.log_magnitude == -math.inf
    assert z.to_float() == 0.0
    assert v.to_float() == pytest.approx(3.0, rel=1e-15)
    assert z < v and not (v < z)
    with pytest.raises(ValueError):
        LogValue.from_float(-1.0)


def test_logvalue_has_one_zero_and_refuses_nan():
    assert LogValue(-math.inf) == LogValue.from_float(0.0)
    with pytest.raises(ValueError):
        LogValue.from_float(math.nan)
    with pytest.raises(ValueError):
        LogValue(math.nan)


def test_logvalue_survives_doubly_exponential_range():
    huge = LogValue(1e60)
    assert huge.log10 == pytest.approx(1e60 / math.log(10.0), rel=1e-15)
    assert huge.to_float() == math.inf
    assert huge < LogValue(2e60)


# ---------------------------------------------------------------------------
# the level function H
# ---------------------------------------------------------------------------

def test_h_quadratic_single_term():
    # only j=2 contributes: sqrt(2^3 * lam^4) at L=1, lam=2 -> sqrt(128)
    got = compute_H(QUAD, 1.0, 2.0).to_float()
    assert got == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-14)


def test_h_all_zero_series_is_zero():
    zero = Activation("null", "sigmoid_like", lambda j: None, lambda x: 0.0)
    assert compute_H(zero, 1.0, 5.0).log_magnitude == -math.inf
    assert compute_H(zero, 3.0, 0.0).log_magnitude == -math.inf


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


def _log_saturating_bound_factor(lam):
    # ln of 4 lam^2 (1 + 3 e pi lam^2 e^(4 pi lam^2))
    inner = np.logaddexp(0.0, math.log(3 * math.e * math.pi * lam * lam)
                         + 4 * math.pi * lam * lam)
    return math.log(4 * lam * lam) + inner


@pytest.mark.parametrize("lam", [3.0, 4.0, 5.0])
def test_h_closed_form_bounds(lam):
    h_erf = compute_H(ERF, 1.0, lam).log_magnitude
    assert h_erf <= 0.5 * np.logaddexp(math.log(0.5), _log_saturating_bound_factor(lam))
    h_sh = compute_H(SH, 1.0, lam).log_magnitude
    rhs = np.logaddexp(math.log(lam * lam),
                       math.log(2 * lam * lam) + _log_saturating_bound_factor(lam))
    assert h_sh <= 0.5 * rhs
    # squared chain for the integral activation
    assert h_sh + h_sh <= rhs


def test_h_divergence_carries_partial_sum():
    ones = Activation("ones", "sigmoid_like", lambda j: 0.0, lambda x: 1.0 / (1.0 - x))
    with pytest.raises(SeriesDivergenceError) as exc:
        compute_H(ones, 1.0, 1.0)
    assert exc.value.terms_used == 10001
    assert exc.value.partial.log_magnitude > -math.inf


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
        assert F.log_magnitude <= (2 ** (k + 1) - 1) * math.log(ROOT8 * L)


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


# ---------------------------------------------------------------------------
# the array series against the term-by-term oracle
# ---------------------------------------------------------------------------

#: the perfbench capacity grid: every builtin at L in {0.5, 1, 2}, k in {1, 2, 4, 6}
CAPACITY_GRID = [(name, L, k) for name in activation.BUILTIN_NAMES
                 for L in (0.5, 1.0, 2.0) for k in (1, 2, 4, 6)]

ZERO = Activation("null", "sigmoid_like", lambda j: None, lambda x: 0.0)
ONES = Activation("ones", "sigmoid_like", lambda j: 0.0, lambda x: 1.0 / (1.0 - x))
#: a polynomial with more terms than the array sum tries before its whole table
P600 = Activation("p600", "polynomial", lambda j: 0.0,
                  lambda x: sum(x ** j for j in range(601)), max_degree=600)


def _outcome(call):
    """(log values, terms used) of a capacity call, or its divergence as
    ("diverged", level, partial log, terms used)."""
    try:
        value, used = call()
    except SeriesDivergenceError as e:
        return "diverged", e.level, e.partial.log_magnitude, e.terms_used
    return (value if isinstance(value, tuple) else (value,)), used


def _assert_same_outcome(got, want):
    """Equal terms used and divergence level; logs within 1e-15 relative."""
    assert len(got) == len(want)
    if want[0] == "diverged":
        assert got[:2] == want[:2] and got[3] == want[3]
        assert math.isclose(got[2], want[2], rel_tol=1e-15)
        return
    (levels, used), (want_levels, want_used) = got, want
    assert used == want_used and len(levels) == len(want_levels)
    for a, b in zip(levels, want_levels):
        assert math.isclose(a, b, rel_tol=1e-15), (a, b)


def _capacity_levels(act, k, L):
    rep = compute_F(act, k, L)
    return tuple(v.log_magnitude for v in rep.levels), rep.terms_used


@pytest.mark.parametrize("name, L, k", CAPACITY_GRID)
def test_f_matches_term_by_term_oracle_on_the_benchmark_grid(name, L, k, monkeypatch):
    act = builtin_activation(name)
    got = _outcome(lambda: _capacity_levels(act, k, L))
    monkeypatch.setattr(activation, "_h_series_log", oracles.h_series_log)
    want = _outcome(lambda: _capacity_levels(act, k, L))
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("act, lam", [
    (ZERO, 5.0), (ZERO, 0.0), (ONES, 1.0), (ONES, 0.5), (ONES, 0.7),
    (QUAD, 0.0), (ERF, 0.0), (SH, 0.0), (P600, 0.5), (P600, 1.0),
    (QUAD, math.inf), (ERF, math.inf)],
    ids=["zero", "zero-lam0", "ones-divergent", "ones-convergent",
         # terms shrink by 2 lam^2 = 0.98: the sum settles after 1180 terms
         "ones-slow",
         "quadratic-lam0", "shifted_erf-lam0", "smoothed_hinge-lam0",
         # all 601 terms, with the tail negligible and with it growing
         "p600-lam0.5", "p600-lam1",
         # an overflowed level: zero coefficients stay zero terms
         "quadratic-lam-inf", "shifted_erf-lam-inf"])
def test_series_matches_term_by_term_oracle(act, lam):
    log_lam = LogValue.from_float(lam)
    got = _outcome(lambda: activation._h_series_log(act, log_lam, 1e-12, level=3))
    want = _outcome(lambda: oracles.h_series_log(act, log_lam, 1e-12, level=3))
    _assert_same_outcome(got, want)


@given(st.sampled_from([ERF, SH]), st.floats(min_value=0.0, max_value=3.5),
       st.sampled_from([1e-12, 1e-6, 0.5]))
@settings(max_examples=40, deadline=None)
def test_series_matches_term_by_term_oracle_at_random_lam(act, lam, tol):
    log_lam = LogValue.from_float(lam)
    got = _outcome(lambda: activation._h_series_log(act, log_lam, tol))
    want = _outcome(lambda: oracles.h_series_log(act, log_lam, tol))
    _assert_same_outcome(got, want)


def test_series_raises_no_floating_point_warnings():
    # a zero term against a zero running sum is -inf - -inf, which numpy warns about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for act in (QUAD, ERF, SH, ZERO):
            compute_H(act, 1.0, 0.0)
        assert compute_H(ZERO, 2.0, 3.0).log_magnitude == -math.inf
        compute_F(ZERO, 2, 1.0)
        # quadratic levels double in log: lam^(2j) overflows, then the level itself
        assert compute_F(QUAD, 1030, 2.0).value.log_magnitude == math.inf
        for act in (QUAD, ERF, SH, ZERO):
            _outcome(lambda: activation._h_series_log(act, LogValue(math.inf), 1e-12))


def test_f_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compute_F(QUAD, 0, 1.0)
    with pytest.raises(ValueError):
        compute_F(QUAD, 1, -1.0)


@pytest.mark.parametrize("call", [
    lambda: compute_F(ERF, 2, math.nan),
    lambda: compute_F(ERF, 1, math.inf),
    lambda: compute_H(ERF, math.nan, 1.0),
    lambda: compute_H(ERF, 1.0, math.nan),
    lambda: compute_H(ERF, 1.0, math.inf),
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
    # no window: the closed form holds on the whole line
    assert check_shape(ERF, [-12.0, 0.0, 12.0]).ok


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [-math.inf, 0.0], [0.0, math.inf]])
def test_shape_rejects_non_finite_grid_points(grid):
    # NaN passes the sort and window checks, so it must be caught first
    with pytest.raises(ValueError, match="non-finite point"):
        check_shape(ERF, grid)


def test_wide_grid_within_window_is_fine():
    report = check_shape(ERF, [float(x) for x in range(-10, 11)])
    assert report.ok


@pytest.mark.parametrize("act, kind, ok", [
    (ERF, "sigmoid_like", True),
    (ERF, "relu_like", False),  # the erf's unit differences rise, then fall
    (SH, "sigmoid_like", True),
    (SH, "relu_like", True),
], ids=["erf-sigmoid", "erf-relu", "hinge-sigmoid", "hinge-relu"])
def test_shape_report_matches_per_point_oracle(act, kind, ok):
    got = check_shape(act, GRID41, kind=kind)
    series = dataclasses.replace(act, closed_form=functools.partial(_series_oracle, act.name))
    want = check_shape(series, GRID41, kind=kind)
    assert got.ok == want.ok == ok
    assert [v[:2] for v in got.violations] == [v[:2] for v in want.violations]
    assert max(abs(g - w) for g, w in zip(got.values, want.values)) <= 1e-14
