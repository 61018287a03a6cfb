import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckernel.kernel import ROW_BLOCK, KernelStack, NormBoundError, gram, kernel_matrix
from reckernel.solver import (
    REFRESH,
    DegenerateClassError,
    OneVsAllPredictor,
    SolverDivergenceError,
    TrainConfig,
    _minimize_on_gram,
    _scale_onto_ball,
    make_loss,
    sample_size,
    train,
    train_multiclass,
)

from conftest import (ellipsoid_oracle, objective_of, random_unit_rows,
                      solver_fixture_set)
from oracles import minimize_on_gram, project, scores_unblocked


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_loss_values():
    hinge = make_loss("hinge", 10.0)
    assert hinge.value(np.array([0.0]), np.array([1.0]))[0] == 1.0
    assert hinge.value(np.array([2.0]), np.array([1.0]))[0] == 0.0
    assert hinge.rho == 1.0 and hinge.range_bound == 11.0
    logistic = make_loss("logistic", 3.0)
    assert logistic.value(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(np.log(2))
    squared = make_loss("squared", 2.0)
    assert squared.rho == 6.0 and squared.range_bound == 9.0
    with pytest.raises(ValueError):
        make_loss("absolute", 1.0)


def test_hinge_subgradient_kink_uses_zero_branch():
    hinge = make_loss("hinge", 1.0)
    g = hinge.subgradient(np.array([1.0]), np.array([1.0]))
    assert g[0] == 0.0


pred_vals = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(pred_vals, pred_vals, st.sampled_from(["hinge", "logistic", "squared"]),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=200)
def test_subgradient_secant_inequality(a, b, kind, y):
    # convexity: value(b) >= value(a) + subgradient(a) * (b - a)
    loss = make_loss(kind, 5.0)
    ya = np.array([y])
    va = loss.value(np.array([a]), ya)[0]
    vb = loss.value(np.array([b]), ya)[0]
    ga = loss.subgradient(np.array([a]), ya)[0]
    assert vb >= va + ga * (b - a) - 1e-9


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_identity_gram_scaling():
    got = project(np.array([3.0, 4.0]), np.eye(2), 1.0)
    assert got == pytest.approx([0.6, 0.8], rel=1e-15)


def test_project_interior_point_unchanged():
    G = np.eye(2)
    alpha = np.array([0.3, 0.4])  # quadratic form = 0.25 = B^2/4
    out = project(alpha, G, 1.0)
    assert np.array_equal(out, alpha)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3)
       .filter(lambda v: sum(x * x for x in v) > 1e-6))
@settings(max_examples=100)
def test_project_lands_on_sphere_and_is_idempotent(vals):
    rng = np.random.default_rng(0)
    X = random_unit_rows(rng, 3, 4)
    G = gram(KernelStack(1), X).entries
    alpha = np.array(vals) * 50.0
    B = 1.0
    out = project(alpha, G, B)
    q = out @ G @ out
    if not np.array_equal(out, alpha):  # exterior point: projection is tight
        assert q == pytest.approx(B * B, rel=1e-12)
    again = project(out, G, B)
    assert again == pytest.approx(out, rel=1e-12)


def test_project_rejects_indefinite_form():
    from reckernel.solver import NumericalError
    G = np.array([[-1.0]])
    with pytest.raises(NumericalError):
        project(np.array([1.0]), G, 1.0)


def test_scale_onto_ball_matches_the_projection_oracle():
    rng = np.random.default_rng(2)
    G = gram(KernelStack(2), random_unit_rows(rng, 6, 4)).entries
    A = rng.normal(size=(5, 6)) * np.array([[0.0], [0.01], [0.1], [10.0], [100.0]])
    B = 1.0
    forms = np.einsum("ij,ij->i", A, A @ G)
    assert (forms <= B * B).any() and (forms > B * B).any()  # both branches
    want = np.array([project(a, G, B) for a in A])
    P = A @ G
    q = _scale_onto_ball(A, P, B)
    assert q == pytest.approx(forms, rel=1e-12)
    assert np.allclose(A, want, rtol=1e-12, atol=0)
    assert np.allclose(P, want @ G, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_separable_pair_reaches_zero_loss():
    X = np.eye(2)
    y = np.array([1.0, -1.0])
    p = train(X, y, TrainConfig(depth=1, budget=10.0))
    a = p.alphas[0]
    assert objective_of(X, y, "hinge", 10.0, a) < 0.01
    assert a @ gram(KernelStack(1), X).entries @ a <= 100.0 * (1 + 1e-9)


def test_train_zero_budget_returns_zero_alpha():
    X = np.eye(2)
    y = np.array([1.0, -1.0])
    p = train(X, y, TrainConfig(depth=1, budget=0.0))
    assert np.array_equal(p.alphas, np.zeros((1, 2)))
    assert p.reports[0].constraint_use == 0.0
    assert objective_of(X, y, "hinge", 0.0, p.alphas[0]) == 1.0


def test_train_all_positive_labels():
    X = np.eye(3)
    y = np.ones(3)
    G = gram(KernelStack(1), X).entries
    # the constant predictor f = 1 is feasible at B = 2: alpha = G^-1 1
    alpha_const = np.linalg.solve(G, np.ones(3))
    assert alpha_const @ G @ alpha_const <= 4.0
    p = train(X, y, TrainConfig(depth=1, budget=2.0))
    assert objective_of(X, y, "hinge", 2.0, p.alphas[0]) < 0.01


def test_train_is_deterministic():
    rng = np.random.default_rng(5)
    X = random_unit_rows(rng, 12, 6)
    y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    cfg = TrainConfig(depth=2, budget=3.0, max_iters=500)
    a = train(X, y, cfg).alphas
    b = train(X, y, cfg).alphas
    assert np.array_equal(a, b)


def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unit-norm"):
        train(2 * np.eye(2) / 3, np.array([1.0, -1.0]), TrainConfig(depth=1, budget=1.0))
    with pytest.raises(ValueError, match="labels"):
        train(np.eye(2), np.array([1.0, 0.0]), TrainConfig(depth=1, budget=1.0))
    with pytest.raises(ValueError):
        TrainConfig(depth=1, budget=1.0, max_iters=0)
    with pytest.raises(ValueError):
        TrainConfig(depth=1, budget=1.0, tolerance=0.0)


def _with_row_norm(X, i, norm):
    X = X.copy()
    X[i] *= norm
    return X


@pytest.mark.parametrize("fit, y", [
    (train, np.array([1.0, -1.0] * 3)),
    (train_multiclass, np.array([0, 1, 2] * 2))])
def test_train_refuses_every_row_the_kernel_would(fit, y):
    # rows up to 1e-6 above unit norm used to pass this check and then fail in
    # the kernel with its NormBoundError, whose tolerance is 1e-9
    X = random_unit_rows(np.random.default_rng(8), 6, 4)
    cfg = TrainConfig(depth=1, budget=1.0, max_iters=20)
    with pytest.raises(ValueError, match="training rows must be unit-norm; row 3"):
        fit(_with_row_norm(X, 3, 1.0 + 5e-7), y, cfg)
    for norm in (1.0 - 9e-7, 1.0 - 5e-7):  # short of unit norm by rounding: still trains
        assert fit(_with_row_norm(X, 3, norm), y, cfg).alphas.shape[1] == 6


@pytest.mark.parametrize("field, value", [("patience", 0), ("patience", -3),
                                          ("budget", np.nan), ("budget", np.inf),
                                          ("eta0", 0.0), ("eta0", -1.0), ("eta0", np.nan),
                                          ("tolerance", np.nan)])
def test_train_config_rejects_bad_patience_and_budget(field, value):
    # patience 0 used to fail mid-solve on t % 0, a negative one acted as its
    # absolute value, and a NaN budget was accepted; a negative eta0 took
    # ascent steps and a NaN one failed mid-solve (+inf, the divergence
    # hook of test_divergence_names_the_class, stays accepted); a NaN
    # tolerance switched the window stop off
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{"depth": 1, "budget": 1.0, field: value})


def test_train_refuses_a_label_count_other_than_the_row_count():
    # it used to fail inside the solve, with numpy's matmul error
    with pytest.raises(ValueError, match="labels must be one .* per row of X"):
        train(np.eye(3), np.array([1.0, -1.0]), TrainConfig(depth=1, budget=1.0))


def test_best_objective_non_increasing_in_max_iters():
    rng = np.random.default_rng(6)
    X = random_unit_rows(rng, 10, 3)
    y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
    objs = []
    for iters in (50, 200, 1000, 4000):
        cfg = TrainConfig(depth=1, budget=2.0, max_iters=iters, tolerance=1e-15)
        p = train(X, y, cfg)
        objs.append(objective_of(X, y, "hinge", 2.0, p.alphas[0]))
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_objective_callback_reports_monotone_incumbent():
    rng = np.random.default_rng(7)
    X = random_unit_rows(rng, 8, 4)
    y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
    bests = []
    train(X, y, TrainConfig(depth=1, budget=2.0, max_iters=300),
          callback=lambda t, obj, best: bests.append(best))
    assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))


@pytest.mark.parametrize("name,X,y,kind,B,cfg", solver_fixture_set())
def test_solver_matches_feasible_region_oracle(name, X, y, kind, B, cfg):
    loss = make_loss(kind, B)
    G = gram(KernelStack(cfg.depth), X).entries
    oracle = ellipsoid_oracle(G, y, loss, B)
    p = train(X, y, cfg)
    a = p.alphas[0]
    got = objective_of(X, y, kind, B, a, depth=cfg.depth)
    assert abs(got - oracle) <= 1e-3, f"{name}: solver {got} vs oracle {oracle}"
    assert a @ G @ a <= B * B * (1 + 1e-9)


#: step counts of the convergence-rate test, fixed before its first run
RATE_STEPS = (1, 3, 10, 30, 100, 300, 1000, 3000)


@pytest.mark.parametrize("name,X,y,kind,B,cfg", solver_fixture_set(),
                         ids=[case[0] for case in solver_fixture_set()])
def test_best_objective_meets_the_subgradient_rate(name, X, y, kind, B, cfg):
    """Projected subgradient descent from 0 with steps ``(B / rho) / sqrt(t)``
    and RKHS subgradients of norm <= rho (K(x, x) = 1 on unit rows) has
    ``f_best(T) - f* <= rho B (1 + H_T) / (4 (sqrt(T + 1) - 1))`` after T
    iterates, H_T the T-th harmonic number.  The oracle is at least f*, so
    gating the gap to it errs on the safe side.  The window is off and the
    step is the default.  The slack of 1e-12 covers the rounding of an
    objective of a few terms of size <= (B + 1)^2."""
    G = kernel_matrix(cfg.depth, X)
    loss = make_loss(kind, B)
    oracle = ellipsoid_oracle(G, y, loss, B)
    for T in RATE_STEPS:
        report = train(X, y, dataclasses.replace(cfg, max_iters=T, patience=T + 1)).reports[0]
        harmonic = sum(1.0 / t for t in range(1, T + 1))
        bound = loss.rho * B * (1.0 + harmonic) / (4.0 * (math.sqrt(T + 1) - 1.0))
        assert report.best_objective - oracle <= bound + 1e-12, (name, T)


# ---------------------------------------------------------------------------
# the running product P = A @ G
# ---------------------------------------------------------------------------

class CountingGram(np.ndarray):
    """A Gram matrix that counts the matrix products taken with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingGram.products += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def _one_vs_all(labels, n_classes):
    return np.where(np.arange(n_classes)[:, None] == labels[None, :], 1.0, -1.0)


def _random_problem():
    rng = np.random.default_rng(3)
    G = gram(KernelStack(1), random_unit_rows(rng, 300, 8)).entries
    return G, _one_vs_all(rng.integers(0, 3, 300), 3)


def _stops_mid_run():
    """Three one-vs-all problems on a hand-made Gram.  While every pair is
    active, class 0's three margins grow at one rate (1.4 per unit of summed
    step) and classes 1 and 2's at 1, 1 and 0.6, so class 0 stops on a zero
    subgradient while the other two subgradients still repeat."""
    a = -0.2
    G = np.array([[1.0, a, a], [a, 1.0, -a], [a, -a, 1.0]])
    return G, _one_vs_all(np.arange(3), 3)


SAME_SOLVE_CASES = {
    **{f"hinge-B{B}": (_random_problem, {"budget": B}) for B in (0.0, 0.5, 1.0, 10.0)},
    "logistic": (_random_problem, {"budget": 2.0, "loss": "logistic"}),
    "squared": (_random_problem, {"budget": 2.0, "loss": "squared"}),
    "zero-subgradient-mid-run": (_stops_mid_run, {"budget": 10.0, "eta0": 0.1}),
    "window": (_random_problem, {"budget": 2.0, "max_iters": 5000, "patience": 7}),
}


def _config(**fields):
    return TrainConfig(**{"depth": 1, "max_iters": 400, "patience": 401, **fields})


@pytest.mark.parametrize("case", SAME_SOLVE_CASES)
def test_running_product_matches_the_per_step_oracle(case):
    problem, fields = SAME_SOLVE_CASES[case]
    G, Y = problem()
    cfg = _config(**fields)
    got, reports = _minimize_on_gram(G, Y, cfg)
    want, want_reports = minimize_on_gram(G, Y, cfg)
    assert ([(r.iterations, r.stop_reason) for r in reports]
            == [(r.iterations, r.stop_reason) for r in want_reports])
    for a, b, r, w in zip(got, want, reports, want_reports):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert r.best_objective == pytest.approx(w.best_objective, rel=1e-12, abs=0)
        assert r.constraint_use == pytest.approx(w.constraint_use, rel=1e-12, abs=0)


def test_a_cached_product_outlives_a_class_stopping():
    # the fixture of the zero-subgradient-mid-run case does what it says
    G, Y = _stops_mid_run()
    products = {}
    CountingGram.products = 0
    _, reports = _minimize_on_gram(
        G.view(CountingGram), Y, _config(budget=10.0, eta0=0.1),
        lambda c, t, obj, best: products.setdefault(t, CountingGram.products))
    t = reports[0].iterations
    assert reports[0].stop_reason == "zero_subgradient" and t < 400
    assert [r.stop_reason for r in reports[1:]] == ["max_iters", "max_iters"]
    # no product from step t - 1 to step t + 1: P moved by a cached Q before
    # class 0 stopped, and by its slice after
    assert products[t - 1] == products[t] == products[t + 1]


def test_running_objectives_match_the_oracle_at_every_step():
    # the callback objective is computed from the running P, so this bounds
    # its drift from A @ G at every step, between refreshes too
    G, Y = _random_problem()
    cfg = _config(budget=1.0)
    got, want = [], []
    _minimize_on_gram(G, Y, cfg, lambda c, t, obj, best: got.append((c, t, obj)))
    minimize_on_gram(G, Y, cfg, lambda c, t, obj, best: want.append((c, t, obj)))
    assert [k[:2] for k in got] == [k[:2] for k in want] and len(got) == 3 * 400
    np.testing.assert_allclose([k[2] for k in got], [k[2] for k in want], rtol=1e-12, atol=0)


def test_binding_hinge_solve_reuses_the_gram_product():
    # at B <= 1 every hinge pair is active, so the subgradient is -Y at every
    # step; one product per step would make 301
    G, Y = _random_problem()
    CountingGram.products = 0
    _, reports = _minimize_on_gram(G.view(CountingGram), Y,
                                   _config(budget=1.0, max_iters=300))
    assert [r.iterations for r in reports] == [300] * 3
    assert CountingGram.products <= math.ceil(300 / REFRESH) + 3


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def binary_predictor(support, alpha, depth):
    return OneVsAllPredictor(support=support, alphas=alpha[None, :], classes=(1,),
                             depth=depth, budget=1.0, loss_kind="hinge")


def test_predict_zero_alpha():
    p = binary_predictor(np.eye(2), np.zeros(2), depth=1)
    assert p.scores(np.array([1.0, 0.0]))[0] == 0.0


def test_predict_single_support_fixed_point():
    x = np.array([0.6, 0.8])
    p = binary_predictor(x[None, :], np.array([0.7]), depth=3)
    assert p.scores(x)[0] == pytest.approx(0.7, rel=1e-12)


def test_predict_bounded_by_budget():
    rng = np.random.default_rng(8)
    X = random_unit_rows(rng, 15, 5)
    y = np.where(rng.random(15) < 0.5, 1.0, -1.0)
    B = 3.0
    p = train(X, y, TrainConfig(depth=1, budget=B, max_iters=400))
    for _ in range(100):
        x = random_unit_rows(rng, 1, 5)[0]
        assert abs(p.scores(x)[0]) <= B * (1 + 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_rejects_non_finite_rows(bad):
    X = np.eye(3)
    X[1, 2] = bad
    with pytest.raises(ValueError, match="row 1 has non-finite norm"):
        train(X, np.array([1.0, -1.0, 1.0]), TrainConfig(depth=1, budget=1.0))
    with pytest.raises(ValueError, match="row 1 has non-finite norm"):
        train_multiclass(X, np.array([0, 1, 2]), TrainConfig(depth=1, budget=1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_rejects_non_finite_rows(bad):
    rng = np.random.default_rng(9)
    X = random_unit_rows(rng, 12, 4)
    p = train_multiclass(X, np.arange(12) % 3, TrainConfig(depth=2, budget=2.0, max_iters=50))
    Xe = random_unit_rows(rng, 3, 4)
    Xe[2, 0] = bad
    with pytest.raises(ValueError, match="evaluation row 2 has non-finite l2 norm"):
        p.classify_many(Xe)
    with pytest.raises(ValueError, match="evaluation row 0 has non-finite l2 norm"):
        p.classify(Xe[2])
    with pytest.raises(ValueError, match="non-finite"):
        train(X, np.where(np.arange(12) % 2, 1.0, -1.0),
              TrainConfig(depth=1, budget=1.0, max_iters=20)).scores(Xe[2])


def test_binary_predictor_classifies_by_the_sign_of_its_score():
    # classify_many used to answer the one class, 1, for every row
    rng = np.random.default_rng(14)
    X = random_unit_rows(rng, 40, 5)
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    p = train(X, y, TrainConfig(depth=1, budget=10.0, max_iters=500))
    assert p.classes == (1,) and p.alphas.shape == (1, 40)
    got = p.classify_many(X)
    assert np.array_equal(got, np.where(p.scores_many(X)[:, 0] > 0, 1, -1))
    assert np.array_equal(got, y) and [p.classify(x) for x in X] == got.tolist()
    # a zero score is not > 0
    assert binary_predictor(np.eye(2), np.zeros(2), depth=1).classify(np.array([1.0, 0.0])) == -1


def test_predict_dimension_mismatch():
    p = binary_predictor(np.eye(3), np.zeros(3), depth=1)
    with pytest.raises(ValueError, match="dimension"):
        p.scores(np.array([1.0, 0.0]))


def random_predictor(rng, n_support, d, n_classes, depth):
    # scores of order 1, so an absolute tolerance means what it says
    alphas = rng.normal(size=(n_classes, n_support)) / n_support
    return OneVsAllPredictor(support=random_unit_rows(rng, n_support, d), alphas=alphas,
                             classes=tuple(range(10, 10 + n_classes)), depth=depth,
                             budget=1.0, loss_kind="hinge")


@pytest.mark.parametrize("depth", [0, 1, 4])
@pytest.mark.parametrize("m", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
def test_blocked_scores_equal_the_unblocked_product(m, depth):
    rng = np.random.default_rng(m + depth)
    p = random_predictor(rng, 40, 6, 4, depth)
    Xe = random_unit_rows(rng, m, 6)
    want = scores_unblocked(p, Xe)
    got = p.scores_many(Xe)
    assert got.shape == (m, 4)
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(p.classify_many(Xe), np.array(p.classes)[np.argmax(want, axis=1)])


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_bad_row_past_the_first_block_names_its_global_index(bad):
    rng = np.random.default_rng(12)
    p = random_predictor(rng, 10, 5, 3, 2)
    Xe = random_unit_rows(rng, 2 * ROW_BLOCK + 3, 5)
    Xe[ROW_BLOCK + 6] *= bad
    with pytest.raises(NormBoundError, match=f"evaluation row {ROW_BLOCK + 6} has "):
        p.classify_many(Xe)


def test_scoring_memory_does_not_grow_with_the_row_count():
    rng = np.random.default_rng(13)
    p = random_predictor(rng, 1000, 16, 10, 4)
    Xe = random_unit_rows(rng, 8192, 16)
    tracemalloc.start()
    try:
        p.scores_many(Xe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 8192 x 1000 cross-kernel alone would be 65.5 MB
    assert peak < 16e6


def test_trained_predictors_are_read_only():
    rng = np.random.default_rng(11)
    X = random_unit_rows(rng, 12, 4)
    cfg = TrainConfig(depth=1, budget=1.0, max_iters=20)
    binary = train(X, np.where(np.arange(12) % 2, 1.0, -1.0), cfg)
    multi = train_multiclass(X, np.arange(12) % 3, cfg)
    assert binary.classes == (1,) and binary.alphas.shape == (1, 12)
    for p in (binary, multi):
        assert not p.alphas.flags.writeable and not p.support.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            p.alphas[0, 0] = 1.0
    assert X.flags.writeable  # the caller's array keeps its flags


def test_classify_many_keeps_the_class_dtype_on_no_rows():
    # zero rows used to come back as float64, every other input as int64
    rng = np.random.default_rng(12)
    X = random_unit_rows(rng, 12, 4)
    p = train_multiclass(X, np.arange(12) % 3, TrainConfig(depth=1, budget=1.0, max_iters=20))
    some, none = p.classify_many(X), p.classify_many(np.empty((0, 4)))
    assert none.shape == (0,)
    assert none.dtype == some.dtype == np.asarray(p.classes).dtype
    assert [p.classify(x) for x in X] == some.tolist()


# ---------------------------------------------------------------------------
# multiclass
# ---------------------------------------------------------------------------

def test_multiclass_three_orthonormal_points():
    X = np.eye(3)
    labels = np.array([0, 1, 2])
    mp = train_multiclass(X, labels, TrainConfig(depth=1, budget=10.0))
    assert np.array_equal(mp.classify_many(X), labels)
    # per-class objectives agree with the feasible-region oracle
    G = gram(KernelStack(1), X).entries
    loss = make_loss("hinge", 10.0)
    for c in range(3):
        yb = np.where(labels == c, 1.0, -1.0)
        oracle = ellipsoid_oracle(G, yb, loss, 10.0)
        got = float(loss.value(G @ mp.alphas[c], yb).mean())
        assert abs(got - oracle) <= 1e-3


def test_multiclass_ties_break_to_class_zero():
    mp = train_multiclass(np.eye(2), np.array([0, 1]),
                          TrainConfig(depth=1, budget=1.0, max_iters=5))
    tied = mp.classes[int(np.argmax(np.zeros(2)))]
    assert tied == 0


def test_multiclass_two_classes_reduces_to_flipped_binary():
    # the two one-vs-all problems are negations of each other, which the
    # batched step keeps exactly; against binary train only rounding differs
    # (one row of a GEMM against a GEMV)
    rng = np.random.default_rng(9)
    X = random_unit_rows(rng, 10, 4)
    labels = (rng.random(10) < 0.5).astype(int)
    for kind in ("hinge", "logistic", "squared"):
        cfg = TrainConfig(depth=1, budget=2.0, loss=kind, max_iters=300)
        mp = train_multiclass(X, labels, cfg)
        plus = train(X, np.where(labels == 1, 1.0, -1.0), cfg)
        assert np.array_equal(mp.alphas[0], -mp.alphas[1])
        np.testing.assert_allclose(mp.alphas[1], plus.alphas[0], rtol=0, atol=1e-12)


def _three_problem_set():
    """Three one-vs-all problems: class 0 separates and reaches zero hinge
    loss; classes 1 and 2 share one point, so neither can."""
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    return X, np.array([0, 1, 2])


def test_solve_reports_each_class_stop():
    X, labels = _three_problem_set()
    B = 10.0
    cfg = TrainConfig(depth=1, budget=B, max_iters=2000, patience=2001)
    history = []
    mp = train_multiclass(X, labels, cfg,
                          callback=lambda c, t, obj, best: history.append((c, t, best)))
    G = gram(KernelStack(1), X).entries
    stops = [(r.iterations, r.stop_reason) for r in mp.reports]
    assert stops == [(3, "zero_subgradient"), (2000, "max_iters"), (2000, "max_iters")]
    for c, r in enumerate(mp.reports):
        got = objective_of(X, np.where(labels == c, 1.0, -1.0), "hinge", B, mp.alphas[c])
        assert r.best_objective == pytest.approx(got, abs=1e-12)
        assert r.constraint_use == pytest.approx(mp.alphas[c] @ G @ mp.alphas[c] / B ** 2,
                                                 rel=1e-12)
        assert [t for k, t, _ in history if k == c] == list(range(1, r.iterations + 1))
    assert mp.reports[0].best_objective == 0.0
    # iteration-major: every live class at t before any class at t + 1
    assert [t for _, t, _ in history] == sorted(t for _, t, _ in history)
    assert [k for k, t, _ in history if t == 3] == [0, 1, 2]
    assert [k for k, t, _ in history if t == 4] == [1, 2]


@pytest.mark.parametrize("kind", ["hinge", "logistic"])
def test_batched_classes_match_binary_train(kind):
    rng = np.random.default_rng(3)
    X = random_unit_rows(rng, 300, 8)
    labels = rng.integers(0, 3, 300)
    cases = [(X, labels, TrainConfig(depth=1, budget=2.0, loss=kind, max_iters=5000,
                                     patience=7)),
             (*_three_problem_set(), TrainConfig(depth=1, budget=10.0, loss=kind,
                                                 max_iters=2000, patience=2001))]
    for X, labels, cfg in cases:
        mp = train_multiclass(X, labels, cfg)
        for c in range(3):
            p = train(X, np.where(labels == c, 1.0, -1.0), cfg)
            np.testing.assert_allclose(mp.alphas[c], p.alphas[0], rtol=0, atol=1e-12)
            (want,), got = p.reports, mp.reports[c]
            assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
            assert got.best_objective == pytest.approx(want.best_objective, rel=1e-12)


def test_divergence_names_the_class():
    cfg = TrainConfig(depth=1, budget=1.0, eta0=np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(SolverDivergenceError) as err:
        train_multiclass(np.eye(3), np.array([0, 1, 2]), cfg)
    assert str(err.value).startswith("class 0: objective became nan at iteration 2")
    assert err.value.iteration == 2 and np.isnan(err.value.objective)


def test_window_stop_waits_for_a_full_window():
    # the first window has no earlier best to compare against, so no solve
    # may stop at iteration ``patience`` for want of one
    rng = np.random.default_rng(3)
    X = random_unit_rows(rng, 300, 8)
    labels = rng.integers(0, 3, 300)
    cfg = TrainConfig(depth=1, budget=2.0, max_iters=5000, patience=7)
    bests = {0: [], 1: [], 2: []}
    mp = train_multiclass(X, labels, cfg,
                          callback=lambda c, t, obj, best: bests[c].append(best))
    for c, r in enumerate(mp.reports):
        b = [np.inf] + bests[c]  # b[t] is the best objective after iteration t
        assert r.stop_reason == "window" and len(b) - 1 == r.iterations > cfg.patience
        stalled = [t for t in range(2 * cfg.patience, len(b), cfg.patience)
                   if b[t - cfg.patience] - b[t] <= cfg.tolerance * abs(b[t - cfg.patience])]
        assert stalled == [r.iterations]


def test_multiclass_missing_class_raises():
    with pytest.raises(DegenerateClassError, match=r"\[1\]"):
        train_multiclass(np.eye(3), np.array([0, 0, 2]),
                         TrainConfig(depth=1, budget=1.0))


@pytest.mark.parametrize("n_classes", [None, 3])
@pytest.mark.parametrize("bad", [-1, 1.5, np.nan])
def test_multiclass_refuses_a_label_that_is_not_a_class(bad, n_classes):
    # the last row used to train silently as a negative of every class; a NaN
    # without n_classes failed in numpy's int(), naming no row
    X = random_unit_rows(np.random.default_rng(12), 8, 4)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, bad])
    with pytest.raises(ValueError, match=rf"label {bad} at row 7 is not a class index 0\.\.2"):
        train_multiclass(X, labels, TrainConfig(depth=1, budget=1.0), n_classes=n_classes)


def test_multiclass_constraints_hold_for_every_class():
    rng = np.random.default_rng(10)
    X = random_unit_rows(rng, 20, 6)
    labels = rng.integers(0, 3, 20)
    labels[:3] = [0, 1, 2]
    B = 2.0
    mp = train_multiclass(X, labels, TrainConfig(depth=1, budget=B, max_iters=300))
    G = gram(KernelStack(1), X).entries
    for a in mp.alphas:
        assert a @ G @ a <= B * B * (1 + 1e-9)


# ---------------------------------------------------------------------------
# sample-size calculator
# ---------------------------------------------------------------------------

def test_sample_size_is_minimal():
    loss = make_loss("hinge", 1.0)
    for eps, delta in ((0.1, 0.05), (0.3, 0.01), (0.05, 0.2)):
        n = sample_size(1.0, eps, delta, loss)
        a = 2 * loss.rho * 1.0 * np.sqrt(2.0)
        b = loss.range_bound * np.sqrt(np.log(1 / delta) / 2.0)
        assert (a + b) / np.sqrt(n) <= eps
        if n > 1:
            assert (a + b) / np.sqrt(n - 1) > eps


def test_sample_size_quarter_epsilon_quadruples():
    # exact 1/eps^2 homogeneity before rounding; the integer ceiling keeps the
    # quadrupling within +-1 whenever the real-valued n has fraction >= 1/2,
    # which holds for these fixtures
    loss = make_loss("hinge", 1.0)
    for B, eps, delta in ((1.0, 0.1, 0.05), (0.5, 0.2, 0.01), (0.5, 0.12, 0.2)):
        a = 2 * loss.rho * B * np.sqrt(2.0)
        b = loss.range_bound * np.sqrt(np.log(1 / delta) / 2.0)
        assert ((a + b) / eps) ** 2 % 1.0 >= 0.5
        n = sample_size(B, eps, delta, loss)
        n_half = sample_size(B, eps / 2.0, delta, loss)
        assert abs(n_half - 4 * n) <= 1


def test_sample_size_monotone_in_delta():
    loss = make_loss("hinge", 1.0)
    last = 0
    for delta in (0.5, 0.2, 0.1, 0.01, 0.001):
        n = sample_size(1.0, 0.1, delta, loss)
        assert n >= last
        last = n


def test_sample_size_budget_doubling_bounded_growth():
    loss1 = make_loss("hinge", 1.0)
    n1 = sample_size(1.0, 0.1, 0.05, loss1)
    # doubling B with M held fixed grows n by a factor in [1, 4]
    n2 = sample_size(2.0, 0.1, 0.05, loss1)
    assert n1 <= n2 <= 4 * n1


def test_sample_size_rejects_bad_arguments():
    loss = make_loss("hinge", 1.0)
    with pytest.raises(ValueError):
        sample_size(0.0, 0.1, 0.1, loss)
    with pytest.raises(ValueError):
        sample_size(1.0, 0.0, 0.1, loss)
    with pytest.raises(ValueError):
        sample_size(1.0, 0.1, 1.5, loss)


@pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
def test_sample_size_refuses_a_budget_that_is_not_finite(B):
    # NaN used to fail in a float-to-integer cast, inf with an OverflowError
    with pytest.raises(ValueError, match=f"B must be positive and finite, got {B!r}"):
        sample_size(B, 0.1, 0.1, make_loss("hinge", 1.0))
