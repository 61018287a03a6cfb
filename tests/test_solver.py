import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckernel.kernel import KernelStack, gram
from reckernel.solver import (
    DegenerateClassError,
    OneVsAllPredictor,
    SolverDivergenceError,
    TrainConfig,
    make_loss,
    project,
    sample_size,
    train,
    train_multiclass,
)

from conftest import (ellipsoid_oracle, objective_of, random_unit_rows,
                      solver_fixture_set)


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


@pytest.mark.parametrize("field, value", [("patience", 0), ("patience", -3),
                                          ("budget", np.nan), ("budget", np.inf)])
def test_train_config_rejects_bad_patience_and_budget(field, value):
    # patience 0 used to fail mid-solve on t % 0, a negative one acted as its
    # absolute value, and a NaN budget was accepted
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{"depth": 1, "budget": 1.0, field: value})


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


def test_predict_dimension_mismatch():
    p = binary_predictor(np.eye(3), np.zeros(3), depth=1)
    with pytest.raises(ValueError, match="dimension"):
        p.scores(np.array([1.0, 0.0]))


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
