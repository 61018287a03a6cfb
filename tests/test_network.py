import itertools
import json
import math

import numpy as np
import pytest

from reckernel import network
from reckernel.activation import Activation, builtin_activation, compute_H
from reckernel.network import (
    ConstructionError,
    HalfspaceFamily,
    MarginReport,
    NetworkStructureError,
    NeuralNet,
    UnsupportedNetworkError,
    brute_force_margins,
    build_hardness_net,
    embed_quadratic,
    extend_input,
    forward,
    forward_many,
    net_from_json,
    net_to_json,
    random_halfspace_family,
    random_net,
    required_budget,
    select_margin_param,
)

from oracles import (TruncatedFeatureMap, embedded_evaluate, feature_map, forward_loop,
                     forward_many_elementwise, halfspace_label, to_dense)

QUAD = builtin_activation("quadratic")
ERF = builtin_activation("shifted_erf")
SH = builtin_activation("smoothed_hinge")


def tiny_net(*mats, act=QUAD):
    return NeuralNet(weights=tuple(np.array(m, dtype=float) for m in mats), activation=act)


# ---------------------------------------------------------------------------
# forward and validation
# ---------------------------------------------------------------------------

def test_forward_single_quadratic_neuron():
    net = tiny_net([[1.0]], [[1.0]])
    assert forward(net, [0.5]) == 0.25


def test_forward_zero_weights():
    net = tiny_net([[0.0, 0.0]], [[0.0]])
    assert forward(net, [0.5, 0.5]) == 0.0


def test_forward_two_hidden_layers():
    net = tiny_net([[1.0]], [[1.0]], [[1.0]])
    assert forward(net, [0.5]) == 0.0625


def test_forward_shape_mismatch():
    net = tiny_net([[1.0, 0.0]], [[1.0]])
    with pytest.raises(NetworkStructureError):
        forward(net, [0.5])
    # a width-1 block would otherwise broadcast against the 2-column layer
    for X in ([[0.5], [0.25]], [0.5, 0.5], [[[0.5, 0.5]]]):
        with pytest.raises(NetworkStructureError, match="network expects"):
            forward_many(net, X)


@pytest.mark.parametrize("act", [QUAD, ERF, SH], ids=lambda a: a.name)
@pytest.mark.parametrize("k", [1, 2])
def test_forward_many_rows_are_independent(act, k):
    # each row's output is the one-row evaluation, bit for bit, in any block
    rng = np.random.default_rng(k)
    net = random_net(k, [9] + [15] * k, 2.0, act, seed=k)
    X = rng.normal(size=(300, 9))
    X /= np.linalg.norm(X, axis=1)[:, None]
    full = forward_many(net, X)
    assert full.shape == (300,)
    assert all(full[i] == forward(net, x) for i, x in enumerate(X))
    for lo, hi in ((0, 1), (7, 8), (13, 270), (257, 300)):
        assert np.array_equal(forward_many(net, X[lo:hi]), full[lo:hi])


@pytest.mark.parametrize("act", [QUAD, ERF, SH], ids=lambda a: a.name)
@pytest.mark.parametrize("k", [1, 2])
def test_forward_equals_the_per_neuron_loop(act, k):
    rng = np.random.default_rng(10 + k)
    for seed in range(5):
        net = random_net(k, [5] + [6] * k, 2.0, act, seed)
        for _ in range(20):
            x = rng.normal(size=5)
            x /= np.linalg.norm(x)
            assert forward(net, x) == pytest.approx(forward_loop(net, x), rel=1e-12)


def test_forward_many_keeps_signed_zeros_and_nan_signs_apart():
    # a closed form that reads the sign bit: +1 or -1 at either zero and either NaN;
    # the rows hold both zeros and the -1 weight turns +0.0 into a -0.0 product
    # (numpy 2.4's sum starts from +0.0, so its pre-activation reads +0.0 there)
    sign = Activation("sign", "sigmoid_like", lambda j: None, lambda x: math.copysign(1.0, x))
    net = tiny_net([[1.0], [-1.0]], [[1.0, 0.5]], act=sign)
    X = np.array([[0.0], [-0.0], [math.nan], [-math.nan], [2.0], [-0.0], [0.0], [-math.nan]])
    got = forward_many(net, X)
    assert got.tobytes() == forward_many_elementwise(net, X).tobytes()
    assert got.tobytes() == np.array([forward(net, x) for x in X]).tobytes()
    # the NaN rows reach the activation as NaNs of both signs
    assert got[2] > 0 > got[3] == got[7]


def test_validate_l2_first_layer():
    net = tiny_net([[3.0, 4.0]], [[1.0]])
    assert required_budget(net) == 5.0  # the 3-4-5 row sets the budget


def test_validate_l1_deeper_layers():
    net = tiny_net([[1.0, 0.0], [0.0, 1.0]], [[3.0, 4.0]])
    assert required_budget(net) == 7.0  # the output row's l1 norm, not its l2 norm 5


def test_zero_hidden_layers_is_structural_error():
    with pytest.raises(NetworkStructureError):
        NeuralNet(weights=(np.array([[1.0]]),), activation=QUAD)


def test_output_must_be_single_row():
    with pytest.raises(NetworkStructureError):
        tiny_net([[1.0]], [[1.0], [2.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_net_rejects_non_finite_weights(bad):
    with pytest.raises(NetworkStructureError, match=r"layer 1 weight at row 0, column 2 is"):
        tiny_net([[1.0, 0.0, 0.0]], [[1.0, 2.0, bad]])
    payload = json.loads(net_to_json(random_net(1, [2, 3], 1.0, ERF, 0)))
    payload["weights"][0][4] = bad  # json writes these as NaN / Infinity
    with pytest.raises(NetworkStructureError, match="layer 0 weight at row 2, column 0"):
        net_from_json(json.dumps(payload))


def test_required_budget_is_tight():
    net = tiny_net([[3.0, 4.0]], [[2.0]])
    L = required_budget(net)
    assert L == 5.0


def test_l2_norms_do_not_overflow_before_the_result():
    # the squares overflow, the norm 5e307 does not; it used to read inf
    net = tiny_net([[1.0, 0.0], [3e307, 4e307]], [[1.0, 1.0]])
    assert required_budget(net) == 5e307


def test_required_budget_raises_on_a_norm_past_the_largest_double():
    net = tiny_net([[1.0, 0.0], [1.5e308, 1.5e308]], [[1.0, 1.0]])
    with pytest.raises(OverflowError, match="layer 0 row 1 has an l2 norm"):
        required_budget(net)
    with pytest.raises(OverflowError, match="layer 1 row 0 has an l1 norm"):
        required_budget(tiny_net([[1.0], [1.0]], [[1e308, 1e308]]))


# ---------------------------------------------------------------------------
# random networks
# ---------------------------------------------------------------------------

def test_random_net_respects_budgets():
    for seed in range(5):
        net = random_net(2, [4, 5, 3], 1.7, QUAD, seed)
        assert required_budget(net) <= 1.7


def test_random_net_deterministic_and_seed_sensitive():
    a = random_net(1, [3, 4], 1.0, QUAD, 11)
    b = random_net(1, [3, 4], 1.0, QUAD, 11)
    c = random_net(1, [3, 4], 1.0, QUAD, 12)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_random_net_rejects_bad_widths():
    with pytest.raises(ValueError):
        random_net(2, [3, 4], 1.0, QUAD, 0)


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_random_net_refuses_a_budget_that_is_not_positive_and_finite(L):
    # a NaN or infinite budget used to fail later, on a NaN weight
    with pytest.raises(ValueError, match=f"a positive finite L, got .*, L={L!r}"):
        random_net(1, [3, 4], L, QUAD, 0)


# ---------------------------------------------------------------------------
# quadratic embedding oracle
# ---------------------------------------------------------------------------

def test_embed_single_weight_network():
    net = tiny_net([[1.0]], [[1.0]])
    emb = embed_quadratic(net)
    assert emb.coords == {(0, 0): pytest.approx(2.0 ** 1.5, rel=1e-15)}
    assert emb.norm == pytest.approx(2.0 ** 1.5, rel=1e-15)
    for x in (0.5, -0.5, 0.25):
        assert emb.evaluate([x]) == pytest.approx(forward(net, [x]), rel=1e-12)


def test_embed_zero_output_weights():
    net = tiny_net([[1.0, 0.0]], [[0.0]])
    emb = embed_quadratic(net)
    assert emb.coords == {}
    assert emb.norm == 0.0


def test_embed_requires_depth_one_quadratic():
    with pytest.raises(UnsupportedNetworkError):
        embed_quadratic(tiny_net([[1.0]], [[1.0]], [[1.0]]))
    with pytest.raises(UnsupportedNetworkError):
        embed_quadratic(tiny_net([[1.0]], [[1.0]], act=ERF))


def test_embed_reproduces_forward_and_norm_bound():
    rng = np.random.default_rng(0)
    for trial in range(50):
        d = int(rng.integers(1, 5))
        width = int(rng.integers(1, 6))
        L = float(rng.uniform(0.3, 2.0))
        net = random_net(1, [d, width], L, QUAD, seed=1000 + trial)
        emb = embed_quadratic(net)
        assert emb.norm <= compute_H(QUAD, L, L).to_float() * (1 + 1e-12)
        for _ in range(20):
            x = rng.normal(size=d)
            x /= np.linalg.norm(x)
            want = forward(net, x)
            assert emb.evaluate(x) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_embed_evaluate_equals_the_term_by_term_sum():
    rng = np.random.default_rng(2)
    emb = embed_quadratic(random_net(1, [20, 30], 1.5, QUAD, seed=21))
    assert len(emb.coords) == 400
    X = rng.normal(size=(250, 20))
    X /= np.linalg.norm(X, axis=1)[:, None]
    X[:5, :3] = -0.0
    got = np.array([emb.evaluate(x) for x in X])
    assert got.tobytes() == np.array([embedded_evaluate(emb, x) for x in X]).tobytes()


def test_embed_dense_pairs_with_feature_map():
    # independent route: dot the dense coordinates against the feature map
    rng = np.random.default_rng(1)
    net = random_net(1, [3, 4], 1.0, QUAD, seed=5)
    emb = embed_quadratic(net)
    fm = TruncatedFeatureMap(3, 2)
    dense = to_dense(emb, fm)
    assert np.linalg.norm(dense) == pytest.approx(emb.norm, rel=1e-12)
    for _ in range(10):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert dense @ feature_map(fm, x) == pytest.approx(forward(net, x), rel=1e-10)


# ---------------------------------------------------------------------------
# halfspace families
# ---------------------------------------------------------------------------

def test_eval_halfspaces_single():
    hs = HalfspaceFamily(np.array([[1, 1]]), np.array([0]), budget=4)
    for bits, label in (([1, 1], 1), ([-1, -1], -1)):
        assert network._labels(hs, bits) == halfspace_label(hs, bits) == label


def test_eval_halfspaces_contradictory_pair():
    hs = HalfspaceFamily(np.array([[1, 1], [-1, -1]]), np.array([0, 0]), budget=4)
    for bits in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        assert network._labels(hs, bits) == halfspace_label(hs, bits) == -1


def test_halfspace_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        HalfspaceFamily(np.array([[5, 5]]), np.array([9]), budget=16)


@pytest.mark.parametrize("d, T", [(0, 2), (4, 0), (-1, 1)])
def test_random_family_refuses_an_empty_family(d, T):
    # T = 0 used to fail inside HalfspaceFamily: "weights (0,) and offsets (0,)"
    with pytest.raises(ValueError, match=rf"need d >= 1 and T >= 1 halfspaces, got d={d}, T={T}"):
        random_halfspace_family(d, T, 8, 0)


def test_random_family_within_budget():
    for seed in range(5):
        hs = random_halfspace_family(8, 3, 12, seed)
        cost = np.abs(hs.offsets) + np.abs(hs.weights).sum(axis=1)
        assert np.all(cost <= 12)


def test_extend_input_unit_norm():
    for d in (2, 5, 9):
        x = np.ones(d)
        assert np.linalg.norm(extend_input(x)) == pytest.approx(1.0, rel=1e-15)


def test_extend_input_works_row_wise():
    X = np.random.default_rng(3).normal(size=(6, 4))
    E = extend_input(X)
    assert E.shape == (6, 5)
    for x, e in zip(X, E):
        assert extend_input(x).tobytes() == e.tobytes()


# ---------------------------------------------------------------------------
# hardness construction
# ---------------------------------------------------------------------------

def test_hardness_margin_single_halfspace():
    hs = HalfspaceFamily(np.array([[1, 1]]), np.array([0]), budget=4)
    net = build_hardness_net(hs, ERF, select_margin_param(ERF, 1))
    report = brute_force_margins(net, hs)
    assert report.min_margin >= 1.0
    assert report.max_hinge_loss == 0.0
    assert report.n_inputs == 4


def test_hardness_hinge_zero_random_families():
    for seed in range(3):
        hs = random_halfspace_family(4, 2, 8, seed)
        net = build_hardness_net(hs, ERF, select_margin_param(ERF, 2))
        assert brute_force_margins(net, hs).max_hinge_loss == 0.0


def test_hardness_relu_like_path():
    lam = select_margin_param(SH, 2)
    for seed in range(3):
        hs = random_halfspace_family(4, 2, 8, seed)
        net = build_hardness_net(hs, SH, lam)
        # paired neurons double the width
        assert net.widths[1] == 2 * (hs.T + 1)
        assert brute_force_margins(net, hs).max_hinge_loss == 0.0


def test_hardness_rejects_unsaturated_margin_param():
    hs = HalfspaceFamily(np.array([[1, 1]]), np.array([0]), budget=4)
    with pytest.raises(ConstructionError, match="transfer"):
        build_hardness_net(hs, ERF, 0.05)


def test_hardness_rejects_a_nan_margin_param():
    # every comparison with NaN is false, so it used to pass the check
    hs = random_halfspace_family(6, 2, 16, 1)
    with pytest.raises(ConstructionError, match="margin parameter nan does not saturate"):
        build_hardness_net(hs, ERF, math.nan)


def test_hardness_rejects_polynomial_activation():
    hs = HalfspaceFamily(np.array([[1, 1]]), np.array([0]), budget=4)
    with pytest.raises(ConstructionError):
        build_hardness_net(hs, QUAD, 3.0)
    with pytest.raises(ConstructionError):
        select_margin_param(QUAD, 1)


def test_margin_param_saturates_both_sides():
    for act, T in ((ERF, 1), (ERF, 3), (SH, 2)):
        lam = select_margin_param(act, T)
        if act.kind == "relu_like":
            hi = act.evaluate(lam) - act.evaluate(lam - 1.0)
            lo = act.evaluate(-lam) - act.evaluate(-lam - 1.0)
        else:
            hi = act.evaluate(lam)
            lo = act.evaluate(-lam)
        assert hi >= 1.0 - 1.0 / (4.0 * T)
        assert lo <= 1.0 / (4.0 * T)


# ---------------------------------------------------------------------------
# the batched margin check against the per-input loop it replaced
# ---------------------------------------------------------------------------

def scalar_margins(net, hs):
    """One halfspace_label and one forward() per input, in product order."""
    worst, worst_x = math.inf, ()
    for bits in itertools.product((-1, 1), repeat=hs.dim):
        x = np.array(bits)
        margin = halfspace_label(hs, bits) * forward(net, extend_input(x))
        if margin < worst:
            worst, worst_x = margin, bits
    return MarginReport(min_margin=worst, max_hinge_loss=max(0.0, 1.0 - worst),
                        n_inputs=2 ** hs.dim, worst_input=worst_x)


def _hardness_case(act, d, T, seed):
    hs = random_halfspace_family(d, T, 12, seed)
    return build_hardness_net(hs, act, select_margin_param(act, T)), hs


def _random_case(act, d, seed):
    # two hidden layers, so every layer of the batched loop runs
    hs = random_halfspace_family(d, 2, 10, seed)
    return random_net(2, [d + 1, 5, 4], 2.0, act, seed), hs


MARGIN_CASES = {
    "erf-d5": lambda: _hardness_case(ERF, 5, 1, 0),
    "erf-d8": lambda: _hardness_case(ERF, 8, 3, 1),
    "erf-d11": lambda: _hardness_case(ERF, 11, 2, 2),  # two blocks
    "erf-d12": lambda: _hardness_case(ERF, 12, 3, 3),  # four blocks
    "hinge-d6": lambda: _hardness_case(SH, 6, 2, 4),
    "hinge-d9": lambda: _hardness_case(SH, 9, 3, 5),
    "hinge-d11": lambda: _hardness_case(SH, 11, 1, 6),
    "random-k2-erf-d7": lambda: _random_case(ERF, 7, 7),
    "random-k2-erf-d11": lambda: _random_case(ERF, 11, 8),
    "random-k2-hinge-d7": lambda: _random_case(SH, 7, 9),
    "random-k2-hinge-d10": lambda: _random_case(SH, 10, 10),
    "random-k2-quad-d8": lambda: _random_case(QUAD, 8, 11),
}


@pytest.mark.parametrize("case", sorted(MARGIN_CASES))
def test_margins_equal_the_scalar_oracle(case):
    net, hs = MARGIN_CASES[case]()
    assert brute_force_margins(net, hs) == scalar_margins(net, hs)


@pytest.mark.parametrize("case", sorted(MARGIN_CASES))
def test_forward_many_equals_the_elementwise_oracle_on_the_hypercube(case):
    net, hs = MARGIN_CASES[case]()
    X = extend_input(network._hypercube_points(np.arange(2 ** hs.dim), hs.dim))
    assert forward_many(net, X).tobytes() == forward_many_elementwise(net, X).tobytes()


def test_margins_call_the_activation_once_per_distinct_pre_activation():
    calls = []

    def counted(x):
        calls.append(x)
        return ERF.closed_form(x)

    act = Activation("counted_erf", ERF.kind, ERF.log_abs_coeff_fn, counted)
    hs = random_halfspace_family(12, 3, 12, 3)
    net = build_hardness_net(hs, act, select_margin_param(act, 3))
    calls.clear()
    report = brute_force_margins(net, hs)
    assert report == brute_force_margins(NeuralNet(net.weights, ERF), hs)
    # distinct bit patterns of the hidden pre-activations, block by block
    X = extend_input(network._hypercube_points(np.arange(2 ** 12), 12))
    distinct = 0
    for start in range(0, len(X), network.MARGIN_BLOCK):
        Z = (X[start:start + network.MARGIN_BLOCK, None, :] * net.weights[0]).sum(axis=2)
        distinct += np.unique(Z.view(np.int64)).size
    assert len(calls) <= distinct < X.shape[0] * net.weights[0].shape[0] // 10


def test_margin_tie_goes_to_the_first_input_in_product_order():
    # d = 3 puts every extended coordinate at +-1/2, so pre-activations are
    # exact multiples of the margin parameter and depend on x only through
    # sum(x): the three inputs with sum(x) = 1 tie exactly in forward()
    hs = HalfspaceFamily(np.array([[1, 1, 1]]), np.array([0]), budget=4)
    net = build_hardness_net(hs, ERF, select_margin_param(ERF, 1))
    tied = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    scalar = [halfspace_label(hs, x) * forward(net, extend_input(np.array(x))) for x in tied]
    assert scalar[0] == scalar[1] == scalar[2]
    assert scalar_margins(net, hs).worst_input == tied[0]
    assert brute_force_margins(net, hs).worst_input == tied[0]


def test_margins_raise_on_a_nan_margin(monkeypatch):
    net, hs = _hardness_case(ERF, 5, 1, 0)
    real = network._hypercube_margins

    def nan_at_9(net, hs):
        m = real(net, hs)
        m[9] = math.nan
        return m

    monkeypatch.setattr(network, "_hypercube_margins", nan_at_9)
    with pytest.raises(OverflowError, match=r"input \(-1, 1, -1, -1, 1\) is NaN \(1 inputs\)"):
        brute_force_margins(net, hs)


def _with_output_weights(net, value):
    return NeuralNet(weights=(net.weights[0], np.full_like(net.weights[1], value)),
                     activation=net.activation)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_margins_raise_on_an_infinite_margin():
    # finite output weights of 1e308: every hidden value lies in (0, 1) and
    # either sums to at most 1.125 or to at least 1.875 (the neurons are
    # saturated), so the output overflows to +inf wherever the sum is at
    # least 1.875, and the margin there is -inf or +inf by its label; it used
    # to report min_margin=-inf
    net, hs = _hardness_case(ERF, 6, 2, 12)
    with pytest.raises(OverflowError, match=r"input \(-1, -1, -1, -1, -1, -1\) is infinite "
                                            r"\(52 inputs\)"):
        brute_force_margins(_with_output_weights(net, 1e308), hs)
    # every label +1, so every margin is +inf: it used to report
    # min_margin=inf, max_hinge_loss=0.0, a perfect fit
    hs = HalfspaceFamily(np.array([[1, 0, 0]] * 3), np.array([-3] * 3), budget=8)
    net = build_hardness_net(hs, ERF, select_margin_param(ERF, 3))
    with pytest.raises(OverflowError, match=r"is infinite \(8 inputs\)"):
        brute_force_margins(_with_output_weights(net, 1e308), hs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_margins_raise_when_finite_weights_overflow_to_nan():
    # two equal neurons overflow to +inf, so the output is inf - inf
    hs = random_halfspace_family(6, 2, 12, 0)
    net = NeuralNet(weights=(np.full((2, 7), 1e308), np.array([[1.0, -1.0]])), activation=QUAD)
    assert math.isnan(forward(net, extend_input(np.ones(6))))
    with pytest.raises(OverflowError, match="is NaN"):
        brute_force_margins(net, hs)


def test_hardness_net_rejects_an_overflowing_margin_param():
    hs = random_halfspace_family(6, 2, 16, 1)
    with pytest.raises(OverflowError, match="overflows the first-layer weights"):
        build_hardness_net(hs, ERF, 1e308)


def test_margins_reject_a_dimension_mismatch():
    hs = random_halfspace_family(5, 2, 8, 0)
    net = random_net(1, [5, 3], 1.0, ERF, 0)  # needs 6 inputs: 5 bits and the constant
    with pytest.raises(NetworkStructureError, match="extended 5-bit inputs"):
        brute_force_margins(net, hs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_net_json_round_trip():
    net = random_net(2, [3, 4, 2], 1.3, ERF, 9)
    text = net_to_json(net)
    back = net_from_json(text)
    assert back.k == net.k
    assert back.activation.name == "shifted_erf"
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, back.weights))
    payload = json.loads(text)
    assert payload["widths"] == [3, 4, 2]
