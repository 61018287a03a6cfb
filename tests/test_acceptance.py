"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The benchmark criteria share one desk-scale run through a module
fixture; everything else is self-contained.
"""

import math
import time

import numpy as np
import pytest

from reckernel.activation import LogValue, builtin_activation, compute_F, compute_H
from reckernel.baseline import LogisticConfig, predict_logistic, train_logistic
from reckernel.cli import main as cli_main
from reckernel.data import make_variant, preprocess
from reckernel.glyphs import make_corpus
from reckernel.kernel import KernelStack, TruncatedFeatureMap, feature_map, gram, kernel_eval
from reckernel.network import (brute_force_margins, build_hardness_net,
                               embed_quadratic, forward, random_halfspace_family,
                               random_net, select_margin_param)
from reckernel.solver import TrainConfig, make_loss, sample_size, train, train_multiclass

from conftest import ellipsoid_oracle, objective_of, random_unit_rows, solver_fixture_set

QUAD = builtin_activation("quadratic")
ERF = builtin_activation("shifted_erf")
SH = builtin_activation("smoothed_hinge")


def report(num, ok, detail, soft=False):
    status = "PASS" if ok else ("WARN" if soft else "FAIL")
    print(f"[criterion {num:2d}] {status}: {detail}")
    if not soft:
        assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. kernel recursion vs the explicit truncated map
# ---------------------------------------------------------------------------

def test_criterion_1_kernel_recursion_truncation():
    # a truncated map is a prefix of any deeper one, so one explicit map per
    # pair yields every J through cumulative dot products
    t0 = time.time()
    rng = np.random.default_rng(101)
    coord_budget = 200_000
    jmax_for = {d: max(J for J in range(3, 9) if _n_coords(d, J) <= coord_budget)
                for d in range(2, 11)}
    maps = {d: TruncatedFeatureMap(d, jmax_for[d], coord_cap=coord_budget)
            for d in range(2, 11)}
    covered = {J: 0 for J in range(3, 9)}
    worst_ratio = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        x, y = random_unit_rows(rng, 2, d)
        kv = kernel_eval(KernelStack(1), x, y)
        fm = maps[d]
        dots = np.cumsum(feature_map(fm, x) * feature_map(fm, y))
        for J in range(3, jmax_for[d] + 1):
            diff = abs(float(dots[_n_coords(d, J) - 1]) - kv)
            worst_ratio = max(worst_ratio, diff / 2.0 ** -(J + 1))
            covered[J] += 1
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0 and all(c >= 50 for c in covered.values()) and elapsed < 5.0
    report(1, ok, f"worst |<psi,psi>-K1| at {100*worst_ratio:.1f}% of the 2^-(J+1) "
                  f"bound over 1000 pairs, J coverage {min(covered.values())}+, "
                  f"{elapsed:.1f}s (< 5s)")


def _n_coords(d, J):
    return J + 1 if d == 1 else (d ** (J + 1) - 1) // (d - 1)


# ---------------------------------------------------------------------------
# 2. Gram positive semidefiniteness
# ---------------------------------------------------------------------------

def test_criterion_2_gram_psd():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        G = gram(KernelStack(k), random_unit_rows(rng, n, d))
        worst = min(worst, G.min_eigenvalue() / n)
    elapsed = time.time() - t0
    ok = worst >= -1e-8 and elapsed < 10.0
    report(2, ok, f"min eigenvalue / n = {worst:.2e} >= -1e-8 over 100 Grams, "
                  f"{elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 3. capacity values
# ---------------------------------------------------------------------------

def test_criterion_3_capacity_values():
    t0 = time.time()
    worst_rel = 0.0
    for L in (0.5, 1.0, 2.0):
        log_lam = math.log(L)
        rep = compute_F(QUAD, 6, L)
        for p in range(6):
            log_lam = math.log(2.0 * math.sqrt(2.0) * L) + 2.0 * log_lam
            worst_rel = max(worst_rel, abs(rep.levels[p].log_magnitude - log_lam))
    bounds_ok = True
    for lam in (3.0, 4.0, 5.0):
        inner = LogValue.from_float(1.0).add(
            LogValue.from_float(3 * math.e * math.pi * lam * lam)
            .mul(LogValue.from_log(4 * math.pi * lam * lam)))
        factor = LogValue.from_float(4 * lam * lam).mul(inner)
        erf_bound = LogValue.from_float(0.5).add(factor).sqrt()
        sh_bound = LogValue.from_float(lam * lam).add(
            LogValue.from_float(2 * lam * lam).mul(factor)).sqrt()
        bounds_ok &= compute_H(ERF, 1.0, lam) <= erf_bound
        bounds_ok &= compute_H(SH, 1.0, lam) <= sh_bound
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-10 and bounds_ok and elapsed < 1.0
    report(3, ok, f"hand-iterated composition rel err {worst_rel:.1e} <= 1e-10 (k <= 6), "
                  f"saturating-series bounds hold at lam in {{3,4,5}}, {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 4. explicit embedding oracle
# ---------------------------------------------------------------------------

def test_criterion_4_embedding_oracle():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    norms_ok = True
    for trial in range(50):
        d = int(rng.integers(1, 5))
        width = int(rng.integers(1, 6))
        L = float(rng.uniform(0.3, 2.0))
        net = random_net(1, [d, width], L, QUAD, seed=4000 + trial)
        emb = embed_quadratic(net)
        norms_ok &= emb.norm <= compute_H(QUAD, L, L).to_float() * (1 + 1e-12)
        for _ in range(20):
            x = rng.normal(size=d)
            x /= np.linalg.norm(x)
            want = forward(net, x)
            worst_rel = max(worst_rel, abs(emb.evaluate(x) - want) / max(1.0, abs(want)))
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-10 and norms_ok and elapsed < 5.0
    report(4, ok, f"embedding reproduces forward() to rel err {worst_rel:.1e} <= 1e-10 "
                  f"on 50 nets x 20 inputs, norms within the level bound, "
                  f"{elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 5. hardness reduction margins
# ---------------------------------------------------------------------------

def test_criterion_5_hardness_margins():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst_margin = np.inf
    worst_hinge = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 11))
        T = int(rng.integers(1, 4))
        act = SH if trial % 4 == 3 else ERF
        hs = random_halfspace_family(d, T, budget=16, seed=5000 + trial)
        net = build_hardness_net(hs, act, select_margin_param(act, T))
        rep = brute_force_margins(net, hs)
        worst_margin = min(worst_margin, rep.min_margin)
        worst_hinge = max(worst_hinge, rep.max_hinge_loss)
    elapsed = time.time() - t0
    ok = worst_margin >= 1.0 and worst_hinge == 0.0 and elapsed < 30.0
    report(5, ok, f"min margin {worst_margin:.3f} >= 1 and hinge loss {worst_hinge} == 0 "
                  f"over 20 families (full hypercubes), {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 6. solver vs feasible-region oracle
# ---------------------------------------------------------------------------

def test_criterion_6_solver_optimality():
    t0 = time.time()
    worst_gap = 0.0
    constraints_ok = True
    for name, X, y, kind, B, cfg in solver_fixture_set():
        loss = make_loss(kind, B)
        G = gram(KernelStack(cfg.depth), X).entries
        oracle = ellipsoid_oracle(G, y, loss, B)
        p = train(X, y, cfg)
        got = objective_of(X, y, kind, B, p.alphas[0], depth=cfg.depth)
        worst_gap = max(worst_gap, abs(got - oracle))
        constraints_ok &= p.alphas[0] @ G @ p.alphas[0] <= B * B * (1 + 1e-9)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-3 and constraints_ok and elapsed < 10.0
    report(6, ok, f"worst |solver - oracle| = {worst_gap:.2e} <= 1e-3 over "
                  f"{len(solver_fixture_set())} fixtures, constraints feasible, "
                  f"{elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 7 & 8. desk-scale benchmark
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_bench():
    t0 = time.time()
    train_ds = make_corpus(2000, seed=11)
    test_ds = make_corpus(2000, seed=12)
    steps = ("deskew", "center", "normalize")
    results = {}
    for variant in ("basic", "rotation"):
        tr, te = train_ds, test_ds
        if variant == "rotation":
            tr = make_variant(tr, "rotation", 100)
            te = make_variant(te, "rotation", 101)
        ftr = preprocess(tr, steps)
        fte = preprocess(te, steps)
        ks = (1,) if variant == "basic" else (1, 4)
        for k in ks:
            cfg = TrainConfig(depth=k, budget=100.0, max_iters=3000)
            pred = train_multiclass(ftr.X, ftr.labels, cfg)
            results[(variant, f"k{k}")] = float(
                (pred.classify_many(fte.X) != fte.labels).mean())
        if variant == "rotation":
            W = train_logistic(ftr.X, ftr.labels, LogisticConfig())
            results[(variant, "logistic")] = float(
                (predict_logistic(W, fte.X) != fte.labels).mean())
    results["elapsed"] = time.time() - t0
    return results


def test_criterion_7_desk_scale_benchmark(desk_bench):
    basic_err = desk_bench[("basic", "k1")]
    rot_kernel = desk_bench[("rotation", "k1")]
    rot_logistic = desk_bench[("rotation", "logistic")]
    gap = rot_logistic - rot_kernel
    elapsed = desk_bench["elapsed"]
    ok = basic_err <= 0.12 and gap >= 0.03 and elapsed < 900.0
    report(7, ok, f"basic k=1 test error {100*basic_err:.2f}% <= 12%, rotation gap "
                  f"logistic {100*rot_logistic:.2f}% - kernel {100*rot_kernel:.2f}% = "
                  f"{100*gap:.2f}pts >= 3, {elapsed:.0f}s (< 900s)")


def test_criterion_8_depth_trend_soft(desk_bench):
    k1 = desk_bench[("rotation", "k1")]
    k4 = desk_bench[("rotation", "k4")]
    ok = k4 <= k1 + 0.005
    report(8, ok, f"rotation k=4 {100*k4:.2f}% vs k=1 {100*k1:.2f}% + 0.5pts "
                  f"(soft check, failure is a warning)", soft=True)


# ---------------------------------------------------------------------------
# 9. sample-size calculator properties
# ---------------------------------------------------------------------------

def test_criterion_9_sample_size_properties():
    t0 = time.time()
    loss = make_loss("hinge", 1.0)
    minimal_ok = True
    for eps, delta in ((0.1, 0.05), (0.05, 0.2), (0.3, 0.01), (0.02, 0.5)):
        n = sample_size(1.0, eps, delta, loss)
        a = 2 * math.sqrt(2.0)
        b = loss.range_bound * math.sqrt(math.log(1 / delta) / 2.0)
        minimal_ok &= (a + b) / math.sqrt(n) <= eps
        minimal_ok &= n == 1 or (a + b) / math.sqrt(n - 1) > eps
    quad_ok = True
    for B, eps, delta in ((1.0, 0.1, 0.05), (0.5, 0.2, 0.01), (0.5, 0.12, 0.2)):
        quad_ok &= abs(sample_size(B, eps / 2, delta, loss)
                       - 4 * sample_size(B, eps, delta, loss)) <= 1
    mono_ok = True
    last = 0
    for delta in (0.5, 0.1, 0.01, 0.001):
        n = sample_size(1.0, 0.1, delta, loss)
        mono_ok &= n >= last
        last = n
    elapsed = time.time() - t0
    ok = minimal_ok and quad_ok and mono_ok and elapsed < 1.0
    report(9, ok, f"minimality exact, eps/2 quadruples within rounding, "
                  f"delta monotone, {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 10. command-level determinism
# ---------------------------------------------------------------------------

def test_criterion_10_train_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out-dir", str(data), "--train", "150",
                     "--val", "20", "--test", "20", "--seed", "3"]) == 0
    args = ["--images", str(data / "basic-train-images.idx"),
            "--labels", str(data / "basic-train-labels.idx"),
            "--k", "1", "--B", "100", "--max-iters", "500"]
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert cli_main(["train", *args, "--out-model", str(m1)]) == 0
    assert cli_main(["train", *args, "--out-model", str(m2)]) == 0
    ok = m1.read_bytes() == m2.read_bytes()
    report(10, ok, f"two identically-configured training runs produced "
                   f"byte-identical model files ({m1.stat().st_size} bytes)")
