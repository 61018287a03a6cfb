import numpy as np
import pytest

from reckernel.glyphs import make_corpus
from reckernel.kernel import KernelStack, gram
from reckernel.solver import TrainConfig, make_loss


@pytest.fixture(scope="session")
def small_corpus():
    """120 glyph images shared by data-pipeline tests."""
    return make_corpus(120, seed=17)


def random_unit_rows(rng, n, d):
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def ellipsoid_oracle(G, y, loss, B, grid=41, zoom_rounds=6):
    """Search the feasible region {a : a'Ga <= B^2} directly.

    Reparametrize by the eigendecomposition: a = B Vr diag(1/sqrt(l)) z maps
    the unit ball in z onto the feasible set restricted to range(G) (null
    directions change neither constraint nor predictions).  A coarse grid is
    refined around the incumbent; the objective is convex in z, so zooming
    with a margin cannot lose the optimum.
    """
    lam, V = np.linalg.eigh(G)
    keep = lam > 1e-12 * max(lam.max(), 1.0)
    lr, Vr = lam[keep], V[:, keep]
    r = lr.size
    P = B * Vr * np.sqrt(lr)  # predictions: G a = P z
    lo, hi = -np.ones(r), np.ones(r)
    best, best_z = np.inf, np.zeros(r)
    for _ in range(zoom_rounds):
        axes = [np.linspace(lo[i], hi[i], grid) for i in range(r)]
        Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
        Z = Z[np.einsum("ij,ij->i", Z, Z) <= 1.0 + 1e-12]
        objs = loss.value(Z @ P.T, y[None, :]).mean(axis=1)
        i = int(np.argmin(objs))
        if objs[i] < best:
            best, best_z = float(objs[i]), Z[i]
        span = (hi - lo) / (grid - 1) * 3.0
        lo = np.maximum(best_z - span, -1.0)
        hi = np.minimum(best_z + span, 1.0)
    return best


def solver_fixture_set():
    """Tiny (n <= 3) training problems for oracle comparison.

    Each entry: (name, X, y, loss kind, budget, train config).
    """
    theta = np.pi / 5
    slanted = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
    shared = dict(max_iters=20000)
    cases = [
        ("separable-pair", np.eye(2), np.array([1.0, -1.0]), "hinge", 10.0),
        ("single-point-tight", np.eye(1), np.array([1.0]), "hinge", 0.5),
        ("coincident-conflict", np.array([[1.0, 0.0], [1.0, 0.0]]),
         np.array([1.0, -1.0]), "hinge", 2.0),
        ("three-point-boundary", np.eye(3), np.array([1.0, 1.0, -1.0]), "hinge", 1.5),
        ("logistic-pair", np.eye(2), np.array([1.0, -1.0]), "logistic", 2.0),
        ("squared-pair", np.eye(2), np.array([1.0, -1.0]), "squared", 1.0),
        ("slanted-pair", slanted, np.array([1.0, -1.0]), "hinge", 1.2),
    ]
    out = []
    for name, X, y, kind, B in cases:
        cfg = TrainConfig(depth=1, budget=B, loss=kind, **shared)
        out.append((name, X, y, kind, B, cfg))
    return out


def objective_of(X, y, kind, B, alpha, depth=1):
    G = gram(KernelStack(depth), X).entries
    loss = make_loss(kind, B)
    return float(loss.value(G @ alpha, y).mean())
