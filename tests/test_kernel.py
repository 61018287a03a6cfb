import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reckernel.kernel import (
    GramFormatError,
    KernelStack,
    NormBoundError,
    gram,
    kernel_matrix,
    read_gram,
    write_gram,
)

from conftest import random_unit_rows
from oracles import FeatureMapCapacityError, TruncatedFeatureMap, feature_map


E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


# ---------------------------------------------------------------------------
# recursion values
# ---------------------------------------------------------------------------

def test_orthogonal_inputs_walk_the_forced_recursion():
    assert kernel_matrix(1, E1, E2)[0, 0] == 0.5
    assert kernel_matrix(2, E1, E2)[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert kernel_matrix(3, E1, E2)[0, 0] == pytest.approx(3.0 / 4.0, rel=1e-15)


def test_unit_self_evaluation_is_fixed_point():
    for k in range(0, 11):
        assert kernel_matrix(k, E1, E1)[0, 0] == 1.0


def test_antipodal_inputs():
    assert kernel_matrix(1, E1, -E1)[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_depth_zero_is_inner_product():
    x = np.array([0.6, 0.8])
    y = np.array([0.8, -0.6])
    assert kernel_matrix(0, x, y)[0, 0] == pytest.approx(x @ y, rel=1e-15)


def test_norm_violation_names_the_vector():
    with pytest.raises(NormBoundError, match="x has l2 norm"):
        kernel_matrix(1, 1.5 * E1, E2, label="x")
    with pytest.raises(NormBoundError, match="x has l2 norm"):
        feature_map(TruncatedFeatureMap(2, 1), 1.5 * E1)
    with pytest.raises(ValueError):
        KernelStack(-1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vector_is_rejected(bad):
    x = np.array([bad, 0.0])
    with pytest.raises(NormBoundError, match="x has non-finite l2 norm"):
        kernel_matrix(1, x, E1, label="x")


def test_unit_pair_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = random_unit_rows(rng, 2, 6)
        for k in range(1, 5):
            v = kernel_matrix(k, x, y)[0, 0]
            assert 1.0 / 3.0 <= v <= 1.0


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_monotone_in_inner_product(a, b):
    lo, hi = sorted((a, b))
    x = np.array([1.0, 0.0])
    for k in range(1, 6):
        va = kernel_matrix(k, x, np.array([lo, np.sqrt(max(0.0, 1 - lo * lo))]))[0, 0]
        vb = kernel_matrix(k, x, np.array([hi, np.sqrt(max(0.0, 1 - hi * hi))]))[0, 0]
        assert va <= vb + 1e-12


def iterated_recursion(depth, t):
    """The definition Kp = 1/(2 - K(p-1)) step by step: the reference oracle
    for the closed form the library evaluates."""
    t = np.clip(t, -1.0, 1.0)
    for _ in range(depth):
        t = 1.0 / (2.0 - t)
    return t


def test_closed_form_matches_iterated_recursion():
    t = np.linspace(-1.0, 1.0, 100_001)
    for p in range(51):
        # one-dimensional rows against the support point 1 give <x, y> = t exactly
        got = kernel_matrix(p, t[:, None], np.ones((1, 1)))[:, 0]
        want = iterated_recursion(p, t)
        if p == 0:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=4e-15, err_msg=f"depth {p}")


def test_self_norm_contraction_inside_ball():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=5)
        x *= rng.uniform(0.1, 1.0) / np.linalg.norm(x)
        for k in range(0, 11):
            assert kernel_matrix(k, x, x)[0, 0] <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_gram_two_orthonormal_vectors():
    G = gram(KernelStack(1), np.stack([E1, E2]))
    assert G.entries.tolist() == [[1.0, 0.5], [0.5, 1.0]]


def test_gram_single_vector():
    for k in range(4):
        G = gram(KernelStack(k), E1[None, :])
        assert G.entries.tolist() == [[1.0]]


def test_gram_exact_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(2)
    X = random_unit_rows(rng, 30, 7)
    G = gram(KernelStack(2), X)
    assert np.array_equal(G.entries, G.entries.T)
    assert np.all(G.entries.diagonal() <= 1.0)


def test_gram_exactly_symmetric_at_image_scale():
    rng = np.random.default_rng(12)
    G = gram(KernelStack(2), random_unit_rows(rng, 2000, 784)).entries
    assert np.array_equal(G, G.T)


def test_cross_kernel_matches_gram():
    rng = np.random.default_rng(13)
    X = random_unit_rows(rng, 300, 50)
    for p in range(6):
        np.testing.assert_allclose(kernel_matrix(p, X, X), gram(KernelStack(p), X).entries,
                                   rtol=0, atol=1e-15)


def test_gram_psd_on_random_datasets():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        G = gram(KernelStack(k), random_unit_rows(rng, n, d))
        assert np.linalg.eigvalsh(G.entries)[0] >= -1e-8 * n


def test_gram_propagates_row_index():
    X = np.stack([E1, 2.0 * E2])
    with pytest.raises(NormBoundError, match="row 1"):
        gram(KernelStack(1), X)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_rejects_non_finite_row(bad):
    X = np.stack([E1, np.array([0.0, bad]), E2])
    with pytest.raises(NormBoundError, match="row 1 has non-finite l2 norm"):
        gram(KernelStack(2), X)


def test_gram_deterministic_across_calls():
    rng = np.random.default_rng(4)
    X = random_unit_rows(rng, 40, 10)
    a = gram(KernelStack(3), X).entries
    b = gram(KernelStack(3), X).entries
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# truncated feature map
# ---------------------------------------------------------------------------

def test_feature_map_scalar_coordinates():
    fm = TruncatedFeatureMap(1, 2)
    coords = feature_map(fm, [0.5])
    expect = [2 ** -0.5, 2 ** -1 * 0.5, 2 ** -1.5 * 0.25]
    assert coords == pytest.approx(expect, rel=1e-15)


def test_feature_map_empty_tuple_coordinate():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_unit_rows(rng, 1, 4)[0]
        assert feature_map(TruncatedFeatureMap(4, 3), x)[0] == 2 ** -0.5


def test_feature_map_counts_and_offsets():
    fm = TruncatedFeatureMap(3, 3)
    assert fm.n_coords == 1 + 3 + 9 + 27
    assert fm.level_offset(2) == 4
    assert feature_map(fm, np.array([1.0, 0.0, 0.0])).shape == (40,)


def test_feature_map_capacity_cap():
    with pytest.raises(FeatureMapCapacityError):
        TruncatedFeatureMap(10, 7)
    TruncatedFeatureMap(10, 7, coord_cap=20_000_000)  # explicit cap override


def test_truncation_tail_bound_small_case():
    rng = np.random.default_rng(6)
    fm = TruncatedFeatureMap(2, 3)
    for _ in range(20):
        x, y = random_unit_rows(rng, 2, 2)
        ip = feature_map(fm, x) @ feature_map(fm, y)
        kv = kernel_matrix(1, x, y)[0, 0]
        assert abs(ip - kv) <= 2.0 ** -4


@given(arrays(np.float64, (2, 3), elements=st.floats(-1, 1)).filter(
    lambda X: np.all(np.linalg.norm(X, axis=1) > 1e-3)))
@settings(max_examples=60, deadline=None)
def test_truncation_tail_bound_property(X):
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    x, y = X
    for J in (4, 8, 12):
        fm = TruncatedFeatureMap(3, J)
        ip = feature_map(fm, x) @ feature_map(fm, y)
        kv = kernel_matrix(1, x, y)[0, 0]
        # 1e-12 slack covers roundoff when x == y makes the bound tight
        assert abs(ip - kv) <= 2.0 ** -(J + 1) + 1e-12


def test_feature_map_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        feature_map(TruncatedFeatureMap(3, 2), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# binary export
# ---------------------------------------------------------------------------

def test_gram_export_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    G = kernel_matrix(2, random_unit_rows(rng, 9, 4))
    path = tmp_path / "g.bin"
    write_gram(G, 2, path)
    back, depth = read_gram(path)
    assert depth == 2
    assert np.array_equal(back, G)
    assert not back.flags.writeable


def test_gram_export_rejects_corruption(tmp_path):
    rng = np.random.default_rng(8)
    G = kernel_matrix(1, random_unit_rows(rng, 4, 3))
    path = tmp_path / "g.bin"
    write_gram(G, 1, path)
    blob = path.read_bytes()
    (tmp_path / "bad_magic.bin").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(GramFormatError, match="magic"):
        read_gram(tmp_path / "bad_magic.bin")
    (tmp_path / "short.bin").write_bytes(blob[:-8])
    with pytest.raises(GramFormatError, match="expected"):
        read_gram(tmp_path / "short.bin")
