"""Unit-ball kernel recursion, Gram construction, and the truncated feature map.

The depth-p kernel is defined on the closed unit ball by

    K0(x, y) = <x, y>        Kp(x, y) = 1 / (2 - K(p-1)(x, y))

Each level corresponds to re-embedding through the product feature map whose
(k_1, ..., k_j) coordinate is ``2^(-(j+1)/2) x_{k_1} ... x_{k_j}``; the
truncated version of that map serves as a correctness oracle for depth 1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

#: slack allowed on the unit-norm input precondition
NORM_TOL = 1e-9

GRAM_MAGIC = b"RKGM"


class NormBoundError(ValueError):
    """An input vector violates the unit-ball precondition."""


class FeatureMapCapacityError(ValueError):
    """Requested truncated feature map has too many coordinates."""


class GramFormatError(ValueError):
    """A Gram export file is malformed."""


@dataclass(frozen=True)
class KernelStack:
    """Kernel recursion depth; depth 0 is the plain inner product."""

    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")


def _check_rows(X: np.ndarray, label: str) -> None:
    """Raise NormBoundError for the first row of X outside the unit ball,
    named ``label.format(i)``; a NaN or infinite norm fails too."""
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(~(norms <= 1.0 + NORM_TOL))
    if bad.size:
        i = int(bad[0])
        n = float(norms[i])
        why = (f"l2 norm {n:.12g} > 1 (tolerance {NORM_TOL:g})" if math.isfinite(n)
               else f"non-finite l2 norm {n}")
        raise NormBoundError(f"{label.format(i)} has {why}")


def kernel_matrix(depth: int, A, B=None, label: str = "row {}") -> np.ndarray:
    """Depth-``depth`` kernel values between the rows of A and the rows of B,
    or of A with itself when B is None.

    The rows of A must lie in the unit ball; the first that does not raises
    NormBoundError naming it ``label.format(i)``.  B is not checked: callers
    pass rows that already passed (a predictor's support set).  With B None,
    ``A @ A.T`` is one symmetric rank-k product, so the result is exactly
    symmetric.  Inner products are clamped to [-1, 1], then the recursion
    runs in closed form, in place: ``1/(1 - Kp) = p + 1/(1 - t)``, that is
    ``Kp(t) = 1 - (1-t)/(1 + p(1-t))``, so the cost does not grow with depth.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    A = np.ascontiguousarray(np.atleast_2d(A), dtype=float)
    _check_rows(A, label)
    if B is None:
        K = A @ A.T
    else:
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if A.shape[1] != B.shape[1]:
            raise ValueError(f"dimension mismatch: inputs have {A.shape[1]} features, "
                             f"support points have {B.shape[1]}")
        K = A @ B.T
    np.clip(K, -1.0, 1.0, out=K)
    if depth:
        # t = 1 gives 1/0 = inf, and the rest maps it to exactly 1
        with np.errstate(divide="ignore"):
            np.subtract(1.0, K, out=K)
            np.reciprocal(K, out=K)
            K += depth
            np.reciprocal(K, out=K)
            np.subtract(1.0, K, out=K)
    return K


def kernel_eval(stack: KernelStack, x, y) -> float:
    """Depth-k kernel value for two vectors in the unit ball.

    The inner product is clamped to [-1, 1] before the recursion; for unit
    inputs the result lies in [1/3, 1] at every depth >= 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    # kernel_matrix checks only its first operand; x is checked here, first
    _check_rows(x[None, :], "x")
    return float(kernel_matrix(stack.depth, y, x, label="y")[0, 0])


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise kernel values at a fixed depth."""

    entries: np.ndarray
    depth: int

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def gram(stack: KernelStack, X) -> GramMatrix:
    """Pairwise kernel matrix over the rows of X, exactly symmetric."""
    K = kernel_matrix(stack.depth, X)
    K.setflags(write=False)
    return GramMatrix(entries=K, depth=stack.depth)


@dataclass(frozen=True)
class TruncatedFeatureMap:
    """Explicit product feature map truncated at tuple length ``max_degree``.

    Coordinates are indexed by tuples (k_1, ..., k_j) with j <= max_degree and
    each k_i in range(base_dim); the canonical order is lexicographic by
    (j, k_1, ..., k_j).  Total coordinate count is sum_j base_dim^j, guarded
    by ``coord_cap``.  This is a test oracle, not a training path.
    """

    base_dim: int
    max_degree: int
    coord_cap: int = 1_000_000

    def __post_init__(self):
        if self.base_dim < 1 or self.max_degree < 0:
            raise ValueError("base_dim must be >= 1 and max_degree >= 0")
        if self.n_coords > self.coord_cap:
            raise FeatureMapCapacityError(
                f"feature map needs {self.n_coords} coordinates, "
                f"above the cap of {self.coord_cap}")

    @property
    def n_coords(self) -> int:
        d, J = self.base_dim, self.max_degree
        return J + 1 if d == 1 else (d ** (J + 1) - 1) // (d - 1)

    def level_offset(self, j: int) -> int:
        """Index of the first coordinate of tuple length j."""
        d = self.base_dim
        return j if d == 1 else (d ** j - 1) // (d - 1)


def feature_map(fm: TruncatedFeatureMap, x) -> np.ndarray:
    """All truncated coordinates of x, in the canonical tuple order."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != fm.base_dim:
        raise ValueError(f"expected a vector of dimension {fm.base_dim}, got shape {x.shape}")
    _check_rows(x[None, :], "x")
    blocks = []
    level = np.ones(1)
    for j in range(fm.max_degree + 1):
        blocks.append(2.0 ** (-(j + 1) / 2.0) * level)
        if j < fm.max_degree:
            # appending one index varies fastest, preserving lexicographic order
            level = np.multiply.outer(level, x).ravel()
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# Gram export: magic, n and depth as little-endian uint32, then the entries
# as row-major little-endian float64
# ---------------------------------------------------------------------------

def write_gram(gm: GramMatrix, path) -> None:
    with open(path, "wb") as f:
        f.write(GRAM_MAGIC)
        f.write(struct.pack("<II", gm.n, gm.depth))
        f.write(np.ascontiguousarray(gm.entries, dtype="<f8").tobytes())


def read_gram(path) -> GramMatrix:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != GRAM_MAGIC:
        raise GramFormatError(f"{path}: bad magic {blob[:4]!r} at byte offset 0")
    if len(blob) < 12:
        raise GramFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    n, depth = struct.unpack("<II", blob[4:12])
    want = 12 + 8 * n * n
    if len(blob) != want:
        raise GramFormatError(
            f"{path}: expected {want} bytes for n={n}, got {len(blob)}")
    entries = np.frombuffer(blob[12:], dtype="<f8").reshape(n, n).copy()
    entries.setflags(write=False)
    return GramMatrix(entries=entries, depth=depth)
