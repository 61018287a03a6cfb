"""Unit-ball kernel recursion and Gram construction.

The depth-p kernel is defined on the closed unit ball by

    K0(x, y) = <x, y>        Kp(x, y) = 1 / (2 - K(p-1)(x, y))

Each level corresponds to re-embedding through the product feature map whose
(k_1, ..., k_j) coordinate is ``2^(-(j+1)/2) x_{k_1} ... x_{k_j}``.
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


class GramFormatError(ValueError):
    """A Gram export file is malformed."""


#: rows per block of :func:`row_norms` and :func:`cross_kernel_blocks`, so
#: their temporaries are O(ROW_BLOCK x columns) whatever the row count
ROW_BLOCK = 1024


def row_norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X, axis=1)`` of a 2-d X, ROW_BLOCK rows at a time.

    Bit-identical to the one-shot call, because each row's reduction does not
    depend on its block, without its X-sized ``x*x`` temporary."""
    out = np.empty(len(X))
    for i in range(0, len(X), ROW_BLOCK):
        out[i:i + ROW_BLOCK] = np.linalg.norm(X[i:i + ROW_BLOCK], axis=1)
    return out


def _check_rows(X: np.ndarray, label: str) -> None:
    """Raise NormBoundError for the first row of X outside the unit ball,
    named ``label.format(i)``; a NaN or infinite norm fails too."""
    norms = row_norms(X)
    bad = np.flatnonzero(~(norms <= 1.0 + NORM_TOL))
    if bad.size:
        i = int(bad[0])
        n = float(norms[i])
        why = (f"l2 norm {n:.12g} > 1 (tolerance {NORM_TOL:g})" if math.isfinite(n)
               else f"non-finite l2 norm {n}")
        raise NormBoundError(f"{label.format(i)} has {why}")


def _operands(depth: int, A, B, label: str) -> tuple:
    """A with its rows checked, and B unless it is None, as 2-d float arrays
    of equal width."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    A = np.ascontiguousarray(np.atleast_2d(A), dtype=float)
    _check_rows(A, label)
    if B is not None:
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if A.shape[1] != B.shape[1]:
            raise ValueError(f"dimension mismatch: inputs have {A.shape[1]} features, "
                             f"support points have {B.shape[1]}")
    return A, B


def _recursion(K: np.ndarray, depth: int) -> np.ndarray:
    """Map inner products to depth-``depth`` kernel values in place and
    return K.  Inner products are clamped to [-1, 1], then the recursion runs
    in closed form: ``1/(1 - Kp) = p + 1/(1 - t)``, that is
    ``Kp(t) = 1 - (1-t)/(1 + p(1-t))``, so the cost does not grow with depth."""
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


def kernel_matrix(depth: int, A, B=None, label: str = "row {}") -> np.ndarray:
    """Depth-``depth`` kernel values between the rows of A and the rows of B,
    or of A with itself when B is None.

    The rows of A must lie in the unit ball; the first that does not raises
    NormBoundError naming it ``label.format(i)``.  B is not checked: callers
    pass rows that already passed (a predictor's support set).  With B None,
    ``A @ A.T`` is one symmetric rank-k product, so the result is exactly
    symmetric.
    """
    A, B = _operands(depth, A, B, label)
    K = A @ A.T if B is None else A @ B.T
    return _recursion(K, depth)


def cross_kernel_blocks(depth: int, A, B, label: str = "row {}"):
    """Yield ``(i, K)`` where K is rows ``i .. i + len(K)`` of
    ``kernel_matrix(depth, A, B, label)``, ROW_BLOCK rows at a time.

    Every row of A is checked before the first block, so an error names the
    row's index in A.  K is one buffer, overwritten by the next block, so
    memory is O(ROW_BLOCK x len(B)) whatever the row count of A.  Each block
    equals the matching rows of the one-shot matrix to rounding: the product
    of a block may round differently from the same rows of ``A @ B.T``.
    """
    A, B = _operands(depth, A, B, label)
    buf = np.empty((min(len(A), ROW_BLOCK), len(B)))
    for i in range(0, len(A), ROW_BLOCK):
        rows = A[i:i + ROW_BLOCK]
        yield i, _recursion(np.matmul(rows, B.T, out=buf[:len(rows)]), depth)


# ``KernelStack``, ``GramMatrix`` and ``gram`` remain only because perfbench/ calls them.

@dataclass(frozen=True)
class KernelStack:
    """Kernel recursion depth; depth 0 is the plain inner product."""

    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise kernel values at a fixed depth."""

    entries: np.ndarray
    depth: int


def gram(stack: KernelStack, X) -> GramMatrix:
    """Pairwise kernel matrix over the rows of X, exactly symmetric."""
    K = kernel_matrix(stack.depth, X)
    K.setflags(write=False)
    return GramMatrix(entries=K, depth=stack.depth)


# ---------------------------------------------------------------------------
# Gram export: magic, n and depth as little-endian uint32, then the entries
# as row-major little-endian float64
# ---------------------------------------------------------------------------

def write_gram(G, depth: int, path) -> None:
    """Write the n x n kernel matrix G of the given depth to ``path``."""
    with open(path, "wb") as f:
        f.write(GRAM_MAGIC)
        f.write(struct.pack("<II", len(G), depth))
        f.write(np.ascontiguousarray(G, dtype="<f8").tobytes())


def read_gram(path) -> tuple:
    """``(G, depth)`` from a file :func:`write_gram` wrote; G is read-only."""
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
    G = np.frombuffer(blob[12:], dtype="<f8").reshape(n, n).copy()
    G.setflags(write=False)
    return G, depth
