"""Test oracles kept out of the library: the explicit truncated feature map of
the depth-1 kernel, the dense form of an embedded quadratic network in it, a
network evaluated one neuron at a time and one activation call per element,
an embedded network paired term by term, the one-shot (unblocked) cross-kernel
scores, the projection of one coefficient vector onto the norm ball, the
solver loop that recomputes ``A @ G`` at every step, the per-image bilinear
resampling of rotation and deskew, background noise patches upsampled for
all images at once, preprocessing that copies the features at every step,
the capacity series summed one term at a time, the smoothed hinge's
series coefficients in their own closed form, and the halfspace
intersection's label of one input in Python integers.

The depth-1 kernel re-embeds through the product feature map whose
(k_1, ..., k_j) coordinate is ``2^(-(j+1)/2) x_{k_1} ... x_{k_j}``; truncating
it at a tuple length gives an explicit, independent route to kernel values.
"""

import math
from dataclasses import dataclass

import numpy as np

from reckernel.activation import (CONVERGENCE_RUN, LN2, TERM_CAP, LogValue,
                                  SeriesDivergenceError)
from reckernel.data import NOISE_AMPLITUDE, NOISE_GRID, NOISE_THRESHOLD, FeatureDataset
from reckernel.kernel import _check_rows, kernel_matrix
from reckernel.network import NetworkStructureError
from reckernel.solver import (WINDOW_TOL, NumericalError, SolveReport, _scale_onto_ball,
                              make_loss)


class FeatureMapCapacityError(ValueError):
    """Requested truncated feature map has too many coordinates."""


@dataclass(frozen=True)
class TruncatedFeatureMap:
    """Explicit product feature map truncated at tuple length ``max_degree``.

    Coordinates are indexed by tuples (k_1, ..., k_j) with j <= max_degree and
    each k_i in range(base_dim); the canonical order is lexicographic by
    (j, k_1, ..., k_j).  Total coordinate count is sum_j base_dim^j, guarded
    by ``coord_cap``.
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


def to_dense(emb, fm: TruncatedFeatureMap) -> np.ndarray:
    """Place an EmbeddedFunction's (a, b) coordinates into the truncated map's
    canonical order."""
    if fm.max_degree < 2:
        raise ValueError("feature map must include degree-2 tuples")
    dense = np.zeros(fm.n_coords)
    base = fm.level_offset(2)
    d = fm.base_dim
    for (a, b), v in emb.coords.items():
        dense[base + a * d + b] = v
    return dense


def forward_loop(net, x) -> float:
    """The network's output at x, one neuron at a time: a matrix-vector product
    per layer and the activation's scalar ``evaluate`` on each neuron."""
    y = np.asarray(x, dtype=float)
    act = net.activation.evaluate
    for W in net.weights[:-1]:
        y = np.array([act(v) for v in W @ y])
    return float(net.weights[-1][0] @ y)


def forward_many_elementwise(net, X) -> np.ndarray:
    """``network.forward_many`` with the activation's scalar ``evaluate``
    applied to every pre-activation, repeated values included."""
    Y = np.asarray(X, dtype=float)
    if Y.shape[1:] != (net.input_dim,):  # also refuses X that is not 2-d
        raise NetworkStructureError(
            f"input rows have shape {Y.shape[1:]}, network expects ({net.input_dim},)")
    act = np.frompyfunc(net.activation.evaluate, 1, 1)
    for W in net.weights[:-1]:
        Y = act((Y[:, None, :] * W).sum(axis=2)).astype(float)
    return (Y * net.weights[-1][0]).sum(axis=1)


def embedded_evaluate(emb, x) -> float:
    """``EmbeddedFunction.evaluate`` as a generator over numpy scalars, one
    term per coordinate, summed in ``coords`` order."""
    x = np.asarray(x, dtype=float)
    scale = 2.0 ** (-1.5)  # weight of a length-2 tuple in the feature map
    return float(sum(v * scale * x[a] * x[b] for (a, b), v in emb.coords.items()))


def scores_unblocked(pred, Xe) -> np.ndarray:
    """A predictor's scores from the whole m x n cross-kernel at once."""
    return kernel_matrix(pred.depth, Xe, pred.support, label="evaluation row {}") @ pred.alphas.T


def project(alpha, G, B: float) -> np.ndarray:
    """Exact projection of one coefficient vector onto the RKHS ball of
    radius B, the reference for ``solver._scale_onto_ball``: scaling by
    B / sqrt(alpha' G alpha) is the metric projection because the quadratic
    form is the squared RKHS norm of the represented function."""
    alpha = np.asarray(alpha, dtype=float)
    q = float(alpha @ np.asarray(G, dtype=float) @ alpha)
    if q < -1e-8:
        raise NumericalError(f"quadratic form came out {q:.3g} < -1e-8; Gram is not PSD")
    return alpha * (B / math.sqrt(q)) if q > B * B else alpha.copy()


def minimize_on_gram(G, Y, cfg, callback=None):
    """``solver._minimize_on_gram`` with one product ``P = A @ G`` at every
    step, the reference for the running product that the solver keeps."""
    (C, n), B = Y.shape, cfg.budget
    loss = make_loss(cfg.loss, B)
    live, A, best = np.arange(C), np.zeros((C, n)), np.zeros((C, n))
    best_obj, window_best = np.full(C, math.inf), np.full(C, math.inf)
    iterations, reasons = np.full(C, cfg.max_iters), np.full(C, "max_iters", dtype=object)
    for t in range(1, cfg.max_iters + 1):
        P = A @ G
        _scale_onto_ball(A, P, B)
        obj = np.mean(loss.value(P, Y), axis=1)
        better = obj < best_obj[live]
        best_obj[live[better]], best[live[better]] = obj[better], A[better]
        if callback is not None:
            for c, o, b in zip(live.tolist(), obj.tolist(), best_obj[live].tolist()):
                callback(c, t, o, b)
        stalled = np.zeros(len(live), dtype=bool)
        if t % cfg.patience == 0:
            prev, window_best[live] = window_best[live], best_obj[live]
            stalled = np.isfinite(prev) & (
                prev - best_obj[live] <= WINDOW_TOL * np.maximum(np.abs(prev), 1e-12))
        S = loss.subgradient(P, Y)
        stop = stalled | ~S.any(axis=1)
        if stop.any():
            iterations[live[stop]] = t
            reasons[live[stop]] = np.where(stalled[stop], "window", "zero_subgradient")
            live, A, Y, S = live[~stop], A[~stop], Y[~stop], S[~stop]
            if not live.size:
                break
        A = A - (B / loss.rho / math.sqrt(t)) * (S / n)
    q = _scale_onto_ball(best, best @ G, B)
    use = q / (B * B) if B > 0 else np.zeros(C)
    return best, tuple(SolveReport(int(k), str(r), float(o), min(float(u), 1.0))
                       for k, r, o, u in zip(iterations, reasons, best_obj, use))


def _bilinear(img: np.ndarray, R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Sample img at fractional (row, col) coordinates; outside is zero."""
    h, w = img.shape
    r0 = np.floor(R).astype(np.int64)
    c0 = np.floor(C).astype(np.int64)
    fr = R - r0
    fc = C - c0
    out = np.zeros(R.shape)
    for dr, dc, wt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                       (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        ri = r0 + dr
        ci = c0 + dc
        valid = (ri >= 0) & (ri < h) & (ci >= 0) & (ci < w)
        vals = np.where(valid, img[np.clip(ri, 0, h - 1), np.clip(ci, 0, w - 1)], 0.0)
        out += wt * vals
    return out


def rotate_image(img: np.ndarray, theta: float) -> np.ndarray:
    """Rotate about the image center with bilinear sampling, zero fill."""
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dr = rr - cy
    dc = cc - cx
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    r_src = cy + cos_t * dr + sin_t * dc
    c_src = cx - sin_t * dr + cos_t * dc
    return _bilinear(img, r_src, c_src)


def shear_coefficient(img: np.ndarray) -> float:
    """Intensity-weighted cov(col, row) / var(row); 0 for degenerate mass."""
    mass = float(img.sum())
    if mass <= 0.0:
        return 0.0
    h, w = img.shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mu_r = float((img * rr).sum()) / mass
    mu_c = float((img * cc).sum()) / mass
    var_r = float((img * (rr - mu_r) ** 2).sum()) / mass
    if var_r < 1e-12:
        return 0.0
    cov = float((img * (rr - mu_r) * (cc - mu_c)).sum()) / mass
    return cov / var_r


def deskew(img: np.ndarray) -> np.ndarray:
    """Shear columns so the intensity principal axis is vertical, then
    translate the center of mass to the image center.

    Both the shear ``col' = col - s * (row - mu_row)`` and the recentering
    translation are folded into a single bilinear resampling pass.  Zero-mass
    images are returned unchanged.
    """
    img = np.asarray(img, dtype=float)
    mass = float(img.sum())
    if mass <= 0.0:
        return img.copy()
    h, w = img.shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mu_r = float((img * rr).sum()) / mass
    mu_c = float((img * cc).sum()) / mass
    s = shear_coefficient(img)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    r_src = rr + (mu_r - cy)
    c_src = cc + (mu_c - cx) + s * (r_src - mu_r)
    return _bilinear(img, r_src, c_src)


def noise_patches(rng: np.random.Generator, n: int, h: int, w: int) -> np.ndarray:
    """``data._noise_patches`` for all n images at once: each corner's
    weighted coarse values an (n, h, w) array, summed, then thresholded."""
    coarse = rng.random((n, NOISE_GRID, NOISE_GRID))
    rows = np.linspace(0, NOISE_GRID - 1, h)
    cols = np.linspace(0, NOISE_GRID - 1, w)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, NOISE_GRID - 1)
    c1 = np.minimum(c0 + 1, NOISE_GRID - 1)
    fr = (rows - r0)[None, :, None]
    fc = (cols - c0)[None, None, :]
    up = ((1 - fr) * (1 - fc) * coarse[:, r0][:, :, c0]
          + (1 - fr) * fc * coarse[:, r0][:, :, c1]
          + fr * (1 - fc) * coarse[:, r1][:, :, c0]
          + fr * fc * coarse[:, r1][:, :, c1])
    return NOISE_AMPLITUDE * (up > NOISE_THRESHOLD).astype(float)


def preprocess_out_of_place(ds, steps) -> FeatureDataset:
    """``data.preprocess`` with a new feature array at every step: a stacked
    list of the per-image :func:`deskew`, ``X - mean`` and ``X / norms``."""
    steps = tuple(steps)
    n, h, w = ds.images.shape
    X = ds.images.reshape(n, h * w).copy()
    flagged = ()
    for s in steps:
        if s == "deskew":
            X = np.stack([deskew(X[i].reshape(h, w)).ravel() for i in range(n)])
        elif s == "center":
            X = X - X.mean(axis=1, keepdims=True)
        else:
            norms = np.linalg.norm(X, axis=1)
            zero = norms < 1e-12
            flagged = tuple(int(i) for i in np.nonzero(zero)[0])
            X = np.where(zero[:, None], 0.0, X / np.where(zero, 1.0, norms)[:, None])
    return FeatureDataset(X=X, labels=ds.labels, fingerprint=steps, flagged_rows=flagged)


def _logaddexp(a: float, b: float) -> float:
    """``ln(e^a + e^b)``, where a log of -inf stands for zero."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == -math.inf or hi == math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def smoothed_hinge_log_abs(j: int):
    """``ln |beta_j|`` of the smoothed hinge written out: beta_1 = 1/2, and
    beta_(2m+2) = pi^m / (m! (2m+1) (2m+2)); None where beta_j is zero."""
    if j == 1:
        return math.log(0.5)
    if j < 2 or j % 2 == 1:
        return None
    m = (j - 2) // 2
    return (m * math.log(math.pi) - math.lgamma(m + 1)
            - math.log(2 * m + 1) - math.log(2 * m + 2))


def h_series_log(act, log_lam: LogValue, tol: float, level=None) -> tuple[float, int]:
    """``activation._h_series_log`` one term at a time: each term and each
    running sum a Python float, with the same stopping rule."""
    loglam = log_lam.log_magnitude

    def term(j: int) -> float:
        lb = act.log_abs_coeff(j)
        if lb is None:
            return -math.inf
        if j == 0:
            return LN2 + 2.0 * lb
        return (j + 1) * LN2 + 2.0 * lb + (2.0 * j) * loglam

    total = -math.inf
    if act.max_degree is not None:
        for j in range(act.max_degree + 1):
            total = _logaddexp(total, term(j))
        return total, act.max_degree + 1

    small_run = 0
    for j in range(TERM_CAP + 1):
        t = term(j)
        total = _logaddexp(total, t)
        if t == -math.inf or t - total < math.log(tol):
            small_run += 1
            if small_run >= CONVERGENCE_RUN and j >= CONVERGENCE_RUN:
                return total, j + 1
        else:
            small_run = 0
    raise SeriesDivergenceError(
        f"capacity series for {act.name!r} did not converge within {TERM_CAP} terms",
        partial=LogValue(total), terms_used=TERM_CAP + 1, level=level)


def halfspace_label(hs, x) -> int:
    """+1 when every halfspace of ``hs`` has ``w.x - b >= 1`` at x in
    {-1,1}^d, else -1, summed one coordinate at a time in Python integers."""
    x = [int(v) for v in x]
    for w, b in zip(hs.weights.tolist(), hs.offsets.tolist()):
        if sum(wi * xi for wi, xi in zip(w, x)) - b < 1:
            return -1
    return 1
