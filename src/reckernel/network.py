"""Reference layered networks, an explicit RKHS embedding oracle, and the
halfspace-intersection encoder.

Networks here follow a fixed norm discipline: rows of the first weight matrix
are l2-bounded, rows of every deeper matrix (including the output row) are
l1-bounded.  ``embed_quadratic`` writes a one-hidden-layer quadratic network
as an explicit coordinate vector of the depth-1 feature map, which gives an
independent check on both forward evaluation and the capacity bound.
``build_hardness_net`` compiles an intersection of integer halfspaces over the
hypercube into such a network with unit classification margin.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activation import Activation, builtin_activation
from .kernel import TruncatedFeatureMap


class NetworkStructureError(ValueError):
    """Weight matrices do not form a valid layered network."""


class UnsupportedNetworkError(ValueError):
    """Operation applies only to a restricted network family."""


class ConstructionError(ValueError):
    """Hardness construction could not satisfy its saturation requirements."""


@dataclass(frozen=True)
class NeuralNet:
    """Layered network: k hidden layers of ``activation`` and a linear output.

    ``weights[p]`` has shape (width of layer p+1, width of layer p); the last
    matrix has a single row.  Immutable after construction.
    """

    weights: tuple[np.ndarray, ...]
    activation: Activation

    def __post_init__(self):
        if len(self.weights) < 2:
            raise NetworkStructureError(
                "a network needs at least one hidden layer "
                "(two weight matrices: hidden and output)")
        mats = tuple(np.asarray(W, dtype=float) for W in self.weights)
        for W in mats:
            if W.ndim != 2:
                raise NetworkStructureError(f"weight matrix has shape {W.shape}, expected 2-d")
            W.setflags(write=False)
        for p in range(len(mats) - 1):
            if mats[p + 1].shape[1] != mats[p].shape[0]:
                raise NetworkStructureError(
                    f"layer {p + 1} expects input width {mats[p].shape[0]}, "
                    f"matrix has {mats[p + 1].shape[1]} columns")
        if mats[-1].shape[0] != 1:
            raise NetworkStructureError(
                f"output matrix must have a single row, got {mats[-1].shape[0]}")
        object.__setattr__(self, "weights", mats)

    @property
    def k(self) -> int:
        """Number of hidden layers."""
        return len(self.weights) - 1

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def widths(self) -> tuple[int, ...]:
        """Widths d(0)..d(k) of the input and hidden layers."""
        return (self.input_dim,) + tuple(W.shape[0] for W in self.weights[:-1])


def forward(net: NeuralNet, x) -> float:
    """Propagate x through the network and return the scalar output."""
    y = np.asarray(x, dtype=float)
    if y.shape != (net.input_dim,):
        raise NetworkStructureError(
            f"input has shape {y.shape}, network expects ({net.input_dim},)")
    act = net.activation.evaluate
    for W in net.weights[:-1]:
        y = np.array([act(v) for v in W @ y])
    return float(net.weights[-1][0] @ y)


@dataclass(frozen=True)
class NormViolation:
    layer: int
    row: int
    norm_kind: str  # "l2" for the first layer, "l1" above
    norm: float
    budget: float


@dataclass(frozen=True)
class ValidationReport:
    budget: float
    violations: tuple[NormViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _row_norms(p: int, W: np.ndarray) -> tuple[str, np.ndarray]:
    """The norm rule of layer p and its rows' norms: l2 for layer 0, l1 above
    (the output row included)."""
    if p == 0:
        return "l2", np.linalg.norm(W, axis=1)
    return "l1", np.abs(W).sum(axis=1)


def validate(net: NeuralNet, L: float) -> ValidationReport:
    """List every (layer, row) whose norm exceeds the budget L under
    :func:`_row_norms`."""
    violations = []
    for p, W in enumerate(net.weights):
        kind, norms = _row_norms(p, W)
        for i, nv in enumerate(norms):
            if nv > L * (1.0 + 1e-12):
                violations.append(NormViolation(p, i, kind, float(nv), L))
    return ValidationReport(budget=L, violations=tuple(violations))


def required_budget(net: NeuralNet) -> float:
    """Smallest L for which validate(net, L) passes."""
    return max(float(_row_norms(p, W)[1].max()) for p, W in enumerate(net.weights))


def random_net(k: int, widths, L: float, activation: Activation, seed: int) -> NeuralNet:
    """Random network with every row scaled to a fraction in [0.5, 1] of its budget.

    ``widths`` lists d(0)..d(k); the output layer always has one row.
    Deterministic for a fixed seed.
    """
    widths = [int(w) for w in widths]
    if len(widths) != k + 1:
        raise ValueError(f"expected {k + 1} widths d(0)..d({k}), got {len(widths)}")
    if any(w < 1 for w in widths) or L <= 0:
        raise ValueError("widths must be positive and L > 0")
    rng = np.random.default_rng(seed)
    mats = []
    dims = widths + [1]
    for p in range(k + 1):
        W = rng.uniform(-1.0, 1.0, size=(dims[p + 1], dims[p]))
        norms = _row_norms(p, W)[1]
        norms = np.where(norms == 0, 1.0, norms)
        targets = L * rng.uniform(0.5, 1.0, size=W.shape[0])
        W = W * (targets / norms)[:, None]
        mats.append(W)
    return NeuralNet(weights=tuple(mats), activation=activation)


# ---------------------------------------------------------------------------
# explicit embedding of one-hidden-layer quadratic networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddedFunction:
    """Finite coordinate vector over feature tuples, with its exact l2 norm."""

    coords: dict[tuple[int, ...], float]
    depth: int
    norm: float

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        scale = 2.0 ** (-1.5)  # weight of a length-2 tuple in the feature map
        return float(sum(v * scale * x[a] * x[b] for (a, b), v in self.coords.items()))

    def to_dense(self, fm: TruncatedFeatureMap) -> np.ndarray:
        """Place the coordinates into the truncated map's canonical order."""
        if fm.max_degree < 2:
            raise ValueError("feature map must include degree-2 tuples")
        dense = np.zeros(fm.n_coords)
        base = fm.level_offset(2)
        d = fm.base_dim
        for (a, b), v in self.coords.items():
            dense[base + a * d + b] = v
        return dense


def embed_quadratic(net: NeuralNet) -> EmbeddedFunction:
    """Exact coordinate form of a one-hidden-layer quadratic network.

    The output function lives on degree-2 tuples only: coordinate (a, b)
    carries ``2^(3/2) * sum_j w_out[j] * V[j, a] * V[j, b]`` for first-layer
    rows V.  Pairing with the feature map reproduces forward() exactly;
    the returned norm obeys the capacity level bound.
    """
    if net.k != 1:
        raise UnsupportedNetworkError(f"embedding supports exactly 1 hidden layer, net has {net.k}")
    if net.activation.name != "quadratic":
        raise UnsupportedNetworkError(
            f"embedding supports the quadratic activation, net uses {net.activation.name!r}")
    V = net.weights[0]
    w_out = net.weights[1][0]
    M = (2.0 ** 1.5) * np.einsum("j,ja,jb->ab", w_out, V, V)
    coords = {}
    d = V.shape[1]
    for a in range(d):
        for b in range(d):
            if M[a, b] != 0.0:
                coords[(a, b)] = float(M[a, b])
    norm = math.sqrt(math.fsum(v * v for v in coords.values()))
    return EmbeddedFunction(coords=coords, depth=1, norm=norm)


# ---------------------------------------------------------------------------
# halfspace intersections and the hardness construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfspaceFamily:
    """T integer halfspaces sign(w.x - b - 1/2) over the hypercube {-1,1}^d."""

    weights: np.ndarray  # (T, d) integers
    offsets: np.ndarray  # (T,) integers
    budget: int

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.int64)
        b = np.asarray(self.offsets, dtype=np.int64)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ValueError(f"weights {W.shape} and offsets {b.shape} are inconsistent")
        cost = np.abs(b) + np.abs(W).sum(axis=1)
        over = np.nonzero(cost > self.budget)[0]
        if over.size:
            t = int(over[0])
            raise ValueError(
                f"halfspace {t} has |b| + ||w||_1 = {int(cost[t])} > budget {self.budget}")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "offsets", b)

    @property
    def T(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def random_halfspace_family(d: int, T: int, budget: int, seed: int) -> HalfspaceFamily:
    """Rejection-sample integer halfspaces within the l1 budget."""
    rng = np.random.default_rng(seed)
    rows, offs = [], []
    attempts = 0
    while len(rows) < T:
        attempts += 1
        if attempts > 100_000:
            raise ValueError(f"could not sample halfspaces within budget {budget}")
        w = rng.integers(-2, 3, size=d)
        b = int(rng.integers(-3, 4))
        if abs(b) + int(np.abs(w).sum()) <= budget and np.any(w != 0):
            rows.append(w)
            offs.append(b)
    return HalfspaceFamily(weights=np.array(rows), offsets=np.array(offs), budget=budget)


def eval_halfspaces(hs: HalfspaceFamily, x) -> int:
    """+1 when every halfspace fires on x in {-1,1}^d, else -1."""
    x = np.asarray(x)
    if x.shape != (hs.dim,) or not np.all(np.abs(x) == 1):
        raise ValueError(f"x must lie in {{-1,1}}^{hs.dim}")
    g = hs.weights @ x.astype(np.int64) - hs.offsets
    # integer g, so g - 1/2 is never zero: the indicator is g >= 1
    return 1 if bool(np.all(g >= 1)) else -1


def extend_input(x) -> np.ndarray:
    """Append the constant coordinate and scale onto the unit sphere."""
    x = np.asarray(x, dtype=float)
    return np.append(x, 1.0) / math.sqrt(x.shape[0] + 1)


def _saturation(act: Activation, v: float) -> float:
    """Transfer used by the construction: the activation itself for
    sigmoid-like shapes, the unit difference for relu-like ones.  Polynomial
    activations do not saturate and raise ConstructionError."""
    if act.kind == "polynomial":
        raise ConstructionError(
            f"activation {act.name!r} does not saturate; need sigmoid-like or relu-like")
    if act.kind == "relu_like":
        return act.evaluate(v) - act.evaluate(v - 1.0)
    return act.evaluate(v)


def select_margin_param(act: Activation, T: int, slack: Optional[float] = None) -> float:
    """Smallest scale at which the transfer saturates to within ``slack``.

    Binary search on v for ``transfer(v) >= 1 - slack`` and
    ``transfer(-v) <= slack``; the result gets a small bump so later numeric
    checks sit strictly inside the saturated region.  Default slack 1/(8T)
    halves the 1/(4T) requirement, buying margin for the constant neuron.
    """
    s = slack if slack is not None else 1.0 / (8.0 * T)

    def ok(v: float) -> bool:
        return _saturation(act, v) >= 1.0 - s and _saturation(act, -v) <= s

    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 64.0:
            raise ConstructionError(
                f"activation {act.name!r} failed to saturate to {s:g} by scale 64")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi + 1.0 / 16.0


def build_hardness_net(hs: HalfspaceFamily, activation: Activation,
                       margin_param: float) -> NeuralNet:
    """Compile a halfspace intersection into a one-hidden-layer network.

    Inputs are extended hypercube points (see :func:`extend_input`).  Each
    halfspace becomes a neuron whose pre-activation is ``2 * margin_param *
    (w.x - b - 1/2)``, realized by the row ``2*margin_param*sqrt(d+1) *
    (w, -(b + 1/2))``; the offset rides on the constant coordinate.  Output
    weights are 4 per halfspace plus a constant neuron contributing
    -(4T - 2) through a deeply saturated input.  With a relu-like activation
    every neuron is emitted as a pair with biases offset by one, turning the
    unit difference of the activation into the saturating transfer.

    The margin parameter must satisfy ``transfer(margin_param) >= 1 - 1/(4T)``
    and ``transfer(-margin_param) <= 1/(4T)``; that is probed numerically and
    a ConstructionError reports the achieved values on failure.
    """
    lam = float(margin_param)
    T, d = hs.T, hs.dim
    hi_val = _saturation(activation, lam)
    lo_val = _saturation(activation, -lam)
    if hi_val < 1.0 - 1.0 / (4.0 * T) or lo_val > 1.0 / (4.0 * T):
        raise ConstructionError(
            f"margin parameter {lam:g} does not saturate {activation.name!r}: "
            f"transfer(+{lam:g}) = {hi_val:.6g} (need >= {1 - 1 / (4 * T):.6g}), "
            f"transfer(-{lam:g}) = {lo_val:.6g} (need <= {1 / (4 * T):.6g})")

    root = math.sqrt(d + 1.0)
    # constant neuron: saturate far beyond the per-halfspace requirement so its
    # error cannot erode the unit margin
    const_target = 1e-9
    v = lam
    while _saturation(activation, v) < 1.0 - const_target:
        v *= 2.0
        if v > 1e6:
            raise ConstructionError(
                f"activation {activation.name!r} never reached saturation {const_target:g}")
    const_scale = v

    rows = []
    out = []
    paired = activation.kind == "relu_like"

    def emit(row: np.ndarray, weight: float):
        rows.append(row)
        out.append(weight)
        if paired:
            shifted = row.copy()
            shifted[-1] -= root  # pre-activation drops by exactly 1
            rows.append(shifted)
            out.append(-weight)

    for t in range(T):
        base = np.append(hs.weights[t].astype(float), -(hs.offsets[t] + 0.5))
        emit(2.0 * lam * root * base, 4.0)
    emit(np.append(np.zeros(d), const_scale * root), -(4.0 * T - 2.0))

    W0 = np.stack(rows)
    W1 = np.array([out])
    return NeuralNet(weights=(W0, W1), activation=activation)


@dataclass(frozen=True)
class MarginReport:
    min_margin: float
    max_hinge_loss: float
    n_inputs: int
    worst_input: tuple[int, ...]


def brute_force_margins(net: NeuralNet, hs: HalfspaceFamily) -> MarginReport:
    """Enumerate the hypercube and report the worst classification margin.

    The margin at x is ``label * net(extended x)`` with the label from the
    halfspace intersection; hinge loss is max(0, 1 - margin).
    """
    d = hs.dim
    if d > 20:
        raise ValueError(f"refusing to enumerate 2^{d} inputs")
    worst = math.inf
    worst_x: tuple[int, ...] = ()
    for bits in itertools.product((-1, 1), repeat=d):
        x = np.array(bits)
        label = eval_halfspaces(hs, x)
        margin = label * forward(net, extend_input(x))
        if margin < worst:
            worst = margin
            worst_x = bits
    return MarginReport(min_margin=worst,
                        max_hinge_loss=max(0.0, 1.0 - worst),
                        n_inputs=2 ** d,
                        worst_input=worst_x)


# ---------------------------------------------------------------------------
# JSON serialization: {k, widths, activation, weights row-major per layer}
# ---------------------------------------------------------------------------

def net_to_json(net: NeuralNet) -> str:
    payload = {
        "k": net.k,
        "widths": list(net.widths),
        "activation": net.activation.name,
        "weights": [W.ravel().tolist() for W in net.weights],
    }
    return json.dumps(payload, sort_keys=True)


def net_from_json(text: str) -> NeuralNet:
    payload = json.loads(text)
    widths = [int(w) for w in payload["widths"]]
    dims = widths + [1]
    mats = []
    for p, flat in enumerate(payload["weights"]):
        mats.append(np.array(flat, dtype=float).reshape(dims[p + 1], dims[p]))
    return NeuralNet(weights=tuple(mats),
                     activation=builtin_activation(payload["activation"]))
