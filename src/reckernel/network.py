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

import json
import math
from dataclasses import dataclass

import numpy as np

from .activation import Activation, builtin_activation, transfer


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
        # read-only views: no copy, and the caller's arrays keep their flags
        mats = tuple(np.asarray(W, dtype=float).view() for W in self.weights)
        for p, W in enumerate(mats):
            if W.ndim != 2:
                raise NetworkStructureError(f"weight matrix has shape {W.shape}, expected 2-d")
            bad = np.argwhere(~np.isfinite(W))
            if bad.size:
                i, j = bad[0]
                raise NetworkStructureError(
                    f"layer {p} weight at row {i}, column {j} is {W[i, j]}; "
                    "weights must be finite")
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


def forward_many(net: NeuralNet, X) -> np.ndarray:
    """The network's output for each row of X, with the activation's scalar
    ``evaluate`` applied elementwise.  Neurons sum elementwise products along
    the last axis, in an order set by the row length alone, so each output
    equals the row's evaluated alone bit for bit (BLAS products do not)."""
    Y = np.asarray(X, dtype=float)
    if Y.shape[1:] != (net.input_dim,):  # also refuses X that is not 2-d
        raise NetworkStructureError(
            f"input rows have shape {Y.shape[1:]}, network expects ({net.input_dim},)")
    act = np.frompyfunc(net.activation.evaluate, 1, 1)
    for W in net.weights[:-1]:
        Y = act((Y[:, None, :] * W).sum(axis=2)).astype(float)
    return (Y * net.weights[-1][0]).sum(axis=1)


def forward(net: NeuralNet, x) -> float:
    """Propagate x through the network and return the scalar output."""
    return float(forward_many(net, np.asarray(x, dtype=float)[None])[0])


def _row_norms(p: int, W: np.ndarray) -> tuple[str, np.ndarray]:
    """The norm rule of layer p and its rows' norms: l2 for layer 0, l1 above
    (the output row included)."""
    with np.errstate(over="ignore"):  # a norm past the largest double reads inf
        if p == 0:
            # scaling a row by a power of two near its largest entry is exact
            # and keeps the squares finite, so the norm overflows only if it must
            e = np.frexp(np.abs(W).max(axis=1, initial=0.0))[1]
            return "l2", np.ldexp(np.linalg.norm(np.ldexp(W, -e[:, None]), axis=1), e)
        return "l1", np.abs(W).sum(axis=1)


def required_budget(net: NeuralNet) -> float:
    """The smallest L that bounds every row's norm under :func:`_row_norms`:
    the net is in the class of budget L exactly when ``required_budget(net)
    <= L``.  Raises OverflowError, naming the layer and row, when a row's norm
    exceeds the largest double."""
    norms = [_row_norms(p, W) for p, W in enumerate(net.weights)]
    for p, (kind, nv) in enumerate(norms):
        if np.isinf(nv).any():  # argmax finds the first inf
            raise OverflowError(f"layer {p} row {np.argmax(nv)} has an {kind} norm "
                                "above the largest double")
    return max(float(nv.max()) for _, nv in norms)


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
    norm: float

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        scale = 2.0 ** (-1.5)  # weight of a length-2 tuple in the feature map
        return float(sum(v * scale * x[a] * x[b] for (a, b), v in self.coords.items()))


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
    return EmbeddedFunction(coords=coords, norm=norm)


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
        W = np.asarray(self.weights, dtype=np.int64).view()
        b = np.asarray(self.offsets, dtype=np.int64).view()
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
    if d < 1 or T < 1:
        raise ValueError(f"need d >= 1 and T >= 1 halfspaces, got d={d}, T={T}")
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


def _labels(hs: HalfspaceFamily, X) -> np.ndarray:
    """The intersection's label of x, or of each row of x, in {-1,1}^d: +1
    when every halfspace fires, else -1.  ``w.x - b`` is an integer, so
    ``w.x - b - 1/2`` is never zero and the halfspace fires when ``w.x - b >= 1``."""
    fires = np.asarray(X, dtype=np.int64) @ hs.weights.T - hs.offsets >= 1
    return np.where(np.all(fires, axis=-1), 1, -1)


def eval_halfspaces(hs: HalfspaceFamily, x) -> int:
    """+1 when every halfspace fires on x in {-1,1}^d, else -1."""
    x = np.asarray(x)
    if x.shape != (hs.dim,) or not np.all(np.abs(x) == 1):
        raise ValueError(f"x must lie in {{-1,1}}^{hs.dim}")
    return int(_labels(hs, x))


def extend_input(x) -> np.ndarray:
    """Append the constant coordinate to x, or to each row of x, and scale
    onto the unit sphere."""
    x = np.asarray(x, dtype=float)
    return np.concatenate((x, np.ones(x.shape[:-1] + (1,))), axis=-1) / math.sqrt(x.shape[-1] + 1)


def _require_saturating(act: Activation) -> None:
    """The construction needs :func:`~reckernel.activation.transfer` to
    saturate; polynomial activations do not and raise ConstructionError."""
    if act.kind == "polynomial":
        raise ConstructionError(
            f"activation {act.name!r} does not saturate; need sigmoid-like or relu-like")


def select_margin_param(act: Activation, T: int) -> float:
    """Smallest scale at which the transfer saturates to within s = 1/(8T).

    Binary search on v for ``transfer(v) >= 1 - s`` and ``transfer(-v) <= s``;
    the result gets a small bump so later numeric checks sit strictly inside
    the saturated region.  s halves the 1/(4T) requirement, buying margin for
    the constant neuron.
    """
    _require_saturating(act)
    s = 1.0 / (8.0 * T)

    def ok(v: float) -> bool:
        return transfer(act, v) >= 1.0 - s and transfer(act, -v) <= s

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
    _require_saturating(activation)
    lam = float(margin_param)
    T, d = hs.T, hs.dim
    hi_val = transfer(activation, lam)
    lo_val = transfer(activation, -lam)
    # negated so that a NaN margin parameter fails too
    if not (hi_val >= 1.0 - 1.0 / (4.0 * T) and lo_val <= 1.0 / (4.0 * T)):
        raise ConstructionError(
            f"margin parameter {lam:g} does not saturate {activation.name!r}: "
            f"transfer(+{lam:g}) = {hi_val:.6g} (need >= {1 - 1 / (4 * T):.6g}), "
            f"transfer(-{lam:g}) = {lo_val:.6g} (need <= {1 / (4 * T):.6g})")

    root = math.sqrt(d + 1.0)
    # constant neuron: saturate far beyond the per-halfspace requirement so its
    # error cannot erode the unit margin
    const_target = 1e-9
    v = lam
    while transfer(activation, v) < 1.0 - const_target:
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

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for t in range(T):
            base = np.append(hs.weights[t].astype(float), -(hs.offsets[t] + 0.5))
            emit(2.0 * lam * root * base, 4.0)
        emit(np.append(np.zeros(d), const_scale * root), -(4.0 * T - 2.0))

    W0 = np.stack(rows)
    if not np.all(np.isfinite(W0)):
        raise OverflowError(
            f"margin parameter {lam:g} overflows the first-layer weights")
    W1 = np.array([out])
    return NeuralNet(weights=(W0, W1), activation=activation)


@dataclass(frozen=True)
class MarginReport:
    min_margin: float
    max_hinge_loss: float
    n_inputs: int
    worst_input: tuple[int, ...]


#: hypercube inputs per block of the batched margin evaluation
MARGIN_BLOCK = 1024


def _hypercube_points(idx: np.ndarray, d: int) -> np.ndarray:
    """Points number ``idx`` of {-1,1}^d in ``itertools.product((-1, 1),
    repeat=d)`` order: coordinate c of point i is bit d-1-c of i (1 -> +1)."""
    return ((idx[:, None] >> np.arange(d - 1, -1, -1)) & 1) * 2 - 1


def _hypercube_margins(net: NeuralNet, hs: HalfspaceFamily) -> np.ndarray:
    """``label * net(extended x)`` for every x in {-1,1}^d, in
    ``itertools.product((-1, 1), repeat=d)`` order, evaluated a block of
    MARGIN_BLOCK inputs at a time: one :func:`_labels` and one
    :func:`forward_many` call, so each margin equals the scalar one."""
    d = hs.dim
    n = 2 ** d
    margins = np.empty(n)
    for start in range(0, n, MARGIN_BLOCK):
        idx = np.arange(start, min(n, start + MARGIN_BLOCK))
        X = _hypercube_points(idx, d)
        margins[start:start + idx.size] = _labels(hs, X) * forward_many(net, extend_input(X))
    return margins


def brute_force_margins(net: NeuralNet, hs: HalfspaceFamily) -> MarginReport:
    """Enumerate the hypercube and report the worst classification margin.

    The margin at x is ``label * net(extended x)`` with the label from the
    halfspace intersection; hinge loss is max(0, 1 - margin).  Many inputs
    can share the least margin; ``worst_input`` is the first one, in
    ``itertools.product((-1, 1), repeat=d)`` order.  Every margin equals
    ``eval_halfspaces(hs, x) * forward(net, extend_input(x))`` bit for bit.
    A NaN or infinite margin, which finite weights reach only through
    overflow, raises OverflowError naming the first such input.
    """
    d = hs.dim
    if d > 20:
        raise ValueError(f"refusing to enumerate 2^{d} inputs")
    if net.input_dim != d + 1:
        raise NetworkStructureError(
            f"network expects inputs of dimension {net.input_dim}, "
            f"extended {d}-bit inputs have dimension {d + 1}")
    margins = _hypercube_margins(net, hs)
    bad = np.flatnonzero(~np.isfinite(margins))
    if bad.size:
        x = tuple(_hypercube_points(bad[:1], d)[0].tolist())
        what = "NaN" if math.isnan(margins[bad[0]]) else "infinite"
        raise OverflowError(
            f"the network's output at input {x} is {what} ({bad.size} inputs): "
            "its arithmetic overflows")
    i = int(np.argmin(margins))  # the first least margin
    worst = float(margins[i])
    return MarginReport(min_margin=worst,
                        max_hinge_loss=max(0.0, 1.0 - worst),
                        n_inputs=2 ** d,
                        worst_input=tuple(_hypercube_points(np.array([i]), d)[0].tolist()))


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
