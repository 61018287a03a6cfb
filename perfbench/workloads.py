"""The four benchmark workloads.

Each workload has a ``setup`` (repeated and timed as ``setup_s``), a ``rep``
(one pass of the timed phase, repeated for the run's duration), a ``check``
of each repetition's outputs against the first repetition and the pins, run
untimed after it, and a ``verify`` pass over the last repetition that
returns the figures only the outputs can give (test error, active fraction,
latency percentiles).  Only the first and the latest outputs are kept, so
memory does not grow with the number of repetitions.  Each set-up ends with
a small warm-up pass of the timed calls, so lazy start-up costs land in
``setup_s`` and not in the first repetition.

Every input is generated here from the workload seed; the library receives
generated arrays, or seeds derived from the workload seed where its API
takes one (``make_corpus``, ``make_variant``).  All calls go through public
functions, wrapped in ``Bench.op`` so they are counted and, when tracing,
recorded as spans.
"""

from __future__ import annotations

import hashlib
import os
import resource
from dataclasses import dataclass

import numpy as np

from reckernel import activation, baseline, data, glyphs, kernel, network, solver

N_CLASSES = 10
FULL_STEPS = ("deskew", "center", "normalize")
SERVE_STEPS = ("center", "normalize")

#: desk_fit: the budget leaves every one-vs-all problem with a nonempty hinge
#: active set after the last iteration, so no class stops on a zero
#: subgradient and the solver's work stays pinned
DESK_B = 10.0
DESK_DEPTHS = (1, 4)
#: tight_serve: the norm ball binds on almost every step and every pair is active
SERVE_B = 1.0
SERVE_DEPTH = 4

CAPACITY_GRID = [(name, L, k) for name in activation.BUILTIN_NAMES
                 for L in (0.5, 1.0, 2.0) for k in (1, 2, 4, 6)]
HARDNESS_T = 3
HARDNESS_BUDGET = 16
#: quadratic net for the embedding check: input and hidden widths
EMBED_WIDTHS = (20, 30)
EMBED_POINTS = 20

#: iterations of the warm-up fit that ends each fit set-up: a shorter one
#: leaves the first timed solve in the process about a third slower
WARMUP_ITERS = 200

#: slack on alpha' G alpha <= B^2 and on float agreement checks
CONSTRAINT_SLACK = 1e-9
AGREE_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    corpus_glyphs: int
    train_glyphs: int
    test_glyphs: int
    #: rotation or background copies drawn per training and per test glyph
    train_copies: int
    desk_test_copies: int
    serve_bulk_copies: int
    desk_iters: int
    serve_iters: int
    serve_single_calls: int
    logistic_iters: int
    shape_points: int
    hardness_dim: int


SIZES = {
    "full": Sizes(corpus_glyphs=400, train_glyphs=250, test_glyphs=200,
                  train_copies=4, desk_test_copies=2, serve_bulk_copies=50,
                  desk_iters=500, serve_iters=300, serve_single_calls=1000,
                  logistic_iters=400, shape_points=41, hardness_dim=14),
    "tiny": Sizes(corpus_glyphs=20, train_glyphs=20, test_glyphs=10,
                  train_copies=2, desk_test_copies=1, serve_bulk_copies=3,
                  desk_iters=20, serve_iters=20, serve_single_calls=20,
                  logistic_iters=10, shape_points=5, hardness_dim=6),
}


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def corpus_digest(ds: data.ImageDataset) -> str:
    """SHA-256 over the corpus as uint8 pixels followed by uint8 labels."""
    h = hashlib.sha256()
    h.update(np.round(ds.images * 255.0).astype(np.uint8).tobytes())
    h.update(ds.labels.astype(np.uint8).tobytes())
    return h.hexdigest()


def _render(b, n: int, seed: int) -> data.ImageDataset:
    with b.op("glyphs.make_corpus", glyphs=n):
        return glyphs.make_corpus(n, seed)


def _variants(b, ds: data.ImageDataset, kind: str, seeds) -> data.ImageDataset:
    """Copies of ``ds`` under independent draws of one variant, stacked."""
    parts = []
    for s in seeds:
        with b.op("data.make_variant", rows=ds.n):
            parts.append(data.make_variant(ds, kind, s))
    return data.ImageDataset(np.concatenate([p.images for p in parts]),
                             np.concatenate([p.labels for p in parts]), kind)


def _preprocess(b, ds: data.ImageDataset, steps) -> data.FeatureDataset:
    with b.op("data.preprocess", rows=ds.n) as c:
        f = data.preprocess(ds, steps)
    c["flagged_rows"] = len(f.flagged_rows)
    return f


def _usable(f: data.FeatureDataset):
    """Training rows: the solver requires unit norm, so flagged rows go."""
    keep = np.setdiff1d(np.arange(f.n), np.asarray(f.flagged_rows, dtype=int))
    return f.X[keep], f.labels[keep]


def _train(b, X, y, cfg: solver.TrainConfig) -> tuple[solver.OneVsAllPredictor, list[int]]:
    """One-vs-all fit with the iterations of each class counted through the
    public callback."""
    steps = [0] * N_CLASSES

    def count(c, t, obj, best):
        steps[c] += 1

    with b.op("solver.train_multiclass", rows=len(X)) as c:
        model = solver.train_multiclass(X, y, cfg, callback=count, n_classes=N_CLASSES)
    c["class_steps"] = sum(steps)
    c["gemv_bytes"] = 8.0 * sum(steps) * len(X) ** 2
    return model, steps


def _pinned_cfg(depth: int, budget: float, iters: int) -> solver.TrainConfig:
    # patience above max_iters, so the window rule never ends a solve
    return solver.TrainConfig(depth=depth, budget=budget, max_iters=iters, patience=iters + 1)


def _steps_check(b, name, steps, pinned):
    b.check(f"{name}.class_steps", sum(steps) == pinned,
            f"{sum(steps)} class-steps (per class {steps}), pinned {pinned}")


def _fit_checks(b, name, X, y, models, budget):
    """Gram symmetry and the norm constraint for each fitted model.  Returns
    the hinge active fraction of each model and the largest constraint use
    alpha' G alpha / B^2 over models and classes."""
    Y = np.where(np.arange(N_CLASSES)[None, :] == y[:, None], 1.0, -1.0)
    active, use = [], []
    for model in models:
        with b.op("kernel.gram", entries=len(X) ** 2,
                  gflop_computed=2.0 * len(X) ** 2 * X.shape[1] / 1e9):
            G = kernel.gram(kernel.KernelStack(model.depth), X)
        b.check(f"{name}.gram_symmetric", bool(np.array_equal(G.entries, G.entries.T)),
                f"depth {model.depth}")
        P = G.entries @ model.alphas.T
        q = np.einsum("ij,ij->j", model.alphas.T, P) / budget ** 2
        b.check(f"{name}.constraint", bool(np.all(q <= 1.0 + CONSTRAINT_SLACK)),
                f"depth {model.depth}: max alpha'G alpha / B^2 = {q.max():.12g}")
        active.append(float(np.mean(Y * P < 1.0)))
        use.append(float(q.max()))
    return active, max(use)


def _scores_check(b, name, model, X):
    with b.op("solver.scores_many", rows=len(X)):
        scores = model.scores_many(X)
    b.check(f"{name}.scores_finite", bool(np.all(np.isfinite(scores))))


def _error_check(b, name, err, ceiling):
    b.check(f"{name}.test_error", err <= ceiling, f"test error {err:.4f} > ceiling {ceiling}")


# ---------------------------------------------------------------------------
# corpus: glyph rendering and the data layer, nothing else
# ---------------------------------------------------------------------------

class Corpus:
    name = "corpus"

    def setup(self, b, size: str, seed: int, workdir: str):
        sz = SIZES[size]
        corpus_seed, variant_seed = _seeds(seed, 2)
        paths = [os.path.join(workdir, f) for f in
                 ("corpus-images.idx", "corpus-labels.idx", "again-images.idx", "again-labels.idx")]
        state = dict(size=size, sz=sz, seed=seed, corpus_seed=corpus_seed,
                     variant_seed=variant_seed, paths=paths)
        self.rep(b, dict(state, sz=SIZES["tiny"]))  # warm-up pass
        return state

    def rep(self, b, st):
        n = st["sz"].corpus_glyphs
        ip, lp = st["paths"][:2]
        ds = _render(b, n, st["corpus_seed"])
        with b.op("data.idx") as c:
            data.write_idx(ds, ip, lp)
        c["bytes"] = os.path.getsize(ip) + os.path.getsize(lp)
        with b.op("data.idx", bytes=c["bytes"]):
            back = data.read_idx(ip, lp)
        rot = _variants(b, back, "background_rotation", [st["variant_seed"]])
        return dict(ds=ds, back=back, features=_preprocess(b, rot, FULL_STEPS))

    def check(self, b, st, out, first, pins):
        digest = corpus_digest(out["ds"])
        if first is None:
            pinned = pins["corpus_sha256"][st["size"]].get(str(st["seed"]))
            if pinned is not None:
                b.check("corpus.sha256", digest == pinned, f"{digest} != pinned {pinned}")
        else:
            want = corpus_digest(first["ds"])
            b.check("corpus.deterministic", digest == want,
                    f"{digest} != first repetition {want}")
        b.check("corpus.idx_values", bool(
            np.array_equal(out["back"].images, out["ds"].images)
            and np.array_equal(out["back"].labels, out["ds"].labels)))
        _rows_check(b, out["features"])
        return {}

    def verify(self, b, st, out, records, pins):
        ip, lp, ip2, lp2 = st["paths"]
        with b.op("data.idx"):
            data.write_idx(out["back"], ip2, lp2)
        b.check("corpus.idx_bytes", all(_read(a) == _read(c) for a, c in ((ip, ip2), (lp, lp2))))
        return {}


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _rows_check(b, f: data.FeatureDataset):
    flagged = np.zeros(f.n, dtype=bool)
    flagged[list(f.flagged_rows)] = True
    norms = np.linalg.norm(f.X, axis=1)
    off = np.max(np.abs(norms[~flagged] - 1.0), initial=0.0)
    ok = np.all(np.isfinite(f.X)) and off <= 1e-9 and np.all(norms[flagged] == 0.0)
    b.check("preprocess.rows", bool(ok),
            f"{int(np.sum(~np.isfinite(f.X)))} non-finite values, "
            f"max |norm - 1| over unflagged rows {off:.3g}")


# ---------------------------------------------------------------------------
# desk_fit: rotation rows, full preprocessing, two depths at a loose budget
# ---------------------------------------------------------------------------

class DeskFit:
    name = "desk_fit"

    def setup(self, b, size: str, seed: int, workdir: str):
        sz = SIZES[size]
        s = _seeds(seed, 2 + sz.train_copies + sz.desk_test_copies)
        train = _render(b, sz.train_glyphs, s[0])
        test = _render(b, sz.test_glyphs, s[1])
        ftr = _preprocess(b, _variants(b, train, "rotation", s[2:2 + sz.train_copies]), FULL_STEPS)
        fte = _preprocess(b, _variants(b, test, "rotation", s[2 + sz.train_copies:]), FULL_STEPS)
        X, y = _usable(ftr)
        model, _ = _train(b, X, y, _pinned_cfg(1, DESK_B, WARMUP_ITERS))
        with b.op("solver.classify_many", rows=2):
            model.classify_many(fte.X[:2])
        return dict(size=size, sz=sz, X=X, y=y, Xt=fte.X, yt=fte.labels)

    def rep(self, b, st):
        sz = st["sz"]
        models, steps, preds = [], [], []
        for depth in DESK_DEPTHS:
            model, st_steps = _train(b, st["X"], st["y"], _pinned_cfg(depth, DESK_B, sz.desk_iters))
            with b.op("solver.classify_many", rows=len(st["Xt"])):
                preds.append(model.classify_many(st["Xt"]))
            models.append(model)
            steps.append(st_steps)
        cfg = baseline.LogisticConfig(n_classes=N_CLASSES, iters=sz.logistic_iters)
        with b.op("baseline.train_logistic", iters=cfg.iters):
            W = baseline.train_logistic(st["X"], st["y"], cfg)
        with b.op("baseline.predict_logistic", rows=len(st["Xt"])):
            pb = baseline.predict_logistic(W, st["Xt"])
        return dict(models=models, steps=[sum(a) for a in zip(*steps)], preds=preds, pb=pb)

    def check(self, b, st, out, first, pins):
        _steps_check(b, "desk_fit", out["steps"],
                     pins["class_steps"][st["size"]]["desk_fit"])
        if first is not None:
            b.check("desk_fit.deterministic",
                    all(np.array_equal(p, q) for p, q in zip(out["preds"], first["preds"]))
                    and np.array_equal(out["pb"], first["pb"]))
        return {}

    def verify(self, b, st, out, records, pins):
        active, use = _fit_checks(b, "desk_fit", st["X"], st["y"], out["models"], DESK_B)
        for model in out["models"]:
            _scores_check(b, "desk_fit", model, st["Xt"])
        ceilings = pins["test_error_ceiling"][st["size"]]
        err = float(np.mean([np.mean(p != st["yt"]) for p in out["preds"]]))
        base_err = float(np.mean(out["pb"] != st["yt"]))
        _error_check(b, "desk_fit", err, ceilings["desk_fit"])
        _error_check(b, "desk_fit.baseline", base_err, ceilings["baseline"])
        return {"solver.test_error": err, "baseline.test_error": base_err,
                "solver.active_fraction": float(np.mean(active)),
                "solver.constraint_use_max": use}


# ---------------------------------------------------------------------------
# tight_serve: background rows at a binding budget, then bulk and single-row
# prediction
# ---------------------------------------------------------------------------

class TightServe:
    name = "tight_serve"

    def setup(self, b, size: str, seed: int, workdir: str):
        sz = SIZES[size]
        s = _seeds(seed, 2 + sz.train_copies + sz.serve_bulk_copies)
        train = _render(b, sz.train_glyphs, s[0])
        test = _render(b, sz.test_glyphs, s[1])
        ftr = _preprocess(b, _variants(b, train, "background", s[2:2 + sz.train_copies]),
                          SERVE_STEPS)
        fte = _preprocess(b, _variants(b, test, "background", s[2 + sz.train_copies:]),
                          SERVE_STEPS)
        X, y = _usable(ftr)
        model, _ = _train(b, X, y, _pinned_cfg(SERVE_DEPTH, SERVE_B, WARMUP_ITERS))
        with b.op("solver.classify_many", rows=2):
            model.classify_many(fte.X[:2])
        with b.op("solver.classify", calls=1):
            model.classify(fte.X[0])
        return dict(size=size, sz=sz, X=X, y=y, Xb=fte.X, yb=fte.labels)

    def rep(self, b, st):
        sz = st["sz"]
        model, steps = _train(b, st["X"], st["y"],
                              _pinned_cfg(SERVE_DEPTH, SERVE_B, sz.serve_iters))
        with b.op("solver.classify_many", rows=len(st["Xb"])) as c:
            before = _maxrss_mb()
            bulk = model.classify_many(st["Xb"])
            c["rss_growth_mb"] = _maxrss_mb() - before
        singles, seconds = [], []
        for i in range(sz.serve_single_calls):
            with b.op("solver.classify", calls=1) as c:
                singles.append(model.classify(st["Xb"][i]))
            seconds.append(c["seconds"])
        return dict(model=model, steps=steps, bulk=bulk, singles=np.array(singles),
                    seconds=np.array(seconds))

    def check(self, b, st, out, first, pins):
        _steps_check(b, "tight_serve", out["steps"],
                     pins["class_steps"][st["size"]]["tight_serve"])
        if first is not None:
            b.check("tight_serve.deterministic", bool(np.array_equal(out["bulk"], first["bulk"])))
        n = len(out["singles"])
        with b.op("solver.scores_many", rows=n):
            top2 = np.sort(out["model"].scores_many(st["Xb"][:n]), axis=1)[:, -2:]
        # GEMV and GEMM may round differently, so an exact tie may break
        # either way; anything else must agree
        near_tie = top2[:, 1] - top2[:, 0] <= AGREE_TOL * np.maximum(1.0, np.abs(top2[:, 1]))
        agree = (out["singles"] == out["bulk"][:n]) | near_tie
        b.check("tight_serve.single_matches_bulk", bool(np.all(agree)),
                f"{int(np.sum(~agree))} of {n} single-row answers differ from the bulk call")
        ms = out["seconds"] * 1e3
        return {"ms_p50": float(np.percentile(ms, 50)), "ms_p99": float(np.percentile(ms, 99))}

    def verify(self, b, st, out, records, pins):
        (active,), use = _fit_checks(b, "tight_serve", st["X"], st["y"], [out["model"]], SERVE_B)
        _scores_check(b, "tight_serve", out["model"], st["Xb"])
        ceilings = pins["test_error_ceiling"][st["size"]]
        err = float(np.mean(out["bulk"] != st["yb"]))
        _error_check(b, "tight_serve", err, ceilings["tight_serve"])
        return {"solver.test_error": err, "solver.active_fraction": active,
                "solver.constraint_use_max": use,
                "solver.classify.ms_p50": float(np.median([r["ms_p50"] for r in records])),
                "solver.classify.ms_p99": float(np.median([r["ms_p99"] for r in records]))}


# ---------------------------------------------------------------------------
# capacity: the activation and network layers, which no other workload uses
# ---------------------------------------------------------------------------

def _halfspaces(rng, d: int) -> network.HalfspaceFamily:
    """Integer halfspaces with |b| + ||w||_1 within the budget, drawn here."""
    rows, offsets = [], []
    while len(rows) < HARDNESS_T:
        w = rng.integers(-2, 3, size=d)
        off = int(rng.integers(-3, 4))
        if np.any(w != 0) and abs(off) + int(np.abs(w).sum()) <= HARDNESS_BUDGET:
            rows.append(w)
            offsets.append(off)
    return network.HalfspaceFamily(np.array(rows), np.array(offsets), HARDNESS_BUDGET)


def _quadratic_net(rng, quad: activation.Activation) -> network.NeuralNet:
    """One hidden layer; first-layer rows at l2 norm in [0.5, 1], output row
    at l1 norm in [0.5, 1]."""
    d, width = EMBED_WIDTHS
    V = rng.uniform(-1.0, 1.0, size=(width, d))
    V *= (rng.uniform(0.5, 1.0, size=width) / np.linalg.norm(V, axis=1))[:, None]
    w = rng.uniform(-1.0, 1.0, size=(1, width))
    w *= rng.uniform(0.5, 1.0) / np.abs(w).sum()
    return network.NeuralNet((V, w), quad)


class Capacity:
    name = "capacity"

    def setup(self, b, size: str, seed: int, workdir: str):
        sz = SIZES[size]
        rng = np.random.default_rng(seed)
        acts = {}
        for name in activation.BUILTIN_NAMES:
            with b.op("activation.builtin_activation"):
                acts[name] = activation.builtin_activation(name)
        erf = acts["shifted_erf"]
        with b.op("network.select_margin_param"):
            margin = network.select_margin_param(erf, HARDNESS_T)
        hs = _halfspaces(rng, sz.hardness_dim)
        qnet = _quadratic_net(rng, acts["quadratic"])
        points = rng.normal(size=(EMBED_POINTS, EMBED_WIDTHS[0]))
        points *= (rng.uniform(0.1, 1.0, size=EMBED_POINTS)
                   / np.linalg.norm(points, axis=1))[:, None]
        state = dict(size=size, sz=sz, acts=acts, margin=margin, hs=hs, qnet=qnet, points=points,
                     grid=np.linspace(-10.0, 10.0, sz.shape_points))
        tiny = SIZES["tiny"]
        self.rep(b, dict(state, hs=_halfspaces(rng, tiny.hardness_dim),
                         grid=np.linspace(-10.0, 10.0, tiny.shape_points)))  # warm-up pass
        return state

    def rep(self, b, st):
        capacity = {}
        for name, L, k in CAPACITY_GRID:
            with b.op("activation.compute_F", calls=1) as c:
                try:
                    rep = activation.compute_F(st["acts"][name], k, L)
                    capacity[_grid_key(name, L, k)] = rep.value.log10
                    c["terms_used"] = rep.terms_used
                except activation.SeriesDivergenceError as e:
                    # the documented answer past the series budget, as in
                    # scripts/capacity_table.py
                    capacity[_grid_key(name, L, k)] = f"diverged at level {e.level}"
                    c["terms_used"] = e.terms_used
        shapes = []
        for name in ("shifted_erf", "smoothed_hinge"):
            with b.op("activation.check_shape", points=len(st["grid"])):
                shapes.append(activation.check_shape(st["acts"][name], st["grid"]))
        with b.op("network.build_hardness_net"):
            net = network.build_hardness_net(st["hs"], st["acts"]["shifted_erf"], st["margin"])
        with b.op("network.brute_force_margins", inputs=2 ** st["hs"].dim):
            margins = network.brute_force_margins(net, st["hs"])
        with b.op("network.embed_quadratic"):
            emb = network.embed_quadratic(st["qnet"])
        pairs = []
        for x in st["points"]:
            with b.op("network.forward"):
                fx = network.forward(st["qnet"], x)
            with b.op("network.EmbeddedFunction.evaluate"):
                pairs.append((fx, emb.evaluate(x)))
        return dict(capacity=capacity, shapes=shapes, margins=margins, pairs=pairs)

    def check(self, b, st, out, first, pins):
        pinned = pins["capacity_log10"]
        bad = [key for key, want in pinned.items()
               if not _same_capacity(out["capacity"].get(key), want)]
        b.check("capacity.F_values", not bad and len(out["capacity"]) == len(pinned),
                "; ".join(f"{k}: got {out['capacity'].get(k)!r}, pinned {pinned[k]!r}"
                          for k in bad[:3]))
        b.check("capacity.hardness_margin", out["margins"].min_margin >= 1.0,
                f"min margin {out['margins'].min_margin:.6g} < 1")
        for rep in out["shapes"]:
            b.check("capacity.shape", rep.ok, f"{rep.activation}: {rep.violations[:2]}")
        worst = max(abs(fx - ex) / max(1.0, abs(fx)) for fx, ex in out["pairs"])
        b.check("capacity.embedding", worst <= AGREE_TOL,
                f"embedding and forward differ by {worst:.3g} (relative)")
        return {}

    def verify(self, b, st, out, records, pins):
        return {}


def _grid_key(name: str, L: float, k: int) -> str:
    return f"{name}/L={L:g}/k={k}"


def _same_capacity(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str) or got is None:
        return got == want
    return abs(got - want) <= AGREE_TOL * max(1.0, abs(want))


WORKLOADS = {w.name: w for w in (Corpus(), DeskFit(), TightServe(), Capacity())}
