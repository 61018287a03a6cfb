"""Command-line surface.

Subcommands: bound, gram, train, eval, variants, hardness-demo, bench, synth.
Every training or benchmark run writes a JSON manifest capturing the resolved
configuration, seeds, input fingerprints, timings, the process's peak RSS,
the core count and numpy's BLAS build; rerunning a command with the same
flags reproduces its model files byte for byte.  ``train`` adds how each
class's solve ended, and ``bench`` its ``runs``: one record per fit (each
variant's logistic baseline and kernel depths) with test and validation
error, stage times and each class's solve.  ``bench.md`` and ``bench.csv``
are rendered from the same records.

``train --from-manifest`` presets every option an earlier run recorded except
``--out-model``.  Precedence: explicit flag > ``--from-manifest`` > built-in
default.  ``gram``, ``train``, ``synth`` and ``bench`` check their options,
``bench`` its variant names too, before reading or writing any data.

A dataset is one IDX pair, named by ``--images FILE --labels FILE``.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .activation import SeriesDivergenceError, builtin_activation, compute_F
from .baseline import LogisticConfig, predict_logistic, train_logistic
from .data import (IdxFormatError, PREPROCESS_STEPS, VARIANT_KINDS,
                   make_variant, preprocess, read_idx, write_idx)
from .glyphs import make_corpus
from .kernel import GramFormatError, NormBoundError, kernel_matrix, write_gram
from .network import (ConstructionError, brute_force_margins,
                      build_hardness_net, net_to_json, random_halfspace_family,
                      required_budget, select_margin_param)
from .solver import (NumericalError, OneVsAllPredictor, SolverDivergenceError,
                     TrainConfig, check_labels, train_multiclass)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ManifestFormatError(ValueError):
    """A ``--from-manifest`` file is not a manifest with a ``config`` object."""


USAGE_ERRORS = (ValueError,)
DATA_ERRORS = (IdxFormatError, GramFormatError, ManifestFormatError, FileNotFoundError)
NUMERIC_ERRORS = (SeriesDivergenceError, SolverDivergenceError, NumericalError,
                  ConstructionError, NormBoundError, OverflowError)


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256s(paths) -> dict:
    return {str(p): _sha256(p) for p in paths}


def _manifest(command: str, args: argparse.Namespace, inputs: dict,
              timings: dict) -> dict:
    """``inputs`` maps each input path to its SHA-256 (see :func:`_sha256s`).
    Call it last: it records the peak RSS so far."""
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "version": __version__,
        "inputs": inputs,
        "timings_s": timings,
        **_machine(),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _solve_records(pred: OneVsAllPredictor) -> list:
    """Each class's SolveReport as a manifest record."""
    return [{"class": c, **dataclasses.asdict(r)} for c, r in enumerate(pred.reports)]


def _machine() -> dict:
    """What a command ran on: usable cores and numpy's BLAS build."""
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 cannot return its config
        blas = {}
    return {"nproc": nproc, "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(rss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _write_manifest(manifest: dict, out_path) -> None:
    with open(str(out_path) + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _presets(args: argparse.Namespace) -> dict:
    """Option defaults: what the ``--from-manifest`` run recorded (keys this
    command no longer has are skipped), or none without that flag."""
    manifest = getattr(args, "from_manifest", None)
    if not manifest:
        return {}
    try:
        with open(manifest) as f:
            stored = json.load(f)
    except ValueError as e:  # not JSON, or not UTF-8
        raise ManifestFormatError(f"{manifest}: not a JSON manifest: {e}") from None
    stored = stored.get("config") if isinstance(stored, dict) else None
    if not isinstance(stored, dict):
        raise ManifestFormatError(f"{manifest}: no \"config\" object to replay")
    # the output path stays with the current invocation
    options = set(vars(args)) - {"command", "func", "from_manifest", "out_model"}
    return {k: tuple(v) if isinstance(v, list) else v for k, v in stored.items()
            if k in options}


def _steps_list(text: str) -> tuple:
    return tuple(s for s in text.split(",") if s)


def _int_list(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s)


# ---------------------------------------------------------------------------
# shared data handling
# ---------------------------------------------------------------------------

def _idx_pair(prefix) -> tuple:
    return f"{prefix}-images.idx", f"{prefix}-labels.idx"


def _add_idx_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--images", default=None)
    parser.add_argument("--labels", default=None)


def _resolve_idx_pair(args) -> tuple:
    """The --images/--labels pair.  Not argparse's ``required=True``: that is
    checked before ``--from-manifest`` presets the recorded pair."""
    if not (args.images and args.labels):
        raise ValueError("need both --images and --labels")
    return args.images, args.labels


def _load_features(images, labels, steps, limit=None):
    if limit is not None and limit < 1:
        raise ValueError(f"--limit {limit}: needs at least 1 row")
    ds = read_idx(images, labels)
    if limit is not None and limit < ds.n:
        ds = ds.subset(np.arange(limit))
    return preprocess(ds, steps)


def _usable_rows(fds):
    return np.setdiff1d(np.arange(fds.n), np.array(fds.flagged_rows, dtype=int))


def _model_payload(pred: OneVsAllPredictor, images, labels, hashes, rows, steps) -> dict:
    # absolute support paths, so the model evaluates from any directory
    return {
        "format": "reckernel-model-v1",
        "depth": pred.depth,
        "B": pred.budget,
        "loss": pred.loss_kind,
        "classes": list(pred.classes),
        "alphas": [a.tolist() for a in pred.alphas],
        "support": {
            "images": os.path.abspath(images),
            "images_sha256": hashes[str(images)],
            "labels": os.path.abspath(labels),
            "labels_sha256": hashes[str(labels)],
            "rows": [int(r) for r in rows],
            "preprocessing": list(steps),
        },
    }


def _load_model(path) -> tuple:
    """The model in ``path`` over its preprocessed support rows, its
    preprocessing steps and its support images' (height, width).  A file that
    is not a model, or whose parts do not fit together, is a data error
    naming it."""
    try:
        with open(path, "rb") as f:
            payload = json.load(f)
    except ValueError as e:  # not JSON, or not UTF-8
        raise IdxFormatError(f"{path}: not a JSON model file: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != "reckernel-model-v1":
        raise IdxFormatError(f"{path}: not a reckernel model file")
    try:
        sup = payload["support"]
        images, labels = str(sup["images"]), str(sup["labels"])
        rows, steps = list(sup["rows"]), tuple(sup["preprocessing"])
        classes, depth = tuple(payload["classes"]), payload["depth"]
        alphas = np.array(payload["alphas"], dtype=float)
        budget, loss = float(payload["B"]), str(payload["loss"])
    except (KeyError, TypeError, ValueError) as e:
        raise IdxFormatError(f"{path}: malformed model: {type(e).__name__}: {e}") from None
    if classes != tuple(range(len(classes))):
        raise IdxFormatError(f"{path}: classes {classes} are not 0..{len(classes) - 1}")
    if type(depth) is not int or depth < 0:
        raise IdxFormatError(f"{path}: depth {depth!r} is not a nonnegative integer")
    if alphas.shape != (len(classes), len(rows)) or not np.isfinite(alphas).all():
        raise IdxFormatError(f"{path}: alphas have shape {alphas.shape}, expected a finite "
                             f"{len(classes)} x {len(rows)} (classes x support rows) matrix")
    # the support set is part of the model: refuse it if it changed on disk
    for kind, file in (("images", images), ("labels", labels)):
        recorded = sup.get(f"{kind}_sha256")
        if recorded is None:
            raise IdxFormatError(f"{file}: the model records no SHA-256 for its "
                                 f"support {kind}")
        if _sha256(file) != recorded:
            raise IdxFormatError(f"{file}: SHA-256 differs from the one recorded "
                                 f"in {path}; the support {kind} changed since training")
    ds = read_idx(images, labels)
    bad = [r for r in rows if type(r) is not int or not 0 <= r < ds.n]
    if bad:
        raise IdxFormatError(f"{images}: the model's support row {bad[0]!r} is not "
                             f"an index into the file's {ds.n} rows")
    try:
        # every step is per row, so only the support rows are preprocessed
        X = preprocess(ds.subset(np.array(rows, dtype=int)), steps).X
    except ValueError as e:  # the recorded steps: the rows are checked above
        raise IdxFormatError(f"{path}: {e}") from None
    pred = OneVsAllPredictor(support=X, alphas=alphas, classes=classes, depth=depth,
                             budget=budget, loss_kind=loss)
    return pred, steps, ds.images.shape[1:]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    act = builtin_activation(args.activation)
    report = compute_F(act, args.k, args.L)
    for p, level in enumerate(report.levels, start=1):
        print(f"level {p}: log10 = {level.log10:.12g}"
              + (f"  (value = {level.to_float():.12g})" if level.log10 < 300 else ""))
    payload = {
        "activation": report.activation,
        "k": report.k,
        "L": report.L,
        "log10_levels": [lv.log10 for lv in report.levels],
        "log10_value": report.value.log10,
        "value": report.value.to_float() if report.value.log10 < 300 else None,
        "terms_used": report.terms_used,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_gram(args) -> int:
    if args.k < 0:
        raise ValueError(f"--k {args.k}: depth must be nonnegative")
    t0 = time.time()
    images, labels = _resolve_idx_pair(args)
    fds = _load_features(images, labels, args.preprocess, args.limit)
    G = kernel_matrix(args.k, fds.X)
    write_gram(G, args.k, args.out)
    timings = {"total": round(time.time() - t0, 3)}
    _write_manifest(_manifest("gram", args, _sha256s([images, labels]), timings), args.out)
    print(f"wrote {args.out}: n={len(G)} depth={args.k}")
    return EXIT_OK


def cmd_train(args) -> int:
    t0 = time.time()
    images, labels = _resolve_idx_pair(args)
    cfg = TrainConfig(depth=args.k, budget=args.B, loss=args.loss,
                      max_iters=args.max_iters, eta0=args.eta0,
                      tolerance=args.tol)
    fds = _load_features(images, labels, tuple(args.preprocess), args.limit)
    hashes = _sha256s([images, labels])
    rows = _usable_rows(fds)
    if len(rows) < fds.n:
        print(f"dropping {fds.n - len(rows)} zero-norm rows", file=sys.stderr)
    X, y = fds.X[rows], fds.labels[rows]
    history: list = []
    stride = max(1, args.max_iters // 200)

    def cb(c, t, obj, best):
        if t % stride == 0 or t == 1:
            history.append((c, t, best))

    t1 = time.time()
    pred = train_multiclass(X, y, cfg, callback=cb)
    t2 = time.time()
    train_err = float((pred.classify_many(X) != y).mean())

    payload = _model_payload(pred, images, labels, hashes, rows, args.preprocess)
    with open(args.out_model, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
    metrics_path = str(args.out_model) + ".metrics.csv"
    with open(metrics_path, "w") as f:
        f.write("kind,class,iteration,value\n")
        # the solver reports iteration-major; the file stays class-major
        for c, t, best in sorted(history):
            f.write(f"objective,{c},{t},{best!r}\n")
        for c, report in enumerate(pred.reports):
            for kind, value in dataclasses.asdict(report).items():
                f.write(f"{kind},{c},,{value}\n")
        f.write(f"final_train_error,,,{train_err!r}\n")
    timings = {"load": round(t1 - t0, 3), "train": round(t2 - t1, 3),
               "total": round(time.time() - t0, 3)}
    manifest = _manifest("train", args, hashes, timings)
    manifest["solve"] = _solve_records(pred)
    _write_manifest(manifest, args.out_model)
    print(f"trained {len(pred.classes)} classes on {len(rows)} points: "
          f"train error {100 * train_err:.2f}%")
    print(f"model: {args.out_model}  metrics: {metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred, steps, size = _load_model(args.model)
    images, labels = _resolve_idx_pair(args)
    ds = read_idx(images, labels)
    if ds.n == 0:
        raise IdxFormatError(f"{images}: evaluation set is empty")
    if ds.images.shape[1:] != size:
        raise IdxFormatError("{}: images are {}x{}, but the model's support images are "
                             "{}x{}".format(images, *ds.images.shape[1:], *size))
    n_classes = len(pred.classes)
    try:
        check_labels(ds.labels, n_classes)
    except ValueError as e:
        raise IdxFormatError(f"{labels}: {e}") from None
    fds = preprocess(ds, steps)
    guesses = pred.classify_many(fds.X)
    err = float((guesses != fds.labels).mean())
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for true, got in zip(fds.labels, guesses):
        confusion[int(true), int(got)] += 1
    print(f"n={ds.n} error={100 * err:.2f}% accuracy={100 * (1 - err):.2f}%")
    if args.out:
        with open(args.out, "w") as f:
            f.write("kind,class,value\n")
            f.write(f"error,,{err!r}\n")
            for c in range(n_classes):
                f.write(f"confusion_row,{c},\"{','.join(map(str, confusion[c]))}\"\n")
        print(f"report: {args.out}")
    return EXIT_OK


def cmd_variants(args) -> int:
    t0 = time.time()
    images, labels = _resolve_idx_pair(args)
    ds = read_idx(images, labels)
    out = make_variant(ds, args.kind, args.seed)
    write_idx(out, args.out_images, args.out_labels)
    _write_manifest(_manifest("variants", args, _sha256s([images, labels]),
                              {"total": round(time.time() - t0, 3)}), args.out_images)
    print(f"wrote {args.out_images} / {args.out_labels} ({args.kind}, n={out.n})")
    return EXIT_OK


def cmd_hardness_demo(args) -> int:
    act = builtin_activation(args.activation)
    hs = random_halfspace_family(args.d, args.T, args.budget, args.seed)
    lam = (args.margin_param if args.margin_param is not None
           else select_margin_param(act, args.T))
    net = build_hardness_net(hs, act, lam)
    budget = required_budget(net)
    report = brute_force_margins(net, hs)
    print(f"d={args.d} T={args.T} activation={args.activation} "
          f"margin_param={lam:.6g} weight_budget={budget:.6g}")
    print(f"min margin = {report.min_margin:.6f} (>= 1.0: {report.min_margin >= 1.0}), "
          f"hinge loss = {report.max_hinge_loss:.6g} over {report.n_inputs} inputs")
    if args.out_net:
        with open(args.out_net, "w") as f:
            f.write(net_to_json(net))
            f.write("\n")
        print(f"network: {args.out_net}")
    return EXIT_OK if report.min_margin >= 1.0 else EXIT_NUMERIC


def cmd_synth(args) -> int:
    sizes = {"train": args.train, "val": args.val, "test": args.test}
    for split, size in sizes.items():
        if size < 0:  # numpy would refuse it only once --out-dir exists
            raise ValueError(f"--{split} {size}: must be a nonnegative integer")
    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.time()
    for i, (split, size) in enumerate(sizes.items()):
        ds = make_corpus(size, seed=args.seed + i)
        ip, lp = _idx_pair(os.path.join(args.out_dir, f"basic-{split}"))
        write_idx(ds, ip, lp)
        print(f"wrote {ip} ({size} images)")
    _write_manifest(_manifest("synth", args, {}, {"total": round(time.time() - t0, 3)}),
                    os.path.join(args.out_dir, "basic"))
    return EXIT_OK


def cmd_bench(args) -> int:
    if not args.data_dir:
        raise ValueError("--data-dir is required; generate data with the synth command first")
    for flag, values, what in (("--ks", args.ks, "depth"),
                               ("--variants", args.variants, "variant")):
        if not values:
            raise ValueError(f"{flag} must name at least one {what}")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:  # it would be fitted twice, into duplicate rows
            raise ValueError(f"{flag} lists {repeated} more than once")
    if min(args.ks) < 0:
        raise ValueError(f"--ks {min(args.ks)}: depth must be nonnegative")
    kinds = ("basic",) + VARIANT_KINDS
    unknown = [v for v in args.variants if v not in kinds]
    if unknown:
        raise ValueError(f"--variants {unknown[0]}: not a variant; supported: {', '.join(kinds)}")
    # every config is built, and so checked, before any split is read or fitted
    baseline_cfg = LogisticConfig(iters=args.baseline_iters)
    cfgs = {k: TrainConfig(depth=k, budget=args.B, loss=args.loss, max_iters=args.max_iters)
            for k in args.ks}
    t0 = time.time()
    splits = []  # train, test, val: a variant draws split i from --seed + i
    for split, size in (("train", args.train), ("test", args.test), ("val", args.val)):
        ip, lp = _idx_pair(os.path.join(args.data_dir, f"basic-{split}"))
        if not os.path.exists(ip):
            raise FileNotFoundError(
                f"{ip} not found; run `reckernel synth --out-dir {args.data_dir}` first")
        ds = read_idx(ip, lp)
        if not 1 <= size <= ds.n:  # an empty split would score NaN
            raise ValueError(f"--{split} {size}: the {split} split needs 1 to {ds.n} "
                             f"images, the rows of {ip}")
        splits.append(ds.subset(np.arange(size)))

    steps = tuple(args.preprocess)
    q = builtin_activation("quadratic")
    # F(k, L) is defined from k = 1; depth 0, the plain inner product, is fitted all the same
    capacity = {k: compute_F(q, k, 1.0).value.to_float() for k in args.ks if k >= 1}
    # one record per fit, in fit order: each variant's baseline, then its depths
    records = []
    for variant in args.variants:
        parts = splits if variant == "basic" else [
            make_variant(d, variant, args.seed + i) for i, d in enumerate(splits)]
        t1 = time.time()
        ftr, fte, fva = (preprocess(d, steps) for d in parts)
        t_pre = round(time.time() - t1, 3)
        del parts  # the variant's images; splits stays for the later variants
        keep = _usable_rows(ftr)
        X, y = ftr.X[keep], ftr.labels[keep]
        for k in (None, *args.ks):
            t1 = time.time()
            if k is None:
                method, solve = "logistic regression", []
                W = train_logistic(X, y, dataclasses.replace(baseline_cfg,
                                                             n_classes=int(y.max()) + 1))
                classify = functools.partial(predict_logistic, W)
            else:
                method = f"recursive kernel (k={k})"
                pred = train_multiclass(X, y, cfgs[k])
                classify, solve = pred.classify_many, _solve_records(pred)
            t2 = time.time()
            test_err, val_err = (float((classify(f.X) != f.labels).mean()) for f in (fte, fva))
            t3 = time.time()
            # preprocess is the variant's, shared by all its fits
            records.append({"method": method, "variant": variant, "k": k,
                            "test_error": test_err, "val_error": val_err,
                            "seconds": {"preprocess": t_pre, "train": round(t2 - t1, 3),
                                        "classify": round(t3 - t2, 3)},
                            "solve": solve})
            print(f"[{variant}] {method}: test {100 * test_err:.2f}% "
                  f"val {100 * val_err:.2f}% ({t3 - t1:.1f}s)")

    def runtime(r):
        return r["seconds"]["train"] + r["seconds"]["classify"]

    # one table row per method in fit order, its cells in variant order
    fits = len(args.ks) + 1
    table = [records[j::fits] for j in range(fits)]
    os.makedirs(args.out_dir, exist_ok=True)
    md_path = os.path.join(args.out_dir, "bench.md")
    csv_path = os.path.join(args.out_dir, "bench.csv")
    with open(md_path, "w") as f:
        f.write("# Desk-scale benchmark: reduced splits; error rates are not "
                "comparable to full-scale runs\n\n")
        f.write(f"n_train = {args.train}, n_test = {args.test}, B = {args.B}, "
                f"loss = {args.loss}, seed = {args.seed}\n\n")
        f.write("capacity reference (quadratic activation, L = 1): "
                + (", ".join(f"F({k}, 1) = {v:.4g}" for k, v in capacity.items()) or "none")
                + f"; trained with B = {args.B} as a hyperparameter\n\n")
        f.write("| method | " + " | ".join(args.variants) + " | runtime (s) |\n")
        f.write("|---" * (len(args.variants) + 2) + "|\n")
        for row in table:
            cells = [f"{100 * r['test_error']:.2f}%" for r in row]
            f.write(f"| {row[0]['method']} | " + " | ".join(cells)
                    + f" | {sum(map(runtime, row)):.1f} |\n")
    with open(csv_path, "w") as f:
        f.write("method,variant,test_error,runtime_s,val_error\n")
        for r in sorted(records, key=lambda r: (r["method"], r["variant"])):
            f.write(f"\"{r['method']}\",{r['variant']},{r['test_error']!r},"
                    f"{runtime(r):.3f},{r['val_error']!r}\n")
    manifest = _manifest("bench", args, {}, {"total": round(time.time() - t0, 3)})
    manifest["runs"] = records
    _write_manifest(manifest, os.path.join(args.out_dir, "bench"))
    print(f"table: {md_path}  csv: {csv_path}  total {time.time() - t0:.1f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> tuple:
    """The top-level parser and its sub-parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="reckernel",
        description="recursive kernel learning of norm-bounded networks")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, **kwargs):
        s = subs.add_parser(name, **kwargs)
        s.set_defaults(func=func)
        return s

    def fit_options(s):  # train and bench
        s.add_argument("--B", type=float, default=100.0)
        s.add_argument("--loss", default=TrainConfig.loss)
        s.add_argument("--max-iters", type=int, default=TrainConfig.max_iters)

    def split_options(s):  # synth and bench
        for split, size in (("train", 2000), ("val", 500), ("test", 2000)):
            s.add_argument(f"--{split}", type=int, default=size)

    s = sub("bound", cmd_bound, help="capacity value F(k, L) for an activation")
    s.add_argument("--activation", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--L", type=float, required=True)

    s = sub("gram", cmd_gram, help="export a kernel Gram matrix as binary")
    _add_idx_options(s)
    s.add_argument("--preprocess", type=_steps_list, default=("normalize",))
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--out", required=True)

    s = sub("train", cmd_train, help="train a one-vs-all kernel model")
    _add_idx_options(s)
    s.add_argument("--preprocess", type=_steps_list, default=PREPROCESS_STEPS)
    s.add_argument("--k", type=int, default=1)
    fit_options(s)
    s.add_argument("--eta0", type=float, default=None)
    s.add_argument("--tol", type=float, default=TrainConfig.tolerance)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--out-model", required=True)
    s.add_argument("--from-manifest", default=None,
                   help="replay the configuration stored in a manifest file")

    s = sub("eval", cmd_eval, help="evaluate a model on an IDX dataset")
    s.add_argument("--model", required=True)
    _add_idx_options(s)
    s.add_argument("--out", default=None)

    s = sub("variants", cmd_variants, help="write a perturbed copy of a dataset")
    _add_idx_options(s)
    s.add_argument("--kind", choices=VARIANT_KINDS, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-images", required=True)
    s.add_argument("--out-labels", required=True)

    s = sub("hardness-demo", cmd_hardness_demo,
            help="halfspace-intersection encoding with brute-forced margins")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--T", type=int, required=True)
    s.add_argument("--budget", type=int, default=16)
    s.add_argument("--activation", default="shifted_erf")
    s.add_argument("--margin-param", type=float, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-net", default=None)

    s = sub("synth", cmd_synth, help="generate the procedural digit corpus")
    s.add_argument("--out-dir", required=True)
    split_options(s)
    s.add_argument("--seed", type=int, default=7)

    s = sub("bench", cmd_bench, help="desk-scale benchmark table")
    s.add_argument("--data-dir", default=None)
    s.add_argument("--variants", type=_steps_list, default=("basic", "rotation"))
    split_options(s)
    s.add_argument("--ks", type=_int_list, default=(1, 4))
    fit_options(s)
    s.add_argument("--baseline-iters", type=int, default=LogisticConfig.iters)
    s.add_argument("--preprocess", type=_steps_list, default=PREPROCESS_STEPS)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", default="results")

    return parser, subs.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    # specific families first: several of these are ValueError subclasses
    try:
        # presets become defaults, so a flag on the command line still wins
        subparsers[args.command].set_defaults(**_presets(args))
        args = parser.parse_args(argv)
        # numpy would refuse a negative seed only once the command's work had begun
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed {args.seed}: must be a nonnegative integer")
        return args.func(args)
    except DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NUMERIC_ERRORS as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
