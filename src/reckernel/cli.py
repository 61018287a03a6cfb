"""Command-line surface.

Subcommands: bound, gram, train, eval, variants, hardness-demo, bench, synth.
Every training or benchmark run writes a JSON manifest capturing the resolved
configuration, seeds, input fingerprints, and timings (``train`` adds how
each class's solve ended); rerunning a command with the same flags reproduces
its model files byte for byte.

A config file of ``key = value`` lines (``#`` comments allowed) can preset any
long option of a subcommand; ``train --from-manifest`` presets every option an
earlier run recorded except ``--out-model``.  Precedence: explicit flag >
``--config`` > ``--from-manifest`` > built-in default.  The environment variable
RECKERNEL_DATA_DIR supplies the default --data-dir for bench.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .activation import (ActivationRangeError, SeriesDivergenceError,
                         UnknownActivationError, builtin_activation, compute_F)
from .baseline import LogisticConfig, predict_logistic, train_logistic
from .data import (IdxFormatError, PREPROCESS_STEPS, VARIANT_KINDS,
                   make_variant, preprocess, read_idx, write_idx)
from .glyphs import make_corpus
from .kernel import GramFormatError, KernelStack, NormBoundError, gram, write_gram
from .network import (ConstructionError, brute_force_margins,
                      build_hardness_net, net_to_json, random_halfspace_family,
                      required_budget, select_margin_param, validate)
from .solver import (DegenerateClassError, NumericalError,
                     OneVsAllPredictor, SolverDivergenceError, TrainConfig,
                     train_multiclass)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

USAGE_ERRORS = (UnknownActivationError, DegenerateClassError, ValueError)
DATA_ERRORS = (IdxFormatError, GramFormatError, FileNotFoundError)
NUMERIC_ERRORS = (SeriesDivergenceError, ActivationRangeError,
                  SolverDivergenceError, NumericalError, ConstructionError,
                  NormBoundError, OverflowError)


# ---------------------------------------------------------------------------
# manifest and config plumbing
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command: str, args: argparse.Namespace, inputs: list,
              timings: dict) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "config")}
    return {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "timings_s": timings,
    }


def _write_manifest(manifest: dict, out_path) -> None:
    with open(str(out_path) + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_config_file(path) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _presets(args: argparse.Namespace) -> dict:
    """Option defaults: what the ``--from-manifest`` run recorded (keys this
    command no longer has are skipped), then the ``--config`` file on top."""
    options = set(vars(args)) - {"command", "func"}
    config = _load_config_file(args.config) if args.config else {}
    for key in config:
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of this command")
    manifest = getattr(args, "from_manifest", None) or config.get("from_manifest")
    if not manifest:
        return config
    with open(manifest) as f:
        stored = json.load(f)["config"]
    # the output path stays with the current invocation
    replay = {k: tuple(v) if isinstance(v, list) else v for k, v in stored.items()
              if k in options and k not in ("from_manifest", "out_model")}
    return {**replay, **config}


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
    parser.add_argument("--data", default=None,
                        help="IDX pair prefix (PREFIX-images.idx / PREFIX-labels.idx)")
    parser.add_argument("--images", default=None)
    parser.add_argument("--labels", default=None)


def _resolve_idx_pair(args) -> tuple:
    """Accept either --data PREFIX (see :func:`_idx_pair`) or the explicit
    --images/--labels pair."""
    if args.data:
        if args.images or args.labels:
            raise ValueError("pass either --data or --images/--labels, not both")
        return _idx_pair(args.data)
    if not (args.images and args.labels):
        raise ValueError("need --data PREFIX or both --images and --labels")
    return args.images, args.labels


def _load_features(images, labels, steps, limit=None):
    ds = read_idx(images, labels)
    if limit is not None and limit < ds.n:
        ds = ds.subset(np.arange(limit))
    return ds, preprocess(ds, steps)


def _usable_rows(fds):
    return np.setdiff1d(np.arange(fds.n), np.array(fds.flagged_rows, dtype=int))


def _model_payload(pred: OneVsAllPredictor, images, labels, rows, steps) -> dict:
    return {
        "format": "reckernel-model-v1",
        "depth": pred.depth,
        "B": pred.budget,
        "loss": pred.loss_kind,
        "classes": list(pred.classes),
        "alphas": [a.tolist() for a in pred.alphas],
        "support": {
            "images": str(images),
            "labels": str(labels),
            "rows": [int(r) for r in rows],
            "preprocessing": list(steps),
        },
    }


def _load_model(path) -> tuple:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("format") != "reckernel-model-v1":
        raise IdxFormatError(f"{path}: not a reckernel model file")
    sup = payload["support"]
    ds = read_idx(sup["images"], sup["labels"])
    fds = preprocess(ds, tuple(sup["preprocessing"]))
    X = fds.X[np.array(sup["rows"], dtype=int)]
    pred = OneVsAllPredictor(
        support=X, alphas=np.array(payload["alphas"], dtype=float),
        classes=tuple(int(c) for c in payload["classes"]),
        depth=int(payload["depth"]), budget=float(payload["B"]),
        loss_kind=payload["loss"])
    return pred, tuple(sup["preprocessing"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    act = builtin_activation(args.activation)
    report = compute_F(act, args.k, args.L, args.tol)
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
        "converged": report.converged,
        "terms_used": report.terms_used,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_gram(args) -> int:
    t0 = time.time()
    images, labels = _resolve_idx_pair(args)
    _, fds = _load_features(images, labels, args.preprocess, args.limit)
    G = gram(KernelStack(args.k), fds.X)
    write_gram(G, args.out)
    timings = {"total": round(time.time() - t0, 3)}
    _write_manifest(_manifest("gram", args, [images, labels], timings), args.out)
    print(f"wrote {args.out}: n={G.n} depth={G.depth}")
    return EXIT_OK


def cmd_train(args) -> int:
    t0 = time.time()
    images, labels = _resolve_idx_pair(args)
    _, fds = _load_features(images, labels, tuple(args.preprocess), args.limit)
    rows = _usable_rows(fds)
    if len(rows) < fds.n:
        print(f"dropping {fds.n - len(rows)} zero-norm rows", file=sys.stderr)
    X, y = fds.X[rows], fds.labels[rows]
    cfg = TrainConfig(depth=args.k, budget=args.B, loss=args.loss,
                      max_iters=args.max_iters, eta0=args.eta0,
                      tolerance=args.tol)
    history: list = []
    stride = max(1, args.max_iters // 200)

    def cb(c, t, obj, best):
        if t % stride == 0 or t == 1:
            history.append((c, t, best))

    t1 = time.time()
    pred = train_multiclass(X, y, cfg, callback=cb, n_classes=args.classes)
    t2 = time.time()
    train_err = float((pred.classify_many(X) != y).mean())

    payload = _model_payload(pred, images, labels, rows, args.preprocess)
    with open(args.out_model, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
    metrics_path = str(args.out_model) + ".metrics.csv"
    reports = [dataclasses.asdict(r) for r in pred.reports]
    with open(metrics_path, "w") as f:
        f.write("kind,class,iteration,value\n")
        # the solver reports iteration-major; the file stays class-major
        for c, t, best in sorted(history):
            f.write(f"objective,{c},{t},{best!r}\n")
        for c, report in enumerate(reports):
            for kind, value in report.items():
                f.write(f"{kind},{c},,{value}\n")
        f.write(f"final_train_error,,,{train_err!r}\n")
    timings = {"load": round(t1 - t0, 3), "train": round(t2 - t1, 3),
               "total": round(time.time() - t0, 3)}
    manifest = _manifest("train", args, [images, labels], timings)
    manifest["solve"] = [{"class": c, **r} for c, r in enumerate(reports)]
    _write_manifest(manifest, args.out_model)
    print(f"trained {len(pred.classes)} classes on {len(rows)} points: "
          f"train error {100 * train_err:.2f}%")
    print(f"model: {args.out_model}  metrics: {metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred, steps = _load_model(args.model)
    images, labels = _resolve_idx_pair(args)
    ds = read_idx(images, labels)
    if ds.n == 0:
        raise IdxFormatError(f"{images}: evaluation set is empty")
    n_classes = len(pred.classes)
    bad = np.nonzero(ds.labels >= n_classes)[0]
    if bad.size:
        i = int(bad[0])
        raise IdxFormatError(
            f"{labels}: label {int(ds.labels[i])} at row {i} is out of range for "
            f"a model with {n_classes} classes ({bad.size} offending rows)")
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
    images, labels = _resolve_idx_pair(args)
    ds = read_idx(images, labels)
    out = make_variant(ds, args.kind, args.seed)
    write_idx(out, args.out_images, args.out_labels)
    _write_manifest(_manifest("variants", args, [images, labels], {}),
                    args.out_images)
    print(f"wrote {args.out_images} / {args.out_labels} ({args.kind}, n={out.n})")
    return EXIT_OK


def cmd_hardness_demo(args) -> int:
    act = builtin_activation(args.activation)
    hs = random_halfspace_family(args.d, args.T, args.budget, args.seed)
    lam = args.margin_param if args.margin_param else select_margin_param(act, args.T)
    net = build_hardness_net(hs, act, lam)
    budget = required_budget(net)
    ok = validate(net, budget).ok
    report = brute_force_margins(net, hs)
    print(f"d={args.d} T={args.T} activation={args.activation} "
          f"margin_param={lam:.6g} weight_budget={budget:.6g} "
          f"budget_valid={ok}")
    print(f"min margin = {report.min_margin:.6f} (>= 1.0: {report.min_margin >= 1.0}), "
          f"hinge loss = {report.max_hinge_loss:.6g} over {report.n_inputs} inputs")
    if args.out_net:
        with open(args.out_net, "w") as f:
            f.write(net_to_json(net))
            f.write("\n")
        print(f"network: {args.out_net}")
    return EXIT_OK if report.min_margin >= 1.0 else EXIT_NUMERIC


def cmd_synth(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    sizes = {"train": args.train, "val": args.val, "test": args.test}
    t0 = time.time()
    for i, (split, size) in enumerate(sizes.items()):
        ds = make_corpus(size, seed=args.seed + i)
        ip, lp = _idx_pair(os.path.join(args.out_dir, f"basic-{split}"))
        write_idx(ds, ip, lp)
        print(f"wrote {ip} ({size} images)")
    _write_manifest(_manifest("synth", args, [], {"total": round(time.time() - t0, 3)}),
                    os.path.join(args.out_dir, "basic"))
    return EXIT_OK


def cmd_bench(args) -> int:
    if not args.data_dir:
        raise ValueError("--data-dir is required (or set RECKERNEL_DATA_DIR); "
                         "generate data with the synth command first")
    t0 = time.time()
    splits = {}
    for split, size in (("train", args.train), ("test", args.test), ("val", args.val)):
        ip, lp = _idx_pair(os.path.join(args.data_dir, f"basic-{split}"))
        if not os.path.exists(ip):
            raise FileNotFoundError(
                f"{ip} not found; run `reckernel synth --out-dir {args.data_dir}` first")
        ds = read_idx(ip, lp)
        if size > ds.n:
            raise ValueError(f"requested {size} {split} images but {ip} has {ds.n}")
        splits[split] = ds.subset(np.arange(size))

    steps = tuple(args.preprocess)
    rows = {}
    timings = {}
    capacity = {}
    q = builtin_activation("quadratic")
    for k in args.ks:
        capacity[k] = compute_F(q, k, 1.0).value.to_float()
    for variant in args.variants:
        tr, te, va = splits["train"], splits["test"], splits["val"]
        if variant != "basic":
            tr = make_variant(tr, variant, args.seed)
            te = make_variant(te, variant, args.seed + 1)
            va = make_variant(va, variant, args.seed + 2)
        ftr, fte, fva = (preprocess(d, steps) for d in (tr, te, va))
        keep = _usable_rows(ftr)
        X, y = ftr.X[keep], ftr.labels[keep]
        for k in args.ks:
            t1 = time.time()
            cfg = TrainConfig(depth=k, budget=args.B, loss=args.loss,
                              max_iters=args.max_iters)
            pred = train_multiclass(X, y, cfg)
            err = float((pred.classify_many(fte.X) != fte.labels).mean())
            val_err = float((pred.classify_many(fva.X) != fva.labels).mean())
            dt = time.time() - t1
            rows[(f"recursive kernel (k={k})", variant)] = err
            timings[(f"recursive kernel (k={k})", variant)] = dt
            print(f"[{variant}] kernel k={k}: test {100 * err:.2f}% "
                  f"val {100 * val_err:.2f}% ({dt:.1f}s)")
        t1 = time.time()
        W = train_logistic(X, y, LogisticConfig(n_classes=int(y.max()) + 1,
                                                iters=args.baseline_iters))
        err = float((predict_logistic(W, fte.X) != fte.labels).mean())
        dt = time.time() - t1
        rows[("logistic regression", variant)] = err
        timings[("logistic regression", variant)] = dt
        print(f"[{variant}] logistic: test {100 * err:.2f}% ({dt:.1f}s)")

    methods = ["logistic regression"] + [f"recursive kernel (k={k})" for k in args.ks]
    os.makedirs(args.out_dir, exist_ok=True)
    md_path = os.path.join(args.out_dir, "bench.md")
    csv_path = os.path.join(args.out_dir, "bench.csv")
    with open(md_path, "w") as f:
        f.write("# Desk-scale benchmark: reduced splits; error rates are not "
                "comparable to full-scale runs\n\n")
        f.write(f"n_train = {args.train}, n_test = {args.test}, B = {args.B}, "
                f"loss = {args.loss}, seed = {args.seed}\n\n")
        f.write("capacity reference (quadratic activation, L = 1): "
                + ", ".join(f"F({k}, 1) = {capacity[k]:.4g}" for k in args.ks)
                + f"; trained with B = {args.B} as a hyperparameter\n\n")
        f.write("| method | " + " | ".join(args.variants) + " | runtime (s) |\n")
        f.write("|---" * (len(args.variants) + 2) + "|\n")
        for m in methods:
            cells = [f"{100 * rows[(m, v)]:.2f}%" for v in args.variants]
            rt = sum(timings[(m, v)] for v in args.variants)
            f.write(f"| {m} | " + " | ".join(cells) + f" | {rt:.1f} |\n")
    with open(csv_path, "w") as f:
        f.write("method,variant,test_error,runtime_s\n")
        for (m, v), err in sorted(rows.items()):
            f.write(f"\"{m}\",{v},{err!r},{timings[(m, v)]:.3f}\n")
    _write_manifest(_manifest("bench", args, [], {"total": round(time.time() - t0, 3)}),
                    os.path.join(args.out_dir, "bench"))
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
        s.add_argument("--config", default=None,
                       help="key = value file presetting these options")
        return s

    s = sub("bound", cmd_bound, help="capacity value F(k, L) for an activation")
    s.add_argument("--activation", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--L", type=float, required=True)
    s.add_argument("--tol", type=float, default=1e-12)

    s = sub("gram", cmd_gram, help="export a kernel Gram matrix as binary")
    _add_idx_options(s)
    s.add_argument("--preprocess", type=_steps_list, default=("normalize",))
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--out", required=True)

    s = sub("train", cmd_train, help="train a one-vs-all kernel model")
    _add_idx_options(s)
    s.add_argument("--classes", type=int, default=None,
                   help="number of classes (default: infer from the labels)")
    s.add_argument("--preprocess", type=_steps_list, default=PREPROCESS_STEPS)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--B", type=float, default=100.0)
    s.add_argument("--loss", default="hinge")
    s.add_argument("--max-iters", type=int, default=5000)
    s.add_argument("--eta0", type=float, default=None)
    s.add_argument("--tol", type=float, default=1e-6)
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
    s.add_argument("--train", type=int, default=2000)
    s.add_argument("--val", type=int, default=500)
    s.add_argument("--test", type=int, default=2000)
    s.add_argument("--seed", type=int, default=7)

    s = sub("bench", cmd_bench, help="desk-scale benchmark table")
    s.add_argument("--data-dir", default=os.environ.get("RECKERNEL_DATA_DIR"))
    s.add_argument("--variants", type=_steps_list, default=("basic", "rotation"))
    s.add_argument("--train", type=int, default=2000)
    s.add_argument("--val", type=int, default=500)
    s.add_argument("--test", type=int, default=2000)
    s.add_argument("--ks", type=_int_list, default=(1, 4))
    s.add_argument("--B", type=float, default=100.0)
    s.add_argument("--loss", default="hinge")
    s.add_argument("--max-iters", type=int, default=5000)
    s.add_argument("--baseline-iters", type=int, default=400)
    s.add_argument("--preprocess", type=_steps_list, default=PREPROCESS_STEPS)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", default="results")

    return parser, subs.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    # specific families first: several of these are ValueError subclasses
    try:
        # presets become defaults: argparse converts string defaults with each
        # option's type, and a flag on the command line still wins
        subparsers[args.command].set_defaults(**_presets(args))
        args = parser.parse_args(argv)
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
