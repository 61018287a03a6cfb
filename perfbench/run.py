#!/usr/bin/env python3
"""Benchmark runner for reckernel: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload desk_fit --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up is repeated ``SETUP_REPEATS`` times and timed as
``setup_s``; the timed phase is then repeated until ``--seconds`` have
passed and ``wall_s`` is the median repetition.  With ``--trace 1`` set-up,
timed repetitions and verification record spans around every library call;
timed repetitions alternate between traced and untraced so that the tracing
overhead is measured, and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: two repetitions at least: outputs are compared across repetitions, and a
#: traced run needs one traced and one untraced repetition
MIN_REPS = 2
PINS = HERE / "pins.json"
#: span traces, and scratch files while a run lasts
OUT_DIR = ROOT / ".perfbench_out"
SEEDS = {"default": 0, "held_out": 104729}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "glyphs.make_corpus.busy_s": "s",
    "glyphs.make_corpus.glyphs": "count",
    "glyphs.make_corpus.ms_per_glyph": "ms",
    "data.idx.busy_s": "s",
    "data.idx.bytes": "bytes",
    "data.make_variant.busy_s": "s",
    "data.make_variant.rows": "count",
    "data.preprocess.busy_s": "s",
    "data.preprocess.rows": "count",
    "data.preprocess.ms_per_row": "ms",
    "data.preprocess.flagged_rows": "count",
    "kernel.gram.busy_s": "s",
    "kernel.gram.entries": "count",
    "kernel.gram.gflop_computed": "GFLOP",
    "solver.train_multiclass.busy_s": "s",
    "solver.train_multiclass.class_steps": "count",
    "solver.class_steps_per_s": "1/s",
    "solver.gemv_gb_per_s_computed": "GB/s",
    "solver.active_fraction": "fraction",
    "solver.constraint_use_max": "fraction",
    "solver.test_error": "fraction",
    "solver.classify_many.busy_s": "s",
    "solver.classify_many.rows": "count",
    "solver.classify_many.rows_per_s": "1/s",
    "solver.classify_many.rss_growth_mb": "MB",
    "solver.classify.busy_s": "s",
    "solver.classify.calls": "count",
    "solver.classify.ms_p50": "ms",
    "solver.classify.ms_p99": "ms",
    "baseline.train_logistic.busy_s": "s",
    "baseline.train_logistic.iters": "count",
    "baseline.predict_logistic.busy_s": "s",
    "baseline.test_error": "fraction",
    "activation.compute_F.busy_s": "s",
    "activation.compute_F.calls": "count",
    "activation.compute_F.terms_used": "count",
    "activation.check_shape.busy_s": "s",
    "activation.check_shape.points": "count",
    "network.build_hardness_net.busy_s": "s",
    "network.brute_force_margins.busy_s": "s",
    "network.brute_force_margins.inputs": "count",
    "network.brute_force_margins.us_per_input": "us",
    "network.embed_quadratic.busy_s": "s",
    **{f"{m}.{q}": "s" for m in ("glyphs", "data", "kernel", "solver", "baseline",
                                 "activation", "network") for q in ("busy_s", "self_s")},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


#: rates and per-item times: name -> (numerator, denominator, scale)
DERIVED = {
    "glyphs.make_corpus.ms_per_glyph":
        ("glyphs.make_corpus.busy_s", "glyphs.make_corpus.glyphs", 1e3),
    "data.preprocess.ms_per_row": ("data.preprocess.busy_s", "data.preprocess.rows", 1e3),
    "solver.class_steps_per_s":
        ("solver.train_multiclass.class_steps", "solver.train_multiclass.busy_s", 1.0),
    "solver.gemv_gb_per_s_computed":
        ("solver.train_multiclass.gemv_bytes", "solver.train_multiclass.busy_s", 1e-9),
    "solver.classify_many.rows_per_s":
        ("solver.classify_many.rows", "solver.classify_many.busy_s", 1.0),
    "network.brute_force_margins.us_per_input":
        ("network.brute_force_margins.busy_s", "network.brute_force_margins.inputs", 1e6),
}


def derived(m: dict) -> dict:
    """Rates and per-item times from the summed span figures; 0 where the
    layer was not called."""
    out = {}
    for name, (num, den, scale) in DERIVED.items():
        out[name] = scale * m[num] / m[den] if m.get(den, 0) > 0 else 0.0
    return out


def limit_blas_threads() -> int:
    """Keep BLAS threads at or below the cores this process may use; must
    run before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= ncpu
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(ncpu)
    return ncpu


def environment(ncpu: int, tracing: bool) -> dict:
    """What a result depends on besides the code: cores, versions, BLAS."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.split()[-1]}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"nproc": ncpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
            "tracing": tracing,
            "waiting": "not measured: one process, closed loop, no queue between layers"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "desk_fit", "tight_serve", "capacity"))
    ap.add_argument("--seed", type=int, default=SEEDS["default"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long pass for the smoke test")
    return ap.parse_args(argv)


def run(args, pins: dict) -> tuple[dict, list[str], list[float], list[float]]:
    """Set up, time and verify one workload.  Returns the result object, the
    failure messages, and the set-up and repetition times in seconds."""
    from spans import Bench, layer_metrics
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    bench = Bench()
    bench.tracing = bool(args.trace)
    setups, reps, metrics = [], [], {}
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for _ in range(SETUP_REPEATS):
            with bench.unit("setup") as u:
                state = wl.setup(bench, args.size, args.seed, str(workdir))
            setups.append(u["seconds"])
        first, records = None, []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 0
            bench.tracing = traced
            with bench.unit("rep") as u:
                out = wl.rep(bench, state)
            reps.append((traced, u["seconds"]))
            with bench.unit("check"):
                records.append(wl.check(bench, state, out, first, pins))
            first = out if first is None else first
            if time.perf_counter() - start >= args.seconds and len(reps) >= MIN_REPS:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.tracing = bool(args.trace)
        with bench.unit("verify"):
            extras = wl.verify(bench, state, out, records, pins)
    except Exception as e:  # reported as a failed operation, not a traceback
        if e is not bench.raised:  # raised outside a library call
            bench.attempted += 1
            bench.failed += 1
            bench.failures.append(f"benchmark raised {type(e).__name__}: {e}")
        return {"correct": False, "attempted": bench.attempted, "failed": bench.failed,
                "metrics": {}}, bench.failures, setups, [s for _, s in reps]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        traced_s = statistics.median(s for t, s in reps if t)
        plain_s = statistics.median(s for t, s in reps if not t)
        raw = layer_metrics(bench.spans)
        raw.update(derived(raw))
        raw.update(extras)
        raw["trace.wall_s"] = traced_s
        raw["trace.overhead_s"] = traced_s - plain_s
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": float(raw.get(name, 0.0)), "unit": unit}
        bench.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = {"wall_s": statistics.median(s for _, s in reps),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_mb}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    return result, bench.failures, setups, [s for _, s in reps]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "reckernel" / "__init__.py").is_file():
        print(f"error: no reckernel sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    ncpu = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    with open(PINS) as f:
        pins = json.load(f)

    result, failures, setups, rep_seconds = run(args, pins)
    print("env " + json.dumps(environment(ncpu, bool(args.trace)), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}")
    print("set-up seconds " + " ".join(f"{s:.4g}" for s in setups))
    print("repetition seconds " + " ".join(f"{s:.4g}" for s in rep_seconds))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for msg in failures:
        print(f"FAILED: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
