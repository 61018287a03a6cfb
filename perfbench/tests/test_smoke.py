"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q

Checks that every workload runs and emits every declared metric with its
unit, traced and untraced; that each output check fails when the output it
guards is wrong; and that the benchmark refuses to run without the sources.
"""

import argparse
import copy
import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from reckernel import activation, baseline, data, glyphs, kernel, network, solver  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

WORKLOADS = ("corpus", "desk_fit", "tight_serve", "capacity")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
with open(run.PINS) as f:
    PINS = json.load(f)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _run_inprocess(workload, pins=PINS, trace=0):
    args = argparse.Namespace(workload=workload, seed=run.SEEDS["default"], seconds=0.0,
                              trace=trace, size="tiny")
    result, failures, _, _ = run.run(args, pins)
    return result, failures


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "0", "--seconds", "0.2",
                    "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# each output check can fail
# ---------------------------------------------------------------------------

# the library functions as imported, for wrappers that call through
READ_IDX, PREPROCESS, GRAM = data.read_idx, data.preprocess, kernel.gram
TRAIN_MULTICLASS = solver.train_multiclass
SCORES_MANY = solver.OneVsAllPredictor.scores_many
CLASSIFY = solver.OneVsAllPredictor.classify
BRUTE_FORCE_MARGINS, FORWARD = network.brute_force_margins, network.forward
CHECK_SHAPE = activation.check_shape


def _pins(edit):
    p = copy.deepcopy(PINS)
    edit(p)
    return p


def _calls_differ(fn, change):
    """Wrap ``fn`` so that call ``i`` returns ``change(result, i)``."""
    calls = []

    def wrapped(*a, **k):
        calls.append(1)
        return change(fn(*a, **k), len(calls))
    return wrapped


def _wrong_digest(p):
    p["corpus_sha256"]["tiny"]["0"] = "0" * 64


def _bad_read(*a, **k):
    ds = READ_IDX(*a, **k)
    images = ds.images.copy()
    images[0, 14, 14] = 1.0 - images[0, 14, 14]
    return data.ImageDataset(images, ds.labels, ds.tag)


def _bad_preprocess(ds, steps):
    f = PREPROCESS(ds, steps)
    X = f.X.copy()
    X[0] *= 2.0
    return data.FeatureDataset(X, f.labels, f.fingerprint, f.flagged_rows)


def _asymmetric_gram(stack, X):
    G = GRAM(stack, X)
    e = G.entries.copy()
    e[0, 1] += 1e-3
    return kernel.GramMatrix(e, G.depth)


def _overbudget(X, labels, cfg, **kw):
    model = TRAIN_MULTICLASS(X, labels, cfg, **kw)
    return dataclasses.replace(model, alphas=model.alphas * 100.0)


def _nan_scores(self, Xe):
    s = SCORES_MANY(self, Xe).copy()
    s[0, 0] = np.nan
    return s


def _wrong_single(self, x):
    return (CLASSIFY(self, x) + 1) % len(self.classes)


def _low_margin(net, hs):
    return dataclasses.replace(BRUTE_FORCE_MARGINS(net, hs), min_margin=0.5)


def _bad_shape(act, grid, kind=None):
    rep = CHECK_SHAPE(act, grid, kind)
    return dataclasses.replace(rep, violations=((0.0, 1.0, 1.0, 0.0),))


def _off_forward(net, x):
    return FORWARD(net, x) + 1e-3


CASES = [
    # (workload, check, pins edit, (object, attribute, replacement))
    ("corpus", "corpus.sha256", _wrong_digest, None),
    ("corpus", "corpus.deterministic", None,
     (glyphs, "make_corpus", _calls_differ(glyphs.make_corpus,
                                           lambda ds, i: ds.subset(np.roll(np.arange(ds.n), i))))),
    ("corpus", "corpus.idx_values", None, (data, "read_idx", _bad_read)),
    ("corpus", "corpus.idx_bytes", None, (data, "read_idx", _bad_read)),
    ("corpus", "preprocess.rows", None, (data, "preprocess", _bad_preprocess)),
    ("desk_fit", "desk_fit.class_steps",
     lambda p: p["class_steps"]["tiny"].update(desk_fit=1), None),
    ("desk_fit", "desk_fit.gram_symmetric", None, (kernel, "gram", _asymmetric_gram)),
    ("desk_fit", "desk_fit.constraint", None, (solver, "train_multiclass", _overbudget)),
    ("desk_fit", "desk_fit.scores_finite", None,
     (solver.OneVsAllPredictor, "scores_many", _nan_scores)),
    ("desk_fit", "desk_fit.test_error",
     lambda p: p["test_error_ceiling"]["tiny"].update(desk_fit=0.0), None),
    ("desk_fit", "desk_fit.baseline.test_error",
     lambda p: p["test_error_ceiling"]["tiny"].update(baseline=0.0), None),
    ("desk_fit", "desk_fit.deterministic", None,
     (baseline, "predict_logistic", _calls_differ(baseline.predict_logistic,
                                                  lambda y, i: (y + i) % 10))),
    ("tight_serve", "tight_serve.class_steps",
     lambda p: p["class_steps"]["tiny"].update(tight_serve=1), None),
    ("tight_serve", "tight_serve.test_error",
     lambda p: p["test_error_ceiling"]["tiny"].update(tight_serve=0.0), None),
    ("tight_serve", "tight_serve.single_matches_bulk", None,
     (solver.OneVsAllPredictor, "classify", _wrong_single)),
    ("tight_serve", "tight_serve.deterministic", None,
     (solver.OneVsAllPredictor, "classify_many",
      _calls_differ(solver.OneVsAllPredictor.classify_many, lambda y, i: (y + i) % 10))),
    ("capacity", "capacity.F_values",
     lambda p: p["capacity_log10"].update({"quadratic/L=1/k=1": 0.0}), None),
    ("capacity", "capacity.hardness_margin", None,
     (network, "brute_force_margins", _low_margin)),
    ("capacity", "capacity.shape", None, (activation, "check_shape", _bad_shape)),
    ("capacity", "capacity.embedding", None, (network, "forward", _off_forward)),
]


@pytest.mark.parametrize("workload,check,edit,patch", CASES,
                         ids=[c[1] for c in CASES])
def test_output_check_can_fail(monkeypatch, workload, check, edit, patch):
    if patch is not None:
        monkeypatch.setattr(*patch)
    result, failures = _run_inprocess(workload, _pins(edit) if edit else PINS)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(msg.startswith(f"check {check} failed") for msg in failures), failures


def test_library_error_counts_as_failed_operation(monkeypatch):
    def broken(*a, **k):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(glyphs, "make_corpus", broken)
    result, failures = _run_inprocess("corpus")
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert failures == ["glyphs.make_corpus raised ValueError: broken on purpose"]
