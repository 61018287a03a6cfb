import csv
import json
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from reckernel import cli
from reckernel.cli import main
from reckernel.data import ImageDataset, preprocess, read_idx, write_idx
from reckernel.glyphs import make_corpus
from reckernel.kernel import read_gram


def one_hot_dataset(tmp_path, n=3, per_class=1):
    """Images with disjoint single bright pixels: after normalization the
    feature rows are exactly orthonormal, one class per pixel position."""
    n_total = n * per_class
    imgs = np.zeros((n_total, 28, 28))
    labels = np.zeros(n_total, dtype=int)
    for i in range(n_total):
        c = i % n
        imgs[i, 5 + c, 5 + (i // n)] = 1.0
        labels[i] = c
    ds = ImageDataset(imgs, labels)
    ip, lp = tmp_path / "toy-i.idx", tmp_path / "toy-l.idx"
    write_idx(ds, ip, lp)
    return str(ip), str(lp)


def idx_flags(prefix):
    """``--images``/``--labels`` for the pair that ``synth`` writes as
    PREFIX-images.idx and PREFIX-labels.idx."""
    return ["--images", f"{prefix}-images.idx", "--labels", f"{prefix}-labels.idx"]


#: each subcommand's option strings, help aside: adding or dropping an option
#: changes this table
CLI_SURFACE = {
    "bound": {"--activation", "--k", "--L"},
    "gram": {"--images", "--labels", "--preprocess", "--k", "--limit", "--out"},
    "train": {"--images", "--labels", "--preprocess", "--k", "--B", "--loss", "--max-iters",
              "--eta0", "--tol", "--limit", "--out-model", "--from-manifest"},
    "eval": {"--model", "--images", "--labels", "--out"},
    "variants": {"--images", "--labels", "--kind", "--seed", "--out-images", "--out-labels"},
    "hardness-demo": {"--d", "--T", "--budget", "--activation", "--margin-param", "--seed",
                      "--out-net"},
    "synth": {"--out-dir", "--train", "--val", "--test", "--seed"},
    "bench": {"--data-dir", "--variants", "--train", "--val", "--test", "--ks", "--B",
              "--loss", "--max-iters", "--baseline-iters", "--preprocess", "--seed",
              "--out-dir"},
}


def test_each_subcommand_takes_exactly_its_options():
    _, subparsers = cli.build_parser()
    got = {name: {o for a in p._actions if a.dest != "help" for o in a.option_strings}
           for name, p in subparsers.items()}
    assert got == CLI_SURFACE


def _commands(block):
    """The ``reckernel`` lines of a bash block, continuations joined, split
    into argv lists without their comments."""
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("reckernel ")]


def test_readme_cli_examples_parse():
    # parsed, not run: an option deleted from the CLI fails here, not in a reader's shell
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```bash\n")[1:]]
    cli_block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    parser, subparsers = cli.build_parser()
    assert {argv[1] for argv in _commands(cli_block)} == set(subparsers)
    for argv in (argv for block in blocks for argv in _commands(block)):
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_bound_quadratic(capsys):
    assert main(["bound", "--activation", "quadratic", "--k", "1", "--L", "1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["value"] == pytest.approx(2 * np.sqrt(2), rel=1e-12)


def test_bound_saturating_respects_closed_form(capsys):
    assert main(["bound", "--activation", "shifted_erf", "--k", "1", "--L", "3"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    lam = 3.0
    bound = 3.0 * np.sqrt(0.5 + 4 * lam ** 2 *
                          (1 + 3 * np.e * np.pi * lam ** 2 * np.exp(4 * np.pi * lam ** 2)))
    assert 10 ** (payload["log10_value"] - np.log10(bound)) <= 1.0


def test_bound_unknown_activation_exits_2(capsys):
    assert main(["bound", "--activation", "swish", "--k", "1", "--L", "1"]) == 2
    assert "supported" in capsys.readouterr().err


def test_bound_divergence_exits_4_with_level(capsys):
    assert main(["bound", "--activation", "shifted_erf", "--k", "2", "--L", "3"]) == 4
    assert "level 2" in capsys.readouterr().err


def test_bound_divergence_names_the_level_once(capsys):
    assert main(["bound", "--activation", "shifted_erf", "--k", "2", "--L", "3"]) == 4
    err = capsys.readouterr().err
    assert err.count("level 2") == 1
    assert "(level" not in err


@pytest.mark.parametrize("extra", [["--L", "nan"], ["--L", "inf"]])
def test_bound_non_finite_input_exits_2(extra, capsys):
    # not exit 4: the series did not diverge, the input was bad
    assert main(["bound", "--activation", "shifted_erf", "--k", "2"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_gram_export_decodes(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3)
    out = tmp_path / "g.bin"
    assert main(["gram", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--k", "1", "--limit", "2", "--out", str(out)]) == 0
    G, depth = read_gram(out)
    assert depth == 1
    assert G.tolist() == [[1.0, 0.5], [0.5, 1.0]]
    assert (tmp_path / "g.bin.manifest.json").exists()


def test_gram_refuses_a_negative_depth_before_reading(tmp_path, capsys):
    # it used to read and preprocess the images first: exit 3 on a missing file
    out = tmp_path / "g.bin"
    assert main(["gram", "--images", str(tmp_path / "missing-i.idx"),
                 "--labels", str(tmp_path / "missing-l.idx"), "--k", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --k -1: depth must be nonnegative\n"
    assert not out.exists()


def test_train_eval_toy_three_classes(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    model = tmp_path / "model.json"
    rc = main(["train", "--images", ip, "--labels", lp,
               "--preprocess", "normalize", "--k", "1", "--B", "10",
               "--max-iters", "300", "--out-model", str(model)])
    assert rc == 0
    assert "train error 0.00%" in capsys.readouterr().out

    report = tmp_path / "eval.csv"
    rc = main(["eval", "--model", str(model), "--images", ip, "--labels", lp,
               "--out", str(report)])
    assert rc == 0
    assert "error=0.00%" in capsys.readouterr().out

    # confusion rows sum to the class counts
    rows = [l for l in report.read_text().splitlines() if l.startswith("confusion_row")]
    ds = read_idx(ip, lp)
    for line in rows:
        c = int(line.split(",")[1])
        counts = [int(v) for v in line.split('"')[1].split(",")]
        assert sum(counts) == int((ds.labels == c).sum())


def test_train_byte_identical_reruns(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["--images", ip, "--labels", lp, "--preprocess", "normalize",
            "--k", "1", "--B", "5", "--max-iters", "200"]
    assert main(["train", *args, "--out-model", str(m1)]) == 0
    assert main(["train", *args, "--out-model", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_train_replay_from_manifest(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["train", "--images", ip, "--labels", lp,
                 "--preprocess", "normalize", "--k", "2", "--B", "7",
                 "--max-iters", "150", "--out-model", str(m1)]) == 0
    assert main(["train", "--images", ip, "--labels", lp,
                 "--from-manifest", str(m1) + ".manifest.json",
                 "--out-model", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert json.loads(m2.read_text())["depth"] == 2


def test_train_replays_a_manifest_that_records_a_seed(tmp_path, capsys):
    # manifests written while train still took --seed carry it in their config
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--k", "2", "--B", "7", "--max-iters", "150", "--out-model", str(m1)]) == 0
    manifest = tmp_path / "m1.json.manifest.json"
    stored = json.loads(manifest.read_text())
    assert "seed" not in stored["config"]
    stored["config"]["seed"] = 5
    manifest.write_text(json.dumps(stored))
    assert main(["train", "--images", ip, "--labels", lp, "--from-manifest", str(manifest),
                 "--out-model", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


@pytest.mark.parametrize("text", ["{}", '{"config": 5}', '{"config": {'],
                         ids=["no-config", "config-not-object", "not-json"])
def test_train_from_a_malformed_manifest_exits_3(text, tmp_path, capsys):
    manifest = tmp_path / "m.json.manifest.json"
    manifest.write_text(text)
    rc = main(["train", "--from-manifest", str(manifest),
               "--out-model", str(tmp_path / "o.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"data error: {manifest}: ")
    assert not (tmp_path / "o.json").exists()


def test_train_squared_loss_overflow_exits_4(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    rc = main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
               "--loss", "squared", "--B", "1e200", "--max-iters", "10",
               "--out-model", str(tmp_path / "m.json")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("numeric failure:")


@pytest.mark.parametrize("flag, field, value", [
    ("--eta0", "eta0", "-1"), ("--eta0", "eta0", "0"), ("--eta0", "eta0", "nan"),
    # a NaN tolerance used to switch the window stop off without a word
    ("--tol", "tolerance", "nan")], ids=["-1", "0", "nan", "tol-nan"])
def test_train_refuses_a_step_size_that_is_not_positive(flag, field, value, tmp_path, capsys):
    # -1 used to take ascent steps and exit 0, nan to exit 4 mid-solve
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    rc = main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
               f"{flag}={value}", "--max-iters", "10", "--out-model", str(tmp_path / "m.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {field} must be positive, got {float(value)}\n"
    assert not (tmp_path / "m.json").exists()


def test_train_records_each_class_solve(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    model = tmp_path / "m.json"
    assert main(["train", "--images", ip, "--labels", lp,
                 "--preprocess", "normalize", "--k", "1", "--B", "5",
                 "--max-iters", "400", "--out-model", str(model)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "m.json.metrics.csv").read_text().splitlines()[1:]]
    objective = [(int(c), int(t)) for kind, c, t, _ in rows if kind == "objective"]
    assert objective == sorted(objective) and {c for c, _ in objective} == {0, 1, 2}
    solve = json.loads((tmp_path / "m.json.manifest.json").read_text())["solve"]
    assert [s["class"] for s in solve] == [0, 1, 2]
    for s in solve:
        assert s["stop_reason"] in ("window", "max_iters", "zero_subgradient")
        assert 1 <= s["iterations"] <= 400 and 0.0 <= s["constraint_use"] <= 1.0
        per_class = {kind: value for kind, c, _, value in rows if c == str(s["class"])
                     and kind != "objective"}
        assert per_class == {k: str(s[k]) for k in ("iterations", "stop_reason",
                                                     "best_objective", "constraint_use")}
    assert "solve" not in json.loads(model.read_text())


def test_train_zero_budget_zero_alphas(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=2, per_class=2)
    model = tmp_path / "m.json"
    assert main(["train", "--images", ip, "--labels", lp,
                 "--preprocess", "normalize", "--B", "0",
                 "--max-iters", "50", "--out-model", str(model)]) == 0
    payload = json.loads(model.read_text())
    assert all(v == 0.0 for row in payload["alphas"] for v in row)


def test_eval_empty_set_exits_3(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=2, per_class=2)
    model = tmp_path / "m.json"
    main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
          "--B", "1", "--max-iters", "50", "--out-model", str(model)])
    empty = ImageDataset(np.zeros((0, 28, 28)), np.zeros(0, dtype=int))
    write_idx(empty, tmp_path / "e-i.idx", tmp_path / "e-l.idx")
    rc = main(["eval", "--model", str(model), "--images", str(tmp_path / "e-i.idx"),
               "--labels", str(tmp_path / "e-l.idx")])
    assert rc == 3


def test_eval_out_of_range_label_exits_3(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    model = tmp_path / "m.json"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "1", "--max-iters", "50", "--out-model", str(model)]) == 0
    ds = read_idx(ip, lp)
    labels = ds.labels.copy()
    labels[4] = 12
    write_idx(ImageDataset(ds.images, labels), tmp_path / "x-i.idx", tmp_path / "x-l.idx")
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--images", str(tmp_path / "x-i.idx"),
               "--labels", str(tmp_path / "x-l.idx")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "label 12 at row 4" in err and "0..2" in err
    assert "Traceback" not in err


def test_train_with_a_class_missing_exits_2(tmp_path, capsys):
    # labels {0, 2}: class 1 lies below the inferred count and never occurs
    imgs = np.zeros((4, 28, 28))
    for i in range(4):
        imgs[i, 5 + i, 5] = 1.0
    write_idx(ImageDataset(imgs, np.array([0, 2, 0, 2])), tmp_path / "d-i.idx",
              tmp_path / "d-l.idx")
    model = tmp_path / "m.json"
    assert main(["train", "--images", str(tmp_path / "d-i.idx"),
                 "--labels", str(tmp_path / "d-l.idx"), "--out-model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "classes [1] never occur" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d-i.idx", "d-l.idx"]


def _toy_model(tmp_path):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    model = tmp_path / "m.json"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "1", "--max-iters", "50", "--out-model", str(model)]) == 0
    return ip, lp, model


@pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
def test_eval_refuses_a_changed_support_set(which, tmp_path, capsys):
    ip, lp, model = _toy_model(tmp_path)
    path = (ip, lp)[which]
    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 1  # one pixel or one label, still a valid IDX file
    open(path, "wb").write(bytes(raw))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--images", ip, "--labels", lp]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: SHA-256 differs")


def test_eval_refuses_a_model_without_support_hashes(tmp_path, capsys):
    ip, lp, model = _toy_model(tmp_path)
    payload = json.loads(model.read_text())
    assert json.loads((tmp_path / "m.json.manifest.json").read_text())["inputs"] == {
        ip: payload["support"]["images_sha256"], lp: payload["support"]["labels_sha256"]}
    del payload["support"]["labels_sha256"]
    model.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--images", ip, "--labels", lp]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {lp}: the model records no SHA-256")


@pytest.mark.parametrize("row", [999, 6, -1, 2.9])
def test_eval_refuses_a_support_row_outside_the_file(row, tmp_path, capsys):
    ip, lp, model = _toy_model(tmp_path)  # 6 rows
    payload = json.loads(model.read_text())
    payload["support"]["rows"][1] = row
    model.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--images", ip, "--labels", lp]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {ip}: the model's support row {row} is not an index "
                          "into the file's 6 rows")


def test_eval_finds_the_support_files_from_another_directory(tmp_path, capsys, monkeypatch):
    (tmp_path / "data").mkdir()
    (tmp_path / "sub").mkdir()
    one_hot_dataset(tmp_path / "data", n=3, per_class=2)
    monkeypatch.chdir(tmp_path)
    ip, lp = "data/toy-i.idx", "data/toy-l.idx"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "1", "--max-iters", "50", "--out-model", "m.json"]) == 0
    monkeypatch.chdir(tmp_path / "sub")
    assert main(["eval", "--model", "../m.json", "--images", "../" + ip,
                 "--labels", "../" + lp]) == 0
    # a model that holds paths relative to its training directory loads from there
    payload = json.loads((tmp_path / "m.json").read_text())
    payload["support"].update(images=ip, labels=lp)
    (tmp_path / "old.json").write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--model", "old.json", "--images", ip, "--labels", lp]) == 0


def test_eval_refuses_images_of_another_size_with_exit_3(tmp_path, capsys):
    _, _, model = _toy_model(tmp_path)  # 28x28 support images
    small = ImageDataset(np.zeros((4, 20, 20)), np.arange(4) % 3)
    ip, lp = tmp_path / "s-i.idx", tmp_path / "s-l.idx"
    write_idx(small, ip, lp)
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--images", str(ip), "--labels", str(lp)]) == 3
    assert capsys.readouterr().err == (f"data error: {ip}: images are 20x20, but the model's "
                                       "support images are 28x28\n")


# each case is the file's bytes, or an edit of a trained model's JSON payload
MALFORMED_MODELS = {
    "not_json": b"model {",
    "not_utf8": b'{"format": "\xff"}',
    "json_list": b"[1, 2]",
    "no_support": lambda m: m.pop("support"),
    "alphas_lost_rows": lambda m: m.update(alphas=m["alphas"][:3]),
    "alphas_rows_too_short": lambda m: m.update(alphas=[a[:-1] for a in m["alphas"]]),
    "classes_cut": lambda m: m.update(classes=m["classes"][:4]),
    "negative_depth": lambda m: m.update(depth=-1),
    "unknown_step": lambda m: m["support"].update(preprocessing=["blur"]),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_eval_names_a_malformed_model_with_exit_3(case, tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=10, per_class=2)
    model = tmp_path / "m.json"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "1", "--max-iters", "20", "--out-model", str(model)]) == 0
    edit = MALFORMED_MODELS[case]
    if isinstance(edit, bytes):
        model.write_bytes(edit)
    else:
        payload = json.loads(model.read_text())
        edit(payload)
        model.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--images", ip, "--labels", lp]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {model}: ")


def test_train_refuses_deskew_after_center_with_exit_2(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    rc = main(["train", "--images", ip, "--labels", lp, "--preprocess",
               "center,deskew,normalize", "--out-model", str(tmp_path / "m.json")])
    assert rc == 2
    assert "deskew must come before center, got center,deskew,normalize" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_synth_with_an_empty_split(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path), "--train", "20", "--val", "0",
                 "--test", "10"]) == 0
    val = read_idx(tmp_path / "basic-val-images.idx", tmp_path / "basic-val-labels.idx")
    assert val.images.shape == (0, 28, 28) and val.labels.shape == (0,)
    assert read_idx(tmp_path / "basic-train-images.idx",
                    tmp_path / "basic-train-labels.idx").n == 20


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_synth_refuses_a_negative_split_before_making_its_directory(split, tmp_path, capsys):
    # it used to create --out-dir, then exit 2 with numpy's "negative dimensions"
    out = tmp_path / "out"
    assert main(["synth", "--out-dir", str(out), f"--{split}", "-1"]) == 2
    assert capsys.readouterr().err == f"error: --{split} -1: must be a nonnegative integer\n"
    assert not out.exists()


def test_eval_preprocesses_only_the_support_rows(tmp_path, capsys, monkeypatch):
    # 40 glyphs, a zero image among the first 12 (flagged, so dropped), and a
    # model trained on those 12 with the full deskew/center/normalize pipeline
    corpus = make_corpus(40, seed=31)
    images = corpus.images.copy()
    images[10] = 0.0
    ip, lp = tmp_path / "g-i.idx", tmp_path / "g-l.idx"
    write_idx(ImageDataset(images, np.arange(40) % 10), ip, lp)
    model = tmp_path / "m.json"
    assert main(["train", "--images", str(ip), "--labels", str(lp), "--limit", "12",
                 "--max-iters", "20", "--out-model", str(model)]) == 0
    sup = json.loads(model.read_text())["support"]
    assert len(sup["rows"]) == 11 and 10 not in sup["rows"]
    seen = []

    def counting(ds, steps):
        seen.append(ds.n)
        return preprocess(ds, steps)

    monkeypatch.setattr(cli, "preprocess", counting)
    pred, steps, _ = cli._load_model(model)
    assert seen == [11]
    # the features of preprocessing the whole file, then selecting the rows
    whole = preprocess(read_idx(ip, lp), steps).X[np.array(sup["rows"])]
    assert pred.support.tobytes() == whole.tobytes()


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(["eval", "--model", str(tmp_path / "nope.json"),
               "--images", "x", "--labels", "y"])
    assert rc == 3


@pytest.mark.parametrize("command", [
    ["train", "--out-model", "m.json"],
    ["variants", "--kind", "rotation", "--out-images", "o-i.idx", "--out-labels", "o-l.idx"],
], ids=["train", "variants"])
def test_images_without_rows_or_columns_exit_3_naming_the_file(command, tmp_path,
                                                               monkeypatch, capsys):
    # a well-formed 3 x 0 x 4 header used to pass for a usage error, exit 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z-images.idx").write_bytes(struct.pack(">4I", 0x803, 3, 0, 4))
    (tmp_path / "z-labels.idx").write_bytes(struct.pack(">2I", 0x801, 3) + bytes(3))
    assert main([*command, "--images", "z-images.idx", "--labels", "z-labels.idx"]) == 3
    assert capsys.readouterr().err.startswith("data error: z-images.idx: images are 0x4")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["z-images.idx", "z-labels.idx"]


# d = 16 is the batched check over 2^16 inputs in 64 margin blocks
@pytest.mark.parametrize("d, T", [(6, 2), (16, 3)])
def test_hardness_demo_output(d, T, tmp_path, capsys):
    rc = main(["hardness-demo", "--d", str(d), "--T", str(T), "--seed", "1",
               "--out-net", str(tmp_path / "net.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"hinge loss = 0 over {2 ** d} inputs" in out
    assert ">= 1.0: True" in out
    from reckernel.network import net_from_json
    net = net_from_json((tmp_path / "net.json").read_text())
    assert net.input_dim == d + 1


def test_hardness_demo_overflowing_margin_param_exits_4(capsys):
    # it used to print weight_budget=nan and min margin = inf, and exit 0
    rc = main(["hardness-demo", "--d", "6", "--T", "2", "--seed", "1",
               "--margin-param", "1e308"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: margin parameter 1e+308 overflows")


def test_hardness_demo_budget_fits_a_double(capsys):
    # the l2 norms' squares overflow, the norms do not: it used to print
    # weight_budget=inf
    rc = main(["hardness-demo", "--d", "6", "--T", "2", "--seed", "1",
               "--margin-param", "1e306"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "weight_budget=2.32164e+307" in out
    assert "inf" not in out


@pytest.mark.parametrize("margin_param, err", [
    # the l2 norm itself overflows: it used to print weight_budget=inf and exit 0
    ("1e307", "numeric failure: layer 0 row 0 has an l2 norm above the largest double"),
    # an explicit 0 used to be replaced by the automatic value
    ("0", "numeric failure: margin parameter 0 does not saturate"),
    # NaN used to pass the saturation check and then overflow the weights
    ("nan", "numeric failure: margin parameter nan does not saturate"),
])
def test_hardness_demo_bad_margin_param_exits_4(capsys, margin_param, err):
    rc = main(["hardness-demo", "--d", "6", "--T", "2", "--seed", "1",
               "--margin-param", margin_param])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(err)


def test_hardness_demo_refuses_zero_halfspaces(capsys):
    assert main(["hardness-demo", "--d", "6", "--T", "0"]) == 2
    assert capsys.readouterr().err == "error: need d >= 1 and T >= 1 halfspaces, got d=6, T=0\n"


@pytest.mark.parametrize("kind", ["rotation", "background_rotation"])
def test_variants_command_round_trip(kind, tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path), "--train", "30", "--val", "0",
                 "--test", "0"]) == 0
    basic, out = str(tmp_path / "basic-train"), str(tmp_path / kind)
    assert main(["variants", *idx_flags(basic), "--kind", kind, "--seed", "3",
                 "--out-images", out + "-images.idx", "--out-labels", out + "-labels.idx"]) == 0
    back = read_idx(out + "-images.idx", out + "-labels.idx")
    orig = read_idx(basic + "-images.idx", basic + "-labels.idx")
    assert np.array_equal(back.labels, orig.labels)
    # the variant trains and evaluates through the default deskew/center/normalize pipeline
    model = str(tmp_path / "m.json")
    assert main(["train", *idx_flags(out), "--max-iters", "50", "--out-model", model]) == 0
    assert main(["eval", "--model", model, *idx_flags(out)]) == 0


def test_variants_manifest_records_time_and_memory(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path), "--train", "30", "--val", "0",
                 "--test", "0"]) == 0
    out = str(tmp_path / "bg")
    assert main(["variants", *idx_flags(tmp_path / "basic-train"), "--kind", "background",
                 "--out-images", out + "-images.idx", "--out-labels", out + "-labels.idx"]) == 0
    manifest = json.loads((tmp_path / "bg-images.idx.manifest.json").read_text())
    assert set(manifest["timings_s"]) == {"total"} and manifest["timings_s"]["total"] >= 0
    assert manifest["peak_rss_mb"] > 0


@pytest.mark.parametrize("command", [
    ["synth", "--out-dir", "{d}/out"],
    ["variants", "--images", "{d}/basic-train-images.idx",
     "--labels", "{d}/basic-train-labels.idx", "--kind", "rotation",
     "--out-images", "{d}/r-i.idx", "--out-labels", "{d}/r-l.idx"],
    ["hardness-demo", "--d", "6", "--T", "2", "--out-net", "{d}/net.json"],
    ["bench", "--data-dir", "{d}", "--train", "60", "--val", "10", "--test", "30",
     "--ks", "1", "--variants", "basic,rotation", "--max-iters", "30",
     "--baseline-iters", "5", "--out-dir", "{d}/results"]],
    ids=["synth", "variants", "hardness-demo", "bench"])
def test_a_negative_seed_is_refused_before_any_work(command, tmp_path, capsys):
    # numpy used to refuse it mid-command, in a message that named no flag;
    # bench first fitted the whole basic variant
    assert main(["synth", "--out-dir", str(tmp_path), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([a.format(d=tmp_path) for a in command] + ["--seed=-1"]) == 2
    assert capsys.readouterr() == ("", "error: --seed -1: must be a nonnegative integer\n")
    assert sorted(tmp_path.iterdir()) == before


def test_synth_and_bench_smoke(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--train", "120",
                 "--val", "30", "--test", "120", "--seed", "5"]) == 0
    results = tmp_path / "results"
    assert main(["bench", "--data-dir", str(data), "--train", "120",
                 "--val", "30", "--test", "120", "--max-iters", "400",
                 "--variants", "basic", "--out-dir", str(results)]) == 0
    md = (results / "bench.md").read_text()
    assert "desk" in md.lower()
    assert "logistic regression" in md
    csv = (results / "bench.csv").read_text()
    assert "recursive kernel (k=1)" in csv


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory):
    """The output directory of one small bench run: depths 1 and 2 on the
    basic and rotation variants."""
    tmp = tmp_path_factory.mktemp("bench")
    data, results = tmp / "data", tmp / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks", "1,2", "--variants", "basic,rotation",
                 "--max-iters", "30", "--baseline-iters", "5", "--out-dir", str(results)]) == 0
    return results


def test_bench_manifest_records_what_each_fit_used(bench_results):
    results = bench_results
    manifest = json.loads((results / "bench.manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0
    assert manifest["nproc"] >= 1
    assert set(manifest["blas"]) == {"name", "version"}
    runs = manifest["runs"]
    kernel = [r for r in runs if r["method"] != "logistic regression"]
    assert [(r["variant"], r["k"]) for r in kernel] == [
        ("basic", 1), ("basic", 2), ("rotation", 1), ("rotation", 2)]
    for r in kernel:
        assert set(r["seconds"]) == {"preprocess", "train", "classify"}
        assert all(v >= 0 for v in r["seconds"].values())
        assert [s["class"] for s in r["solve"]] == list(range(10))
        for s in r["solve"]:
            assert set(s) == {"class", "iterations", "stop_reason", "best_objective",
                              "constraint_use"}
            assert 1 <= s["iterations"] <= 30
    # each variant's baseline fit comes first; it shares the variant's preprocess time
    baseline = [r for r in runs if r["method"] == "logistic regression"]
    assert runs == [baseline[0], *kernel[:2], baseline[1], *kernel[2:]]
    for r, variant in zip(baseline, ("basic", "rotation")):
        assert (r["variant"], r["k"], r["solve"]) == (variant, None, [])
        assert set(r["seconds"]) == {"preprocess", "train", "classify"}
        assert all(v >= 0 for v in r["seconds"].values())
        assert all(r["seconds"]["preprocess"] == k["seconds"]["preprocess"]
                   for k in kernel if k["variant"] == variant)


def test_every_manifest_carries_the_same_top_level_keys(bench_results, tmp_path):
    data = bench_results.parent / "data"
    pair = idx_flags(data / "basic-train")
    assert main(["gram", *pair, "--limit", "5", "--out", str(tmp_path / "g.bin")]) == 0
    assert main(["train", *pair, "--max-iters", "5", "--out-model", str(tmp_path / "m.json")]) == 0
    assert main(["variants", *pair, "--kind", "rotation", "--out-images",
                 str(tmp_path / "r-i.idx"), "--out-labels", str(tmp_path / "r-l.idx")]) == 0
    manifests = {name: json.loads(Path(f"{path}.manifest.json").read_text()) for name, path in (
        ("synth", data / "basic"), ("gram", tmp_path / "g.bin"), ("train", tmp_path / "m.json"),
        ("variants", tmp_path / "r-i.idx"), ("bench", bench_results / "bench"))}
    common = {"command", "config", "seed", "version", "inputs", "timings_s", "nproc", "blas",
              "peak_rss_mb"}
    extra = {"train": {"solve"}, "bench": {"runs"}}
    for name, manifest in manifests.items():
        assert manifest["command"] == name
        assert set(manifest) == common | extra.get(name, set()), name
        assert manifest["nproc"] >= 1 and manifest["peak_rss_mb"] > 0
        assert set(manifest["blas"]) == {"name", "version"}


def test_bench_table_csv_and_manifest_agree(bench_results):
    results = bench_results
    runs = json.loads((results / "bench.manifest.json").read_text())["runs"]
    for r in runs:
        assert 0 <= r["test_error"] <= 1 and 0 <= r["val_error"] <= 1
    # every variant has exactly one baseline record
    baseline = [r for r in runs if r["method"] == "logistic regression"]
    assert sorted(r["variant"] for r in baseline) == ["basic", "rotation"]
    for r in baseline:
        assert r["k"] is None and r["solve"] == []
        assert set(r["seconds"]) == {"preprocess", "train", "classify"}
    # each table cell is 100 * test_error of its record
    lines = (results / "bench.md").read_text().splitlines()
    header = lines.index("| method | basic | rotation | runtime (s) |")
    table = [line.strip("|").split(" | ") for line in lines[header + 2:]]
    assert [row[0].strip() for row in table] == [
        "logistic regression", "recursive kernel (k=1)", "recursive kernel (k=2)"]
    for method, *cells, _ in table:
        mine = [r for r in runs if r["method"] == method.strip()]
        assert [r["variant"] for r in mine] == ["basic", "rotation"]
        assert [c.strip() for c in cells] == [f"{100 * r['test_error']:.2f}%" for r in mine]
    # the CSV holds the manifest's errors, one row per record, sorted by (method, variant)
    rows = list(csv.DictReader((results / "bench.csv").open()))
    assert list(rows[0]) == ["method", "variant", "test_error", "runtime_s", "val_error"]
    by_key = {(r["method"], r["variant"]): r for r in runs}
    assert [(row["method"], row["variant"]) for row in rows] == sorted(by_key)
    assert len(rows) == len(runs)
    for row in rows:
        r = by_key[(row["method"], row["variant"])]
        assert float(row["test_error"]) == r["test_error"]
        assert float(row["val_error"]) == r["val_error"]
        assert float(row["runtime_s"]) == pytest.approx(
            r["seconds"]["train"] + r["seconds"]["classify"], abs=1e-9)


@pytest.mark.parametrize("flag, value, message", [
    ("--test", "0", "--test 0: the test split needs 1 to 30 images"),
    ("--val", "0", "--val 0: the val split needs 1 to 10 images"),
    ("--variants", "", "--variants must name at least one variant"),
    # an empty --ks used to write an empty capacity line and exit 0
    ("--ks", "", "--ks must name at least one depth")])
def test_bench_refuses_an_empty_split(flag, value, message, tmp_path, capsys):
    # an empty test or validation split used to score nan% and exit 0
    data, results = tmp_path / "data", tmp_path / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    capsys.readouterr()
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks", "1", "--variants", "basic", "--max-iters", "30",
                 "--out-dir", str(results), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not results.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--ks", "1,4,1", "--ks lists 1 more than once"),
    ("--variants", "basic,rotation,basic", "--variants lists basic more than once")])
def test_bench_refuses_a_repeated_value(flag, value, message, tmp_path, capsys):
    # a repeated depth used to be fitted twice, into two identical table and CSV rows
    data, results = tmp_path / "data", tmp_path / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    capsys.readouterr()
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks", "1", "--variants", "basic", "--max-iters", "30",
                 "--out-dir", str(results), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not results.exists()


def test_bench_refuses_a_negative_depth_before_any_fit(tmp_path, capsys):
    # a negative depth used to be refused only at its fit, after the
    # variant's preprocessing and logistic baseline had run and printed
    data, results = tmp_path / "data", tmp_path / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    capsys.readouterr()
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks=-1", "--variants", "basic,rotation",
                 "--max-iters", "30", "--baseline-iters", "5",
                 "--out-dir", str(results)]) == 2
    out, err = capsys.readouterr()
    assert "logistic regression" not in out
    assert err == "error: --ks -1: depth must be nonnegative\n"
    assert not results.exists()


def test_bench_refuses_an_unknown_variant_before_any_fit(tmp_path, capsys):
    # a misspelt variant used to be refused only at its turn, after every
    # variant before it had been fitted and printed
    data, results = tmp_path / "data", tmp_path / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    capsys.readouterr()
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks", "1", "--variants", "basic,rotaton",
                 "--max-iters", "30", "--baseline-iters", "5",
                 "--out-dir", str(results)]) == 2
    assert capsys.readouterr() == ("", "error: --variants rotaton: not a variant; supported: "
                                       "basic, rotation, background, background_rotation\n")
    assert not (results / "bench.md").exists()


def test_bench_takes_its_data_dir_from_the_flag_alone(tmp_path, monkeypatch, capsys):
    # an environment variable used to be a second way to set --data-dir
    assert main(["synth", "--out-dir", str(tmp_path), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RECKERNEL_DATA_DIR", str(tmp_path))
    assert main(["bench", "--out-dir", str(tmp_path / "results")]) == 2
    assert capsys.readouterr() == (
        "", "error: --data-dir is required; generate data with the synth command first\n")
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("flag, value", [
    ("--B", "-1"), ("--B", "nan"), ("--loss", "bogus"), ("--max-iters", "0"),
    ("--baseline-iters", "0"), ("--baseline-iters", "-5")])
def test_bench_refuses_a_bad_config_before_any_fit(flag, value, tmp_path, capsys):
    # these used to be refused only at the first kernel fit, after the logistic
    # baseline had run and printed; a baseline of no steps scored every row as 0
    data, results = tmp_path / "data", tmp_path / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    capsys.readouterr()
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks", "1", "--variants", "basic,rotation",
                 "--max-iters", "30", "--baseline-iters", "5",
                 "--out-dir", str(results), f"{flag}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not results.exists()


def test_bench_fits_depth_zero(tmp_path, capsys):
    # depth 0 used to fail the capacity line: F(k, L) starts at k = 1
    data, results = tmp_path / "data", tmp_path / "results"
    assert main(["synth", "--out-dir", str(data), "--train", "60",
                 "--val", "10", "--test", "30"]) == 0
    assert main(["bench", "--data-dir", str(data), "--train", "60", "--val", "10",
                 "--test", "30", "--ks", "0,1", "--variants", "basic", "--max-iters", "30",
                 "--baseline-iters", "5", "--out-dir", str(results)]) == 0
    runs = json.loads((results / "bench.manifest.json").read_text())["runs"]
    assert [(r["method"], r["k"], len(r["solve"])) for r in runs] == [
        ("logistic regression", None, 0), ("recursive kernel (k=0)", 0, 10),
        ("recursive kernel (k=1)", 1, 10)]
    md = (results / "bench.md").read_text()
    assert "capacity reference (quadratic activation, L = 1): F(1, 1) = 2.828; trained" in md
    assert "| recursive kernel (k=0) |" in md


@pytest.mark.parametrize("command", [
    ["gram", "--out", "g.bin"],
    ["train", "--out-model", "m.json"]], ids=["gram", "train"])
@pytest.mark.parametrize("limit", ["0", "-3"])
def test_limit_below_one_is_a_usage_error(command, limit, tmp_path, capsys):
    # gram used to write an n = 0 Gram and exit 0; train blamed the class count
    ip, lp = one_hot_dataset(tmp_path)
    out = tmp_path / command[-1]
    assert main([command[0], "--images", ip, "--labels", lp, "--limit", limit,
                 command[1], str(out)]) == 2
    assert capsys.readouterr().err == f"error: --limit {limit}: needs at least 1 row\n"
    assert not out.exists()


def _train_then_manifest(tmp_path, *extra):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    m1 = tmp_path / "m1.json"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "7", "--max-iters", "150", *extra, "--out-model", str(m1)]) == 0
    return ip, lp, str(m1) + ".manifest.json"


def test_explicit_flag_at_its_default_beats_config(tmp_path, capsys):
    """A typed flag beats the config a ``--from-manifest`` run replays, even
    when its value is the parser default."""
    _, _, manifest = _train_then_manifest(tmp_path, "--k", "4")
    model = tmp_path / "m2.json"
    # --k 1 is also the parser default, but it was typed, so it wins
    assert main(["train", "--from-manifest", manifest, "--k", "1",
                 "--out-model", str(model)]) == 0
    assert json.loads(model.read_text())["depth"] == 1
    # without the flag the manifest presets the depth
    assert main(["train", "--from-manifest", manifest, "--out-model", str(model)]) == 0
    assert json.loads(model.read_text())["depth"] == 4


def test_explicit_flag_beats_from_manifest(tmp_path, capsys):
    ip, lp, manifest = _train_then_manifest(tmp_path, "--k", "2")
    model = tmp_path / "m2.json"
    assert main(["train", "--images", ip, "--labels", lp, "--k", "3",
                 "--from-manifest", manifest, "--out-model", str(model)]) == 0
    payload = json.loads(model.read_text())
    # the flag sets the depth; everything else is replayed
    assert payload["depth"] == 3 and payload["B"] == 7.0
    recorded = json.loads((tmp_path / "m2.json.manifest.json").read_text())["config"]
    assert recorded["k"] == 3 and recorded["max_iters"] == 150


def _older_manifest(manifest):
    """``manifest`` as the CLI recorded it while it still had ``--data`` and
    ``train --classes``."""
    stored = json.loads(Path(manifest).read_text())
    stored["config"].update(data=str(Path(manifest).parent / "toy"), classes=3,
                            images=None, labels=None)
    Path(manifest).write_text(json.dumps(stored))


def test_replaying_a_data_manifest_needs_images_and_labels(tmp_path, monkeypatch, capsys):
    _, _, manifest = _train_then_manifest(tmp_path)
    _older_manifest(manifest)
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "read_idx", lambda *a: pytest.fail("read data"))
    capsys.readouterr()
    assert main(["train", "--from-manifest", manifest,
                 "--out-model", str(tmp_path / "m2.json")]) == 2
    assert capsys.readouterr().err == "error: need both --images and --labels\n"
    assert sorted(tmp_path.iterdir()) == before


def test_replaying_a_data_manifest_with_images_and_labels_writes_the_same_model(tmp_path):
    ip, lp, manifest = _train_then_manifest(tmp_path)
    _older_manifest(manifest)
    replay = tmp_path / "m2.json"
    assert main(["train", "--images", ip, "--labels", lp, "--from-manifest", manifest,
                 "--out-model", str(replay)]) == 0
    assert replay.read_bytes() == (tmp_path / "m1.json").read_bytes()
    recorded = json.loads((tmp_path / "m2.json.manifest.json").read_text())["config"]
    assert "data" not in recorded and "classes" not in recorded
