import json

import numpy as np
import pytest

from reckernel.cli import main
from reckernel.data import ImageDataset, read_idx, write_idx
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


@pytest.mark.parametrize("extra", [["--L", "nan"], ["--L", "inf"], ["--L", "1", "--tol", "nan"]])
def test_bound_non_finite_input_exits_2(extra, capsys):
    # not exit 4: the series did not diverge, the input was bad
    assert main(["bound", "--activation", "shifted_erf", "--k", "2"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_gram_export_decodes(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=2)
    out = tmp_path / "g.bin"
    assert main(["gram", "--images", ip, "--labels", lp,
                 "--preprocess", "normalize", "--k", "1", "--out", str(out)]) == 0
    G = read_gram(out)
    assert G.depth == 1
    assert G.entries.tolist() == [[1.0, 0.5], [0.5, 1.0]]
    assert (tmp_path / "g.bin.manifest.json").exists()


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
    a = json.loads(m1.read_text())
    b = json.loads(m2.read_text())
    assert a["alphas"] == b["alphas"] and a["depth"] == b["depth"] == 2


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


def test_train_squared_loss_overflow_exits_4(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    rc = main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
               "--loss", "squared", "--B", "1e200", "--max-iters", "10",
               "--out-model", str(tmp_path / "m.json")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("numeric failure:")


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
    assert "label 12 at row 4" in err and "3 classes" in err
    assert "Traceback" not in err


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(["eval", "--model", str(tmp_path / "nope.json"),
               "--images", "x", "--labels", "y"])
    assert rc == 3


def test_hardness_demo_output(tmp_path, capsys):
    rc = main(["hardness-demo", "--d", "6", "--T", "2", "--seed", "1",
               "--out-net", str(tmp_path / "net.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hinge loss = 0" in out
    assert ">= 1.0: True" in out
    from reckernel.network import net_from_json
    net = net_from_json((tmp_path / "net.json").read_text())
    assert net.input_dim == 7


def test_variants_command_round_trip(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    oi, ol = tmp_path / "rot-i.idx", tmp_path / "rot-l.idx"
    assert main(["variants", "--images", ip, "--labels", lp, "--kind", "rotation",
                 "--seed", "3", "--out-images", str(oi), "--out-labels", str(ol)]) == 0
    back = read_idx(oi, ol)
    orig = read_idx(ip, lp)
    assert np.array_equal(back.labels, orig.labels)


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


def test_data_prefix_expands_to_idx_pair(tmp_path, capsys):
    imgs = np.zeros((4, 28, 28))
    for i in range(4):
        imgs[i, 5 + (i % 2), 5] = 1.0
    ds = ImageDataset(imgs, np.array([0, 1, 0, 1]))
    write_idx(ds, tmp_path / "toy-images.idx", tmp_path / "toy-labels.idx")
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(tmp_path / "toy"), "--preprocess",
                 "normalize", "--B", "5", "--max-iters", "100",
                 "--classes", "2", "--out-model", str(model)]) == 0
    assert main(["eval", "--model", str(model), "--data", str(tmp_path / "toy")]) == 0
    assert "error=0.00%" in capsys.readouterr().out
    # both forms at once is a usage error
    assert main(["train", "--data", str(tmp_path / "toy"), "--images", "x",
                 "--labels", "y", "--out-model", str(model)]) == 2


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("# capacity preset\nk = 2\nL = 1.0\n")
    assert main(["bound", "--activation", "quadratic", "--k", "1", "--L", "1",
                 "--config", str(cfg)]) == 0
    # --k was left at its (required) explicit value 1... use a fresh parse where
    # k comes from the file: flags win only when actually supplied
    out1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out1["k"] == 1  # explicit flag beats the config file


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("verbosity = 3\n")
    rc = main(["bound", "--activation", "quadratic", "--k", "1", "--L", "1",
               "--config", str(cfg)])
    assert rc == 2


def _train_then_manifest(tmp_path, *extra):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    m1 = tmp_path / "m1.json"
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "7", "--max-iters", "150", *extra, "--out-model", str(m1)]) == 0
    return ip, lp, str(m1) + ".manifest.json"


def test_explicit_flag_at_its_default_beats_config(tmp_path, capsys):
    ip, lp = one_hot_dataset(tmp_path, n=3, per_class=2)
    cfg = tmp_path / "conf.txt"
    cfg.write_text("k = 4\n")
    model = tmp_path / "m.json"
    # --k 1 is also the parser default, but it was typed, so it wins
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "5", "--max-iters", "50", "--k", "1", "--config", str(cfg),
                 "--out-model", str(model)]) == 0
    assert json.loads(model.read_text())["depth"] == 1
    # without the flag the config file presets the depth
    assert main(["train", "--images", ip, "--labels", lp, "--preprocess", "normalize",
                 "--B", "5", "--max-iters", "50", "--config", str(cfg),
                 "--out-model", str(model)]) == 0
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


@pytest.mark.parametrize("manifest_in_config", [False, True])
def test_config_beats_from_manifest(tmp_path, capsys, manifest_in_config):
    ip, lp, manifest = _train_then_manifest(tmp_path, "--k", "2")
    cfg = tmp_path / "conf.txt"
    model = tmp_path / "m2.json"
    if manifest_in_config:
        cfg.write_text(f"from_manifest = {manifest}\nB = 9\n")
        replay = []
    else:
        cfg.write_text("B = 9\n")
        replay = ["--from-manifest", manifest]
    assert main(["train", "--images", ip, "--labels", lp, "--config", str(cfg),
                 *replay, "--out-model", str(model)]) == 0
    payload = json.loads(model.read_text())
    assert payload["B"] == 9.0 and payload["depth"] == 2


def test_data_flag_against_a_manifest_with_images_and_labels_exits_2(tmp_path, capsys):
    _, _, manifest = _train_then_manifest(tmp_path)
    capsys.readouterr()
    rc = main(["train", "--data", str(tmp_path / "toy"), "--from-manifest", manifest,
               "--out-model", str(tmp_path / "m2.json")])
    assert rc == 2
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "m2.json").exists()
