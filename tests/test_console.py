"""What only a separate process shows: the console script's exit code, the
modules that importing the CLI loads, the capacity-table script, and a replay
that shares no state with its training run.  Each check starts ``python`` on
this checkout's ``src``, so it tests this tree and not an installed copy."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reckernel.cli import main

ROOT = Path(__file__).resolve().parents[1]


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def console_script():
    """The body of the installed ``reckernel`` script: its target from
    ``[project.scripts]``, imported and run under ``sys.exit``."""
    section = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    module, func = re.search(r'^reckernel = "([\w.]+):(\w+)"', section, re.M).groups()
    return f"import sys; from {module} import {func}; sys.exit({func}())"


@pytest.mark.parametrize("argv, rc", [
    (["bound", "--activation", "smoothed_hinge", "--k", "2", "--L", "1"], 0),
    # the series does not settle within its term cap: a numeric failure
    (["bound", "--activation", "shifted_erf", "--k", "2", "--L", "3"], 4)],
    ids=["exit-0", "exit-4"])
def test_console_script_passes_the_exit_code_out(argv, rc):
    proc = python("-c", console_script(), *argv)
    assert proc.returncode == rc, proc.stderr
    if rc == 0:
        payload = json.loads(proc.stdout.splitlines()[-1])
        assert (payload["activation"], payload["k"]) == ("smoothed_hinge", 2)
        assert math.isfinite(payload["value"]) and payload["value"] > 0
    else:
        assert proc.stderr.startswith("numeric failure:") and "level 2" in proc.stderr


def test_importing_the_cli_loads_no_mpmath():
    # mpmath is a test dependency only
    proc = python("-c", "import sys, reckernel.cli; print('mpmath' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_capacity_table_script_prints_its_table():
    proc = python(str(ROOT / "scripts" / "capacity_table.py"))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["activation", "k", "L", "value"]
    # three activations, three levels L and four depths k
    assert len(rows) == 36
    assert rows[4].split() == ["quadratic", "1", "1.0", "2.82843"]


def test_capacity_table_script_exits_quietly_when_its_reader_leaves():
    # ``capacity_table.py | head -2``: the pipe closes before the table is written
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, str(ROOT / "scripts" / "capacity_table.py")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == ""


def test_replay_in_a_fresh_process_writes_the_same_model_bytes(tmp_path, capsys):
    data, model = tmp_path / "basic-train", tmp_path / "m.json"
    assert main(["synth", "--out-dir", str(tmp_path), "--train", "30", "--val", "0",
                 "--test", "0"]) == 0
    assert main(["train", "--images", f"{data}-images.idx", "--labels", f"{data}-labels.idx",
                 "--max-iters", "50", "--out-model", str(model)]) == 0
    replay = tmp_path / "replay.json"
    proc = python("-m", "reckernel.cli", "train", "--from-manifest", f"{model}.manifest.json",
                  "--out-model", str(replay))
    assert proc.returncode == 0, proc.stderr
    assert replay.read_bytes() == model.read_bytes()
