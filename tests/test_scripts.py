"""The scripts under ``scripts/``, run in-process on temporary directories."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from actlab.data import write_synthetic_cifar100

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_make_synthetic_data_refuses_too_many_classes(tmp_path, monkeypatch):
    out = tmp_path / "data"
    monkeypatch.setattr(sys, "argv", ["make_synthetic_data.py", "--out", str(out), "--classes", "300"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "make_synthetic_data.py"), run_name="__main__")
    assert str(exc.value.code).startswith("error: num_classes must be in 1..256")
    assert not out.exists()


def test_make_synthetic_data_refuses_a_negative_seed(tmp_path, monkeypatch):
    out = tmp_path / "data"
    monkeypatch.setattr(sys, "argv", ["make_synthetic_data.py", "--out", str(out), "--seed", "-1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "make_synthetic_data.py"), run_name="__main__")
    assert exc.value.code == "error: seed must be a non-negative integer, got -1"
    assert not out.exists()


def run_desk_suite(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", ["desk_suite.py", "--epochs", "0", *map(str, args)])
    runpy.run_path(str(SCRIPTS / "desk_suite.py"), run_name="__main__")


def test_desk_suite_untrained_pair_is_undecided(tmp_path, monkeypatch, capsys):
    # at epoch 0 both models are untrained, at exactly chance (1.0%), so
    # the directional check has nothing to decide
    monkeypatch.delenv("ACTLAB_DATA_DIR", raising=False)
    run_desk_suite(monkeypatch, "--out", tmp_path, "--activations", "relu,zcswish")
    lines = capsys.readouterr().out.splitlines()
    for act in ("relu", "zcswish"):
        assert sum(line.split()[:1] == [act] for line in lines) >= 2, act  # both tables have its row
    directional = [line for line in lines if line.startswith("directional check")]
    assert len(directional) == 1
    assert directional[0].endswith("undecided")


def test_desk_suite_trains_on_the_env_var_data(tmp_path, monkeypatch):
    data = tmp_path / "data"
    write_synthetic_cifar100(data, train_per_class=20, test_per_class=20, num_classes=4, seed=0)
    monkeypatch.setenv("ACTLAB_DATA_DIR", str(data))
    out = tmp_path / "suite"
    run_desk_suite(monkeypatch, "--out", out, "--activations", "relu")
    assert json.loads((out / "relu" / "config.json").read_text())["data_dir"] == str(data)
    assert not (out / "data").exists()


def test_desk_suite_refuses_a_data_dir_without_the_dataset(tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit) as exc:
        run_desk_suite(monkeypatch, "--data-dir", empty, "--out", tmp_path / "suite", "--activations", "relu")
    assert exc.value.code == "run failed for relu"
    assert f"{empty / 'train.bin'} not found; obtain the dataset from" in capsys.readouterr().err
    assert list(empty.iterdir()) == []


def test_src_lines_counts_code_tokens_not_docstrings_or_comments(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        '"""Module docstring,\nover two lines."""\n\n# a comment\nX = 1  # trailing\n\n\n'
        'def f():\n    """Docstring."""\n    return """a string\nthat is code"""\n'
    )
    (pkg / "b.py").write_text("Y = [\n    2,\n]\n")
    monkeypatch.setattr(sys, "argv", ["src_lines.py", str(pkg)])
    runpy.run_path(str(SCRIPTS / "src_lines.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "physical"], ["a.py", "4", "11"], ["b.py", "3", "3"], ["total", "7", "14"]]


def test_mem_peaks_prints_probe_and_step_peaks(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mem_peaks.py", "--depth", "8", "--width-divisor", "8", "--batch-size", "4"])
    runpy.run_path(str(SCRIPTS / "mem_peaks.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "depth 8, width/8, relu, batch 4"
    rows = [line.rsplit(maxsplit=4) for line in lines[1:4]]
    assert [r[0] for r in rows] == ["probe (256 images)", "step, default tape", "step, keeping tape"]
    assert len(lines) == 4
    assert all(r[2] == "MiB" and r[4] == "s" and float(r[1]) > 0 for r in rows)
