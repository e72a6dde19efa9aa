"""The scripts under ``scripts/``, run in-process on temporary directories."""

import runpy
import sys
from pathlib import Path

import pytest

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


def test_desk_suite_untrained_pair_is_undecided(tmp_path, monkeypatch, capsys):
    # at epoch 0 both models are untrained, at exactly chance (1.0%), so
    # the directional check has nothing to decide
    argv = ["desk_suite.py", "--out", str(tmp_path), "--epochs", "0", "--activations", "relu,zcswish"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "desk_suite.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for act in ("relu", "zcswish"):
        assert sum(line.split()[:1] == [act] for line in lines) >= 2, act  # both tables have its row
    directional = [line for line in lines if line.startswith("directional check")]
    assert len(directional) == 1
    assert directional[0].endswith("undecided")
