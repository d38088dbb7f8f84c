"""Smoke runs of scripts/: each script runs in this process as __main__ and
exits 0 with its summary line."""
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv, expect", [
    pytest.param(["pipeline_demo.py"], "agree", id="pipeline_demo"),
    pytest.param(["energy_growth.py"], "fitted slope", id="energy_growth"),
    pytest.param(["run_default_sweep.py", "--workers", "1"], "cells: 312   hard failures: 0", id="run_default_sweep"),
    pytest.param(["src_lines.py"], " docstring + ", id="src_lines"),
])
def test_script_runs_and_exits_0(argv, expect, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert exc.value.code == 0
    assert expect in capsys.readouterr().out
