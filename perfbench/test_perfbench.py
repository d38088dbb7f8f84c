"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each test runs run.py as its own process, as a user would.  The count
metrics of a traced run must repeat exactly, and a library that returns a
wrong answer must trip the digest gate.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_METRICS = [n for n, u in metric_units().items() if u == "count"]


def bench(root: Path, *args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    runs = [bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
            for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"], result
    first, second = ({k: r["metrics"][k]["value"] for k in COUNT_METRICS} for _, r in runs)
    assert first == second
    assert any(first.values())


def test_wrong_energy_trips_the_digest_gate(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    energy = tmp_path / "src" / "energia" / "energy.py"
    text = energy.read_text()
    exact = "    return sum(c * c for c in counts.values())\n\n\ndef set_energy_plus"
    assert exact in text
    # T one too large still passes every identity the sweep checks
    energy.write_text(text.replace(exact, exact.replace("values())", "values()) + 1")))

    code, result = bench(tmp_path, "--workload", "sweep-default", "--seed", "0", "--seconds", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0
