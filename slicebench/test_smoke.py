"""Smoke test of the benchmark: every workload at minimal size.

    python3 -m pytest slicebench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, REPORTED  # noqa: E402

WORKLOADS = ("log-fresh", "cli-mix", "dexp-field")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "slicebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = END_TO_END if trace == 0 else PER_LAYER
    assert list(result["metrics"]) == [m.name for m in specs]
    for m in specs:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert isinstance(entry["value"], (int, float)), m.name
    report = json.loads(lines[0])["report"]
    assert {"python", "numpy", "nproc", "cpu", "commit", "seed"} <= set(report["environment"])
    assert report["failed"] == 0 and report["error_rate"] == 0
    if trace == 0:
        assert {m.name: m.unit for m in REPORTED} == \
            {name: entry["unit"] for name, entry in report["reported"].items()}


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in PER_LAYER]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "slicebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "log-fresh", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
