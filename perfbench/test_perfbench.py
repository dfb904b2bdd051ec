"""The benchmark's own test: smoke-size runs, checked for schema and outputs.

Never asserts a timing.  Run with ``python -m pytest perfbench`` from the
repository root (the tier-1 suite collects it too).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


def smoke(workload: str, trace: int) -> dict:
    code, result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float))
    return result["metrics"]


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS) == list(workloads.SMOKE)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_schema_and_outputs(workload):
    metrics = smoke(workload, trace=0)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, trace=1), smoke(workload, trace=1)
    for name, metric in first.items():
        if name.endswith((".calls", ".items", ".distinct_frac", ".core_yield", ".classes",
                          ".output_bytes")):
            assert metric["value"] == second[name]["value"], name
        if name != "trace_overhead_frac":
            # the coverage tail reaches every layer, so nothing reads a blank 0
            assert metric["value"] > 0, name


def test_every_invocation_has_a_golden():
    goldens = json.loads(run.GOLDENS.read_text())
    assert set(workloads.every_invocation()) <= set(goldens)
    for name in NAMES:
        for smoke_size in (False, True):
            drawn = workloads.draw(name, 11, smoke_size)
            assert drawn == workloads.draw(name, 11, smoke_size)
            assert set(drawn) <= set(goldens)


def test_wrong_output_is_a_failure():
    golden = {"exit_code": 0, "sha256": "0" * 64}
    runner = run.Runner({workloads.SETUP: golden})
    child = runner.launch(workloads.SETUP)
    assert child.exit_code == 0
    runner.check(run.Child("verify --p 2", 0.1, 1.0, 0, "0" * 64, 0))
    assert (runner.attempted, runner.failed) == (2, 2)


def test_child_past_its_deadline_is_killed_and_fails():
    invocation = "blocks --p 3 --n 32 --format table"
    runner = run.Runner({invocation: json.loads(run.GOLDENS.read_text())[invocation]})
    child = run.launch(invocation, timeout_s=0.1)
    runner.check(child)
    assert child.exit_code != 0 and runner.failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert code != 0 and result is None
