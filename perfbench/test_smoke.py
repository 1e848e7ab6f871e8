"""Smoke test of the benchmark itself, at toy scale.

Every workload, traced and untraced, must emit exactly the metrics that
``BENCHMARK.json`` declares, each with its unit, and pass its own
correctness gate. Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                "1", "--trace", str(trace), "--scale", "0.1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_fails_without_the_program():
    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "table3", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_inputs_are_a_function_of_the_seed(workload):
    from workloads import make_inputs
    a, b = make_inputs(workload, 3, 0.1), make_inputs(workload, 3, 0.1)
    c = make_inputs(workload, 4, 0.1)
    assert all(a[name].equals(b[name]) for name in a)
    assert any(not a[name].equals(c[name]) for name in a)
