"""Smoke test of the benchmark harness: each workload, untraced and traced,
runs one short measured loop, checks its outputs and reports exactly the
metrics BENCHMARK.json declares.  It catches a change to the program that
the benchmark would reject: a changed output format, or a function that
bench/spans.py wraps going missing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert result["correct"] is True, json.loads(record)["errors"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
