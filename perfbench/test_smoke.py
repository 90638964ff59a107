"""Smoke test of the benchmark: every workload, tiny, untraced and traced.

Outside the package's test paths; run it with

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    lines, result = bench(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_ratio 0 ") for line in lines)
    assert any(line.startswith("op_p90_ms ") for line in lines)
    env = json.loads(lines[0].removeprefix("env "))
    assert {"git_sha", "python", "numpy", "blas", "blas_threads", "nproc", "seed"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    _lines, result = bench(workload, trace=1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    calls = result["metrics"]["petrov.petrov_normal_form.calls_per_op"]["value"]
    if workload.startswith("classify-"):
        assert calls == 3
    if workload == "verify-sweep":
        assert calls == 0


def test_call_counts_repeat():
    _l, first = bench("classify-synthetic", trace=1)
    _l, second = bench("classify-synthetic", trace=1)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith("calls_per_op")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
