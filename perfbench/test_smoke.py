"""Smoke test of the benchmark: every workload once at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints every end-to-end and per-layer metric of
BENCHMARK.json with its unit, that no operation fails, that the computed
counts repeat exactly, and that the benchmark refuses to run without the
program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.fixture(scope="module")
def lines():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = [json.loads(s) for s in proc.stdout.splitlines()
                                    if s.startswith("{")]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(lines, workload, trace):
    *info, last = lines[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = last["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert math.isfinite(metric["value"])
    ops = next(d["operations"] for d in info if "operations" in d)
    assert ops["failed_frac"] == 0
    env = next(d["environment"] for d in info if "environment" in d)
    assert env["seed"] == 1 and env["nproc"] >= 1 and env["fft_backend"]


def test_failed_frac_zero_metric(lines):
    for workload in WORKLOADS:
        assert lines[workload, 0][-1]["metrics"]["succeeded_frac"]["value"] == 1.0


def test_every_layer_metric_measured_somewhere(lines):
    for m in SPEC["per_layer"]:
        assert any(lines[w, 1][-1]["metrics"][m["name"]]["value"] != 0 for w in WORKLOADS), m


def test_counts_repeat_exactly(lines):
    for workload in WORKLOADS:
        counts = [next(d["counts"] for d in lines[workload, t] if "counts" in d) for t in (0, 1)]
        assert counts[0] and counts[0] == counts[1]


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                               "--trace", "0"], capture_output=True, text=True, timeout=180,
                              cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
