"""Smoke self-test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/test_harness.py -q

Tiny sizes exercise every workload, worker and tracing path in seconds;
their program outputs are too small for the output checks, so only the
result format is asserted here, never ``correct``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    return result


def assert_metrics(result: dict, wanted: list[dict]) -> dict[str, float]:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert math.isfinite(entry["value"]), m["name"]
    return {name: entry["value"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    values = assert_metrics(result_of(run(workload, 0)), SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = run(workload, 1)
    values = assert_metrics(result_of(proc), SPEC["per_layer"])
    summary = json.loads(proc.stdout.strip().splitlines()[-2])
    for key in ("seed", "git_commit", "python", "numpy", "nproc", "loadavg_start",
                "gadget_library_sha256"):
        assert key in summary["provenance"]
    detail = json.loads((ROOT / summary["details"]).read_text())
    assert detail["spans"] and all(s["end"] >= s["start"] for s in detail["spans"])

    # Layer self times plus the unattributed remainder make up the traced wall time.
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert math.isclose(self_total + values["trace.unattributed_s"], values["trace.wall_s"],
                        rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(values["trace.overhead_s"], values["trace.wall_s"] - values["wall_s"],
                        rel_tol=1e-9, abs_tol=1e-12)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
