"""Smoke test of the benchmark at a tiny size: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402


def _run(cwd, workload, seed, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(0, 0), (1, 0), (0, 1)])
def test_tiny_run_reports_every_metric(workload, seed, trace):
    proc = _run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        row = result["metrics"][m["name"]]
        assert row["unit"] == m["unit"]
        assert isinstance(row["value"], (int, float))
    if not trace:
        assert all(row["value"] > 0 for row in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    (outer, inner, leaf) = tracer.self_times()
    durations = [end - start for _, start, end, _, _ in tracer.spans]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert outer == pytest.approx(durations[0] - durations[1])
    assert inner == pytest.approx(durations[1] - durations[2])
    assert leaf == durations[2]
