"""The benchmark's own tests: every workload at tiny size, traced and not.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import Tracer  # noqa: E402
from workloads import CheckError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in section})
    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        # Bypass structure: each workload skips the layers it should.
        engine_runs = workload != "score_trace"
        assert (value["engine.run_s"] > 0) == engine_runs
        assert (value["traces.read_trace_s"] > 0) == (not engine_runs)
        assert (value["runner.tbt_cdf_s"] > 0) == (workload == "sweep_artifacts")
        assert (value["runner.capacity_probes"] > 0) == (workload == "capacity")
        assert value["deadlines.calls_per_request"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench(tmp_path, "--workload", "capacity", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_must_cover_the_pass():
    tracer = Tracer()
    tracer.spans = [["runner.self_s", None, 0.0, 1.0],
                    ["engine.run_s", 0, 0.1, 0.6]]
    times = tracer.layer_times(1.001)
    assert times["engine.run_s"] == pytest.approx(0.5)
    assert times["runner.self_s"] == pytest.approx(0.5)
    with pytest.raises(CheckError):
        tracer.layer_times(2.0)
    tracer.spans.append(["metrics.build_report_s", None, 1.0, 1.1])
    with pytest.raises(CheckError):
        tracer.layer_times(1.2)
