"""Smoke test of the benchmark itself, on a tiny model and short videos.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload end to end, traced and untraced, and checks the
result line against BENCHMARK.json: exactly the listed metrics, with
their units, each also printed on a line of its own.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_matches_spec(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{workload} {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    if not trace:
        assert any(line.startswith(f"{workload} failed_frac 0 ") for line in lines)


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "offline", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_absent_names_drop_only_their_metrics():
    code = textwrap.dedent("""
        import json
        import msast
        import tracing
        del msast.numerics.temporal_norm
        del msast.model.forward_stream
        tracer = tracing.install(tracing.Tracer(), msast)
        print(json.dumps({"absent": sorted(tracer.absent),
                          "metrics": sorted(tracing.layer_metrics(tracer))}))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["absent"] == ["msast.model.forward_stream", "msast.numerics.temporal_norm"]
    gone = {"numerics.temporal_norm.fwd_s", "numerics.temporal_norm.calls",
            "model.forward_stream_s", "model.stream_state_frames"}
    assert not gone & set(got["metrics"])
    assert {"numerics.matmul.fwd_s", "model.predict_s", "numerics.self_s"} <= set(got["metrics"])
