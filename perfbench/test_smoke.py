"""Smoke test of the benchmark itself; it asserts no timing.

Each workload runs for one second in both modes and must verify every op
and print exactly the metrics that BENCHMARK.json names.  Run it from the
root of a checkout::

    python -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_run_verifies_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace and workload != "suite-default":
        assert result["metrics"]["rewrite.normal_order.calls"]["value"] == 0


def test_same_seed_same_inputs():
    for cls in workloads.WORKLOADS.values():
        assert cls(7).inputs_digest() == cls(7).inputs_digest()
        assert cls(7).inputs_digest() != cls(8).inputs_digest()


@pytest.mark.parametrize("name", ["dense-product", "maps-roundtrip"])
def test_first_check_rejects_a_wrong_output(name):
    wl = workloads.WORKLOADS[name](3)
    wl.setup()
    for job in wl.jobs[:2]:  # a torus and a p2 element for maps-roundtrip
        out = wl.run(job)
        assert wl.check_first(job, out) is None
        if name == "dense-product":
            wrong = out + out
        else:
            wrong = (out[0], out[1], out[2], out[3] + out[3], *out[4:])
        assert wl.check_first(job, wrong) is not None


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
