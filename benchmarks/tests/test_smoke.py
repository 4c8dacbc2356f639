"""Short runs of the benchmark command, as the result line reports them."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_completes_with_every_end_to_end_metric(workload):
    out = result_of(run(ROOT, "--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = result_of(run(ROOT, "--workload", "study-cnn", "--seed", "1",
                        "--seconds", "1", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["nn.Conv3x3.backward.us"] > 0
    assert metrics["harness.trials"] == 12


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "study-mlp", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
