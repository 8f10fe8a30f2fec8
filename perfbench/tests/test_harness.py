"""Tests of the benchmark harness itself, on tiny workload configs.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, diff
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _expect_metrics(record, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(record["metrics"]) == set(expected)
    for name, (value, unit) in record["metrics"].items():
        assert unit == expected[name], name
        assert math.isfinite(value), name


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    record = bench.run(workload, seed=1, seconds=0.1, trace=False, tiny=True)
    _expect_metrics(record, "end_to_end")
    assert bench.check_outputs(record) == []
    assert record["failed_mutation_frac"] == 0.0
    assert len(record["passes"]) == 2
    assert math.isfinite(record["det_return"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    record = bench.run(workload, seed=1, seconds=0.1, trace=True, tiny=True)
    _expect_metrics(record, "per_layer")
    assert bench.check_outputs(record) == []
    metrics = {name: value for name, (value, _) in record["metrics"].items()}
    assert metrics["policy.forward_calls_per_iter"] > 0
    assert metrics["es.derivations_per_iter"] > 0
    if WORKLOADS[workload].overrides.get("run.mode") == "proc":
        # Worker spans reach the coordinator: two evaluators, wire traffic.
        assert metrics["runtime.worker_connect_s"] > 0
        assert metrics["wire.bytes_per_iter"] > 0
        assert metrics["policy.forward_calls_per_iter"] == metrics["env.steps_per_iter"]


def test_nan_returning_evaluator_counts_failed_mutations():
    def every_other_nan(evaluate):
        calls = [0]

        def wrapped(params, seeds):
            calls[0] += 1
            return math.nan if calls[0] % 2 else evaluate(params, seeds)

        return wrapped

    record = bench.run("nsfnet-es", seed=1, seconds=0.1, trace=False, tiny=True,
                       evaluator_hook=every_other_nan)
    assert record["failed_mutation_frac"] > 0
    assert any("NaN" in error for error in bench.check_outputs(record))


def test_tampered_theta_hash_fails_the_output_check():
    record = bench.run("nsfnet-es", seed=1, seconds=0.1, trace=False, tiny=True)
    assert bench.check_outputs(record) == []
    record["theta_sha256"][1][-1] = "0" * 64
    assert any("theta differs" in error for error in bench.check_outputs(record))


def test_command_prints_result_json_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-1step", "--seed", "2",
         "--seconds", "0.1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nsfnet-es", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _write_runs(path, values, bounds_metric="iter_s_p50"):
    with open(path, "w", encoding="utf-8") as fh:
        for value in values:
            fh.write(json.dumps({"workload": "w", "trace": 0,
                                 "metrics": {bounds_metric: [value, "s"]}}) + "\n")


def test_diff_flags_regression_and_unresolved(tmp_path):
    base, slow, noisy = tmp_path / "base", tmp_path / "slow", tmp_path / "noisy"
    _write_runs(base, [1.00, 1.01, 0.99, 1.00, 1.02])
    _write_runs(slow, [1.50, 1.51, 1.49, 1.50, 1.52])
    _write_runs(noisy, [0.5, 1.9, 1.0, 0.6, 1.8])
    lines, regressed = diff.compare(base, slow, SPEC)
    assert regressed and any("regression" in line for line in lines)
    assert any("1.5000x of base 1" in line for line in lines)
    lines, regressed = diff.compare(base, noisy, SPEC)
    assert not regressed and any("unresolved" in line for line in lines)
    lines, regressed = diff.compare(base, base, SPEC)
    assert not regressed and any(line.rstrip().endswith("lower is better)") for line in lines)
