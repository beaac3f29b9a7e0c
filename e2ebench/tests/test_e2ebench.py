"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python -m pytest e2ebench/tests -q

Every test drives the benchmark the way its users do, as separate
processes, so the runs under test see the production configuration
(the benchmark strips the pytest marker from its children).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
HELD_OUT_SEED = 9_001

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _worker(workload, mode, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"),
         "--workload", workload, "--seed", str(seed), "--mode", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _bench(workload, seed, trace, cwd=ROOT, seconds=2):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_layer_counters_repeat_and_tracing_keeps_the_digest():
    """Two traced runs count the same work; neither moves an outcome."""
    plain = _worker("closed_loop_learn", "prefix", 0)
    first = _worker("closed_loop_learn", "trace", 0)
    second = _worker("closed_loop_learn", "trace", 0)
    for key in ("counts", "ledgers", "batch_rows", "selected", "requests"):
        assert first["trace"][key] == second["trace"][key], key
    calls = {name: value[0] for name, value in
             first["trace"]["components"].items()}
    assert calls == {name: value[0] for name, value in
                     second["trace"]["components"].items()}
    assert calls["core.service"] == first["trace"]["requests"]
    assert first["trace"]["counts"]["hardware.layer_latency"] > 0
    assert plain["digest"] == first["digest"] == second["digest"]
    assert plain["errors"] == first["errors"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_reports_every_metric_and_passes_checks(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = _bench(workload, HELD_OUT_SEED, trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, out.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"]
                    for metric in SPEC[section]}
        assert {name: metric["unit"] for name, metric in
                result["metrics"].items()} == expected
        if trace == 0:
            assert all(metric["value"] != 0
                       for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """Outside a checkout (no ``src/``) it fails without a result."""
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(WORKLOADS[0], 0, 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
