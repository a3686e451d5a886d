"""Self-test of the benchmark: every workload for a few steps.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from tracing import pass_profile  # noqa: E402


def test_every_workload_prints_every_metric_with_its_unit_and_passes_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--smoke", "--seconds", "1"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed: True" in proc.stdout
    assert "FAILED" not in proc.stdout
    printed = set()
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4:
            printed.add((parts[0], parts[1], parts[3]))
    metrics = BENCH["end_to_end"] + BENCH["per_layer"] + [{"name": "fail_ratio", "unit": "1"}]
    for workload in BENCH["workloads"]:
        for metric in metrics:
            assert (workload["name"], metric["name"], metric["unit"]) in printed, \
                (workload["name"], metric["name"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*BENCH["command"], "--workload", "fig2-sweep", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    spans = [["bench.pass", 0.0, 10.0, -1, 0],
             ["cli.main", 1.0, 9.0, 0, 0],
             ["scheduler.bisection_lambda", 2.0, 6.0, 1, 0],
             ["threshold.solve_kappa", 3.0, 4.0, 2, 0],
             ["next.pass", 11.0, 12.0, -1, 0]]
    profile = pass_profile(spans, 0)
    assert profile["calls"]["next.pass"] == 0
    assert profile["self"]["cli"] == 4.0
    assert profile["self"]["scheduler"] == 3.0
    assert profile["self"]["threshold"] == 1.0
    assert profile["dur"]["scheduler.bisection_lambda"] == 4.0
