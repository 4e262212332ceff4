"""Tiny-N runs of every workload print every named metric with its unit."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Simulated results every run prints, with their units, above its JSON line.
SIM = {
    "rounds": "count",
    "requests_total": "count",
    "rejection_ratio": "ratio",
    "mean_disruption": "ratio",
}
SIM_BY_WORKLOAD = {
    "join-rebuild": {"delivery_mean_ms": "ms"},
    "chaos-restart": {
        "convergence_p50_ms": "ms",
        "convergence_p90_ms": "ms",
        "recovery_mean_ms": "ms",
        "detection_mean_ms": "ms",
    },
}
#: Timings printed but kept out of the JSON line, by ``--trace``.
PRINTED_ONLY = {
    0: {"round_p90_ms": "ms"},
    1: {
        "incremental.repair_ms": "ms",
        "audit.audit_round_ms": "ms",
        "dataplane.run_ms": "ms",
        "dataplane.us_per_frame": "us",
        "faults.transmit_ms": "ms",
    },
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *lines, last = completed.stdout.strip().splitlines()
    printed = dict(
        match.group(1, 2)
        for match in (re.fullmatch(r"  (\S+) +\S+ (\S+)", line) for line in lines)
        if match
    )
    return json.loads(last), printed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_declared_metric(workload, trace, section):
    result, printed = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in DECLARED[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == declared
    expected = SIM | SIM_BY_WORKLOAD.get(workload, {}) | PRINTED_ONLY[trace] | declared
    assert printed.items() >= expected.items()
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fov-repair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
