"""Smoke test of the benchmark of record (not collected by tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/record

Every workload runs once untraced and once traced on the tiny landscape
(``--quick``): same code path and output schema as the recorded scale.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.record.metrics import PER_LAYER
from benchmarks.record.spans import validate_chrome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
         "--seed", "12", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT), timeout=120,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check(result: dict, declared: list) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float), metric["name"]


def test_declared_names_are_well_formed_and_match_the_code():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]
    names = [entry["name"] for entry in declared]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    check(run(workload, trace=0), BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_a_valid_trace(workload):
    check(run(workload, trace=1), BENCHMARK["per_layer"])
    trace = json.loads((ROOT / ".bench_build" / "record" / f"trace-{workload}.json").read_text())
    assert validate_chrome(trace) > 10
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"setup", "round", "listing1.staged", "release.staged", "ladder.fork"} <= names
    requests = {event["args"]["request_id"] for event in trace["traceEvents"]}
    assert None not in requests
