"""Smoke test of the e2e benchmark: tiny sizes, every workload, both
passes.  Checks the contract, not the numbers: every metric named in
``BENCHMARK.json`` is emitted with its unit, and nothing failed."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

CASES = [(entry["name"], trace) for entry in SPEC["workloads"] for trace in (0, 1)]


def run(case):
    workload, trace = case
    return subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--smoke",
            "--workload", workload, "--seed", "5", "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def runs():
    # Two at a time: most of a smoke run is interpreter start-up.
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(CASES, pool.map(run, CASES)))


@pytest.mark.parametrize("workload,trace", CASES)
def test_smoke(runs, workload, trace):
    done = runs[workload, trace]
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0, done.stderr[-2000:]
    assert summary["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(summary["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        record = summary["metrics"][entry["name"]]
        assert record["unit"] == entry["unit"]
        assert isinstance(record["value"], (int, float))
