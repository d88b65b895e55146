"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that span self times are >= 0 and never exceed their parent's duration,
and that the counters repeat exactly across two runs of one seed.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# per-layer metrics that are counts of work, not times: they must repeat
COUNTERS = [m["name"] for m in BENCH["per_layer"]
            if m["unit"] != "s" and not m["name"].startswith("trace.")]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result, lines


def assert_declared(result, kind):
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, name
        assert isinstance(got["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = run(workload, 0)
    assert_declared(result, "end_to_end")
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def check_spans(path):
    trace = np.load(path)
    parent, start, end = trace["parent"], trace["start"], trace["end"]
    assert len(parent) > 0
    dur = end - start
    assert np.all(dur >= 0)
    covered = np.zeros_like(dur)
    for i in np.flatnonzero(parent >= 0):
        covered[parent[i]] += dur[i]
    own = dur - covered
    assert np.all(own >= 0)
    has_parent = parent >= 0
    assert np.all(own[has_parent] <= dur[parent[has_parent]])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace(workload):
    first, lines = run(workload, 1)
    trace_path = next(line.split(" to ", 1)[1] for line in lines
                      if line.startswith("trace written to "))
    check_spans(trace_path)
    second, _ = run(workload, 1)
    for result in (first, second):
        assert_declared(result, "per_layer")
        for name, m in result["metrics"].items():
            if name.endswith("self_s"):
                assert m["value"] >= 0, name
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
