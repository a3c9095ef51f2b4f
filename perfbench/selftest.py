"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:

    python -m pytest perfbench/selftest.py -q

They check that every workload emits exactly the metrics ``BENCHMARK.json``
names, in both modes, and that the correctness checks count failures: a
corrupted served prediction (binary wire, and JSON through the cluster)
and a LIMIT solve.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402
import serve_workloads  # noqa: E402


@pytest.fixture(autouse=True)
def scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "WORK_DIR", tmp_path / "work")


def spec_names(group: str):
    return {entry["name"] for entry in common.benchmark_spec()[group]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace):
    line, record = run.run_workload(workload, seed=3, seconds=0.4, trace=trace)
    group = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == spec_names(group)
    assert line["failed"] == 0, record["failure_reasons"]
    assert line["correct"] is True
    assert line["attempted"] >= 1
    for name, entry in line["metrics"].items():
        assert isinstance(entry["value"], float), name
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
    json.dumps(line)


def test_metric_table_matches_spec():
    table = json.loads((HERE / "metrics.json").read_text())
    assert set(table["end_to_end"]) == spec_names("end_to_end")
    assert set(table["per_layer"]) == spec_names("per_layer")
    for group in ("end_to_end", "per_layer"):
        units = {entry["name"]: entry["unit"] for entry in common.benchmark_spec()[group]}
        for name, entry in table[group].items():
            assert entry["unit"] == units[name], name
    assert serve_workloads.NOMINAL_RATE in serve_workloads.LADDER


def _nudged(values: np.ndarray) -> np.ndarray:
    corrupted = values.copy()
    corrupted[0] = np.nextafter(corrupted[0], np.inf)
    return corrupted


def test_corrupted_binary_response_counts_as_failed(monkeypatch):
    original = serve_workloads.check_arrays

    def corrupting(ipc, fraction, ref_ipc, ref_fraction):
        return original(_nudged(ipc), fraction, ref_ipc, ref_fraction)

    monkeypatch.setattr(serve_workloads, "check_arrays", corrupting)
    outcome = common.Outcome()
    serve_workloads.run_bulk(seed=3, seconds=0.2, trace=False, outcome=outcome)
    assert outcome.attempted >= 2
    assert outcome.failed == outcome.attempted
    assert "differ from the offline predictor" in outcome.reasons[0]


def test_corrupted_json_response_counts_as_failed(monkeypatch):
    original = serve_workloads.check_json_response
    corrupted = []

    def corrupting(line, *args):
        if not corrupted:
            response = json.loads(line)
            ipc = response["predictions"][0]["ipc"]
            response["predictions"][0]["ipc"] = float(np.nextafter(ipc, np.inf))
            line = json.dumps(response).encode("utf-8")
            corrupted.append(True)
        return original(line, *args)

    monkeypatch.setattr(serve_workloads, "check_json_response", corrupting)
    outcome = common.Outcome()
    serve_workloads.run_cluster(seed=3, seconds=0.4, trace=False, outcome=outcome)
    assert outcome.failed == 1
    assert outcome.attempted > 1
    assert "differs from the offline predictor" in outcome.reasons[0]


def test_limit_solve_counts_as_failed(monkeypatch):
    import char_workloads

    original = char_workloads.build_scenario

    def time_limited(workload, seed):
        scenario = original(workload, seed)
        scenario.config = dataclasses.replace(scenario.config, milp_time_limit=0.05)
        return scenario

    monkeypatch.setattr(char_workloads, "build_scenario", time_limited)
    outcome = common.Outcome()
    metrics, record = char_workloads.run(
        "char-toy", seed=3, seconds=0.0, trace=False, outcome=outcome
    )
    assert outcome.failed >= 1
    assert any("LIMIT" in reason for reason in outcome.reasons)
    line = common.result_line(outcome, metrics, trace=False)
    assert line["correct"] is False
