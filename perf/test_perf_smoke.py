"""Tier-1 smoke test of the benchmark itself (a few seconds, tiny sizes).

It keeps three things from drifting apart: ``BENCHMARK.json`` and the metric
table in ``perf/metrics.py``; what a run prints and what the contract says
it prints; and the span tree of a traced run and the self-time arithmetic
the per-layer numbers rest on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perf import metrics, run

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _named(entries):
    return {entry["name"]: entry for entry in entries}


def test_benchmark_json_is_the_metric_table():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(metrics.WORKLOADS)
    assert CONTRACT["run_seconds"] == metrics.REFERENCE_SECONDS
    assert CONTRACT["paths"] == ["perf"]
    assert [
        (e["name"], e["unit"], e["better"], e["bound"])
        for e in CONTRACT["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [
        (e["name"], e["unit"], e["better"]) for e in CONTRACT["per_layer"]
    ] == [
        (m.name, m.unit, m.better)
        for m in metrics.PER_LAYER + metrics.SCOPED
    ]
    assert any(e["name"] == "setup_s" for e in CONTRACT["end_to_end"])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Per workload: one traced smoke run (an untraced pass, then a traced
    one) and one more untraced run with the same seed."""
    out = tmp_path_factory.mktemp("perf-out")
    return {
        workload: (
            run.measure(workload, SEED, metrics.REFERENCE_SECONDS, True, True, out),
            run.measure(workload, SEED, metrics.REFERENCE_SECONDS, False, True, out),
            out,
        )
        for workload in metrics.WORKLOADS
    }


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_output_checks_pass_and_names_match_contract(records, workload):
    traced, untraced, _ = records[workload]
    for record in (traced, untraced):
        assert record["failed"] == 0 and record["correct"]
        line = json.loads(run.driver_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = _named(
            CONTRACT["per_layer"] if record["trace"] else CONTRACT["end_to_end"]
        )
        assert set(line["metrics"]) == set(expected)
        for name, value in line["metrics"].items():
            assert value["unit"] == expected[name]["unit"]
    for value in untraced["end_to_end"].values():
        assert value > 0  # the contract wants no end-to-end metric at 0
    assert set(untraced["scoped"]) == {
        m.name for m in metrics.SCOPED if metrics.applies(m, workload)
    }


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_exact_metrics_repeat_for_a_seed(records, workload):
    first, second, _ = records[workload]
    for metric in metrics.SCOPED:
        if metric.bound == metrics.EXACT and metrics.applies(metric, workload):
            assert first["scoped"][metric.name] == second["scoped"][metric.name]
    assert first["per_layer"]["crowd.repurchased_assignments"] == 0


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_traced_run_is_a_well_formed_span_tree(records, workload):
    traced, _, out = records[workload]
    spans = [
        json.loads(line)
        for line in (out / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    by_id = {span["id"]: span for span in spans}
    self_ns = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is None:
            continue
        parent = by_id[span["parent"]]
        assert parent["id"] < span["id"]
        assert parent["thread"] == span["thread"]
        assert parent["stmt_id"] == span["stmt_id"]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        self_ns[parent["id"]] -= span["end"] - span["start"]
    assert min(self_ns.values()) >= 0  # children never overlap each other
    statements = {s["stmt_id"] for s in spans if s["name"] == "stmt"}
    assert len(statements) == traced["samples"]
    in_statements = sum(
        self_ns[s["id"]] for s in spans if s["stmt_id"] in statements
    )
    wall = traced["traced_statement_wall_ns"]
    assert abs(in_statements - wall) <= 0.10 * wall
    # and at least nine tenths of that wall lies inside some layer's span
    assert traced["per_layer"]["obs.traced_self_time_share"] >= 0.90
    assert traced["per_layer"]["obs.trace_overhead_ratio"] > 0


def test_command_line_prints_the_contract_line_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload",
         "plan_cold", "--seed", "1", "--seconds", "12", "--trace", "0",
         "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {e["name"] for e in CONTRACT["end_to_end"]}
    assert (tmp_path / "results.jsonl").exists()
