"""E5 — CROWDEQUAL entity resolution quality.

Reproduces [3] §6.4 (Figure 11 analog): the "I.B.M." = "IBM" company-name
workload.  The crowd resolves surface-form variants that exact string
matching misses; majority voting over 3/5 ballots beats a single ballot.
"""

import pytest

from crowdbench import COMPANY_PAIRS, company_oracle, fresh, report

from repro.crowd.platform import PlatformRegistry
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.task_manager import CrowdConfig, TaskManager
from repro.storage.engine import StorageEngine
from repro.ui.manager import UITemplateManager


def resolution_accuracy(replication: int, seed: int = 31):
    fresh()
    oracle = company_oracle()
    registry = PlatformRegistry()
    registry.register(SimulatedAMT(oracle, population=150, seed=seed))
    tm = TaskManager(
        registry,
        UITemplateManager(StorageEngine().catalog),
        config=CrowdConfig(replication=replication),
    )
    correct = 0
    for left, right, truth in COMPANY_PAIRS:
        future = tm.begin_compare_equal(left, right, "Same company?")
        tm.wait(future)
        answer = future.result()
        if answer == truth:
            correct += 1
    return correct / len(COMPANY_PAIRS), tm.stats.cost_cents


def exact_match_accuracy():
    """The baseline a traditional DBMS achieves with string equality."""
    correct = 0
    for left, right, truth in COMPANY_PAIRS:
        if (left == right) == truth:
            correct += 1
    return correct / len(COMPANY_PAIRS)


def test_e5_crowdequal(benchmark):
    baseline = exact_match_accuracy()
    results = {r: resolution_accuracy(r) for r in (1, 3, 5)}
    benchmark.pedantic(resolution_accuracy, args=(3,), rounds=1, iterations=1)

    acc1, _ = results[1]
    acc3, _ = results[3]
    acc5, _ = results[5]

    # the crowd beats exact matching by a wide margin, and replication
    # improves robustness
    assert acc3 > baseline + 0.3
    assert acc5 >= acc3 - 0.07
    assert acc5 >= acc1
    assert acc5 >= 0.9

    report(
        "E5",
        "CROWDEQUAL entity-resolution accuracy ([3] Fig. 11 analog)",
        ["strategy", "accuracy", "cost (cents)"],
        [
            ("exact string equality (no crowd)", f"{baseline:.1%}", 0),
            ("CROWDEQUAL, 1 ballot", f"{acc1:.1%}", results[1][1]),
            ("CROWDEQUAL, 3 ballots", f"{acc3:.1%}", results[3][1]),
            ("CROWDEQUAL, 5 ballots", f"{acc5:.1%}", results[5][1]),
        ],
    )
