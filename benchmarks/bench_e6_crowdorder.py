"""E6 — CROWDORDER ranking quality and comparison budget.

Reproduces [3] §6.4 (Figure 12 analog): crowd-sorting items against a
known ground-truth ranking.  The crowd ranking correlates strongly with
the truth (the paper reported rank correlations around 0.95), and the
stop-after (LIMIT k) tournament needs fewer ballots than a full sort on
shuffled input while still returning the right top-k.
"""

import random

import pytest

from crowdbench import fresh, picture_oracle, quiet, report

from repro import CrowdConfig, connect

N_ITEMS = 12
QUESTION = "Which picture is better?"


def build_db(seed: int, replication: int = 3):
    fresh()
    oracle = picture_oracle(N_ITEMS)
    db = connect(
        oracle=oracle,
        seed=seed,
        crowd_config=CrowdConfig(replication=replication),
    )
    db.execute("CREATE TABLE Picture (name STRING PRIMARY KEY)")
    order = list(range(N_ITEMS))
    random.Random(seed).shuffle(order)
    for i in order:
        db.execute("INSERT INTO Picture VALUES (?)", (f"picture{i:02d}",))
    return db


def crowd_ranking(seed: int, replication: int = 3):
    db = build_db(seed, replication)
    with quiet():
        rows = db.query(
            f"SELECT name FROM Picture ORDER BY CROWDORDER(name, '{QUESTION}')"
        )
    ranking = [row[0] for row in rows]
    return ranking, db.crowd_stats["compare_requests"]


def rank_correlation(ranking):
    truth = sorted(ranking, key=lambda name: -int(name[-2:]))
    positions = {name: i for i, name in enumerate(truth)}
    observed = [positions[name] for name in ranking]
    # both sides are permutations of 0..n-1 (no ties): Spearman's closed form
    n = len(observed)
    squared = sum((got - want) ** 2 for want, got in enumerate(observed))
    return 1.0 - 6.0 * squared / (n * (n * n - 1))


def test_e6_ranking_quality(benchmark):
    rhos = []
    ballots = []
    for seed in (41, 42, 43):
        ranking, comparisons = crowd_ranking(seed)
        rhos.append(rank_correlation(ranking))
        ballots.append(comparisons)
    benchmark.pedantic(crowd_ranking, args=(44,), rounds=1, iterations=1)

    mean_rho = sum(rhos) / len(rhos)
    # [3] reported ~0.95 rank correlation; the simulated crowd with
    # majority voting must land in the same high band
    assert mean_rho > 0.85

    report(
        "E6a",
        "CROWDORDER rank correlation vs ground truth ([3] Fig. 12 analog)",
        ["seed", "spearman rho", "distinct ballots"],
        [
            (seed, f"{rho:.3f}", b)
            for seed, rho, b in zip((41, 42, 43), rhos, ballots)
        ]
        + [("mean", f"{mean_rho:.3f}", "")],
    )


def test_e6_topk_budget(benchmark):
    """Stop-after push-down: LIMIT k costs fewer ballots than a full sort
    and still returns the true top-k (modulo crowd noise)."""

    def run(sql_suffix, seed=47):
        db = build_db(seed)
        with quiet():
            rows = db.query(
                f"SELECT name FROM Picture ORDER BY "
                f"CROWDORDER(name, '{QUESTION}'){sql_suffix}"
            )
        return [r[0] for r in rows], db.crowd_stats["compare_requests"]

    top3, top3_ballots = benchmark.pedantic(
        run, args=(" LIMIT 3",), rounds=1, iterations=1
    )
    full, full_ballots = run("")

    assert len(top3) == 3
    assert top3_ballots < full_ballots
    # the true best item should head the top-3 list
    truth_best = f"picture{N_ITEMS - 1:02d}"
    assert truth_best in top3

    report(
        "E6b",
        "comparison budget: top-k tournament vs full crowd sort",
        ["query", "ballots", "result size"],
        [
            ("ORDER BY CROWDORDER ... LIMIT 3", top3_ballots, len(top3)),
            ("ORDER BY CROWDORDER (full sort)", full_ballots, len(full)),
        ],
    )
