"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table/figure from the experiment index in
DESIGN.md §3.  Results are printed (visible with ``pytest -s``) and
appended to ``benchmarks/results/<experiment>.txt`` so the numbers cited
in EXPERIMENTS.md are reproducible artifacts, not copy-paste.
"""

from __future__ import annotations

import os
import warnings
from typing import Iterable, Sequence

from repro import connect
from repro.crowd.model import reset_id_counters
from repro.crowd.sim.traces import GroundTruthOracle
from repro.errors import CrowdDBWarning

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The experiment index (DESIGN.md §3): every benchmark module tracked by
#: the harness.  ``pytest benchmarks`` runs them all; results land in
#: ``benchmarks/results/<id>.txt``.
EXPERIMENTS = {
    "D1": ("bench_d1_end_to_end", "end-to-end demo workload"),
    "E1": ("bench_e1_responsiveness", "HIT-group responsiveness"),
    "E2": ("bench_e2_worker_affinity", "worker affinity tail"),
    "E3": ("bench_e3_probe_quality", "CrowdProbe quality"),
    "E4": ("bench_e4_crowdjoin", "CrowdJoin probes"),
    "E5": ("bench_e5_crowdequal", "CROWDEQUAL entity resolution"),
    "E6": ("bench_e6_crowdorder", "CROWDORDER ranking"),
    "E7": ("bench_e7_optimizer", "optimizer plan quality"),
    "E8": ("bench_e8_boundedness", "boundedness analysis"),
    "E9": ("bench_e9_caching", "answer caching"),
    "E10": ("bench_e10_cleansing", "answer cleansing"),
    "E11": ("bench_e11_platforms", "platform comparison"),
    "F1": ("bench_f1_architecture", "architecture walkthrough"),
    "F2": ("bench_f2_ui_generation", "UI template generation"),
    "F3": ("bench_f3_mobile_task", "mobile platform tasks"),
}


def report(experiment: str, title: str, headers: Sequence[str],
           rows: Iterable[Sequence]) -> str:
    """Format, print, and persist one result table."""
    rows = [list(map(_fmt, row)) for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [f"== {experiment}: {title} =="]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    text = "\n".join(lines)
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment.lower()}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return text


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


import contextlib


@contextlib.contextmanager
def quiet():
    """Suppress expected CrowdDB warnings inside sweeps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CrowdDBWarning)
        yield


# -- workload builders -------------------------------------------------------


def professor_oracle(count: int = 40) -> GroundTruthOracle:
    """The companion paper's CrowdProbe workload: professors with missing
    department and email (SIGMOD'11 §6.2 analog)."""
    oracle = GroundTruthOracle()
    departments = ["EECS", "Statistics", "Biology", "Chemistry", "History"]
    for i in range(count):
        name = f"Prof. {chr(65 + i % 26)}{i:03d}"
        oracle.load_fill(
            "Professor",
            (name,),
            {
                "department": departments[i % len(departments)],
                "email": f"prof{i:03d}@univ.edu",
            },
        )
    return oracle


def professor_db(oracle: GroundTruthOracle, count: int = 40, seed: int = 7,
                 replication: int = 3, population: int = 200):
    from repro import CrowdConfig

    db = connect(
        oracle=oracle,
        seed=seed,
        amt_population=population,
        crowd_config=CrowdConfig(replication=replication),
    )
    db.execute(
        "CREATE TABLE Professor (name STRING PRIMARY KEY, "
        "department CROWD STRING, email CROWD STRING)"
    )
    for i in range(count):
        db.execute(
            "INSERT INTO Professor (name) VALUES (?)",
            (f"Prof. {chr(65 + i % 26)}{i:03d}",),
        )
    return db


def company_oracle() -> GroundTruthOracle:
    """CROWDEQUAL entity-resolution workload (SIGMOD'11 §6.4 analog)."""
    oracle = GroundTruthOracle()
    entities = {
        "IBM": ["I.B.M.", "International Business Machines", "ibm corp"],
        "Microsoft": ["MSFT", "Microsoft Corporation", "microsoft corp."],
        "Oracle": ["Oracle Corp", "ORCL", "Oracle Corporation"],
        "SAP": ["S.A.P.", "SAP SE"],
        "Google": ["Alphabet/Google", "google inc"],
        "HP": ["Hewlett-Packard", "H.P.", "Hewlett Packard"],
    }
    for canonical, variants in entities.items():
        oracle.declare_same_entity(canonical, *variants)
    return oracle


COMPANY_PAIRS = [
    # (left, right, truly_equal)
    ("I.B.M.", "IBM", True),
    ("International Business Machines", "IBM", True),
    ("ibm corp", "IBM", True),
    ("MSFT", "Microsoft", True),
    ("Microsoft Corporation", "Microsoft", True),
    ("Oracle Corp", "Oracle", True),
    ("ORCL", "Oracle", True),
    ("S.A.P.", "SAP", True),
    ("Hewlett-Packard", "HP", True),
    ("H.P.", "HP", True),
    ("IBM", "Microsoft", False),
    ("Oracle", "SAP", False),
    ("Google", "HP", False),
    ("MSFT", "Oracle", False),
    ("Alphabet/Google", "IBM", False),
    ("SAP SE", "Microsoft", False),
]


def picture_oracle(count: int = 12) -> GroundTruthOracle:
    """CROWDORDER ranking workload (the paper ranked pictures; we rank
    named items with known ground-truth scores)."""
    oracle = GroundTruthOracle()
    scores = {f"picture{i:02d}": float(i) for i in range(count)}
    oracle.load_ranking("Which picture is better?", scores)
    return oracle


def fresh(seed: int = 0):
    """Reset global id counters for deterministic runs."""
    reset_id_counters()
