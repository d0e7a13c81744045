"""Batch crowd execution: batch-vs-per-row equivalence and HIT groups.

The batch path must change the *schedule* of crowd work, never its
answers: under one seed and a near-perfect simulated crowd (the E12/E13
convention — quality control is covered by the noisy-crowd tests), a
query run with ``batch_size=1``, ``batch_size=16``, and
``hit_group_size=4`` returns identical ResultSets and leaves identical
memorized storage state.  The scheduler additionally must resume a
session suspended on a whole *set* of futures only once the set settled.
"""

import json
from pathlib import Path

import pytest

from repro import CrowdConfig, connect, serve
from repro.catalog.ddl import build_table_schema
from repro.crowd.model import FillGroupTask, FillTask, reset_id_counters
from repro.crowd.platform import PlatformRegistry
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.population import generate_population
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import TaskManager
from repro.errors import ExecutionError
from repro.server.session import Session, SessionState
from repro.sql.parser import parse
from repro.storage.engine import StorageEngine
from repro.ui.manager import UITemplateManager

SEED = 19
CITIES = 12


def city_oracle(count: int = CITIES) -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    for i in range(count):
        oracle.load_fill(
            "City",
            (f"city{i:02d}",),
            {"population": 1000 + 31 * i, "elevation": 7 * i},
        )
    return oracle


def picture_oracle(count: int = 8) -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    scores = {f"picture{i:02d}": float(i) for i in range(count)}
    oracle.load_ranking("Which picture is better?", scores)
    return oracle


def near_perfect_db(oracle: GroundTruthOracle, **config_kwargs):
    """Deterministic high-skill AMT instance: different schedules must
    still produce identical answers (E12's equivalence convention)."""
    reset_id_counters()
    workers = generate_population(
        200, seed=SEED, skill_range=(0.995, 1.0), id_prefix="amt-"
    )
    platform = SimulatedAMT(
        oracle,
        workers=workers,
        seed=SEED,
        config=BehaviorConfig(base_accuracy=0.999),
    )
    return connect(
        oracle=oracle,
        seed=SEED,
        platforms=(platform,),
        default_platform="amt",
        crowd_config=CrowdConfig(**config_kwargs),
    )


def city_db(**config_kwargs):
    db = near_perfect_db(city_oracle(), **config_kwargs)
    db.execute(
        "CREATE TABLE City (name STRING PRIMARY KEY, "
        "population CROWD INTEGER, elevation CROWD INTEGER)"
    )
    for i in range(CITIES):
        db.execute(f"INSERT INTO City (name) VALUES ('city{i:02d}')")
    return db


def heap_state(db, table: str):
    return sorted(row.values for row in db.engine.table(table).scan())


class TestBatchFillEquivalence:
    CONFIGS = [
        dict(batch_size=1, hit_group_size=1),
        dict(batch_size=16, hit_group_size=1),
        dict(batch_size=16, hit_group_size=4),
    ]

    @pytest.fixture(scope="class")
    def runs(self):
        results = []
        for config in self.CONFIGS:
            db = city_db(**config)
            result = db.execute(
                "SELECT name, population, elevation FROM City"
            )
            results.append(
                {
                    "rows": sorted(result.rows),
                    "heap": heap_state(db, "City"),
                    "stats": db.crowd_stats,
                    "seconds": db.platforms.get("amt").clock.now,
                }
            )
        return results

    def test_identical_result_sets(self, runs):
        baseline = runs[0]["rows"]
        assert runs[1]["rows"] == baseline
        assert runs[2]["rows"] == baseline

    def test_identical_memorized_storage(self, runs):
        baseline = runs[0]["heap"]
        assert runs[1]["heap"] == baseline
        assert runs[2]["heap"] == baseline

    def test_hit_groups_post_fewer_hits_same_cost(self, runs):
        per_row, batched, grouped = runs
        assert batched["stats"]["hits_posted"] == per_row["stats"]["hits_posted"]
        assert grouped["stats"]["hits_posted"] < per_row["stats"]["hits_posted"]
        assert grouped["stats"]["cost_cents"] == per_row["stats"]["cost_cents"]
        # four tasks a HIT: at most a quarter of the HITs, rounded up
        assert grouped["stats"]["hits_posted"] <= (
            per_row["stats"]["hits_posted"] + 3
        ) // 4

    def test_batching_cuts_simulated_makespan(self, runs):
        """Issuing the window up front overlaps the marketplace latency
        that tuple-at-a-time execution pays once per row."""
        per_row, batched, grouped = runs
        assert per_row["seconds"] >= 3.0 * batched["seconds"]
        # HIT groups trade some overlap for fewer HITs, and still win
        assert per_row["seconds"] >= 2.0 * grouped["seconds"]


class TestCrowdEqualBatchEquivalence:
    def _db(self, **config_kwargs):
        oracle = GroundTruthOracle()
        oracle.declare_same_entity("IBM", "I.B.M.", "ibm corp")
        oracle.declare_same_entity("SAP", "S.A.P.")
        db = near_perfect_db(oracle, **config_kwargs)
        db.execute("CREATE TABLE Company (name STRING PRIMARY KEY)")
        for name in ("I.B.M.", "ibm corp", "S.A.P.", "Oracle", "HP"):
            db.execute(f"INSERT INTO Company (name) VALUES ('{name}')")
        return db

    def test_prefetched_ballots_match_per_row(self):
        answers = []
        stats = []
        for batch_size in (1, 16):
            db = self._db(batch_size=batch_size)
            result = db.execute(
                "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')"
            )
            answers.append(sorted(result.rows))
            stats.append(db.crowd_stats)
        assert answers[0] == answers[1] == [("I.B.M.",), ("ibm corp",)]
        # prefetching changes when ballots are posted, not how many
        assert stats[0]["compare_requests"] == stats[1]["compare_requests"]
        assert stats[0]["hits_posted"] == stats[1]["hits_posted"]


class TestCrowdOrderBatchEquivalence:
    def _rows(self, sql: str, batch_size: int):
        db = near_perfect_db(picture_oracle(), batch_size=batch_size)
        db.execute("CREATE TABLE Picture (name STRING PRIMARY KEY)")
        for i in range(8):
            db.execute(f"INSERT INTO Picture (name) VALUES ('picture{i:02d}')")
        return db.execute(sql).rows

    def test_full_sort_identical(self):
        sql = (
            "SELECT name FROM Picture "
            "ORDER BY CROWDORDER(name, 'Which picture is better?')"
        )
        assert self._rows(sql, 1) == self._rows(sql, 16)

    def test_top_k_identical(self):
        sql = (
            "SELECT name FROM Picture "
            "ORDER BY CROWDORDER(name, 'Which picture is better?') "
            "LIMIT 3"
        )
        assert self._rows(sql, 1) == self._rows(sql, 16)
        assert self._rows(sql, 16) == [
            ("picture07",), ("picture06",), ("picture05",)
        ]


class TestFillGroupTaskManager:
    TALK = build_table_schema(
        parse(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING)"
        )
    )

    def _manager(self, answer_fn, hit_group_size):
        registry = PlatformRegistry()
        platform = ScriptedPlatform(answer_fn)
        registry.register(platform)
        ui = UITemplateManager(StorageEngine().catalog)
        manager = TaskManager(
            registry, ui, config=CrowdConfig(hit_group_size=hit_group_size)
        )
        return manager, platform

    def test_groups_fan_out_to_member_futures(self):
        def answer(task, replica):
            if isinstance(task, FillGroupTask):
                return [
                    {"abstract": f"abstract of {subtask.primary_key[0]}"}
                    for subtask in task.subtasks
                ]
            return {"abstract": f"abstract of {task.primary_key[0]}"}

        manager, platform = self._manager(answer, hit_group_size=2)
        requests = [
            (self.TALK, (f"talk{i}",), ("abstract",), {"title": f"talk{i}"})
            for i in range(3)
        ]
        futures = manager.begin_fill_many(requests)
        manager.wait_many(futures)
        values = [future.result()["abstract"] for future in futures]
        assert values == [f"abstract of talk{i}" for i in range(3)]
        # 3 tasks in groups of 2 -> 2 HITs (2 + 1)
        assert manager.stats.hits_posted == 2
        assert len(platform.posted_tasks) == 2
        assert isinstance(platform.posted_tasks[0], FillGroupTask)
        assert isinstance(platform.posted_tasks[1], FillTask)

    def test_group_reward_scales_with_size(self):
        def answer(task, replica):
            return [{"abstract": "x"}] * len(task.subtasks)

        manager, platform = self._manager(answer, hit_group_size=4)
        requests = [
            (self.TALK, (f"talk{i}",), ("abstract",), {"title": f"talk{i}"})
            for i in range(4)
        ]
        futures = manager.begin_fill_many(requests)
        manager.wait_many(futures)
        (hit,) = platform._hits.values()
        assert hit.reward_cents == manager.config.reward_cents * 4
        # total cost equals four individual HITs
        assert manager.stats.cost_cents == (
            4 * manager.config.reward_cents * manager.config.replication
        )


class _FakeFuture:
    def __init__(self):
        self.settled = False


class TestMultiFutureSuspension:
    def test_session_resumes_only_when_whole_set_settles(self):
        from repro.engine.executor import Executor

        session = Session(1, Executor(StorageEngine()))
        first, second = _FakeFuture(), _FakeFuture()
        session.state = SessionState.WAITING
        session.waiting_on = [first, second]
        assert session.waiting_futures() == (first, second)
        assert not session.runnable()
        first.settled = True
        assert not session.runnable()
        second.settled = True
        assert session.runnable()
        session.state = SessionState.CLOSED

    def test_server_runs_batched_query_to_completion(self):
        server = serve(
            connection=city_db(batch_size=16, hit_group_size=1)
        )
        session = server.open_session().submit(
            "SELECT name, population FROM City"
        )
        server.run()
        rows = sorted(session.last_result().rows)
        assert rows == [
            (f"city{i:02d}", 1000 + 31 * i) for i in range(CITIES)
        ]
        # the whole window suspended once, not once per CNULL row
        assert server.scheduler.stats.suspensions < CITIES
        assert server.scheduler.stats.futures_settled >= CITIES
        server.shutdown()


# -- the CrowdJoin pin -----------------------------------------------------------
#
# ``tests/golden/crowdjoin_v1.jsonl`` holds, per statement and connection,
# the result rows and every task posted, in posting order, of CrowdJoins
# over a scripted crowd: at ``batch_size`` 1 (a window of one outer
# tuple), at 16, under LIMIT 1 and 2 (the planner clamps the window to
# the bound), and with no crowd at all (``with_crowd=False``: stored
# matches only).  Talk A has two stored attendees whose CROWD column is
# CNULL, B one filled attendee, C and D none (the crowd knows two for C
# and none for D).  It was written while batch 1 and the crowd-less
# connection ran CrowdJoin's per-tuple path.  ``python
# tests/test_batch_execution.py`` rewrites it -- only at the parent of a
# change meant to alter what a CrowdJoin returns or posts.

CROWDJOIN_GOLDEN = Path(__file__).parent / "golden" / "crowdjoin_v1.jsonl"

CROWDJOIN_QUERIES = [
    "SELECT t.title, n.name, n.affiliation FROM Talk t "
    "JOIN Attendee n ON n.title = t.title",
    "SELECT t.title, n.name FROM Talk t JOIN Attendee n "
    "ON n.title = t.title AND n.name <> 'Ann'",
    "SELECT t.title, n.name, n.affiliation FROM Talk t "
    "JOIN Attendee n ON n.title = t.title LIMIT 1",
    "SELECT t.title, n.name, n.affiliation FROM Talk t "
    "JOIN Attendee n ON n.title = t.title LIMIT 2",
    "SELECT t.title, n.name FROM Talk t JOIN Attendee n "
    "ON n.title = t.title WHERE t.title <> 'A' LIMIT 1",
]


def crowdjoin_db(with_crowd: bool, batch_size: int):
    reset_id_counters()
    oracle = GroundTruthOracle()
    for name, affiliation in [("Ann", "MIT"), ("Bob", "ETH"),
                              ("Cid", "TUM"), ("Dee", "CMU"),
                              ("Eve", "EPFL")]:
        oracle.load_fill("Attendee", (name,), {"affiliation": affiliation})
    oracle.load_new_tuples(
        "Attendee",
        [{"name": "Dee", "title": "C"}, {"name": "Eve", "title": "C"}],
        fixed_columns=("title",),
    )
    platform = ScriptedPlatform(oracle_answer_fn(oracle))
    if with_crowd:
        db = connect(
            oracle=oracle,
            platforms=(platform,),
            default_platform="scripted",
            crowd_config=CrowdConfig(batch_size=batch_size),
        )
    else:
        db = connect(with_crowd=False)
    db.executescript(
        """
        CREATE TABLE Talk (title STRING PRIMARY KEY);
        CREATE CROWD TABLE Attendee (
            name STRING PRIMARY KEY,
            title STRING,
            affiliation CROWD STRING
        );
        INSERT INTO Talk VALUES ('A'), ('B'), ('C'), ('D');
        INSERT INTO Attendee (name, title) VALUES ('Ann', 'A'), ('Bob', 'A');
        INSERT INTO Attendee VALUES ('Cid', 'B', 'TUM');
        """
    )
    return db, platform


def crowdjoin_records() -> list[dict]:
    records = []
    for with_crowd, batch_size in ((True, 1), (True, 16), (False, 1)):
        for sql in CROWDJOIN_QUERIES:
            db, platform = crowdjoin_db(with_crowd, batch_size)
            rows = db.execute(sql).rows
            records.append({
                "sql": sql,
                "crowd": with_crowd,
                "batch": batch_size,
                "rows": repr(rows),
                "tasks": [repr(task) for task in platform.posted_tasks],
                "attendees": repr(heap_state(db, "Attendee")),
            })
            db.close()
    return records


def test_crowdjoin_golden():
    with open(CROWDJOIN_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = crowdjoin_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


# -- the CrowdProbe and CROWDEQUAL pin ------------------------------------------
#
# ``tests/golden/crowdprobe_v1.jsonl`` holds, per statement and connection,
# the result rows (or the error), every task posted in posting order, the
# ``ResultSet.crowd_stats`` counters and the stored CROWD-column tables,
# over the scripted crowd of ``crowdjoin_v1``: CNULL fills over a scan,
# key-pinned anti-probes (Globex and Umbrella known to the crowd, Hooli
# not), fills under LIMIT 1 and 2, an open-world CROWD-table scan under
# LIMIT, and CROWDEQUAL filters with one and two ballots per row (one of
# them behind an electronic conjunct).  Each runs at ``batch_size`` 1, at
# 16, and with no crowd.  It was written while batch 1 ran CrowdProbe's
# per-tuple path and FilterOp's per-row ballots.  ``python
# tests/test_batch_execution.py`` rewrites it -- only at the parent of a
# change meant to alter what a CrowdProbe or a CROWDEQUAL filter returns,
# posts or stores.

CROWDPROBE_GOLDEN = Path(__file__).parent / "golden" / "crowdprobe_v1.jsonl"

CROWDPROBE_QUERIES = [
    "SELECT name, population, elevation FROM City",
    "SELECT name, ceo FROM Company "
    "WHERE name IN ('Acme', 'Globex', 'Umbrella', 'Hooli')",
    "SELECT name, population FROM City LIMIT 1",
    "SELECT name, population FROM City LIMIT 2",
    "SELECT name, hq FROM Company LIMIT 4",
    "SELECT id FROM Office WHERE CROWDEQUAL(city, 'Berlin')",
    "SELECT id FROM Office "
    "WHERE CROWDEQUAL(city, 'Berlin') OR CROWDEQUAL(code, 'Paris')",
    "SELECT id FROM Office WHERE id > 1 "
    "AND CROWDEQUAL(city, 'Berlin') AND CROWDEQUAL(code, 'Paris')",
]


def crowdprobe_db(with_crowd: bool, batch_size: int):
    reset_id_counters()
    oracle = GroundTruthOracle()
    for i in range(5):
        oracle.load_fill(
            "City", (f"city{i}",), {"population": 100 + i, "elevation": 10 * i}
        )
    for name, ceo in [("Acme", "Ada"), ("Globex", "Hank"),
                      ("Umbrella", "Ozwell")]:
        oracle.load_fill("Company", (name,), {"ceo": ceo})
    oracle.load_new_tuples("Company", [
        {"name": "Globex", "hq": "Springfield", "ceo": "Hank"},
        {"name": "Umbrella", "hq": "Raccoon City", "ceo": "Ozwell"},
    ])
    oracle.declare_same_entity("Berlin", "BER")
    oracle.declare_same_entity("Paris", "PAR")
    platform = ScriptedPlatform(oracle_answer_fn(oracle))
    if with_crowd:
        db = connect(
            oracle=oracle,
            platforms=(platform,),
            default_platform="scripted",
            crowd_config=CrowdConfig(batch_size=batch_size),
        )
    else:
        db = connect(with_crowd=False)
    db.executescript(
        """
        CREATE TABLE City (name STRING PRIMARY KEY,
            population CROWD INTEGER, elevation CROWD INTEGER);
        CREATE CROWD TABLE Company (name STRING PRIMARY KEY, hq STRING,
            ceo CROWD STRING);
        CREATE TABLE Office (id INTEGER PRIMARY KEY, city STRING,
            code STRING);
        INSERT INTO City (name) VALUES
            ('city0'), ('city2'), ('city3'), ('city4');
        INSERT INTO City VALUES ('city1', 101, 10);
        INSERT INTO Company (name, hq) VALUES
            ('Acme', 'Berlin'), ('Initrode', 'Paris');
        INSERT INTO Office VALUES (1, 'BER', 'PAR'), (2, 'Berlin', 'X'),
            (3, 'Rome', 'Paris'), (4, 'Oslo', 'PAR'), (5, 'Berlin', 'Berlin');
        """
    )
    return db, platform


def crowdprobe_records() -> list[dict]:
    records = []
    for with_crowd, batch_size in ((True, 1), (True, 16), (False, 1)):
        for sql in CROWDPROBE_QUERIES:
            db, platform = crowdprobe_db(with_crowd, batch_size)
            try:
                result = db.execute(sql)
                outcome = {
                    "rows": repr(result.rows),
                    "stats": dict(sorted(result.crowd_stats.items())),
                }
            except ExecutionError as error:
                outcome = {"error": str(error)}
            records.append({
                "sql": sql,
                "crowd": with_crowd,
                "batch": batch_size,
                **outcome,
                "tasks": [repr(task) for task in platform.posted_tasks],
                "city": repr(heap_state(db, "City")),
                "company": repr(heap_state(db, "Company")),
            })
            db.close()
    return records


def test_crowdprobe_golden():
    with open(CROWDPROBE_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = crowdprobe_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


if __name__ == "__main__":
    for path, make in ((CROWDJOIN_GOLDEN, crowdjoin_records),
                       (CROWDPROBE_GOLDEN, crowdprobe_records)):
        with open(path, "w", encoding="utf-8") as handle:
            for record in make():
                handle.write(json.dumps(record) + "\n")
