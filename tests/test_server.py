"""Tests for the concurrent query server (repro.server).

Covers the shared task pool (identical concurrent fills/compares issue
exactly one HIT; answers fan out to every waiting session), the
cooperative scheduler (suspend on crowd waits, deterministic resume,
per-statement error isolation), and admission control.

``python tests/test_server.py`` rewrites ``tests/golden/sched_v1.jsonl``
— only ever do that on purpose, at the parent of a change meant to alter
what the scheduler advances, settles or traces.
"""

import json
import os
import warnings

import pytest

import repro.crowd.task_manager as task_manager_module
import repro.server.scheduler as scheduler
from repro import connect, serve
from repro.crowd.future import CrowdFuture, readiness
from repro.crowd.model import HIT, reset_id_counters
from repro.crowd.platform import PlatformRegistry
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import CrowdConfig, TaskManager
from repro.errors import AdmissionError, CrowdDBWarning, ExecutionError
from repro.server import (
    AdmissionConfig,
    AdmissionController,
    Server,
    Session,
    SessionState,
)
from repro.sql.parser import parse_script
from repro.storage.engine import StorageEngine
from repro.ui.manager import UITemplateManager


def make_oracle(cities: int = 8) -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    for i in range(cities):
        oracle.load_fill(
            "City",
            (f"city{i}",),
            {"population": 1000 + i, "elevation": 10 * i},
        )
    oracle.declare_same_entity("I.B.M.", "IBM")
    return oracle


def make_server(seed: int = 5, **kwargs) -> Server:
    reset_id_counters()
    server = serve(oracle=make_oracle(), seed=seed, **kwargs)
    server.connection.execute(
        "CREATE TABLE City (name STRING PRIMARY KEY, "
        "population CROWD INTEGER, elevation CROWD INTEGER)"
    )
    for i in range(8):
        server.connection.execute(
            "INSERT INTO City (name) VALUES (?)", (f"city{i}",)
        )
    return server


class TestTaskPoolDedup:
    def test_identical_concurrent_fills_issue_one_hit(self):
        server = make_server()
        sessions = [
            server.open_session().submit(
                "SELECT population FROM City WHERE name = 'city3'"
            )
            for _ in range(3)
        ]
        server.run()
        rows = [s.last_result().rows for s in sessions]
        assert rows[0] == rows[1] == rows[2]
        assert rows[0] == [(1003,)]
        stats = server.stats()
        assert stats["task_manager"]["fill_requests"] == 3
        assert stats["task_manager"]["hits_posted"] == 1
        assert stats["task_pool"]["hits_saved"] == 2
        server.shutdown()

    def test_distinct_fills_not_merged(self):
        server = make_server()
        a = server.open_session().submit(
            "SELECT population FROM City WHERE name = 'city1'"
        )
        b = server.open_session().submit(
            "SELECT elevation FROM City WHERE name = 'city1'"
        )
        server.run()
        assert a.last_result().rows == [(1001,)]
        assert b.last_result().rows == [(10,)]
        # same tuple but different needed columns: two distinct HITs
        assert server.stats()["task_manager"]["hits_posted"] == 2
        server.shutdown()

    def test_concurrent_compares_share_one_ballot(self):
        server = make_server()
        sql = "SELECT name FROM City WHERE CROWDEQUAL('I.B.M.', 'IBM') LIMIT 1"
        a = server.open_session().submit(sql)
        b = server.open_session().submit(sql)
        server.run()
        assert a.last_result().rows == b.last_result().rows
        stats = server.stats()
        assert stats["task_manager"]["compare_requests"] == 1
        assert stats["task_pool"]["hits_saved"] >= 1
        server.shutdown()

    def test_mirrored_compares_share_one_ballot(self):
        """CROWDEQUAL(a, b) and CROWDEQUAL(b, a) in flight together are
        one question — one HIT, consistent cached answer both ways."""
        server = make_server()
        a = server.open_session().submit(
            "SELECT name FROM City WHERE CROWDEQUAL('I.B.M.', 'IBM') LIMIT 1"
        )
        b = server.open_session().submit(
            "SELECT name FROM City WHERE CROWDEQUAL('IBM', 'I.B.M.') LIMIT 1"
        )
        server.run()
        assert a.last_result().rows == b.last_result().rows
        stats = server.stats()["task_manager"]
        assert stats["compare_requests"] == 1
        assert stats["hits_posted"] == 1
        server.shutdown()

    def test_mirrored_order_ballot_inverts_answer(self, crowd_answer):
        from repro.catalog.ddl import build_table_schema  # noqa: F401
        from repro.crowd.platform import PlatformRegistry
        from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
        from repro.crowd.task_manager import TaskManager
        from repro.ui.manager import UITemplateManager
        from repro.storage.engine import StorageEngine

        oracle = GroundTruthOracle()
        oracle.load_ranking("best?", {"a": 2.0, "b": 1.0})
        registry = PlatformRegistry()
        registry.register(ScriptedPlatform(oracle_answer_fn(oracle)))
        engine = StorageEngine()
        manager = TaskManager(registry, UITemplateManager(engine.catalog))
        forward = manager.begin_compare_order("a", "b", "best?")
        backward = manager.begin_compare_order("b", "a", "best?")
        assert backward.mirror_of is forward
        assert manager.stats.hits_posted == 1
        manager.settle(backward)  # settles through the parent
        assert forward.result() is True   # 'a' ranks first
        assert backward.result() is False
        # the cache stays direction-consistent
        ask = manager.begin_compare_order
        assert crowd_answer(manager, ask("a", "b", "best?")) is True
        assert crowd_answer(manager, ask("b", "a", "best?")) is False
        assert manager.stats.hits_posted == 1

    def test_shared_open_world_scan_returns_identical_rows(self):
        """When two sessions share one new-tuples future, the session
        that loses the insert race still yields the memorized rows —
        identical queries give identical answers."""
        reset_id_counters()
        oracle = GroundTruthOracle()
        oracle.load_new_tuples(
            "Fact", [{"name": "alpha"}, {"name": "beta"}]
        )
        server = serve(oracle=oracle, seed=6)
        server.connection.execute(
            "CREATE CROWD TABLE Fact (name STRING PRIMARY KEY)"
        )
        sql = "SELECT name FROM Fact LIMIT 2"
        a = server.open_session().submit(sql)
        b = server.open_session().submit(sql)
        server.run()
        assert sorted(a.last_result().rows) == sorted(b.last_result().rows)
        assert len(a.last_result().rows) == 2
        assert server.stats()["task_pool"]["hits_saved"] >= 1
        server.shutdown()

    def test_settled_answers_reused_from_storage(self):
        """Sequential reuse still flows through memorization: a later
        query finds the earlier fill in the heap and posts nothing."""
        server = make_server()
        first = server.open_session().submit(
            "SELECT population FROM City WHERE name = 'city2'"
        )
        server.run()
        posted_after_first = server.stats()["task_manager"]["hits_posted"]
        second = server.open_session().submit(
            "SELECT population FROM City WHERE name = 'city2'"
        )
        server.run()
        assert second.last_result().rows == first.last_result().rows
        assert (
            server.stats()["task_manager"]["hits_posted"]
            == posted_after_first
        )
        server.shutdown()


class TestSharedServerAgainstSerial:
    """One mixed workload — four users probing overlapping windows of 24
    cities and repeating CROWDEQUAL targets — run three ways under one
    seed: a fresh instance per user one after another (every user pays
    in full), one shared instance back to back (memorization reuses
    *settled* answers), and four concurrent sessions on the server."""

    SESSIONS = 4
    CITIES = 24
    COMPANIES = [
        "I.B.M.", "International Business Machines", "ibm corp", "MSFT",
        "Microsoft Corporation", "Oracle Corp", "ORCL", "S.A.P.",
    ]
    TARGETS = ["IBM", "Microsoft", "Oracle", "HP"]

    def _oracle(self):
        oracle = GroundTruthOracle()
        oracle.declare_same_entity("IBM", *self.COMPANIES[:3])
        oracle.declare_same_entity("Microsoft", *self.COMPANIES[3:5])
        oracle.declare_same_entity("Oracle", *self.COMPANIES[5:7])
        oracle.declare_same_entity("SAP", self.COMPANIES[7])
        oracle.declare_same_entity("HP", "Hewlett-Packard")
        for i in range(self.CITIES):
            oracle.load_fill(
                "City",
                (f"city{i:02d}",),
                {"population": 10_000 + 137 * i, "elevation": 5 * i},
            )
        return oracle

    def _scripts(self):
        scripts = []
        for index in range(self.SESSIONS):
            statements = []
            for offset in range(4):  # windows overlap the neighbour's by 2
                city = f"city{(2 * index + offset) % self.CITIES:02d}"
                column = "population" if offset % 2 == 0 else "elevation"
                statements.append(
                    f"SELECT {column} FROM City WHERE name = '{city}'"
                )
            statements.append(
                "SELECT name FROM Company WHERE CROWDEQUAL(name, "
                f"'{self.TARGETS[index % len(self.TARGETS)]}')"
            )
            scripts.append("; ".join(statements))
        return scripts

    def _instance(self, near_perfect_crowd):
        db = near_perfect_crowd(self._oracle())
        db.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER, elevation CROWD INTEGER)"
        )
        db.execute("CREATE TABLE Company (name STRING PRIMARY KEY)")
        for i in range(self.CITIES):
            db.execute(f"INSERT INTO City (name) VALUES ('city{i:02d}')")
        for name in self.COMPANIES:
            db.execute("INSERT INTO Company (name) VALUES (?)", (name,))
        return db

    @staticmethod
    def _serial(db, script):
        return [
            sorted(db.executor.execute(statement).rows)
            for statement in parse_script(script)
        ]

    @pytest.fixture
    def runs(self, near_perfect_crowd):
        scripts = self._scripts()
        isolated = {"hits": 0, "seconds": 0.0}
        for script in scripts:
            db = self._instance(near_perfect_crowd)
            self._serial(db, script)
            isolated["hits"] += db.crowd_stats["hits_posted"]
            isolated["seconds"] += db.platforms.get("amt").clock.now
        db = self._instance(near_perfect_crowd)
        shared = {
            "answers": [self._serial(db, script) for script in scripts],
            "hits": db.crowd_stats["hits_posted"],
            "seconds": db.platforms.get("amt").clock.now,
        }
        server = Server(connection=self._instance(near_perfect_crowd))
        answers = [
            [sorted(result.rows) for result in results]
            for results in server.run_scripts(scripts)
        ]
        stats = server.stats()
        server.shutdown()
        concurrent = {
            "answers": answers,
            "hits": stats["task_manager"]["hits_posted"],
            "seconds": stats["simulated_seconds"],
            "hits_saved": stats["task_pool"]["hits_saved"],
        }
        return isolated, shared, concurrent

    def test_dedup_overlap_and_identical_answers(self, runs):
        isolated, shared, concurrent = runs
        # cross-session dedup: fewer HITs than the users would pay apart,
        # and in-flight sharing is no worse than store-then-reuse
        assert concurrent["hits"] < isolated["hits"]
        assert concurrent["hits"] <= shared["hits"]
        assert concurrent["hits_saved"] > 0
        # crowd waits overlap: under half the simulated wall clock
        assert shared["seconds"] >= 2.0 * concurrent["seconds"]
        assert isolated["seconds"] >= 2.0 * concurrent["seconds"]
        # concurrency changes the schedule, not the answers
        assert concurrent["answers"] == shared["answers"]


class TestTaskPoolUnit:
    def _manager_with_pool(self):
        oracle = make_oracle()
        registry = PlatformRegistry()
        registry.register(ScriptedPlatform(oracle_answer_fn(oracle)))
        engine = StorageEngine()
        manager = TaskManager(
            registry,
            UITemplateManager(engine.catalog),
            config=CrowdConfig(replication=2),
        )
        return manager

    def test_unsettled_future_is_shared_then_forgotten(self):
        manager = self._manager_with_pool()
        from repro.catalog.ddl import build_table_schema
        from repro.sql.parser import parse

        schema = build_table_schema(
            parse(
                "CREATE TABLE City (name STRING PRIMARY KEY, "
                "population CROWD INTEGER)"
            )
        )
        request = (schema, ("city1",), ("population",), {})
        first, second = manager.begin_fill_many([request]) + manager.begin_fill_many([request])
        assert first is second
        assert manager.task_pool.stats.deduplicated == 1
        assert manager.stats.hits_posted == 1
        manager.settle(first)
        assert first.result() == {"population": 1001}
        # settled futures leave the pool; the next request re-posts
        (third,) = manager.begin_fill_many([request])
        assert third is not first
        assert manager.stats.hits_posted == 2

    def test_result_before_settlement_raises(self):
        manager = self._manager_with_pool()
        future = manager.begin_compare_equal("A", "B")
        with pytest.raises(ExecutionError, match="before settlement"):
            future.result()
        manager.settle(future)
        assert future.result() is False


class TestCooperativeScheduler:
    def test_blocked_session_does_not_stall_electronic_work(self):
        server = make_server()
        blocked = server.open_session().submit(
            "SELECT population FROM City WHERE name = 'city5'"
        )
        quick = server.open_session().submit("SELECT COUNT(*) FROM City")
        server.run()
        assert quick.last_result().scalar() == 8
        assert blocked.last_result().rows == [(1005,)]
        assert server.stats()["scheduler"]["suspensions"] >= 1
        server.shutdown()

    def test_statement_errors_are_isolated(self):
        server = make_server()
        session = server.open_session()
        session.submit("SELECT nope FROM Missing")
        session.submit("SELECT COUNT(*) FROM City")
        server.run()
        assert len(session.results) == 2
        assert isinstance(session.results[0], Exception)
        assert session.results[1].scalar() == 8
        assert len(session.errors) == 1
        server.shutdown()

    def test_script_continues_past_failing_statement(self):
        """REPL semantics inside one submitted script: a failure is
        recorded and the remaining statements still run."""
        server = make_server()
        session = server.open_session()
        session.submit(
            "CREATE TABLE log (a INT); "
            "INSERT INTO log VALUES (1); "
            "SELECT nope FROM Missing; "
            "INSERT INTO log VALUES (2); "
            "SELECT COUNT(*) FROM log"
        )
        server.run()
        assert len(session.results) == 5
        assert isinstance(session.results[2], Exception)
        assert session.results[4].scalar() == 2
        server.shutdown()

    def test_session_states_and_close(self):
        server = make_server()
        session = server.open_session()
        assert session.state is SessionState.IDLE
        session.submit("SELECT 1 + 1")
        server.run()
        assert session.last_result().scalar() == 2
        server.close_session(session)
        assert session.state is SessionState.CLOSED
        with pytest.raises(ExecutionError, match="closed"):
            session.submit("SELECT 1")
        server.shutdown()

    def test_run_scripts_orders_results_by_script(self):
        server = make_server()
        results = server.run_scripts(
            [
                "SELECT 1 + 1",
                "SELECT 2 + 2",
                "SELECT 3 + 3",
            ]
        )
        assert [r[0].scalar() for r in results] == [2, 4, 6]
        server.shutdown()

    def test_marketplace_that_never_moves_is_a_stall_not_a_spin(
        self, monkeypatch
    ):
        """A crowd wait whose advance neither settles nor extends a future
        and was not cut short by a statement deadline raises, instead of
        advancing the same frozen clock forever."""
        server = make_server()
        platform = server.connection.platforms.get("amt")
        assert isinstance(platform, SimulatedAMT)
        monkeypatch.setattr(
            platform, "run_until", lambda condition, timeout: False
        )
        server.open_session().submit(
            "SELECT population FROM City WHERE name = 'city5'"
        )
        with pytest.raises(ExecutionError, match=(
            "scheduler stalled: no pending crowd future can make progress "
            "before its deadline"
        )):
            server.run()
        server.shutdown()


class TestAdmission:
    def test_waitlisted_sessions_run_after_promotion(self):
        server = make_server(
            admission=AdmissionConfig(
                max_active_sessions=1, max_waiting_sessions=8
            )
        )
        sessions = [
            server.open_session().submit(
                f"SELECT population FROM City WHERE name = 'city{i}'"
            )
            for i in range(3)
        ]
        server.run()
        for i, session in enumerate(sessions):
            assert session.last_result().rows == [(1000 + i,)]
        stats = server.stats()["admission"]
        assert stats["admitted"] == 1
        assert stats["promoted"] == 2
        server.shutdown()

    def test_full_server_rejects(self):
        server = make_server(
            admission=AdmissionConfig(
                max_active_sessions=1, max_waiting_sessions=1
            )
        )
        server.open_session()
        server.open_session()  # waitlisted
        with pytest.raises(AdmissionError, match="server full"):
            server.open_session()
        assert server.stats()["admission"]["rejected"] == 1
        server.shutdown()

    def test_controller_promotes_fifo(self):
        controller = AdmissionController(
            AdmissionConfig(max_active_sessions=1, max_waiting_sessions=4)
        )

        class Stub:
            def __init__(self, session_id):
                self.session_id = session_id

        first, second, third = Stub(1), Stub(2), Stub(3)
        assert controller.request(first) is True
        assert controller.request(second) is False
        assert controller.request(third) is False
        promoted = controller.release(first)
        assert [s.session_id for s in promoted] == [2]
        assert controller.is_admitted(second)
        assert not controller.is_admitted(third)


class TestServeFactory:
    def test_serve_over_existing_connection(self):
        reset_id_counters()
        db = connect(oracle=make_oracle(), seed=9)
        server = serve(connection=db)
        assert server.connection is db
        assert db.task_manager.task_pool is server.task_pool
        server.shutdown()

    def test_serve_rejects_conflicting_arguments(self):
        db = connect(with_crowd=False)
        with pytest.raises(TypeError):
            Server(connection=db, seed=3)
        with pytest.raises(TypeError):
            serve(connection=db, seed=3)

    def test_crowdless_server_runs_electronic_queries(self):
        server = serve(with_crowd=False)
        session = server.open_session().submit("SELECT 40 + 2")
        server.run()
        assert session.last_result().scalar() == 42
        server.shutdown()

    def test_open_session_follows_a_later_platform_switch(self):
        """The default platform lives in the registry alone: a session
        opened before ``set_platform`` posts its next HIT on the new
        default, not on a copy taken when it was opened."""
        server = make_server()
        session = server.open_session()
        server.connection.set_platform("mobile")
        session.submit("SELECT population FROM City WHERE name = 'city3'")
        server.run()
        assert session.last_result().rows == [(1003,)]
        platforms = server.connection.platforms
        assert len(platforms.get("mobile").all_hits()) == 1
        assert platforms.get("amt").all_hits() == []
        server.shutdown()


class TestSharedParseMemo:
    def test_identical_text_parses_once_across_sessions(self, monkeypatch):
        import repro.api as api

        parsed = []
        parse_script = api.parse_script
        monkeypatch.setattr(
            api, "parse_script",
            lambda sql: parsed.append(sql) or parse_script(sql),
        )
        server = serve(with_crowd=False)
        server.connection.execute("CREATE TABLE t (a INTEGER)")
        server.connection.execute("INSERT INTO t VALUES (1), (2), (3)")
        before = dict(server.connection.parse_cache_stats)
        script = "SELECT a FROM t ORDER BY a; SELECT COUNT(*) FROM t;"
        first = server.open_session().submit(script)
        second = server.open_session().submit(script)
        server.run()
        assert parsed == [script]
        after = server.connection.parse_cache_stats
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert len(first.results) == len(second.results) == 2
        for ours, theirs in zip(first.results, second.results):
            assert repr((ours.columns, ours.rows, ours.rowcount)) == repr(
                (theirs.columns, theirs.rows, theirs.rowcount)
            )
        assert first.results[0].rows == [(1,), (2,), (3,)]
        server.shutdown()

    def test_a_script_that_fails_to_parse_is_not_remembered(self):
        server = serve(with_crowd=False)
        for _ in range(2):
            session = server.open_session().submit("SELEC nothing;")
            server.run()
            assert isinstance(session.results[-1], Exception)
        assert server.connection.parse_cache_stats["hits"] == 0
        server.shutdown()


# -- golden trace: same advances, same settlements, same clock ---------------

GOLDEN_SCHED = os.path.join(os.path.dirname(__file__), "golden", "sched_v1.jsonl")
PICTURE_QUESTION = "Which picture is older?"
PICTURES = [f"pic{i}" for i in range(4)]


def _sched_server():
    """A server over a noisy AMT with adaptive replication switched on and
    a crowd timeout short enough for future deadlines to bind."""
    reset_id_counters()
    oracle = make_oracle()
    oracle.load_ranking(
        PICTURE_QUESTION, {name: float(i) for i, name in enumerate(PICTURES)}
    )
    platform = SimulatedAMT(
        oracle, population=40, seed=31,
        config=BehaviorConfig(base_accuracy=0.6),
    )
    server = serve(
        oracle=oracle,
        platforms=(platform,),
        default_platform="amt",
        crowd_config=CrowdConfig(
            replication=3,
            target_confidence=0.9,
            min_replication=2,
            max_replication=4,
            hit_group_size=3,
            timeout_seconds=240.0,
        ),
        trace_capacity=1_000_000,
    )
    db = server.connection
    db.execute(
        "CREATE TABLE City (name STRING PRIMARY KEY, "
        "population CROWD INTEGER, elevation CROWD INTEGER)"
    )
    for i in range(8):
        db.execute("INSERT INTO City (name) VALUES (?)", (f"city{i}",))
    db.execute("CREATE TABLE Company (name STRING PRIMARY KEY)")
    for name in ("I.B.M.", "Oracle", "International Business Machines"):
        db.execute("INSERT INTO Company (name) VALUES (?)", (name,))
    # the same pictures in opposite orders: the two sorts ask mirrored
    # CROWDORDER questions while both are in flight
    for table, names in (("Pic", PICTURES), ("Cip", PICTURES[::-1])):
        db.execute(f"CREATE TABLE {table} (name STRING PRIMARY KEY)")
        for name in names:
            db.execute(f"INSERT INTO {table} (name) VALUES (?)", (name,))
    return server, platform


SCHED_SCRIPTS = [
    "SELECT population FROM City WHERE name = 'city7'; "
    "SELECT name, elevation FROM City",
    "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')",
    f"SELECT name FROM Pic ORDER BY CROWDORDER(name, '{PICTURE_QUESTION}')",
    f"SELECT name FROM Cip ORDER BY CROWDORDER(name, '{PICTURE_QUESTION}')",
    "SELECT population FROM City WHERE name = 'city6' WITH DEADLINE 30000",
]


def _sched_scenario():
    """Drive a seeded multi-session server one scheduler step at a time,
    then wait serially on the deadline-capped statement's live futures
    beside fresh ones (staggered future deadlines).  Returns one record
    per step: new trace events, scheduler and task-manager counters and
    the simulated clock."""
    server, platform = _sched_server()
    manager = server.connection.task_manager
    records = []
    last_seq = 0

    def record(step, outcome):
        nonlocal last_seq
        events = []
        for event in server.connection.trace.events():
            if event.seq > last_seq:
                payload = event.to_dict()
                del payload["wall"]
                events.append(payload)
                last_seq = event.seq
        records.append({
            "step": step,
            "outcome": outcome,
            "events": events,
            "scheduler": server.scheduler.stats.snapshot(),
            "task_manager": manager.stats.snapshot(),
            "clock": platform.clock.now,
        })

    sessions = [server.open_session().submit(sql) for sql in SCHED_SCRIPTS]
    step = 0
    while True:
        outcome = server.scheduler.step(
            server.sessions.values(), server.admission
        )
        record(step, outcome)
        step += 1
        if outcome == "idle":
            break
    results = [
        [
            repr(r) if isinstance(r, Exception) else [r.status, r.rows]
            for r in session.results
        ]
        for session in sessions
    ]
    # serially: a capped statement leaves a slow HIT group live, then a
    # wider one waits on it beside a fresh fill posted later
    for sql in (
        "SELECT name, population FROM City WHERE name < 'city3' "
        "WITH DEADLINE 30000",
        "SELECT name, population FROM City WHERE name < 'city4'",
    ):
        result = server.connection.execute(sql)
        record("serial", result.status)
        results.append([result.status, result.rows])
    records.append({"results": results})
    server.shutdown()
    return records


def golden_sched_lines():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CrowdDBWarning)
        records = _sched_scenario()
    return [json.dumps(r, sort_keys=True, default=str) for r in records]


class TestGoldenTrace:
    def test_sched_trace_equals_the_golden_file(self):
        """``tests/golden/sched_v1.jsonl`` was captured before readiness
        polls were gated on the platform's HIT revision: every advance,
        extension, settlement and clock reading must come out the same."""
        with open(GOLDEN_SCHED, encoding="utf-8") as handle:
            golden = handle.read().splitlines()
        ours = golden_sched_lines()
        # record by record first, so a failure names the step that moved
        for index, (got, want) in enumerate(zip(ours, golden)):
            assert got == want, f"scheduler record {index} changed"
        assert ours == golden

    def test_scenario_covers_the_scheduler_paths(self, monkeypatch):
        views = []
        view = CrowdFuture.view.__func__

        def counting_view(cls, parent, key, project):
            views.append(key[0])
            return view(cls, parent, key, project)

        monkeypatch.setattr(CrowdFuture, "view", classmethod(counting_view))
        *steps, results = map(json.loads, golden_sched_lines())
        kinds = {event["kind"] for step in steps for event in step["events"]}
        assert {"hit.issue", "hit.extend", "vote", "future.settle",
                "statement.partial"} <= kinds
        assert "ord" in views  # a mirrored CROWDORDER rode its twin's HIT
        assert results["results"][4][0][0] == "partial"
        assert results["results"][-2][0] == "partial"
        assert results["results"][-1][0] == "complete"
        # the serial wait ends on a deadline, not a HIT: the capped
        # statement's group times out after the later fill completed
        settles = [
            event for event in steps[-1]["events"]
            if event["kind"] == "future.settle"
        ]
        assert [event["timed_out"] for event in settles] == [True, False]


class TestReadinessPolls:
    @pytest.mark.parametrize("path", ["wait_many", "scheduler"])
    def test_polls_follow_hit_changes_and_deadlines(self, path, monkeypatch):
        """A waiter's predicate polls its group again only after a HIT
        status change or a member deadline: at most (changes + deadline
        crossings + 1) x group size ``ready()`` calls per wait."""
        changes = 0

        def read(hit):
            return hit.__dict__["status"]

        def write(hit, value):
            nonlocal changes
            changes += hit.__dict__.get("status", value) is not value
            hit.__dict__["status"] = value

        monkeypatch.setattr(HIT, "status", property(read, write))
        polls = 0
        ready = CrowdFuture.ready

        def counting_ready(future):
            nonlocal polls
            polls += 1
            return ready(future)

        monkeypatch.setattr(CrowdFuture, "ready", counting_ready)
        server, platform = _sched_server()
        clock = platform.clock
        waits = []

        def counting_readiness(futures, every):
            gate = readiness(futures, every)
            wait = {"size": len(futures), "every": every, "polls": 0,
                    "changes": changes, "start": clock.now,
                    "deadlines": [f.deadline for f in futures]}
            waits.append(wait)

            def counted():
                before = polls
                answer = gate()
                wait["polls"] += polls - before
                wait["end"], wait["changes_end"] = clock.now, changes
                return answer

            return counted

        module = task_manager_module if path == "wait_many" else scheduler
        monkeypatch.setattr(module, "readiness", counting_readiness)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrowdDBWarning)
            if path == "wait_many":
                for sql in SCHED_SCRIPTS:
                    server.connection.executescript(sql)
            else:
                server.run_scripts(SCHED_SCRIPTS)
        server.shutdown()
        assert waits and {w["every"] for w in waits} == {path == "wait_many"}
        assert max(w["size"] for w in waits) > 1
        for wait in waits:
            crossings = sum(
                wait["start"] < d <= wait["end"] for d in wait["deadlines"]
            )
            status_changes = wait["changes_end"] - wait["changes"]
            assert wait["polls"] <= (
                (status_changes + crossings + 1) * wait["size"]
            ), wait


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_SCHED), exist_ok=True)
    lines = golden_sched_lines()
    with open(GOLDEN_SCHED, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN_SCHED}")
