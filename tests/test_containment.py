"""Failure containment: statement guards, circuit breaker, retry queue.

Covers the robustness layer below the network: the ``WITH
DEADLINE/BUDGET`` statement syntax, partial results with structured
reasons, the per-platform circuit breaker with its durable retry queue,
and deterministic platform fault injection — and, at the end, all of it
at once under a seeded sweep of network and platform faults.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
import warnings

import pytest

from repro.api import connect
from repro.crowd.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, RetryQueue
from repro.crowd.model import HIT, FillTask, reset_id_counters
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.traces import GroundTruthOracle
from repro.engine.guard import StatementGuard
from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    CrowdDBWarning,
    ParseError,
    PartialResultStop,
    TransientPlatformError,
)
from repro.net import connect_tcp, protocol, serve_tcp
from repro.net.chaos import ChaosProxy
from repro.server import Server
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.pretty import format_statement


# -- WITH DEADLINE/BUDGET syntax ----------------------------------------------


class TestGuardSyntax:
    def test_parse_deadline_and_budget(self):
        stmt = parse("SELECT 1 WITH DEADLINE 500 BUDGET 20")
        assert isinstance(stmt, ast.Guarded)
        assert stmt.deadline_ms == 500
        assert stmt.budget_cents == 20
        assert isinstance(stmt.statement, ast.Select)

    def test_parse_single_clause_and_order(self):
        assert parse("SELECT 1 WITH DEADLINE 5").budget_cents is None
        assert parse("SELECT 1 WITH BUDGET 9").deadline_ms is None
        swapped = parse("SELECT 1 WITH BUDGET 9 DEADLINE 5")
        assert (swapped.deadline_ms, swapped.budget_cents) == (5, 9)

    def test_pretty_round_trips(self):
        text = "SELECT 1 WITH DEADLINE 500 BUDGET 20"
        assert parse(format_statement(parse(text))) == parse(text)

    def test_bare_with_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 WITH")
        with pytest.raises(ParseError):
            parse("SELECT 1 WITH LIMIT 3")

    def test_budget_still_valid_as_identifier(self):
        stmt = parse("SELECT budget FROM dept WHERE deadline > 3")
        assert isinstance(stmt, ast.Select)

    def test_guard_on_compound_select(self):
        stmt = parse("SELECT 1 UNION SELECT 2 WITH DEADLINE 100")
        assert isinstance(stmt, ast.Guarded)
        assert isinstance(stmt.statement, ast.SetOp)


# -- StatementGuard -----------------------------------------------------------


class _FakeLedger:
    def __init__(self, cents: int = 0) -> None:
        self.cents = cents

    def summary(self) -> dict:
        return {"cost_cents": self.cents}


class TestStatementGuard:
    def test_deadline_trips_on_fake_clock(self):
        now = [0.0]
        guard = StatementGuard(deadline_ms=1000, now_fn=lambda: now[0])
        guard.check()  # within the cap
        now[0] = 0.9
        assert not guard.trip_if_expired()
        now[0] = 1.0
        assert guard.trip_if_expired()
        with pytest.raises(PartialResultStop) as info:
            guard.check()
        assert info.value.reason == "deadline"

    def test_budget_trips_at_exact_spend(self):
        ledger = _FakeLedger(cents=0)
        guard = StatementGuard(budget_cents=5, ledger=ledger)
        guard.check()
        ledger.cents = 5  # >= comparison: exact budget is exhausted
        with pytest.raises(PartialResultStop) as info:
            guard.check()
        assert info.value.reason == "budget"

    def test_trip_reason_is_sticky(self):
        guard = StatementGuard(budget_cents=1, ledger=_FakeLedger(9))
        stop = guard.trip("budget")
        assert stop.reason == "budget"
        assert guard.trip("deadline").reason == "budget"

    def test_inactive_guard_never_trips(self):
        guard = StatementGuard()
        assert not guard.active
        assert not guard.trip_if_expired()
        guard.check()


# -- circuit breaker state machine --------------------------------------------


def make_breaker(**kwargs):
    clock = [0.0]
    defaults = dict(
        failure_threshold=3,
        cooldown_seconds=10.0,
        half_open_probes=2,
        min_calls=4,
        clock=lambda: clock[0],
    )
    defaults.update(kwargs)
    return CircuitBreaker("test", **defaults), clock


class TestCircuitBreaker:
    def test_consecutive_failures_trip(self):
        breaker, _clock = make_breaker()
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.refused == 1

    def test_cooldown_lets_probes_through(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 11.0
        assert breaker.allow()  # first half-open probe
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # second probe (bounded at 2)
        assert not breaker.allow()  # probe slots exhausted

    def test_probe_successes_close(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 11.0
        breaker.allow()
        breaker.record_success()
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.closes == 1

    def test_probe_failure_reopens(self):
        breaker, clock = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 11.0
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opens == 2

    def test_window_failure_rate_trips(self):
        breaker, _clock = make_breaker(
            failure_threshold=100, window=10, failure_rate=0.5, min_calls=4
        )
        for _ in range(3):
            breaker.record_success()
            breaker.record_failure()
        assert breaker.state == OPEN

    def test_slow_success_counts_as_failure(self):
        breaker, _clock = make_breaker(latency_threshold=1.0)
        for _ in range(3):
            breaker.record_success(latency=5.0)
        assert breaker.state == OPEN

    def test_callbacks_fire_with_breaker_name(self):
        events = []
        breaker, clock = make_breaker(
            on_open=lambda name: events.append(("open", name)),
            on_close=lambda name: events.append(("close", name)),
        )
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 11.0
        breaker.allow()
        breaker.record_success()
        breaker.allow()
        breaker.record_success()
        assert events == [("open", "test"), ("close", "test")]

    def test_snapshot_reports_state_code_and_rate(self):
        breaker, _clock = make_breaker()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == 0  # closed
        assert snap["consecutive_failures"] == 1
        assert snap["window_failure_rate"] == 1.0
        for _ in range(2):
            breaker.record_failure()
        assert breaker.snapshot()["state"] == 2  # open

    @pytest.mark.concurrency
    def test_half_open_probes_race_recovery(self):
        """Threads hammer a half-open breaker: the probe bound must hold
        and concurrent successes must close it exactly once."""
        closes = []
        breaker, clock = make_breaker(
            half_open_probes=2,
            on_close=lambda name: closes.append(name),
        )
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 11.0
        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            if breaker.allow():
                admitted.append(1)
                breaker.record_success()

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.state == CLOSED
        assert closes == ["test"]  # closed exactly once
        assert len(admitted) >= 2  # at least the bounded probes got in


# -- retry queue --------------------------------------------------------------


class TestRetryQueue:
    def test_park_drain_requeue(self):
        queue = RetryQueue()
        queue.park({"kind": "fill", "n": 1})
        queue.park({"kind": "fill", "n": 2})
        entries = queue.drain()
        assert [e["n"] for e in entries] == [1, 2]
        assert len(queue) == 0
        queue.requeue(entries[1:])
        assert [e["n"] for e in queue.drain()] == [2]

    def test_durable_roundtrip(self, tmp_path):
        path = str(tmp_path / "retry.jsonl")
        queue = RetryQueue()
        queue.bind_path(path)
        queue.park({"kind": "eq", "left": "a"})
        queue.park({"kind": "ord", "question": "q"})
        fresh = RetryQueue()
        recovered = fresh.bind_path(path)
        assert recovered == 2
        assert [e["kind"] for e in fresh.drain()] == ["eq", "ord"]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "retry.jsonl"
        queue = RetryQueue()
        queue.bind_path(str(path))
        queue.park({"kind": "fill"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "tr')  # crash mid-append
        fresh = RetryQueue()
        assert fresh.bind_path(str(path)) == 1


# -- deterministic platform fault injection -----------------------------------


def make_hit():
    task = FillTask(
        table="Talk",
        primary_key=("t",),
        columns=("abstract",),
        known_values={"title": "t"},
    )
    return HIT(task=task, reward_cents=2, assignments_requested=1)


class TestSimFaultInjection:
    def _platform(self):
        oracle = GroundTruthOracle()
        oracle.load_fill("Talk", ("t",), {"abstract": "x"})
        return SimulatedAMT(oracle, population=20, seed=3)

    def test_inject_outage_fails_exactly_n_calls(self):
        platform = self._platform()
        platform.inject_outage(2)
        for _ in range(2):
            with pytest.raises(TransientPlatformError):
                platform.post_hit(make_hit())
        platform.post_hit(make_hit())  # third call goes through
        assert platform.faults_injected == 2

    def test_inject_latency_burns_simulated_time(self):
        platform = self._platform()
        before = platform.clock.now
        platform.inject_latency(120.0, calls=1)
        platform.post_hit(make_hit())
        assert platform.clock.now >= before + 120.0
        assert platform.faults_injected == 1
        # only the armed number of calls stall
        at = platform.clock.now
        platform.post_hit(make_hit())
        assert platform.clock.now == at


# -- end-to-end: partial results and breaker degradation ----------------------


PERSON_DDL = """CREATE TABLE person (
    name STRING PRIMARY KEY,
    city CROWD STRING
)"""


def person_oracle(count: int = 4) -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    for i in range(count):
        oracle.load_fill("person", (f"p{i}",), {"city": f"city{i}"})
    return oracle


def crowd_conn(**kwargs):
    conn = connect(oracle=person_oracle(), seed=11, **kwargs)
    conn.execute(PERSON_DDL)
    for i in range(4):
        conn.execute(f"INSERT INTO person (name) VALUES ('p{i}')")
    return conn


class TestPartialResults:
    def test_deadline_returns_partial_with_reason(self):
        conn = crowd_conn()
        result = conn.execute("SELECT name, city FROM person WITH DEADLINE 1")
        assert result.status == "partial"
        assert result.partial_reason == "deadline"
        stats = conn.crowd_stats
        assert stats.get("partial_results", 0) >= 1
        assert stats.get("partial_deadline", 0) >= 1
        conn.close()

    def test_zero_budget_returns_partial_budget(self):
        conn = crowd_conn()
        result = conn.execute("SELECT name, city FROM person WITH BUDGET 0")
        assert result.status == "partial"
        assert result.partial_reason == "budget"
        conn.close()

    def test_generous_caps_still_complete(self):
        conn = crowd_conn()
        result = conn.execute(
            "SELECT name, city FROM person WITH DEADLINE 100000000 BUDGET 100000"
        )
        assert result.status == "complete"
        assert result.partial_reason is None
        # sim workers add answer noise (case/typos); check shape, not text
        assert sorted(name for name, _city in result.rows) == [
            f"p{i}" for i in range(4)
        ]
        assert all(city for _name, city in result.rows)
        conn.close()

    def test_connect_default_caps_apply(self):
        conn = crowd_conn(statement_deadline_ms=1)
        result = conn.execute("SELECT name, city FROM person")
        assert result.status == "partial"
        assert result.partial_reason == "deadline"
        conn.close()

    def test_statement_clause_overrides_connect_default(self):
        conn = crowd_conn(statement_deadline_ms=1)
        result = conn.execute(
            "SELECT name, city FROM person WITH DEADLINE 100000000"
        )
        assert result.status == "complete"
        conn.close()

    @pytest.mark.parametrize("front", ["sql", "explain_analyze"])
    @pytest.mark.parametrize("cap_in_text", [True, False])
    def test_explain_analyze_stops_where_the_select_stops(
        self, front, cap_in_text
    ):
        """EXPLAIN ANALYZE runs the query, so the SELECT's caps bound it
        in the same order (text over the connect() default) and a trip
        shows as a ``-- partial:`` footer.  Uncapped, this query pays
        240 cents; capped at 5 it stops at 96, as the bare SELECT does."""
        reset_id_counters()
        oracle = GroundTruthOracle()
        for i in range(40):
            oracle.load_fill("City", (f"city{i}",), {"population": 1000 + i})
        conn = connect(
            oracle=oracle,
            seed=11,
            statement_budget_cents=100_000 if cap_in_text else 5,
        )
        conn.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER)"
        )
        for i in range(40):
            conn.execute("INSERT INTO City (name) VALUES (?)", (f"city{i}",))
        sql = "SELECT name, population FROM City WHERE population > 1003"
        if cap_in_text:
            sql += " WITH BUDGET 5"
        if front == "sql":
            result = conn.execute(f"EXPLAIN ANALYZE {sql}")
            assert (result.status, result.partial_reason) == ("partial", "budget")
            report = [row[0] for row in result.rows]
        else:
            report = conn.explain_analyze(sql).splitlines()
        assert report[-1] == "-- partial: budget"
        assert conn.crowd_stats["cost_cents"] == 96
        conn.close()

    def test_partial_futures_reused_on_retry(self):
        """A capped statement leaves its futures in the shared pool; a
        later uncapped retry settles them without reposting HITs."""
        conn = crowd_conn()
        conn.execute("SELECT name, city FROM person WITH DEADLINE 1")
        posted_after_first = conn.crowd_stats.get("hits_posted", 0)
        result = conn.execute("SELECT name, city FROM person")
        assert result.status == "complete"
        assert conn.crowd_stats.get("hits_posted", 0) == posted_after_first
        conn.close()

    def test_electronic_statements_unaffected_by_caps(self):
        conn = connect(oracle=person_oracle(), seed=11, statement_deadline_ms=1)
        conn.execute("CREATE TABLE plain (a INTEGER)")
        conn.execute("INSERT INTO plain VALUES (1), (2)")
        result = conn.execute("SELECT a FROM plain ORDER BY a")
        assert result.status == "complete"
        assert result.rows == [(1,), (2,)]
        conn.close()


#: A parent-written durable retry queue: ``park_every_kind`` on a
#: ``replay_conn``.  ``python tests/test_containment.py`` rewrites it — only
#: ever at the parent of a change to the parked-entry format.
GOLDEN_RETRY = os.path.join(
    os.path.dirname(__file__), "golden", "crowd_retry_v1.jsonl"
)
BREAKER_KNOBS = dict(
    breaker_failure_threshold=2,
    breaker_cooldown_seconds=3600.0,
    breaker_half_open_probes=1,
    hit_group_size=4,
)


def replay_oracle() -> GroundTruthOracle:
    oracle = person_oracle(5)
    oracle.load_new_tuples(
        "member", [{"name": "Jennifer Widom", "team": "db"}],
        fixed_columns=("team",),
    )
    oracle.declare_same_entity("IBM", "International Business Machines")
    oracle.load_ranking("older", {"Codd": 2.0, "Gray": 1.0})
    return oracle


def replay_conn(path=None):
    conn = connect(oracle=replay_oracle(), seed=11, path=path, **BREAKER_KNOBS)
    conn.execute(PERSON_DDL)
    conn.execute(
        "CREATE CROWD TABLE member (name STRING PRIMARY KEY, team STRING)"
    )
    for i in range(5):
        conn.execute(f"INSERT INTO person (name) VALUES ('p{i}')")
    return conn


#: One request of each task kind: how to issue it, and the task-pool keys
#: its replayed futures carry (a HIT group's members replay one by one).
PARKED_KINDS = {
    "fill": (
        lambda tm, person, member: tm.begin_fill_many(
            [(person, ("p4",), ("city",), {"name": "p4"})]
        ),
        [("fill", "person", ("p4",), ("city",), "@default")],
    ),
    "fill_group": (
        lambda tm, person, member: tm.begin_fill_many(
            [(person, (f"p{i}",), ("city",), {"name": f"p{i}"})
             for i in range(4)]
        ),
        [("fill", "person", (f"p{i}",), ("city",), "@default")
         for i in range(4)],
    ),
    "new_tuples": (
        lambda tm, person, member: tm.begin_new_tuples(
            member, 2, {"team": "db"}
        ),
        [("new", "member", 2, (("team", "db"),), frozenset(), "@default")],
    ),
    "crowdequal": (
        lambda tm, person, member: tm.begin_compare_equal(
            "IBM", "International Business Machines"
        ),
        [("eq", "ibm", "international business machines", "@default")],
    ),
    "crowdorder": (
        lambda tm, person, member: tm.begin_compare_order(
            "Codd", "Gray", "older"
        ),
        [("ord", "older", "codd", "gray", "@default")],
    ),
}


def park_every_kind(conn, kinds=tuple(PARKED_KINDS)) -> None:
    """Drive the amt breaker open and park one request of each kind."""
    tm = conn.task_manager
    person, member = conn.catalog.table("person"), conn.catalog.table("member")
    conn.platforms.get("amt").inject_outage(100)
    for kind in kinds:
        with pytest.raises(CircuitOpenError):
            PARKED_KINDS[kind][0](tm, person, member)


def recover(conn) -> None:
    conn.platforms.get("amt").inject_outage(0)
    conn.task_manager.breakers["amt"].cooldown_seconds = 0.0


class TestBreakerIntegration:
    def _tripped_conn(self, **kwargs):
        """A connection whose amt breaker has been driven open."""
        conn = crowd_conn(
            breaker_failure_threshold=2,
            breaker_cooldown_seconds=3600.0,
            **kwargs,
        )
        amt = conn.platforms.get("amt")
        amt.inject_outage(100)  # outlasts every retry
        # the tripping statement itself degrades: the breaker opens mid
        # retry, the refused fills are parked, and the rows settle short
        result = conn.execute("SELECT name, city FROM person")
        assert result.status == "partial"
        assert result.partial_reason == "breaker"
        assert conn.task_manager.breakers["amt"].state == OPEN
        return conn

    def test_open_breaker_degrades_to_partial(self):
        conn = self._tripped_conn()
        result = conn.execute("SELECT name, city FROM person")
        assert result.status == "partial"
        assert result.partial_reason == "breaker"
        conn.close()

    def test_open_breaker_parks_work_in_retry_queue(self):
        conn = self._tripped_conn()
        conn.execute("SELECT name, city FROM person")
        assert len(conn.task_manager.retry_queue) > 0
        assert conn.crowd_stats.get("breaker_parked", 0) > 0
        conn.close()

    def test_breaker_state_in_metrics(self):
        conn = self._tripped_conn()
        text = conn.metrics_text()
        assert 'crowddb_breaker_state{platform="amt"} 2' in text
        assert "crowddb_breaker_retry_queue_depth" in text
        assert conn.crowd_stats.get("breaker_opens", 0) >= 1
        conn.close()

    def test_electronic_work_proceeds_while_breaker_open(self):
        conn = self._tripped_conn()
        conn.execute("CREATE TABLE plain (a INTEGER)")
        conn.execute("INSERT INTO plain VALUES (7)")
        assert conn.execute("SELECT a FROM plain").rows == [(7,)]
        conn.close()

    @pytest.mark.parametrize("front", ["connection", "server"])
    @pytest.mark.parametrize("hit_group_size", [1, 4])
    def test_settled_work_supersedes_parked_copy(self, hit_group_size, front):
        """A retried statement reissues its own fills; once they settle,
        the parked copies must be discarded, not replayed (replaying
        would buy the already-settled answers a second time).  A HIT
        group parks one copy per member, and the scheduler settles only
        the group's parent future, never its members."""
        conn = self._tripped_conn(
            hit_group_size=hit_group_size, breaker_half_open_probes=1
        )
        tm = conn.task_manager
        parked = len(tm.retry_queue)
        # the whole refused chunk parks: one fill, or all four members
        assert parked == hit_group_size
        recover(conn)
        sql = "SELECT name, city FROM person"
        if front == "connection":
            result = conn.execute(sql)
        else:
            server = Server(connection=conn)
            session = server.open_session().submit(sql)
            server.run()
            result = session.last_result()
        assert result.status == "complete"
        assert tm.breakers["amt"].state == CLOSED
        assert len(tm.retry_queue) == 0
        stats = conn.crowd_stats
        assert stats.get("breaker_parked_superseded", 0) == parked
        assert stats.get("breaker_replayed", 0) == 0  # nothing rebought
        posted = tm.stats.hits_posted
        assert tm.replay_parked() == 0
        assert tm.stats.hits_posted == posted
        conn.close()

    @pytest.mark.parametrize("kind", list(PARKED_KINDS))
    def test_recovery_replays_parked_work(self, kind):
        """Every task kind parks through an open breaker and comes back
        under its own task-pool key; the replayed HITs are the only ones
        bought for the answer."""
        conn = replay_conn()
        tm = conn.task_manager
        issue, keys = PARKED_KINDS[kind]
        park_every_kind(conn, (kind,))
        assert len(tm.retry_queue) == len(keys)
        recover(conn)
        # an unrelated request's post is the probe that closes the breaker
        tm.wait(tm.begin_compare_equal("HP", "Hewlett-Packard"))
        assert tm.breakers["amt"].state == CLOSED
        assert len(tm.retry_queue) == len(keys)  # replay waits for the next issue
        posted = tm.stats.hits_posted
        # the retried request replays its parked copy first, then joins it
        issued = issue(tm, conn.catalog.table("person"),
                       conn.catalog.table("member"))
        futures = issued if isinstance(issued, list) else [issued]
        assert sorted(repr(f.key) for f in futures) == sorted(map(repr, keys))
        assert conn.crowd_stats["breaker_replayed"] == len(keys)
        tm.wait_many(futures)
        # the answer is bought once: only the replayed HITs were posted
        assert tm.stats.hits_posted - posted == sum(len(f.hits) for f in futures)
        assert len(tm.retry_queue) == 0 and tm.replay_parked() == 0
        conn.close()

    def test_replay_refused_by_open_breaker_keeps_one_copy(self):
        """A replay the breaker still refuses requeues its entries as
        they were; it does not park the refused request a second time."""
        conn = replay_conn()
        tm = conn.task_manager
        park_every_kind(conn, ("fill", "crowdequal"))
        parked = tm.stats.extra["breaker_parked"]
        assert tm.replay_parked() == 0  # cooldown not over: refused
        assert len(tm.retry_queue) == 2
        assert tm.stats.extra["breaker_parked"] == parked
        recover(conn)
        assert tm.replay_parked() == 2
        conn.close()

    def test_parent_written_retry_queue_replays(self, tmp_path):
        """A ``crowd_retry.jsonl`` written before the request path was
        unified replays here: same entries, same keys, same HITs."""
        path = tmp_path / "db"
        replay_conn(path=str(path)).close()
        shutil.copy(GOLDEN_RETRY, path / "crowd_retry.jsonl")
        conn = connect(oracle=replay_oracle(), seed=11, path=str(path),
                       **BREAKER_KNOBS)
        tm = conn.task_manager
        keys = [key for _issue, kind_keys in PARKED_KINDS.values()
                for key in kind_keys]
        assert len(tm.retry_queue) == len(keys)
        assert tm.replay_parked() == len(keys)
        replayed = tm.task_pool.pending()
        assert sorted(map(repr, (f.key for f in replayed))) == sorted(
            map(repr, keys)
        )
        tm.wait_many(replayed)
        # one HIT per fill and ballot, two for the new-tuple request
        assert tm.stats.hits_posted == 9
        assert len(tm.retry_queue) == 0
        conn.close()

    def test_breaker_disabled_keeps_legacy_behavior(self):
        conn = crowd_conn(breaker_enabled=False)
        amt = conn.platforms.get("amt")
        amt.inject_outage(100)
        with pytest.raises(TransientPlatformError):
            conn.execute("SELECT name, city FROM person")
        assert conn.task_manager.breakers == {}
        conn.close()

    def test_circuit_open_error_is_transient_subclass(self):
        # callers catching TransientPlatformError keep working
        assert issubclass(CircuitOpenError, TransientPlatformError)

    def test_retry_queue_durable_across_restart(self, tmp_path):
        path = str(tmp_path / "db")
        conn = connect(
            oracle=person_oracle(1),
            seed=11,
            path=path,
            breaker_failure_threshold=2,
            breaker_cooldown_seconds=3600.0,
        )
        conn.execute(PERSON_DDL)
        conn.execute("INSERT INTO person (name) VALUES ('p0')")
        amt = conn.platforms.get("amt")
        amt.inject_outage(100)
        result = conn.execute("SELECT name, city FROM person")
        assert result.partial_reason == "breaker"  # parks the refused fill
        parked = len(conn.task_manager.retry_queue)
        assert parked > 0
        conn.close()
        fresh = connect(oracle=person_oracle(1), seed=11, path=path)
        assert len(fresh.task_manager.retry_queue) == parked
        fresh.close()


# -- the layers together: a seeded chaos sweep --------------------------------


@pytest.mark.concurrency
class TestChaosSweep:
    """Eight seeded fault schedules, each one client session through a
    :class:`ChaosProxy` against a TCP-served crowd instance: a connection
    fault (kill, torn frame, stall, duplicated frames, duplicated
    statements — the first six seeds cover every kind, later ones draw),
    maybe a platform outage, maybe a statement cap.  The session runs a
    multi-page electronic SELECT and a keyed crowd probe, reattaching
    once if the connection dies."""

    SEEDS = 8
    CITIES = 6
    ITEM_ROWS = protocol.PAGE_ROWS
    FAULTS = ("none", "kill", "tear", "stall", "dup_frames", "dup_statements")

    @staticmethod
    def _task_key(hit) -> tuple:
        """Identity of the crowd work a HIT purchases: two HITs sharing a
        key mean the same answer was bought twice."""
        task = hit.task
        return (
            type(task).__name__,
            getattr(task, "table", None),
            tuple(getattr(task, "primary_key", ()) or ()),
            tuple(getattr(task, "columns", ()) or ()),
            getattr(task, "question", None),
        )

    @staticmethod
    def _metric(text: str, name: str) -> int:
        for line in text.splitlines():
            if line.startswith(f"crowddb_{name} "):
                return int(float(line.split()[-1]))
        return 0

    def _run_seed(self, seed: int) -> dict:
        reset_id_counters()
        rng = random.Random(1000 + seed)
        oracle = GroundTruthOracle()
        for i in range(self.CITIES):
            oracle.load_fill(
                "City", (f"city{i}",), {"population": 10_000 + 137 * i}
            )
        # the breaker trips within one call's retry loop, so a sustained
        # outage degrades the statement to partial("breaker") instead of
        # escaping as a transient platform error
        db = connect(oracle=oracle, seed=11, breaker_failure_threshold=3)
        server = Server(connection=db)
        net = serve_tcp(server=server)
        proxy = ChaosProxy(net.host, net.port).start()
        record = {
            "seed": seed, "resumes": 0, "statuses": [], "reasons": [],
            "duplicate_rows": 0,
        }
        try:
            with connect_tcp(net.host, net.port) as admin:
                admin.execute(
                    "CREATE TABLE City (name STRING PRIMARY KEY, "
                    "population CROWD INTEGER);"
                    "CREATE TABLE items (n INTEGER);"
                    + "".join(
                        f"INSERT INTO items VALUES ({i});"
                        for i in range(self.ITEM_ROWS)
                    )
                    + "".join(
                        f"INSERT INTO City (name) VALUES ('city{i}');"
                        for i in range(self.CITIES)
                    )
                )
            fault = (
                self.FAULTS[seed]
                if seed < len(self.FAULTS)
                else rng.choice(self.FAULTS)
            )
            record["fault"] = fault
            if fault == "kill":
                proxy.arm(kill_after_frames=rng.randint(2, 6))
            elif fault == "tear":
                proxy.arm(kill_after_frames=rng.randint(2, 6), tear=True)
            elif fault == "stall":
                proxy.arm(
                    stall_seconds=rng.uniform(0.1, 0.4),
                    stall_before_frame=rng.randint(1, 4),
                )
            elif fault == "dup_frames":
                proxy.arm(duplicate_frames=True)
            elif fault == "dup_statements":
                proxy.arm(duplicate_statements=True)
            outage = rng.choice((0, 0, 0, 2, 25))
            if outage:
                db.platforms.get("amt").inject_outage(outage)
            caps = {}
            if rng.random() < 0.2:
                caps["deadline_ms"] = 1  # guaranteed deadline partial
            elif rng.random() < 0.2:
                caps["budget_cents"] = 0  # guaranteed budget partial

            client = connect_tcp(proxy.host, proxy.port, timeout=60)
            for sql, statement_caps in (
                ("SELECT n FROM items;", {}),
                (
                    "SELECT population FROM City "
                    f"WHERE name = 'city{rng.randrange(self.CITIES)}';",
                    caps,
                ),
            ):
                try:
                    result = client.execute(sql, **statement_caps)
                except ConnectionLostError as lost:
                    # reattach direct to the server: the proxy's fault
                    # plan is one-shot
                    client = connect_tcp(
                        net.host, net.port, resume=lost.token,
                        have=lost.have, timeout=60,
                    )
                    result = client.resume_execute(lost)
                    record["resumes"] += 1
                record["statuses"].append(result.status)
                record["reasons"].append(result.partial_reason)
                record["duplicate_rows"] += len(result.rows) - len(
                    set(result.rows)
                )
                if sql.startswith("SELECT n"):
                    record["electronic_rows"] = sorted(
                        row[0] for row in result.rows
                    )
            client.close()

            record["task_keys"] = [
                self._task_key(hit)
                for hit in db.platforms.get("amt")._hits.values()
            ]
            text = net.server.metrics_text()
            for name in (
                "net_resumes_total",
                "net_replayed_frames_total",
                "net_duplicate_statements_total",
            ):
                record[name] = self._metric(text, name)
        finally:
            proxy.close()
            net.close()
            server.close()
        record["leaked_sessions"] = len(server.sessions)
        return record

    @pytest.fixture(scope="class")
    def sweep(self):
        baseline = threading.active_count()
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrowdDBWarning)
            for seed in range(self.SEEDS):
                record = self._run_seed(seed)
                deadline = time.monotonic() + 10.0
                while (
                    threading.active_count() > baseline
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                record["leaked_threads"] = max(
                    0, threading.active_count() - baseline
                )
                records.append(record)
        return records

    def test_every_statement_completes_or_degrades_explicitly(self, sweep):
        for record in sweep:
            assert len(record["statuses"]) == 2, record
            for status, reason in zip(record["statuses"], record["reasons"]):
                assert status in ("complete", "partial"), record
                if status == "partial":
                    assert reason in ("deadline", "budget", "breaker"), record
                else:
                    assert reason is None, record

    def test_zero_duplicate_result_rows(self, sweep):
        # exactly-once across detach, resume and replay: the multi-page
        # electronic result is complete with no repeats
        for record in sweep:
            assert record["duplicate_rows"] == 0, record
            assert record["electronic_rows"] == list(
                range(self.ITEM_ROWS)
            ), record["seed"]

    def test_zero_repurchased_crowd_assignments(self, sweep):
        # at most one HIT per unique crowd task, however often the
        # connection died or a statement frame was duplicated in flight
        for record in sweep:
            keys = record["task_keys"]
            assert len(keys) == len(set(keys)), record

    def test_no_leaked_sessions_or_threads(self, sweep):
        for record in sweep:
            assert record["leaked_sessions"] == 0, record
            assert record["leaked_threads"] == 0, record

    def test_faults_actually_landed(self, sweep):
        """The sweep must exercise the machinery, not dodge it: real
        detaches healed by resume, duplicate submissions dropped, and at
        least one partial degradation."""
        assert sum(r["net_resumes_total"] for r in sweep) >= 1
        assert sum(r["net_replayed_frames_total"] for r in sweep) >= 1
        assert sum(r["resumes"] for r in sweep) >= 1
        assert sum(r["net_duplicate_statements_total"] for r in sweep) >= 1
        assert any("partial" in r["statuses"] for r in sweep)
        assert {"kill", "tear", "dup_frames", "dup_statements"} <= {
            r["fault"] for r in sweep
        }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db")
        conn = replay_conn(path=path)
        park_every_kind(conn)
        conn.close()
        shutil.copy(os.path.join(path, "crowd_retry.jsonl"), GOLDEN_RETRY)
    print(f"wrote {GOLDEN_RETRY}")
