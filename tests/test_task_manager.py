"""Tests for the Task Manager (posting, voting, caching, budget).

``python tests/test_task_manager.py`` rewrites ``tests/golden/tm_v1.jsonl``
— only ever do that on purpose, at the parent of a change meant to alter
what the Task Manager posts, pays, votes or traces.
"""

import json
import os
import sys
import tempfile
import warnings

import pytest

from repro.catalog.ddl import build_table_schema
from repro.crowd.model import FillTask, NewTupleTask, reset_id_counters
from repro.crowd.platform import PlatformRegistry
from repro.crowd.quality import normalize_answer
from repro.crowd.reputation import ReputationStore
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import CrowdConfig, TaskManager
from repro.errors import BudgetExceededError, CircuitOpenError, CrowdDBWarning
from repro.obs import TraceSink
from repro.server.task_pool import TaskPool
from repro.sql.parser import parse
from repro.sqltypes import NULL
from repro.storage.engine import StorageEngine
from repro.ui.manager import UITemplateManager

GOLDEN_TM = os.path.join(os.path.dirname(__file__), "golden", "tm_v1.jsonl")

TALK = build_table_schema(
    parse(
        "CREATE TABLE Talk (title STRING PRIMARY KEY, "
        "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
    )
)
ATTENDEE_SQL = (
    "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, "
    "title STRING)"
)
ATTENDEE = build_table_schema(parse(ATTENDEE_SQL))


def make_tm(answer_fn, config=None):
    registry = PlatformRegistry()
    platform = ScriptedPlatform(answer_fn)
    registry.register(platform)
    ui = UITemplateManager(StorageEngine().catalog)
    return TaskManager(registry, ui, config=config), platform


def fill(tm, crowd_answer, key, columns, known=None):
    """One CNULL fill, issued and waited for on the serial path."""
    (future,) = tm.begin_fill_many([(TALK, key, columns, known or {})])
    return crowd_answer(tm, future)


class TestFillValues:
    def test_majority_vote_and_typing(self, crowd_answer):
        answers = iter(
            [
                {"abstract": " The abstract ", "nb_attendees": "120"},
                {"abstract": "the abstract", "nb_attendees": "120"},
                {"abstract": "something else", "nb_attendees": "80"},
            ]
        )
        tm, _ = make_tm(lambda task, replica: next(answers))
        result = fill(
            tm, crowd_answer, ("CrowdDB",), ("abstract", "nb_attendees"),
            {"title": "CrowdDB"},
        )
        assert result["abstract"].strip().lower() == "the abstract"
        assert result["nb_attendees"] == 120  # typed, not a string

    def test_no_answers_yields_null(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: None)
        result = fill(tm, crowd_answer, ("X",), ("abstract",))
        assert result["abstract"] is NULL
        assert tm.stats.timeouts == 1

    def test_blank_answers_ignored(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: {"abstract": "  "})
        result = fill(tm, crowd_answer, ("X",), ("abstract",))
        assert result["abstract"] is NULL

    def test_unparseable_numeric_becomes_null(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: {"nb_attendees": "lots"})
        result = fill(tm, crowd_answer, ("X",), ("nb_attendees",))
        assert result["nb_attendees"] is NULL

    def test_stats_counted(self, crowd_answer):
        tm, platform = make_tm(lambda task, replica: {"abstract": "x"})
        fill(tm, crowd_answer, ("X",), ("abstract",))
        assert tm.stats.hits_posted == 1
        assert tm.stats.assignments_received == 3
        assert tm.stats.fill_requests == 1
        assert tm.stats.cost_cents == 6  # 3 assignments x 2c default
        assert isinstance(platform.posted_tasks[0], FillTask)

    def test_form_html_instantiated(self, crowd_answer):
        tm, platform = make_tm(lambda task, replica: {"abstract": "x"})
        fill(tm, crowd_answer, ("CrowdDB",), ("abstract",), {"title": "CrowdDB"})
        posted = platform.posted_tasks[0]
        assert posted.known_values == {"title": "CrowdDB"}


class TestSourceNewTuples:
    def test_distinct_keys_become_distinct_tuples(self, crowd_answer):
        answers = iter(
            [
                {"name": "Mike Franklin", "title": "CrowdDB"},
                {"name": "Donald Kossmann", "title": "CrowdDB"},
                {"name": "mike franklin", "title": "CrowdDB"},
            ]
        )
        tm, _ = make_tm(lambda task, replica: next(answers))
        tuples = crowd_answer(
            tm, tm.begin_new_tuples(ATTENDEE, 1, {"title": "CrowdDB"})
        )
        names = sorted(t["name"] for t in tuples)
        assert names == ["Donald Kossmann", "Mike Franklin"]
        for t in tuples:
            assert t["title"] == "CrowdDB"

    def test_known_keys_are_dropped(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: {"name": "Mike", "title": "T"})
        tuples = crowd_answer(
            tm, tm.begin_new_tuples(ATTENDEE, 1, known_keys={("mike",)})
        )
        assert tuples == []

    def test_answers_without_key_are_dropped(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: {"name": "", "title": "T"})
        assert crowd_answer(tm, tm.begin_new_tuples(ATTENDEE, 1)) == []

    def test_empty_answers_are_dropped(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: {})
        assert crowd_answer(tm, tm.begin_new_tuples(ATTENDEE, 2)) == []

    def test_count_posts_that_many_hits(self, crowd_answer):
        tm, platform = make_tm(lambda task, replica: {"name": f"w{replica}", "title": "T"})
        crowd_answer(tm, tm.begin_new_tuples(ATTENDEE, 3))
        assert tm.stats.hits_posted == 3
        assert all(isinstance(t, NewTupleTask) for t in platform.posted_tasks)


class TestCompare:
    def test_compare_equal_votes(self, crowd_answer):
        ballots = iter([True, True, False])
        tm, _ = make_tm(lambda task, replica: next(ballots))
        assert crowd_answer(tm, tm.begin_compare_equal("I.B.M.", "IBM")) is True

    def test_compare_equal_cached_both_directions(self, crowd_answer):
        calls = []

        def answer(task, replica):
            calls.append(task)
            return True

        tm, _ = make_tm(answer)
        assert crowd_answer(tm, tm.begin_compare_equal("A Corp", "B Corp"))
        # mirrored cache hit
        assert crowd_answer(tm, tm.begin_compare_equal("B Corp", "A Corp"))
        assert tm.stats.compare_requests == 1
        assert tm.stats.cache_hits == 1

    def test_compare_equal_normalized_cache_key(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: True)
        crowd_answer(tm, tm.begin_compare_equal("IBM", "Oracle"))
        crowd_answer(tm, tm.begin_compare_equal(" ibm ", "ORACLE"))
        assert tm.stats.compare_requests == 1

    def test_compare_order(self, crowd_answer):
        tm, _ = make_tm(
            lambda task, replica: "left" if str(task.left) < str(task.right) else "right"
        )
        assert crowd_answer(tm, tm.begin_compare_order("A", "B", "q")) is True
        # mirrored cache
        assert crowd_answer(tm, tm.begin_compare_order("B", "A", "q")) is False
        assert tm.stats.compare_requests == 1

    def test_compare_order_identical_values(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: "left")
        assert crowd_answer(tm, tm.begin_compare_order("same", "same", "q")) is True
        assert tm.stats.compare_requests == 0

    def test_no_ballots_defaults(self, crowd_answer):
        tm, _ = make_tm(lambda task, replica: None)
        assert crowd_answer(tm, tm.begin_compare_equal("a", "b")) is False
        assert crowd_answer(tm, tm.begin_compare_order("a", "b", "q")) is True


class TestBudget:
    def test_budget_enforced(self, crowd_answer):
        config = CrowdConfig(replication=3, reward_cents=2, budget_cents=10)
        tm, _ = make_tm(lambda task, replica: {"abstract": "x"}, config)
        fill(tm, crowd_answer, ("A",), ("abstract",))  # 6c spent
        with pytest.raises(BudgetExceededError):
            fill(tm, crowd_answer, ("B",), ("abstract",))  # would be 12c

    def test_budget_allows_exact_fit(self, crowd_answer):
        config = CrowdConfig(replication=3, reward_cents=2, budget_cents=12)
        tm, _ = make_tm(lambda task, replica: {"abstract": "x"}, config)
        fill(tm, crowd_answer, ("A",), ("abstract",))
        fill(tm, crowd_answer, ("B",), ("abstract",))
        assert tm.stats.cost_cents == 12


class TestOracleAnswerFn:
    def test_scripted_oracle_integration(self, crowd_answer):
        oracle = GroundTruthOracle()
        oracle.load_fill("Talk", ("CrowdDB",), {"abstract": "text"})
        oracle.declare_same_entity("IBM", "I.B.M.")
        tm, _ = make_tm(oracle_answer_fn(oracle))
        filled = fill(tm, crowd_answer, ("CrowdDB",), ("abstract",))
        assert filled["abstract"] == "text"
        assert crowd_answer(tm, tm.begin_compare_equal("IBM", "I.B.M.")) is True


# -- golden trace: same HITs, same cents, same events -------------------------

PROF = build_table_schema(
    parse(
        "CREATE TABLE Prof (name STRING PRIMARY KEY, "
        "dept CROWD STRING, city CROWD STRING)"
    )
)
MEMBER = build_table_schema(
    parse("CREATE CROWD TABLE Member (name STRING PRIMARY KEY, team STRING)")
)
CITIES = ("Berkeley", "Zurich", "Seattle", "Munich")


def _golden_oracle():
    oracle = GroundTruthOracle()
    for i in range(12):  # p12 and up are unknown: workers answer blank
        oracle.load_fill(
            "Prof",
            (f"p{i}",),
            {"dept": f"Dept {i % 3}", "city": CITIES[i % len(CITIES)]},
        )
    # one candidate, no distractors: a wrong answer is a typo of its name
    oracle.load_new_tuples(
        "Member",
        [{"name": "Jennifer Widom", "team": "db"}],
        fixed_columns=("team",),
    )
    oracle.declare_same_entity("IBM", "I.B.M.", "International Business Machines")
    oracle.declare_same_entity("Oracle", "ORCL")
    oracle.load_ranking("older", {"Codd": 3.0, "Gray": 2.0, "Hoare": 1.0})
    return oracle


def _prof(i, columns=("dept", "city")):
    return (PROF, (f"p{i}",), columns, {"name": f"p{i}"})


def _golden_manager(oracle, queue_path):
    """A TaskManager wired the way ``connect()`` wires one — task pool,
    reputation store, tracer, durable retry queue — over a noisy AMT,
    with adaptive replication, HIT groups and gold probes switched on."""
    engine = StorageEngine()
    engine.catalog.register(PROF)
    engine.catalog.register(MEMBER)
    platform = SimulatedAMT(
        oracle, population=40, seed=29,
        config=BehaviorConfig(base_accuracy=0.6),
    )
    registry = PlatformRegistry()
    registry.register(platform)
    manager = TaskManager(
        registry,
        UITemplateManager(engine.catalog),
        config=CrowdConfig(
            replication=3,
            hit_group_size=3,
            target_confidence=0.9,
            min_replication=2,
            max_replication=5,
            gold_rate=0.5,
            breaker_failure_threshold=2,
            breaker_cooldown_seconds=3600.0,
            breaker_half_open_probes=1,
        ),
    )
    manager.task_pool = TaskPool()
    manager.reputation = ReputationStore()
    manager.tracer = TraceSink(capacity=1_000_000)
    manager.retry_queue.bind_path(queue_path)
    return manager, platform


def _tm_scenario(queue_path):
    """Drive one TaskManager through every request path: a single fill,
    a blank fill, a HIT group with an intra-batch duplicate, new tuples,
    CROWDEQUAL and CROWDORDER with pending reverse requests and cache
    hits, a guard deadline that leaves futures live for reuse, and a
    breaker trip that parks one request of each kind before recovery
    replays them.  Returns the golden records plus coverage facts."""
    reset_id_counters()
    manager, platform = _golden_manager(_golden_oracle(), queue_path)
    records = []
    coverage = {}
    last_seq = 0

    def step(name, futures=()):
        nonlocal last_seq
        for event in manager.tracer.events():
            if event.seq > last_seq:
                record = event.to_dict()
                del record["wall"]
                records.append(record)
                last_seq = event.seq
        with open(queue_path, encoding="utf-8") as handle:
            queue = handle.read().splitlines()
        records.append({
            "step": name,
            "stats": manager.stats.snapshot(),
            "pool": manager.task_pool.snapshot(),
            "retry_queue": queue,
            "results": [
                repr(f.result()) if f.settled else "<live>" for f in futures
            ],
        })

    single = manager.begin_fill_many([_prof(0)])
    manager.wait(single[0])
    step("fill", single)

    blank = manager.begin_fill_many([_prof(12, ("dept",))])
    manager.wait(blank[0])
    coverage["blank_extensions"] = blank[0].extensions
    step("fill_blank", blank)

    # p1 twice: the duplicate shares the first copy's member future
    group = manager.begin_fill_many(
        [_prof(1), _prof(2), _prof(3), _prof(1), _prof(4)]
    )
    manager.wait_many(group)
    coverage["group_shared"] = group[0] is group[3]
    step("fill_group", group)

    new = manager.begin_new_tuples(
        MEMBER, 3, {"team": "db"}, known_keys={("someone else",)}
    )
    manager.wait(new)
    proposed = {
        normalize_answer(a.answer.get("name", "").strip())
        for hit in new.hits for a in hit.assignments
    }
    coverage["new_keys_proposed"] = len(proposed)
    coverage["new_tuples"] = len(new.result())
    step("new_tuples", [new])

    equal = manager.begin_compare_equal("IBM", "I.B.M.")
    reverse = manager.begin_compare_equal("I.B.M.", "IBM")
    coverage["equal_shared"] = equal is reverse
    manager.wait_many([equal, reverse])
    cached = manager.begin_compare_equal("international business machines", "ibm")
    step("compare_equal", [equal, reverse, cached])

    order = manager.begin_compare_order("Codd", "Gray", "older")
    mirror = manager.begin_compare_order("Gray", "Codd", "older")
    manager.wait(mirror)
    cached = manager.begin_compare_order("Gray", "Codd", "older")
    same = manager.begin_compare_order("Hoare", "hoare", "older")
    step("compare_order", [order, mirror, cached, same])

    live = manager.begin_fill_many([_prof(5), _prof(6)])
    manager.wait_many(live, until=platform.clock.now + 30.0)
    coverage["live_after_deadline"] = sum(not f.settled for f in live)
    step("deadline", live)

    reused = manager.begin_fill_many([_prof(5), _prof(6)])
    coverage["deadline_reused"] = all(a is b for a, b in zip(live, reused))
    manager.wait_many(reused)
    step("deadline_reuse", reused)

    platform.inject_outage(100)
    for issue in (
        lambda: manager.begin_fill_many([_prof(7)]),
        lambda: manager.begin_fill_many([_prof(8), _prof(9), _prof(10)]),
        lambda: manager.begin_new_tuples(
            MEMBER, 2, {"team": "db"}, known_keys={("jennifer widom",)}
        ),
        lambda: manager.begin_compare_equal("Oracle", "ORCL"),
        lambda: manager.begin_compare_order("Hoare", "Codd", "older"),
    ):
        with pytest.raises(CircuitOpenError):
            issue()
    coverage["parked"] = len(manager.retry_queue)
    step("trip")

    platform.inject_outage(0)
    manager.breakers[platform.name].cooldown_seconds = 0.0
    coverage["replayed"] = manager.replay_parked()
    replayed = manager.task_pool.pending()
    manager.wait_many(replayed)
    step("replay", replayed)
    return records, coverage


def golden_tm_lines():
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", CrowdDBWarning)
        records, _ = _tm_scenario(os.path.join(tmp, "crowd_retry.jsonl"))
    return [json.dumps(r, sort_keys=True, default=str) for r in records]


class TestGoldenTrace:
    def test_tm_trace_equals_the_golden_file(self):
        """``tests/golden/tm_v1.jsonl`` was captured before the request
        path was written once for every task kind: every trace event,
        counter, pooled future and parked retry entry must come out the
        same."""
        with open(GOLDEN_TM, encoding="utf-8") as handle:
            golden = handle.read().splitlines()
        ours = golden_tm_lines()
        # record by record first, so a failure names the event that moved
        for index, (got, want) in enumerate(zip(ours, golden)):
            assert got == want, f"task-manager record {index} changed"
        assert ours == golden

    def test_scenario_covers_every_request_path(self, tmp_path, monkeypatch):
        normalizations = 0

        def counting_normalize(value):
            nonlocal normalizations
            normalizations += 1
            return normalize_answer(value)

        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro.")
                and getattr(module, "normalize_answer", None) is normalize_answer
            ):
                monkeypatch.setattr(module, "normalize_answer", counting_normalize)
        votes = []  # (ballots, normalizations) per settle-time vote
        vote = TaskManager.vote

        def counting_vote(manager, ballots):
            before = normalizations
            verdict = vote(manager, ballots)
            votes.append((len(ballots), normalizations - before))
            return verdict

        monkeypatch.setattr(TaskManager, "vote", counting_vote)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrowdDBWarning)
            records, coverage = _tm_scenario(str(tmp_path / "queue.jsonl"))
        # every kind's verdict: a ballot is normalized once, not per vote
        assert votes and all(calls <= count for count, calls in votes)
        kinds = {r.get("kind") for r in records}
        assert {"hit.issue", "hit.group", "hit.extend", "gold.issue",
                "gold.score", "breaker.open", "breaker.close",
                "breaker.park", "breaker.replay", "vote",
                "future.settle"} <= kinds
        # a unanimous blank answer is confident, not a reason to extend
        assert coverage["blank_extensions"] == 0
        assert coverage["group_shared"] and coverage["equal_shared"]
        # typo'd keys merged into fewer tuples than spellings proposed
        assert coverage["new_keys_proposed"] > coverage["new_tuples"] >= 1
        assert coverage["live_after_deadline"] == 2
        assert coverage["deadline_reused"]
        # 1 fill + 3 group members + new tuples + CROWDEQUAL + CROWDORDER
        assert coverage["parked"] == coverage["replayed"] == 7


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_TM), exist_ok=True)
    lines = golden_tm_lines()
    with open(GOLDEN_TM, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN_TM}")
