"""Adaptive quality control: reputation, gold probes, adaptive replication.

Unit coverage for the :mod:`repro.crowd.reputation` store and the Task
Manager's confidence-driven replication, plus the interplay invariants
with batch crowd execution (PR2) and compiled expressions (PR3): adaptive
re-issue must never violate stop-after crowd bounds, and compiled vs
interpreted plans must generate identical crowd-call sequences even when
confidence-driven extension rounds kick in.
"""

from __future__ import annotations

import warnings

import pytest

from repro import Connection, CrowdConfig, connect
from repro.catalog.ddl import build_table_schema
from repro.crowd.model import (
    CompareEqualTask,
    FillGroupTask,
    FillTask,
    reset_id_counters,
)
from repro.crowd.platform import PlatformRegistry
from repro.crowd.reputation import ReputationStore
from repro.crowd.quality import normalize_answer
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.population import generate_skew_population
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import TaskManager
from repro.crowd.wrm import WorkerRelationshipManager
from repro.errors import CrowdDBWarning
from repro.sql.parser import parse
from repro.storage.engine import StorageEngine
from repro.ui.manager import UITemplateManager

TALK = build_table_schema(
    parse("CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)")
)


def make_manager(answer_fn, config=None, wrm=None):
    registry = PlatformRegistry()
    platform = ScriptedPlatform(answer_fn)
    registry.register(platform)
    manager = TaskManager(
        registry,
        UITemplateManager(StorageEngine().catalog),
        config=config or CrowdConfig(),
    )
    manager.reputation = ReputationStore(wrm=wrm)
    return manager, platform


ADAPTIVE = dict(target_confidence=0.9, min_replication=2, max_replication=6)


def fill(manager, crowd_answer, key):
    """One Talk abstract fill, issued and waited for on the serial path."""
    (future,) = manager.begin_fill_many([(TALK, key, ("abstract",), {})])
    return crowd_answer(manager, future)


# -- reputation store ---------------------------------------------------------------


class TestReputationStore:
    def test_prior_without_observations(self):
        store = ReputationStore(prior_accuracy=0.75)
        assert store.accuracy("anyone") == pytest.approx(0.75)

    def test_observations_move_the_estimate(self):
        store = ReputationStore()
        for _ in range(20):
            store.observe_consensus("good", True)
            store.observe_consensus("bad", False)
        assert store.accuracy("good") > 0.9
        assert store.accuracy("bad") < 0.35

    def test_estimates_are_clamped(self):
        store = ReputationStore(prior_strength=0.001)
        for _ in range(500):
            store.observe_gold("perfect", True)
            store.observe_gold("terrible", False)
        assert store.accuracy("perfect") <= 0.98
        assert store.accuracy("terrible") >= 0.05
        assert store.weight("perfect") > 0 > store.weight("terrible")

    def test_gold_weighs_heavier_than_consensus(self):
        store = ReputationStore(gold_weight=3.0)
        store.observe_consensus("a", False)
        store.observe_gold("b", False)
        assert store.accuracy("b") < store.accuracy("a")

    def test_wrm_ledger_records_observations(self):
        wrm = WorkerRelationshipManager()
        store = ReputationStore(wrm=wrm)
        store.observe_consensus("w1", True)
        store.observe_consensus("w1", False)
        store.observe_gold("w1", True)
        account = wrm.account("w1")
        assert account.consensus_votes == 2
        assert account.consensus_agreements == 1
        assert account.gold_seen == 1 and account.gold_correct == 1
        assert account.consensus_rate == pytest.approx(0.5)

    def test_wrm_rejections_lower_the_prior(self):
        wrm = WorkerRelationshipManager(auto_approve=False)
        store = ReputationStore(wrm=wrm)
        account = wrm.account("w1")
        account.rejected = 10
        assert store.accuracy("w1") < store.accuracy("fresh-worker")

    def test_gold_bank_round_robin_and_cap(self):
        store = ReputationStore(gold_bank_size=2)
        assert store.next_gold() is None
        store.add_gold("task-a", "a")
        store.add_gold("task-b", "b")
        store.add_gold("task-c", "c")  # overwrites the oldest slot
        assert store.gold_bank_depth == 2
        served = {store.next_gold().expected for _ in range(4)}
        assert served == {"b", "c"}


# -- adaptive replication (task manager level) --------------------------------------


class TestAdaptiveReplication:
    def test_unanimous_stops_at_min_replication(self, crowd_answer):
        manager, platform = make_manager(
            lambda task, replica: {"abstract": "same"},
            config=CrowdConfig(**ADAPTIVE),
        )
        values = fill(manager, crowd_answer, ("t",))
        assert values["abstract"] == "same"
        (hit,) = platform._hits.values()
        assert len(hit.assignments) == 2
        assert manager.stats.hit_extensions == 0

    def test_disagreement_extends_until_confident(self, crowd_answer):
        def answer(task, replica):
            return {"abstract": "noise" if replica == 0 else "signal"}

        manager, platform = make_manager(
            answer, config=CrowdConfig(**ADAPTIVE)
        )
        values = fill(manager, crowd_answer, ("t",))
        assert values["abstract"] == "signal"
        (hit,) = platform._hits.values()
        # 1-1 tie, then +1 per round until sigmoid(margin) >= 0.9: 5 total
        assert len(hit.assignments) == 5
        assert manager.stats.hit_extensions == 3

    def test_extension_caps_at_max_replication(self, crowd_answer):
        def answer(task, replica):  # perfectly split crowd, never confident
            return {"abstract": "a" if replica % 2 == 0 else "b"}

        manager, platform = make_manager(
            answer,
            config=CrowdConfig(
                target_confidence=0.99, min_replication=2, max_replication=5
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrowdDBWarning)
            fill(manager, crowd_answer, ("t",))
        (hit,) = platform._hits.values()
        assert len(hit.assignments) == 5
        assert hit.assignments_requested == 5

    def test_budget_blocks_extension(self, crowd_answer):
        def answer(task, replica):
            return {"abstract": "a" if replica % 2 == 0 else "b"}

        config = CrowdConfig(
            target_confidence=0.99,
            min_replication=2,
            max_replication=6,
            reward_cents=2,
            budget_cents=7,  # 2 ballots cost 4c; one extension would hit 6c,
        )                    # the next would need 8c > budget
        manager, platform = make_manager(answer, config=config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrowdDBWarning)
            fill(manager, crowd_answer, ("t",))
        (hit,) = platform._hits.values()
        assert len(hit.assignments) == 3
        assert manager.stats.cost_cents <= config.budget_cents

    def test_grouped_hits_extend_together(self):
        def answer(task, replica):
            assert isinstance(task, FillGroupTask)
            first = "x" if replica == 0 else "y"  # subtask 0 disagrees once
            return [{"abstract": first}, {"abstract": "stable"}]

        manager, platform = make_manager(
            answer,
            config=CrowdConfig(hit_group_size=2, **ADAPTIVE),
        )
        requests = [
            (TALK, (f"t{i}",), ("abstract",), {"title": f"t{i}"})
            for i in range(2)
        ]
        futures = manager.begin_fill_many(requests)
        manager.wait_many(futures)
        assert futures[0].result()["abstract"] == "y"
        assert futures[1].result()["abstract"] == "stable"
        (hit,) = platform._hits.values()
        # one grouped HIT extended for its weakest member
        assert len(hit.assignments) == 5

    def test_weighted_voting_resolves_disagreement_without_extension(self, crowd_answer):
        """Once reputations are learned, an expert-vs-spammer split is
        already confident at min_replication — no extra ballots paid."""
        def answer(task, replica):
            return {"abstract": "wrong" if replica == 0 else "right"}

        manager, platform = make_manager(
            answer, config=CrowdConfig(**ADAPTIVE)
        )
        # scripted worker ids are scripted-0 (always wrong) / scripted-1
        store = manager.reputation
        for _ in range(40):
            store.observe_gold("scripted-0", False)
            store.observe_gold("scripted-1", True)
        values = fill(manager, crowd_answer, ("t",))
        assert values["abstract"] == "right"
        (hit,) = platform._hits.values()
        assert len(hit.assignments) == 2  # no extension needed
        assert manager.stats.hit_extensions == 0

    def test_future_carries_confidence_state(self):
        def answer(task, replica):
            return {"abstract": "noise" if replica == 0 else "signal"}

        manager, _platform = make_manager(
            answer, config=CrowdConfig(**ADAPTIVE)
        )
        (future,) = manager.begin_fill_many([(TALK, ("t",), ("abstract",), {})])
        manager.wait(future)
        assert future.confidence is not None
        assert future.confidence >= 0.9
        assert future.extensions == 3

    def test_default_config_is_fixed_replication(self, crowd_answer):
        manager, platform = make_manager(
            lambda task, replica: {"abstract": "same"}
        )
        fill(manager, crowd_answer, ("t",))
        (hit,) = platform._hits.values()
        assert len(hit.assignments) == manager.config.replication == 3
        assert not manager.adaptive_enabled
        assert not manager.weighting_enabled


# -- gold-standard probes -----------------------------------------------------------


class TestGoldProbes:
    def test_gold_injection_rate_is_deterministic(self, crowd_answer):
        manager, platform = make_manager(
            lambda task, replica: {"abstract": "same"},
            config=CrowdConfig(gold_rate=0.5, **ADAPTIVE),
        )
        # seed the bank, then issue four more fills: at rate 0.5 exactly
        # two gold probes ride along
        manager.reputation.add_gold(
            FillTask("Talk", ("seed",), ("abstract",), {}), {"abstract": "same"}
        )
        for i in range(5):
            fill(manager, crowd_answer, (f"t{i}",))
        assert manager.stats.gold_hits_posted == 2
        assert manager.stats.gold_answers_scored == 2
        # gold probes are the single-assignment HITs (adaptive fills ask
        # for min_replication=2); settled fills re-seed the bank, so the
        # second probe may re-ask an earlier fill rather than the seed
        gold_hits = [
            hit for hit in platform._hits.values()
            if hit.assignments_requested == 1
        ]
        assert len(gold_hits) == 2

    def test_gold_scores_feed_wrm_and_store(self, crowd_answer):
        wrm = WorkerRelationshipManager()

        def answer(task, replica):
            if task.primary_key == ("gold",):
                return {"abstract": "WRONG"}
            return {"abstract": "same"}

        manager, _platform = make_manager(
            answer, config=CrowdConfig(gold_rate=1.0, **ADAPTIVE), wrm=wrm
        )
        manager.reputation.add_gold(
            FillTask("Talk", ("gold",), ("abstract",), {}),
            {"abstract": "truth"},
        )
        fill(manager, crowd_answer, ("t",))
        account = wrm.account("scripted-0")
        assert account.gold_seen == 1 and account.gold_correct == 0
        assert manager.reputation.accuracy("scripted-0") < 0.75

    def test_confident_settles_deposit_gold(self, crowd_answer):
        manager, _platform = make_manager(
            lambda task, replica: {"abstract": "same"},
            config=CrowdConfig(gold_rate=0.5, **ADAPTIVE),
        )
        assert manager.reputation.gold_bank_depth == 0
        fill(manager, crowd_answer, ("t",))
        assert manager.reputation.gold_bank_depth == 1
        gold = manager.reputation.next_gold()
        assert gold.expected == {"abstract": "same"}

    def test_gold_cost_is_accounted(self, crowd_answer):
        manager, _platform = make_manager(
            lambda task, replica: {"abstract": "same"},
            config=CrowdConfig(gold_rate=1.0, reward_cents=2, **ADAPTIVE),
        )
        manager.reputation.add_gold(
            FillTask("Talk", ("seed",), ("abstract",), {}), {"abstract": "same"}
        )
        fill(manager, crowd_answer, ("t",))
        # 2 real ballots + 1 gold ballot, 2c each
        assert manager.stats.cost_cents == 6
        assert manager.stats.assignments_received == 3

    def test_compare_gold_grading(self):
        from repro.crowd.kinds import grade_gold

        eq = CompareEqualTask("a", "b")
        assert grade_gold(eq, True, True) is True
        assert grade_gold(eq, True, False) is False
        fill = FillTask("Talk", ("t",), ("abstract",), {})
        assert grade_gold(fill, {"abstract": "X"}, {"abstract": " x "})
        assert grade_gold(fill, {"abstract": "X"}, "bogus") is None


# -- interplay with PR2 (batch windows + stop-after bounds) -------------------------


def adaptive_scripted_db(oracle, answer_fn=None, **config_kwargs):
    reset_id_counters()
    platform = ScriptedPlatform(answer_fn or oracle_answer_fn(oracle))
    config = CrowdConfig(**{**ADAPTIVE, **config_kwargs})
    return connect(
        oracle=oracle,
        platforms=(platform,),
        default_platform="scripted",
        crowd_config=config,
    ), platform


class TestBatchWindowInterplay:
    def _attendee_oracle(self):
        oracle = GroundTruthOracle()
        oracle.load_new_tuples(
            "NotableAttendee",
            [{"name": f"Person {i}", "title": "CrowdDB"} for i in range(6)],
        )
        return oracle

    def test_stop_after_bounds_survive_adaptive_replication(self):
        """A batch-window prefetch with adaptive replication may extend
        HITs (more assignments) but never sources more *tuples* than the
        stop-after bound allows."""
        db, platform = adaptive_scripted_db(
            self._attendee_oracle(), batch_size=16
        )
        db.execute(
            "CREATE CROWD TABLE NotableAttendee "
            "(name STRING PRIMARY KEY, title STRING)"
        )
        result = db.execute("SELECT name FROM NotableAttendee LIMIT 2")
        # the open-world scan may source fewer tuples (duplicate crowd
        # contributions dedup away) but NEVER more than the bound
        assert 1 <= len(result.rows) <= 2
        new_tuple_hits = [
            task for task in platform.posted_tasks
            if type(task).__name__ == "NewTupleTask"
        ]
        assert len(new_tuple_hits) <= 2
        assert db.crowd_stats["new_tuple_requests"] == 1

    def test_window_fill_counts_unchanged_by_adaptive(self):
        """Adaptive replication extends assignments, not tasks: the
        batch window posts exactly one fill task per CNULL row whether or
        not confidence-driven re-issue kicks in."""
        oracle = GroundTruthOracle()
        for i in range(8):
            oracle.load_fill("City", (f"c{i}",), {"population": 100 + i})

        rounds = {"calls": 0}

        def noisy_answer(task, replica):
            # first ballot of every HIT disagrees -> every fill extends
            if replica == 0:
                return {"population": "999999"}
            return {"population": str(oracle.fill_value(
                task.table, task.primary_key, "population"))}

        db, platform = adaptive_scripted_db(
            oracle, answer_fn=noisy_answer, batch_size=4
        )
        db.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER)"
        )
        for i in range(8):
            db.execute(f"INSERT INTO City (name) VALUES ('c{i}')")
        result = db.execute("SELECT name, population FROM City")
        assert sorted(result.rows) == [
            (f"c{i}", 100 + i) for i in range(8)
        ]
        fill_tasks = [
            t for t in platform.posted_tasks if isinstance(t, FillTask)
        ]
        assert len(fill_tasks) == 8           # one task per CNULL row
        assert result.crowd_stats["hit_extensions"] > 0
        assert result.crowd_stats["assignments"] > 16  # but more ballots


# -- interplay with PR3 (compiled vs interpreted crowd-call sequences) --------------


class TestCompiledExpressionInterplay:
    def _run(self):
        reset_id_counters()
        oracle = GroundTruthOracle()
        oracle.declare_same_entity("IBM", "I.B.M.", "ibm corp")

        def flaky_answer(task, replica):
            # first ballot is always wrong -> every CROWDEQUAL ballot
            # needs confidence-driven re-issue
            truth = oracle.equal(task.left, task.right)
            return (not truth) if replica == 0 else truth

        platform = ScriptedPlatform(flaky_answer)
        db = connect(
            oracle=oracle,
            platforms=(platform,),
            default_platform="scripted",
            crowd_config=CrowdConfig(**ADAPTIVE),
        )
        db.execute("CREATE TABLE Company (name STRING PRIMARY KEY)")
        for name in ("I.B.M.", "ibm corp", "Oracle", "HP"):
            db.execute(f"INSERT INTO Company (name) VALUES ('{name}')")
        result = db.execute(
            "SELECT name FROM Company WHERE CROWDEQUAL(name, 'IBM')"
        )
        calls = [
            (task.left, task.right) for task in platform.posted_tasks
            if isinstance(task, CompareEqualTask)
        ]
        return sorted(result.rows), calls, db.crowd_stats

    def record(self) -> dict:
        rows, calls, stats = self._run()
        return {
            "rows": repr(rows),
            "calls": repr(calls),
            "hit_extensions": stats["hit_extensions"],
            "assignments_received": stats["assignments_received"],
        }

    def test_identical_crowd_calls_under_reissue(self, expr_golden):
        # the crowd-call sequence the AST interpreter produced
        record = self.record()
        assert record == expr_golden["statement adaptive_reissue"]["result"]
        assert record["rows"] == repr([("I.B.M.",), ("ibm corp",)])
        assert record["hit_extensions"] > 0


# -- the whole subsystem against the paper's fixed replication ----------------------


class TestAdaptiveAgainstFixedReplication:
    """A 400-professor fill scan (department and email are CROWD columns)
    on a skew-skill crowd — 75% diligent experts, 25% careless spammers —
    under ``replication=3`` majority voting and under the adaptive knobs:
    two assignments up front, extension while confidence is low, gold
    probes, and blocking through the WRM."""

    ROWS = 400
    SEED = 42
    KNOBS = dict(
        target_confidence=0.8,
        min_replication=2,
        max_replication=7,
        gold_rate=0.05,
        block_below=0.6,
    )
    DEPARTMENTS = ["EECS", "Statistics", "Biology", "Chemistry", "History"]

    def _names(self, count):
        return [f"Prof. {chr(65 + i % 26)}{i:03d}" for i in range(count)]

    def _oracle(self):
        oracle = GroundTruthOracle()
        for i, name in enumerate(self._names(self.ROWS)):
            oracle.load_fill(
                "Professor",
                (name,),
                {
                    "department": self.DEPARTMENTS[i % 5],
                    "email": f"prof{i:03d}@univ.edu",
                },
            )
        return oracle

    def _scan(self, db):
        db.execute(
            "CREATE TABLE Professor (name STRING PRIMARY KEY, "
            "department CROWD STRING, email CROWD STRING)"
        )
        for name in self._names(self.ROWS):
            db.execute("INSERT INTO Professor (name) VALUES (?)", (name,))
        return db.execute("SELECT name, department, email FROM Professor")

    def _run_skew(self, config):
        reset_id_counters()
        oracle = self._oracle()
        platform = SimulatedAMT(
            oracle,
            workers=generate_skew_population(
                80,
                seed=self.SEED,
                spammer_fraction=0.25,
                expert_skill_range=(0.95, 1.0),
                id_prefix="amt-",
            ),
            seed=self.SEED,
            config=BehaviorConfig(base_accuracy=0.97),
        )
        db = connect(
            oracle=oracle,
            seed=self.SEED,
            platforms=(platform,),
            default_platform="amt",
            crowd_config=config,
        )
        db.reputation.block_after_observations = 4.0
        # a requester starts with a few verified facts in the gold bank
        for name in self._names(8):
            db.reputation.add_gold(
                FillTask(
                    "Professor", (name,), ("department", "email"),
                    {"name": name},
                ),
                {
                    column: str(oracle.fill_value("Professor", (name,), column))
                    for column in ("department", "email")
                },
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrowdDBWarning)
            result = self._scan(db)
        cells = [
            (value, oracle.fill_value("Professor", (name,), column))
            for name, department, email in result.rows
            for column, value in (("department", department), ("email", email))
        ]
        return {
            # platform-side counters include the gold probes: every paid
            # assignment counts against the saving
            "assignments": platform.assignments_submitted,
            "cost_cents": platform.total_cost_cents,
            "accuracy": sum(
                normalize_answer(str(got)) == normalize_answer(str(truth))
                for got, truth in cells
            ) / len(cells),
            "extensions": int(db.crowd_stats["hit_extensions"]),
            "gold_hits": int(db.crowd_stats["gold_hits_posted"]),
            "blocked": sum(a.blocked for a in db.wrm.accounts.values()),
        }

    def _run_perfect(self, config):
        reset_id_counters()
        oracle = self._oracle()
        db = connect(
            oracle=oracle,
            platforms=(ScriptedPlatform(oracle_answer_fn(oracle)),),
            default_platform="scripted",
            crowd_config=config,
        )
        result = self._scan(db)
        return sorted(result.rows), db.crowd_stats["assignments_received"]

    def test_cheaper_and_no_less_accurate_on_a_skewed_crowd(self):
        fixed = self._run_skew(CrowdConfig(replication=3))
        adaptive = self._run_skew(CrowdConfig(**self.KNOBS))
        # at least a quarter fewer paid assignments, gold probes included
        assert adaptive["assignments"] <= 0.75 * fixed["assignments"]
        assert adaptive["cost_cents"] < fixed["cost_cents"]
        # cheaper must never mean worse
        assert adaptive["accuracy"] >= fixed["accuracy"]
        # and the saving comes from the mechanisms under test
        assert adaptive["extensions"] > 0
        assert adaptive["gold_hits"] > 0
        assert adaptive["blocked"] > 0
        assert fixed["extensions"] == 0

    def test_knobs_change_cost_not_answers_on_a_perfect_crowd(self):
        fixed_rows, fixed_paid = self._run_perfect(CrowdConfig(replication=3))
        adaptive_rows, adaptive_paid = self._run_perfect(
            CrowdConfig(**self.KNOBS)
        )
        assert adaptive_rows == fixed_rows
        assert adaptive_paid < fixed_paid
