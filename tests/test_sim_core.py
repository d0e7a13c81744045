"""Unit tests for the discrete-event core: clock, events, behaviour,
population, ground-truth oracle, and worker answer generation."""

import random

import pytest

from repro.crowd.model import (
    CompareEqualTask,
    CompareOrderTask,
    FillTask,
    NewTupleTask,
    TaskKind,
)
from repro.crowd.quality import normalize_answer
from repro.crowd.sim.behavior import (
    BehaviorConfig,
    acceptance_probability,
    completion_time,
    error_probability,
    group_attractiveness,
)
from repro.crowd.sim.clock import EventQueue, SimClock
from repro.crowd.sim.population import (
    activity_table,
    distance_km,
    generate_population,
    pick_weighted,
)
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.sim.worker import SimWorker


def linear_pick(workers, rng):
    """The reference worker draw: a linear scan of the running activity
    sums for the first one that reaches the threshold."""
    total = sum(worker.activity for worker in workers)
    threshold = rng.random() * total
    cumulative = 0.0
    for worker in workers:
        cumulative += worker.activity
        if cumulative >= threshold:
            return worker
    return workers[-1]


class _Replay:
    """An RNG whose every ``random()`` returns one fixed draw."""

    def __init__(self, draw):
        self.draw = draw

    def random(self):
        return self.draw


class TestClock:
    def test_monotonic(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_events_run_in_time_order(self):
        clock = SimClock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(5.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(9.0, lambda: fired.append("c"))
        while queue.step():
            pass
        assert fired == ["a", "b", "c"]
        assert clock.now == 9.0

    def test_fifo_among_simultaneous(self):
        clock = SimClock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(1.0, lambda: fired.append(2))
        while queue.step():
            pass
        assert fired == [1, 2]

    def test_negative_delay_rejected(self):
        queue = EventQueue(SimClock())
        with pytest.raises(ValueError):
            queue.schedule(-1.0, lambda: None)

    def test_run_until_condition(self):
        clock = SimClock()
        queue = EventQueue(clock)
        state = {"n": 0}

        def bump():
            state["n"] += 1
            queue.schedule(1.0, bump)

        queue.schedule(1.0, bump)
        assert queue.run_until(lambda: state["n"] >= 3, timeout=100.0)
        assert state["n"] == 3

    def test_run_until_timeout(self):
        clock = SimClock()
        queue = EventQueue(clock)
        queue.schedule(50.0, lambda: None)
        met = queue.run_until(lambda: False, timeout=10.0)
        assert not met
        assert clock.now == 10.0  # advanced exactly to the deadline

    def test_run_until_already_true(self):
        queue = EventQueue(SimClock())
        assert queue.run_until(lambda: True, timeout=0.0)


class TestBehavior:
    def test_acceptance_increases_with_reward(self):
        config = BehaviorConfig()
        probs = [
            acceptance_probability(cents, 1.0, config) for cents in (1, 2, 4, 8)
        ]
        assert probs == sorted(probs)
        assert 0 < probs[0] < probs[-1] < 1

    def test_price_sensitive_workers_accept_less(self):
        config = BehaviorConfig()
        assert acceptance_probability(2, 2.0, config) < acceptance_probability(
            2, 0.5, config
        )

    def test_group_visibility(self):
        config = BehaviorConfig()
        small = group_attractiveness(1, False, config)
        large = group_attractiveness(100, False, config)
        assert large > small

    def test_affinity_boost(self):
        config = BehaviorConfig()
        assert group_attractiveness(5, True, config) > group_attractiveness(
            5, False, config
        )

    def test_completion_time_positive_and_speed_scaled(self):
        config = BehaviorConfig()
        rng = random.Random(1)
        slow = [completion_time(random.Random(i), 0.5, config) for i in range(50)]
        fast = [completion_time(random.Random(i), 2.0, config) for i in range(50)]
        assert all(t >= 5.0 for t in slow + fast)
        assert sum(fast) < sum(slow)

    def test_error_probability_monotone_in_skill(self):
        config = BehaviorConfig()
        errors = [
            error_probability(skill, TaskKind.FILL, config)
            for skill in (0.5, 0.7, 0.9, 1.0)
        ]
        assert errors == sorted(errors, reverse=True)
        assert 0 < errors[-1] < errors[0] < 0.5


class TestPopulation:
    def test_deterministic_generation(self):
        a = generate_population(20, seed=5)
        b = generate_population(20, seed=5)
        assert [w.activity for w in a] == [w.activity for w in b]

    def test_heavy_tail(self):
        workers = generate_population(500, seed=1)
        activities = sorted((w.activity for w in workers), reverse=True)
        top_share = sum(activities[:50]) / sum(activities)
        assert top_share > 0.3  # top 10% own a disproportionate share

    def test_region_scatters_locations(self):
        workers = generate_population(10, seed=2, region=(47.6, -122.3, 2.0))
        assert all(w.location is not None for w in workers)
        for worker in workers:
            assert distance_km(worker.location, (47.6, -122.3)) < 5.0

    def test_pick_weighted_prefers_active(self):
        rng = random.Random(0)
        light = SimWorker("light", 0.8, 1.0, activity=0.1, price_sensitivity=1)
        heavy = SimWorker("heavy", 0.8, 1.0, activity=10.0, price_sensitivity=1)
        table = activity_table([light, heavy])
        picks = [
            pick_weighted([light, heavy], table, rng).worker_id
            for _ in range(200)
        ]
        assert picks.count("heavy") > 150

    @pytest.mark.parametrize(
        "activities",
        [
            [w.activity for w in generate_population(200)],
            [0.0, 0.0, 1.5, 0.0, 2.0, 0.0],  # idle workers, leading ones too
            [0.0, 0.0, 0.0],
            [0.1] * 10,  # running sum 0.9999999999999999; fsum says 1.0
            [2.5],
        ],
        ids=["pareto", "zeros", "all-zero", "rounding", "one"],
    )
    def test_bisect_draw_equals_the_linear_scan(self, activities):
        workers = [
            SimWorker(f"w{i}", 0.8, 1.0, activity=a, price_sensitivity=1)
            for i, a in enumerate(activities)
        ]
        table = activity_table(workers)
        ours, theirs = random.Random(11), random.Random(11)
        for _ in range(10_000):
            assert pick_weighted(workers, table, ours) is linear_pick(
                workers, theirs
            )
        # the threshold's ends: 0, and the total itself
        for draw in (0.0, 1.0):
            assert pick_weighted(workers, table, _Replay(draw)) is linear_pick(
                workers, _Replay(draw)
            )

    def test_distance(self):
        assert distance_km((47.6, -122.3), (47.6, -122.3)) == 0.0
        assert distance_km((47.6, -122.3), (47.7, -122.3)) == pytest.approx(
            11.1, rel=0.01
        )


class TestOracle:
    def test_fill_values(self):
        oracle = GroundTruthOracle()
        oracle.load_fill("Talk", ("CrowdDB",), {"abstract": "text", "nb": 5})
        assert oracle.fill_value("talk", ("crowddb",), "ABSTRACT") == "text"
        assert oracle.fill_value("Talk", ("CrowdDB",), "nb") == 5
        assert oracle.fill_value("Talk", ("Unknown",), "abstract") is None

    def test_new_tuples_grouped_by_fixed_columns(self):
        oracle = GroundTruthOracle()
        oracle.load_new_tuples(
            "n",
            [{"name": "A", "title": "X"}, {"name": "B", "title": "Y"}],
            fixed_columns=("title",),
        )
        rng = random.Random(0)
        row = oracle.new_tuple("n", {"title": "X"}, rng)
        assert row["name"] == "A"
        assert oracle.new_tuple("n", {"title": "Z"}, rng) is None

    def test_unconstrained_draws_from_union(self):
        oracle = GroundTruthOracle()
        oracle.load_new_tuples("n", [{"name": "A"}, {"name": "B"}])
        rng = random.Random(0)
        names = {oracle.new_tuple("n", {}, rng)["name"] for _ in range(20)}
        assert names == {"A", "B"}

    def test_entity_resolution(self):
        oracle = GroundTruthOracle()
        oracle.declare_same_entity("I.B.M.", "IBM", "Big Blue")
        assert oracle.equal("ibm", "I.B.M.")
        assert oracle.equal("Big Blue", "IBM")
        assert not oracle.equal("IBM", "Oracle")
        assert oracle.equal("same", "same")  # trivially

    def test_ranking(self):
        oracle = GroundTruthOracle()
        oracle.load_ranking("best?", {"A": 2.0, "B": 1.0})
        assert oracle.prefer_left("best?", "A", "B")
        assert not oracle.prefer_left("best?", "B", "A")
        assert oracle.score("best?", "A") == 2.0

    def test_ranking_fallback(self):
        oracle = GroundTruthOracle()
        assert oracle.prefer_left("unknown?", "a", "b")

    def test_distractors(self):
        oracle = GroundTruthOracle()
        oracle.load_fill("t", ("a",), {"c": "right"})
        oracle.load_fill("t", ("b",), {"c": "wrong"})
        rng = random.Random(0)
        assert oracle.distractor("t", "c", "right", rng) == "wrong"
        assert oracle.distractor("t", "zzz", "x", rng) is None

    def test_distractor_draws_match_the_uncached_pool(self):
        oracle = GroundTruthOracle()
        values = ["Berkeley", " berkeley ", "BERKELEY!", "Zurich",
                  "zurich.", "Seattle", "Munich", "  Boston"]
        for i, value in enumerate(values):
            oracle.load_fill("t", (i,), {"c": value})

        def uncached(truth, rng):
            pool = oracle._distractors["t"]["c"].values
            wrong = [v for v in pool
                     if normalize_answer(v) != normalize_answer(truth)]
            return rng.choice(wrong) if wrong else None

        truths = ["berkeley", "Zurich", "munich ", "Oslo"]
        ours, theirs = random.Random(7), random.Random(7)
        for draw in range(1000):
            truth = truths[draw % len(truths)]
            assert oracle.distractor("t", "c", truth, ours) == uncached(
                truth, theirs
            )
        # a value loaded after the first draws is drawable afterwards
        oracle.load_fill("t", (99,), {"c": "Oslo"})
        rng = random.Random(0)
        drawn = {oracle.distractor("t", "c", "berkeley", rng)
                 for _ in range(200)}
        assert "Oslo" in drawn
        assert not {"Berkeley", " berkeley ", "BERKELEY!"} & drawn


class TestWorkerAnswers:
    def make_worker(self, skill=1.0):
        return SimWorker("w", skill, 1.0, activity=1.0, price_sensitivity=1.0)

    def test_perfect_worker_fills_truth(self):
        oracle = GroundTruthOracle()
        oracle.load_fill("Talk", ("CrowdDB",), {"abstract": "the abstract"})
        config = BehaviorConfig(base_accuracy=1.0)
        config.difficulty = {k: 0.0 for k in TaskKind}
        task = FillTask(
            table="Talk",
            primary_key=("CrowdDB",),
            columns=("abstract",),
            known_values={"title": "CrowdDB"},
        )
        rng = random.Random(0)
        worker = self.make_worker()
        answer = worker.answer(task, oracle, rng, config)
        assert answer["abstract"].strip().lower() == "the abstract"

    def test_unknown_truth_yields_empty(self):
        oracle = GroundTruthOracle()
        config = BehaviorConfig()
        task = FillTask("Talk", ("X",), ("abstract",), {})
        answer = self.make_worker().answer(task, oracle, random.Random(0), config)
        assert answer["abstract"] == ""

    def test_compare_equal_truthful(self):
        oracle = GroundTruthOracle()
        oracle.declare_same_entity("IBM", "I.B.M.")
        config = BehaviorConfig(base_accuracy=1.0)
        config.difficulty = {k: 0.0 for k in TaskKind}
        task = CompareEqualTask("IBM", "I.B.M.")
        assert self.make_worker().answer(task, oracle, random.Random(0), config)

    def test_compare_order_answers_left_right(self):
        oracle = GroundTruthOracle()
        oracle.load_ranking("q", {"A": 2.0, "B": 1.0})
        config = BehaviorConfig(base_accuracy=1.0)
        config.difficulty = {k: 0.0 for k in TaskKind}
        worker = self.make_worker()
        assert worker.answer(
            CompareOrderTask("A", "B", "q"), oracle, random.Random(0), config
        ) == "left"
        assert worker.answer(
            CompareOrderTask("B", "A", "q"), oracle, random.Random(0), config
        ) == "right"

    def test_new_tuple_respects_fixed_values(self):
        oracle = GroundTruthOracle()
        oracle.load_new_tuples(
            "n", [{"name": "Mike", "title": "CrowdDB"}], fixed_columns=("title",)
        )
        config = BehaviorConfig(base_accuracy=1.0)
        config.difficulty = {k: 0.0 for k in TaskKind}
        task = NewTupleTask(
            table="n",
            columns=("name", "title"),
            fixed_values={"title": "CrowdDB"},
        )
        answer = self.make_worker().answer(task, oracle, random.Random(0), config)
        assert answer["title"] == "CrowdDB"
        assert answer["name"].strip().lower() == "mike"

    def test_error_injection_changes_answers(self):
        oracle = GroundTruthOracle()
        oracle.load_fill("t", ("k",), {"c": "truth"})
        config = BehaviorConfig(base_accuracy=0.0)  # always err
        task = FillTask("t", ("k",), ("c",), {})
        worker = self.make_worker(skill=0.5)
        answer = worker.answer(task, oracle, random.Random(1), config)
        assert answer["c"].strip().lower() != "truth"

    def test_remember_group(self):
        worker = self.make_worker()
        worker.remember_group("fill:Talk:abstract")
        assert "fill:Talk:abstract" in worker.familiar_groups
        assert worker.completed_hits == 1
