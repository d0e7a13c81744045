"""Tests for the simulated AMT and mobile platforms (marketplace loop).

``python tests/test_sim_platforms.py`` rewrites ``tests/golden/sim_v1.jsonl``
— only ever do that on purpose, when the simulator's behaviour is meant
to change.
"""

import json
import os
from collections import Counter

import pytest

from repro.crowd.model import (
    HIT,
    CompareEqualTask,
    CompareOrderTask,
    FillGroupTask,
    FillTask,
    HITStatus,
    reset_id_counters,
)
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.mobile import VLDB_VENUE, SimulatedMobilePlatform
from repro.crowd.sim.population import generate_population
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.wrm import WorkerRelationshipManager
from repro.errors import CrowdPlatformError, TransientPlatformError

GOLDEN_SIM = os.path.join(os.path.dirname(__file__), "golden", "sim_v1.jsonl")
WEEK = 7 * 24 * 3600.0


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_id_counters()


@pytest.fixture
def oracle():
    oracle = GroundTruthOracle()
    oracle.load_fill("Talk", ("CrowdDB",), {"abstract": "the abstract"})
    return oracle


def make_hit(reward=2, assignments=3):
    task = FillTask(
        table="Talk",
        primary_key=("CrowdDB",),
        columns=("abstract",),
        known_values={"title": "CrowdDB"},
    )
    return HIT(task=task, reward_cents=reward, assignments_requested=assignments)


class TestSimulatedAMT:
    def test_hits_complete(self, oracle):
        platform = SimulatedAMT(oracle, population=50, seed=1)
        hit = make_hit()
        platform.post_hit(hit)
        done = platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)
        assert done
        assert hit.status is HITStatus.COMPLETED
        assert len(hit.assignments) == 3

    def test_deterministic_given_seed(self, oracle):
        def run(seed):
            reset_id_counters()
            platform = SimulatedAMT(oracle, population=50, seed=seed)
            hit = make_hit()
            platform.post_hit(hit)
            platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)
            return [
                (a.worker_id, a.submitted_at) for a in hit.assignments
            ]

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_worker_does_not_repeat_a_hit(self, oracle):
        platform = SimulatedAMT(oracle, population=50, seed=2)
        hit = make_hit(assignments=5)
        platform.post_hit(hit)
        platform.wait_for_hits([hit.hit_id], timeout=96 * 3600)
        workers = [a.worker_id for a in hit.assignments]
        assert len(workers) == len(set(workers))

    def test_higher_reward_completes_faster(self, oracle):
        def completion_time(reward):
            reset_id_counters()
            platform = SimulatedAMT(oracle, population=100, seed=3)
            hits = [make_hit(reward=reward) for _ in range(20)]
            for hit in hits:
                platform.post_hit(hit)
            platform.wait_for_hits([h.hit_id for h in hits], timeout=96 * 3600)
            return platform.clock.now

        assert completion_time(8) < completion_time(1)

    def test_expiry(self, oracle):
        platform = SimulatedAMT(oracle, population=5, seed=4)
        hit = make_hit(assignments=50)
        hit.expires_at = 60.0  # one minute: nowhere near enough
        platform.post_hit(hit)
        platform.wait_for_hits([hit.hit_id], timeout=3600)
        assert hit.status is HITStatus.EXPIRED

    def test_double_post_rejected(self, oracle):
        platform = SimulatedAMT(oracle, population=5, seed=5)
        hit = make_hit()
        platform.post_hit(hit)
        with pytest.raises(CrowdPlatformError):
            platform.post_hit(hit)

    def test_unknown_hit(self, oracle):
        platform = SimulatedAMT(oracle, population=5, seed=6)
        with pytest.raises(CrowdPlatformError):
            platform.get_hit("nope")

    def test_cost_accounting(self, oracle):
        platform = SimulatedAMT(oracle, population=50, seed=7)
        hit = make_hit(reward=5)
        platform.post_hit(hit)
        platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)
        assert platform.total_cost_cents == 15  # 3 assignments x 5c
        assert platform.assignments_submitted == 3

    def test_empty_population_rejected(self, oracle):
        with pytest.raises(CrowdPlatformError):
            SimulatedAMT(oracle, workers=[], population=0)

    def test_hits_per_worker_distribution(self, oracle):
        platform = SimulatedAMT(oracle, population=80, seed=8)
        hits = [make_hit(assignments=1) for _ in range(120)]
        for hit in hits:
            platform.post_hit(hit)
        platform.wait_for_hits([h.hit_id for h in hits], timeout=10 * 24 * 3600)
        counts = sorted(platform.hits_per_worker().values(), reverse=True)
        assert sum(counts) >= 100
        # heavy tail: busiest decile does far more than its share
        top = sum(counts[: max(1, len(counts) // 10)])
        assert top / sum(counts) > 0.15

    def test_on_assignment_hook(self, oracle):
        platform = SimulatedAMT(oracle, population=50, seed=9)
        seen = []
        platform.on_assignment.append(lambda hit, a: seen.append(a.worker_id))
        hit = make_hit()
        platform.post_hit(hit)
        platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)
        assert len(seen) == 3

    def test_arrival_cost_tracks_open_hits_not_history(
        self, oracle, monkeypatch
    ):
        platform = SimulatedAMT(oracle, population=50, seed=12)
        for _ in range(40):  # 2,000 HITs of history, all completed
            batch = [make_hit(reward=8, assignments=1) for _ in range(50)]
            platform.post_hits(batch)
            assert platform.wait_for_hits(
                [hit.hit_id for hit in batch], timeout=WEEK
            )
        fresh = [make_hit(assignments=50) for _ in range(5)]
        platform.post_hits(fresh)

        evaluations = 0
        is_open = HIT.is_open.fget

        def counting(hit):
            nonlocal evaluations
            evaluations += 1
            return is_open(hit)

        monkeypatch.setattr(HIT, "is_open", property(counting))
        submitted = platform.assignments_submitted
        for _ in range(100):  # each event is at most one arrival
            assert platform.events.step()
        assert platform.assignments_submitted > submitted
        # three passes per arrival, each over the open HITs at most
        assert evaluations <= 100 * 3 * len(fresh)

    def test_reopen_cost_tracks_open_hits_not_history(
        self, oracle, monkeypatch
    ):
        platform = SimulatedAMT(oracle, population=50, seed=12)
        history = []
        for _ in range(40):  # 2,000 HITs of history, all completed
            batch = [make_hit(reward=8, assignments=1) for _ in range(50)]
            platform.post_hits(batch)
            assert platform.wait_for_hits(
                [hit.hit_id for hit in batch], timeout=WEEK
            )
            history.extend(batch)
        fresh = [make_hit(assignments=50) for _ in range(5)]
        platform.post_hits(fresh)

        reads = 0

        def read(hit):
            nonlocal reads
            reads += 1
            return hit.__dict__["status"]

        def write(hit, value):
            hit.__dict__["status"] = value

        monkeypatch.setattr(HIT, "status", property(read, write))
        reopened = history[1000]
        platform.extend_hit(reopened.hit_id, 1)
        # back at its posting position, before the HITs posted after it
        assert list(platform._open) == [reopened.hit_id] + [
            hit.hit_id for hit in fresh
        ]
        # rebuilding the index from the history read 2,007 statuses here
        assert reads <= 2 * (len(fresh) + 1)

    def test_arrival_checks_the_worker_once(self, oracle, monkeypatch):
        wrm = WorkerRelationshipManager()
        platform = SimulatedAMT(oracle, population=50, seed=12, wrm=wrm)
        checks = arrivals = 0
        is_blocked = wrm.is_blocked

        def counting_check(worker_id):
            nonlocal checks
            checks += 1
            return is_blocked(worker_id)

        on_arrival = platform._on_arrival

        def counting_arrival():
            nonlocal arrivals
            arrivals += 1
            on_arrival()

        monkeypatch.setattr(wrm, "is_blocked", counting_check)
        monkeypatch.setattr(platform, "_on_arrival", counting_arrival)
        platform.post_hits([make_hit(assignments=50) for _ in range(50)])
        while arrivals < 100:
            assert platform.events.step()
        assert platform.assignments_submitted > 0
        # a check per open HIT made about 50 per arrival
        assert checks <= 100

    def test_extending_a_hit_with_every_slot_in_flight_frees_a_slot(
        self, oracle
    ):
        platform = SimulatedAMT(oracle, population=50, seed=13)
        hit = make_hit(assignments=1)
        platform.post_hit(hit)
        while platform._free:  # until a worker accepts the only slot
            assert platform.events.step()
        assert hit.is_open and not hit.assignments  # in flight
        platform.extend_hit(hit.hit_id, 1)
        assert platform._free == {hit.hit_id: 1}
        # the next arrival may take it although the first taker is busy
        assert platform.wait_for_hits([hit.hit_id], timeout=WEEK)
        assert len({a.worker_id for a in hit.assignments}) == 2


class TestMobilePlatform:
    def test_local_hit_completes(self, oracle):
        platform = SimulatedMobilePlatform(oracle, population=40, seed=1)
        hit = make_hit()
        hit.locality = (VLDB_VENUE[0], VLDB_VENUE[1], 5.0)
        platform.post_hit(hit)
        done = platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)
        assert done and len(hit.assignments) == 3

    def test_locality_filter_excludes_far_workers(self, oracle):
        # place every worker ~110 km away from the venue
        far_region = (VLDB_VENUE[0] + 1.0, VLDB_VENUE[1], 0.5)
        workers = generate_population(30, seed=2, region=far_region)
        platform = SimulatedMobilePlatform(oracle, workers=workers, seed=2)
        hit = make_hit()
        hit.locality = (VLDB_VENUE[0], VLDB_VENUE[1], 2.0)
        platform.post_hit(hit)
        done = platform.wait_for_hits([hit.hit_id], timeout=6 * 3600)
        assert not done
        assert len(hit.assignments) == 0

    def test_nonlocal_hit_open_to_everyone(self, oracle):
        platform = SimulatedMobilePlatform(oracle, population=40, seed=3)
        hit = make_hit()  # no locality constraint
        platform.post_hit(hit)
        assert platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)

    def test_burstiness_profile(self, oracle):
        platform = SimulatedMobilePlatform(
            oracle, population=40, seed=4,
            session_minutes=90, break_minutes=30,
        )
        in_session = platform.arrival_rate()
        platform.clock.advance_to(95 * 60.0)  # inside the coffee break
        in_break = platform.arrival_rate()
        assert in_break > in_session * 4


# -- golden trace: same draws, same choices -----------------------------------

CITIES = ("Berkeley", "Zurich", "Seattle", "Munich", "Boston", "Paris")


def _golden_oracle():
    oracle = GroundTruthOracle()
    for i in range(18):
        oracle.load_fill(
            "Prof",
            (f"p{i}",),
            {"dept": f"Dept {i % 4}", "city": CITIES[i % len(CITIES)]},
        )
    oracle.declare_same_entity("IBM", "I.B.M.")
    oracle.load_ranking("older", {"Codd": 3.0, "Gray": 2.0, "Hoare": 1.0})
    return oracle


def _fill(i, columns=("dept", "city")):
    return FillTask(
        table="Prof",
        primary_key=(f"p{i}",),
        columns=columns,
        known_values={"name": f"p{i}"},
    )


def _retrying(call, *args):
    """Repeat a platform call through injected transient failures."""
    while True:
        try:
            return call(*args)
        except TransientPlatformError:
            pass


def _sim_scenario(platform, doomed_lifetime):
    """Drive one seeded marketplace through every path the open-HIT
    bookkeeping touches: several groups posted at one sim time, a grouped
    HIT, expiry with workers in flight, a blocked worker, an approval-rate
    qualification, transient faults, and an extension reopening a
    completed HIT posted before still-open ones.  Returns one record per
    submitted assignment plus a final cost/clock record.

    ``doomed_lifetime`` is how long one crowded HIT stays up: tuned per
    platform so workers are still in flight on it when it expires."""
    reset_id_counters()
    wrm = platform.wrm
    records = []

    def on_assignment(hit, assignment):
        wrm.on_assignment(hit, assignment)
        records.append({
            "platform": platform.name,
            "t": assignment.submitted_at,
            "hit_id": hit.hit_id,
            "worker_id": assignment.worker_id,
            "answer": assignment.answer,
        })

    platform.on_assignment.append(on_assignment)
    wrm.block(max(platform.workers, key=lambda w: w.activity).worker_id)
    platform.min_approval_rate = 0.5

    def post(task, reward=2, assignments=3, expires_in=None):
        hit = HIT(task=task, reward_cents=reward,
                  assignments_requested=assignments)
        if expires_in is not None:
            hit.expires_at = platform.clock.now + expires_in
        _retrying(platform.post_hit, hit)
        return hit

    grouped = FillGroupTask(
        table="Prof",
        columns=("dept", "city"),
        subtasks=tuple(_fill(i) for i in range(3)),
    )
    # a venue-only HIT: the mobile platform's locality filter applies
    local = post(_fill(5))
    local.locality = (VLDB_VENUE[0], VLDB_VENUE[1], 1.0)
    wave = [
        post(grouped, reward=6),
        post(_fill(3)),
        post(_fill(4, ("city",))),
        post(CompareEqualTask("IBM", "I.B.M.")),
        post(CompareOrderTask("Codd", "Gray", "older")),
        local,
    ]
    doomed = post(_fill(6), reward=8, assignments=12, expires_in=doomed_lifetime)
    platform.wait_for_hits([h.hit_id for h in wave + [doomed]], WEEK)

    # reject the first submitter's work: below min_approval_rate, they
    # lose access to the requester's HITs
    rejected, rejected_at = records[0]["worker_id"], len(records)
    for hit in platform.all_hits():
        for assignment in hit.assignments:
            if assignment.worker_id == rejected:
                wrm.reject(assignment)
            else:
                wrm.approve(hit, assignment)

    first = post(_fill(7), reward=6, assignments=1)
    middle = post(CompareEqualTask("IBM", "Oracle"), reward=1, assignments=6)
    last = post(_fill(8), reward=1, assignments=6)
    platform.run_until(lambda: first.status is HITStatus.COMPLETED, WEEK)
    reopened_before_open = middle.is_open and last.is_open
    _retrying(platform.extend_hit, first.hit_id, 2)
    platform.wait_for_hits([first.hit_id, middle.hit_id, last.hit_id], WEEK)

    records.append({
        "platform": platform.name,
        "total_cost_cents": platform.total_cost_cents,
        "now": platform.clock.now,
    })
    coverage = {
        "doomed_in_flight": sum(
            doomed.hit_id in taken for taken in platform._taken.values()
        ) - len(doomed.assignments),
        "doomed_expired": doomed.status is HITStatus.EXPIRED,
        "reopened_before_open": reopened_before_open,
        "first_extended": len(first.assignments) == 3,
        "rejected": rejected,
        "rejected_at": rejected_at,
    }
    return records, coverage


def _golden_platforms():
    oracle = _golden_oracle()
    return [
        (SimulatedAMT(
            oracle, population=40, seed=21,
            config=BehaviorConfig(base_accuracy=0.6),
            wrm=WorkerRelationshipManager(auto_approve=False),
            transient_error_rate=0.25,
        ), 200.0),
        (SimulatedMobilePlatform(
            oracle, population=30, seed=22,
            wrm=WorkerRelationshipManager(auto_approve=False),
            transient_error_rate=0.25,
        ), 600.0),
    ]


def golden_sim_lines():
    lines = []
    for platform, doomed_lifetime in _golden_platforms():
        records, _ = _sim_scenario(platform, doomed_lifetime)
        lines.extend(json.dumps(record, sort_keys=True) for record in records)
    return lines


class TestGoldenTrace:
    def test_sim_trace_equals_the_golden_file(self):
        """``tests/golden/sim_v1.jsonl`` was captured before the open-HIT
        index and the normalized distractor pools: every worker choice,
        answer, timestamp and cent must still come out the same."""
        with open(GOLDEN_SIM, encoding="utf-8") as handle:
            golden = handle.read().splitlines()
        ours = golden_sim_lines()
        # record by record first, so a failure names the draw that moved
        for index, (got, want) in enumerate(zip(ours, golden)):
            assert got == want, f"sim record {index} changed"
        assert ours == golden

    @pytest.mark.parametrize("which", [0, 1], ids=["amt", "mobile"])
    def test_scenario_covers_the_bookkeeping_paths(self, which, monkeypatch):
        platform, doomed_lifetime = _golden_platforms()[which]
        faults = 0
        maybe_fault = platform._maybe_fault

        def counting_fault(operation):
            nonlocal faults
            try:
                maybe_fault(operation)
            except TransientPlatformError:
                faults += 1
                raise

        monkeypatch.setattr(platform, "_maybe_fault", counting_fault)
        draws = 0
        distractor = platform.oracle.distractor

        def counting_distractor(*args):
            nonlocal draws
            value = distractor(*args)
            draws += value is not None
            return value

        monkeypatch.setattr(platform.oracle, "distractor", counting_distractor)
        accepted = []  # (worker id, HIT id), one per acceptance
        accept = platform._accept

        def logged_accept(worker, hit):
            accepted.append((worker.worker_id, hit.hit_id))
            accept(worker, hit)

        monkeypatch.setattr(platform, "_accept", logged_accept)
        on_arrival = platform._on_arrival

        def checked_arrival():
            hits = platform.all_hits()
            # the open index is exactly the ``is_open`` HITs, in posting
            # order — so ``arrival_rate`` may count it with ``len``
            assert list(platform._open) == [
                hit.hit_id for hit in hits if hit.is_open
            ]
            # the taken sets and free-slot counts equal a recomputation
            # from the acceptances: every taker of an open HIT has either
            # submitted or is still in flight
            taken = {}
            for worker_id, hit_id in accepted:
                taken.setdefault(worker_id, set()).add(hit_id)
            assert platform._taken == taken
            takers = Counter(hit_id for _, hit_id in accepted)
            free = {
                hit.hit_id: hit.assignments_remaining
                - (takers[hit.hit_id] - len(hit.assignments))
                for hit in hits
                if hit.is_open
            }
            assert platform._free == {
                hit_id: slots for hit_id, slots in free.items() if slots > 0
            }
            on_arrival()

        monkeypatch.setattr(platform, "_on_arrival", checked_arrival)
        records, coverage = _sim_scenario(platform, doomed_lifetime)
        assert faults > 0 and draws > 0
        assert coverage["doomed_expired"] and coverage["doomed_in_flight"] > 0
        assert coverage["reopened_before_open"] and coverage["first_extended"]
        submitters = [r["worker_id"] for r in records if "worker_id" in r]
        blocked = [w for w, a in platform.wrm.accounts.items() if a.blocked]
        assert blocked and not set(blocked) & set(submitters)
        # the rejected worker submits nothing after the rejection
        assert coverage["rejected"] not in submitters[coverage["rejected_at"]:]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_SIM), exist_ok=True)
    lines = golden_sim_lines()
    with open(GOLDEN_SIM, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN_SIM}")
