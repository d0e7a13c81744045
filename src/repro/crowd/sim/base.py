"""Shared engine of the simulated crowdsourcing platforms.

Implements the marketplace loop as a discrete-event process:

1. workers *browse* the marketplace according to a Poisson arrival
   process weighted by their activity (heavy tail);
2. a browsing worker picks a HIT group — bigger groups are more visible,
   familiar groups get the affinity boost — then the oldest open HIT in
   it, and accepts with a reward-dependent probability;
3. acceptance locks one assignment slot; after a lognormal completion
   time the worker submits an answer generated from the ground-truth
   oracle plus noise.

AMT and the mobile platform specialize eligibility (locality) and the
arrival-rate profile.

An event costs what it changed.  Each open HIT's free slots (assignments
remaining minus those in flight) are counted as HITs are posted,
accepted, extended and expired, so "is there work?" is a dict's
truthiness.  An arrival checks the worker once (WRM block, approval
rate), then walks only the open HITs with dict and set lookups: free
slots, the worker's own set of taken HITs, and the subclass's per-HIT
rule.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Optional

from repro.crowd.model import HIT, Assignment, HITStatus, task_size
from repro.crowd.platform import CrowdPlatform
from repro.crowd.sim.behavior import (
    BehaviorConfig,
    acceptance_probability,
    completion_time,
    group_attractiveness,
)
from repro.crowd.sim.clock import EventQueue, SimClock
from repro.crowd.sim.population import activity_table, pick_weighted
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.sim.worker import SimWorker
from repro.errors import CrowdPlatformError, TransientPlatformError


class SimulatedCrowdPlatform(CrowdPlatform):
    """Discrete-event marketplace shared by the AMT and mobile simulators."""

    name = "simulated"

    def __init__(
        self,
        workers: list[SimWorker],
        oracle: GroundTruthOracle,
        config: Optional[BehaviorConfig] = None,
        seed: int = 42,
        wrm: Optional[Any] = None,
        transient_error_rate: float = 0.0,
    ) -> None:
        if not workers:
            raise CrowdPlatformError("a platform needs at least one worker")
        self.workers = workers
        self._activity = activity_table(workers)
        self.oracle = oracle
        self.config = config if config is not None else BehaviorConfig()
        self.wrm = wrm  # WorkerRelationshipManager, used for block/qualify
        self.min_approval_rate: Optional[float] = None  # HIT qualification
        # fault mode: this fraction of post_hit/extend_hit calls fail with
        # a TransientPlatformError *before* touching marketplace state, so
        # a retried call is indistinguishable from a first attempt.  The
        # fault RNG is separate from the marketplace RNG: enabling faults
        # never perturbs worker behaviour under a fixed seed.
        self.transient_error_rate = transient_error_rate
        self._fault_rng = random.Random(seed ^ 0x5DEECE66D)
        # scripted fault injection (chaos harness): outage fails the next
        # N platform calls outright; latency stalls the next N calls by a
        # fixed simulated delay before they take effect
        self._outage_calls = 0
        self._latency_calls = 0
        self._latency_seconds = 0.0
        self.faults_injected = 0
        self.rng = random.Random(seed)
        self.clock = SimClock()
        self.events = EventQueue(self.clock)
        self._hits: dict[str, HIT] = {}
        # the HITs that are ``is_open`` (status OPEN and an assignment
        # left), in posting order: a worker arrival costs O(open HITs),
        # not O(every HIT ever posted).  A HIT enters when posted or
        # reopened with work left and leaves when it completes or
        # expires — the only ways it stops being open — so ``len`` is the
        # open count.
        self._open: dict[str, HIT] = {}
        # per HIT, fixed at posting: its position and its group key
        self._rank: dict[str, int] = {}
        self._group: dict[str, str] = {}
        # open HIT -> its free slots (assignments remaining minus those
        # in flight), for the HITs with at least one.  An accept takes a
        # slot, ``extend_hit`` adds some and expiry drops the HIT; a
        # submission lowers remaining and in-flight alike, so it changes
        # nothing here.
        self._free: dict[str, int] = {}
        # worker id -> the HITs that worker accepted (one assignment each)
        self._taken: dict[str, set[str]] = {}
        self._arrival_scheduled = False
        self.on_assignment: list[Callable[[HIT, Assignment], None]] = []
        self.total_cost_cents = 0
        self.assignments_submitted = 0

    # -- CrowdPlatform API -------------------------------------------------------

    def inject_outage(self, calls: int) -> None:
        """Fail the next ``calls`` post/extend calls with a transient
        error, before marketplace state is touched — deterministic outage
        for the chaos harness (drives the circuit breaker open)."""
        self._outage_calls = max(0, int(calls))

    def inject_latency(self, seconds: float, calls: int = 1) -> None:
        """Stall the next ``calls`` post/extend calls by ``seconds`` of
        simulated time before they take effect (latency spike: the call
        succeeds but slowly, tripping latency-based breakers)."""
        self._latency_calls = max(0, int(calls))
        self._latency_seconds = max(0.0, float(seconds))

    def _maybe_fault(self, operation: str) -> None:
        if self._outage_calls > 0:
            self._outage_calls -= 1
            self.faults_injected += 1
            raise TransientPlatformError(
                f"{self.name}: injected outage during {operation}"
            )
        if self._latency_calls > 0:
            self._latency_calls -= 1
            self.faults_injected += 1
            # burn simulated time: the caller sees a slow-but-successful
            # call, which latency-tripwire breakers count as a failure
            self.events.run_until(
                lambda: False, self._latency_seconds
            )
        if (
            self.transient_error_rate > 0
            and self._fault_rng.random() < self.transient_error_rate
        ):
            raise TransientPlatformError(
                f"{self.name}: simulated transient failure during {operation}"
            )

    def post_hit(self, hit: HIT) -> str:
        self._maybe_fault("post_hit")
        if hit.hit_id in self._hits:
            raise CrowdPlatformError(f"HIT {hit.hit_id} already posted")
        hit.created_at = self.clock.now
        hit.status = HITStatus.OPEN
        self._rank[hit.hit_id] = len(self._hits)
        self._group[hit.hit_id] = hit.group_key
        self._hits[hit.hit_id] = hit
        if hit.is_open:
            self._open[hit.hit_id] = hit
            self._free[hit.hit_id] = hit.assignments_remaining
        self.hit_revision += 1
        if hit.expires_at is not None:
            self.events.schedule_at(
                hit.expires_at, lambda h=hit: self._expire(h)
            )
        self._ensure_arrivals()
        return hit.hit_id

    def get_hit(self, hit_id: str) -> HIT:
        try:
            return self._hits[hit_id]
        except KeyError:
            raise CrowdPlatformError(f"unknown HIT {hit_id!r}") from None

    def expire_hit(self, hit_id: str) -> None:
        self._expire(self.get_hit(hit_id))

    def extend_hit(self, hit_id: str, additional: int) -> None:
        """Reopen a HIT for more assignments and restart worker arrivals
        (the marketplace may have gone quiet while every HIT was full)."""
        self._maybe_fault("extend_hit")
        super().extend_hit(hit_id, additional)
        hit = self.get_hit(hit_id)
        if hit.is_open:  # an expired HIT stays dead
            # the new slots are free even when every old one is in
            # flight; a reopened (completed) HIT has none in flight
            self._free[hit_id] = self._free.get(hit_id, 0) + additional
            if hit_id not in self._open:
                # a reopened HIT goes back at its posting position: group
                # order and oldest-first ties follow iteration order
                self._open[hit_id] = hit
                self._open = {
                    key: self._open[key]
                    for key in sorted(self._open, key=self._rank.__getitem__)
                }
        self._ensure_arrivals()

    def run_until(self, condition: Callable[[], bool], timeout: float) -> bool:
        self._ensure_arrivals()
        return self.events.run_until(condition, timeout)

    # -- marketplace dynamics ----------------------------------------------------------

    def arrival_rate(self) -> float:
        """Worker browse events per simulated second (subclass hook)."""
        return self.config.base_arrival_rate * (
            1.0 + 0.3 * math.log1p(len(self._open))
        ) * max(1, len(self.workers)) ** 0.5

    def eligible(self, worker: SimWorker, hit: HIT) -> bool:
        """Whether a worker may take a HIT: the worker-level checks, then
        the per-HIT ones."""
        return self.worker_eligible(worker) and self.hit_eligible(worker, hit)

    def worker_eligible(self, worker: SimWorker) -> bool:
        """Requester-side exclusions through the Worker Relationship
        Manager, the same for every HIT: blocked workers never see the
        requester's HITs; a qualification may demand a minimum approval
        rate."""
        if self.wrm is None:
            return True
        if self.wrm.is_blocked(worker.worker_id):
            return False
        if self.min_approval_rate is not None:
            account = self.wrm.accounts.get(worker.worker_id)
            if (
                account is not None
                and account.submitted > 0
                and account.approval_rate < self.min_approval_rate
            ):
                return False
        return True

    def hit_eligible(self, worker: SimWorker, hit: HIT) -> bool:
        """Per-HIT rules: one assignment per worker per HIT.  Subclasses
        add locality."""
        return hit.hit_id not in self._taken.get(worker.worker_id, ())

    # -- internals --------------------------------------------------------------------

    def _ensure_arrivals(self) -> None:
        if self._arrival_scheduled or not self._free:
            return
        self._arrival_scheduled = True
        delay = self.rng.expovariate(self.arrival_rate())
        self.events.schedule(delay, self._on_arrival)

    def _on_arrival(self) -> None:
        self._arrival_scheduled = False
        worker = pick_weighted(self.workers, self._activity, self.rng)
        hit = self._choose_hit(worker)
        if hit is not None:
            # grouped HITs pack several tasks into one form: workers judge
            # the *per-task* reward, not the headline number
            accept_p = acceptance_probability(
                hit.reward_cents / task_size(hit.task),
                worker.price_sensitivity,
                self.config,
            )
            if self.rng.random() < accept_p:
                self._accept(worker, hit)
        self._ensure_arrivals()

    def _choose_hit(self, worker: SimWorker) -> Optional[HIT]:
        """Pick a HIT: group by visibility+affinity, then oldest first.

        Groups are offered in order of first appearance among the open
        HITs, each weighted by how many of its HITs the worker may take;
        the chosen group's first such HIT is its oldest, since posting
        order never goes back in time."""
        if not self.worker_eligible(worker):
            return None
        free, group_of, hit_eligible = self._free, self._group, self.hit_eligible
        # group key -> [its oldest HIT the worker may take, how many]
        groups: dict[str, list] = {}
        for hit_id, hit in self._open.items():
            if hit_id not in free or not hit_eligible(worker, hit):
                continue
            key = group_of[hit_id]
            entry = groups.get(key)
            if entry is None:
                groups[key] = [hit, 1]
            else:
                entry[1] += 1
        if not groups:
            return None
        keys = list(groups)
        weights = [
            group_attractiveness(
                groups[key][1], key in worker.familiar_groups, self.config
            )
            for key in keys
        ]
        chosen_key = self.rng.choices(keys, weights=weights, k=1)[0]
        return groups[chosen_key][0]

    def _accept(self, worker: SimWorker, hit: HIT) -> None:
        self._taken.setdefault(worker.worker_id, set()).add(hit.hit_id)
        if self._free[hit.hit_id] == 1:
            del self._free[hit.hit_id]
        else:
            self._free[hit.hit_id] -= 1
        # a grouped HIT is proportionally more work than a single task,
        # but still one acceptance and one submission round-trip
        latency = completion_time(self.rng, worker.speed, self.config)
        latency *= task_size(hit.task)
        self.events.schedule(
            latency, lambda: self._on_complete(worker, hit)
        )

    def _on_complete(self, worker: SimWorker, hit: HIT) -> None:
        if hit.status is not HITStatus.OPEN:
            return  # expired or cancelled while the worker was busy
        answer = worker.answer(hit.task, self.oracle, self.rng, self.config)
        assignment = Assignment(
            hit_id=hit.hit_id,
            worker_id=worker.worker_id,
            answer=answer,
            submitted_at=self.clock.now,
        )
        hit.add_assignment(assignment)
        if hit.status is not HITStatus.OPEN:
            del self._open[hit.hit_id]
            self.hit_revision += 1
        worker.remember_group(self._group[hit.hit_id])
        self.total_cost_cents += hit.reward_cents
        self.assignments_submitted += 1
        for callback in self.on_assignment:
            callback(hit, assignment)

    def _expire(self, hit: HIT) -> None:
        if hit.status is HITStatus.OPEN:
            hit.status = HITStatus.EXPIRED
            self._open.pop(hit.hit_id, None)  # absent if posted with no work
            self._free.pop(hit.hit_id, None)
            self.hit_revision += 1

    # -- introspection (benchmarks) ---------------------------------------------------

    def all_hits(self) -> list[HIT]:
        return list(self._hits.values())

    def hits_per_worker(self) -> dict[str, int]:
        """How many assignments each worker submitted (affinity metric)."""
        counts: dict[str, int] = {}
        for hit in self._hits.values():
            for assignment in hit.assignments:
                counts[assignment.worker_id] = (
                    counts.get(assignment.worker_id, 0) + 1
                )
        return counts
