"""Task Manager: the abstraction layer between CrowdDB and the platforms.

"The Task Manager provides an abstraction layer that manages the
interaction between CrowdDB and the crowdsourcing platforms.  It
instantiates the user interfaces, makes the API calls to post tasks,
assess their status, and obtain results.  The Task Manager also interacts
with the storage engine to obtain values to pre-load into the task user
interfaces and to memorize the results sourced from the crowd."
(paper §3)

Every crowd request takes one path, whatever its kind:

* ``begin_fill_many`` / ``begin_new_tuples`` / ``begin_compare_equal`` /
  ``begin_compare_order`` look the request up (comparison caches, and the
  task pool of in-flight futures, so concurrent sessions asking the same
  question share one HIT), budget-check and post the HITs, register the
  future in the pool and shadow it with gold probes — without advancing
  the platform clock.  Fills of one table and column set are packaged
  into HIT groups of up to ``config.hit_group_size`` tasks.
* A post refused by an open circuit breaker parks the request in the
  (optionally durable) retry queue; the next crowd activity after
  recovery replays it through the same path.
* Under adaptive replication a future whose HITs completed below
  ``target_confidence`` extends them when polled (:meth:`_maybe_extend`).
* :meth:`wait_many` drives a set of futures through overlapped
  marketplace rounds (the serial path); the cooperative scheduler polls
  ``ready()`` and calls :meth:`settle` itself.  :meth:`settle` accounts,
  votes and parses exactly once, and retires parked copies of the work.

What differs between fills, new tuples, CROWDEQUAL and CROWDORDER — pool
key, task and form, ballots, verdict, cache and ledger writes, retry-queue
entry — is stated once per kind in :mod:`repro.crowd.kinds`.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.codec import encode_value
from repro.crowd.breaker import CircuitBreaker, RetryQueue
from repro.crowd.future import CrowdFuture, readiness
from repro.crowd.kinds import (
    EQUAL,
    FILL,
    KINDS,
    NEW_TUPLES,
    ORDER,
    RequestKind,
    grade_gold,
)
from repro.crowd.model import HIT, HITStatus, task_size
from repro.crowd.platform import CrowdPlatform, PlatformRegistry
from repro.crowd.quality import Ballot, MajorityVote, VoteResult
from repro.crowd.reputation import ReputationStore
from repro.server.task_pool import TaskPool
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    TransientPlatformError,
)
from repro.ui.manager import UITemplateManager


@dataclass
class CrowdConfig:
    """Per-connection crowdsourcing policy."""

    replication: int = 3           # assignments per HIT (majority voting)
    reward_cents: int = 2
    timeout_seconds: float = 6 * 3600.0
    budget_cents: Optional[int] = None
    min_agreement: float = 0.5
    locality: Optional[tuple[float, float, float]] = None
    fuzzy_cleansing: bool = True  # merge typo-variant keys when sourcing
    # batch crowd execution: operators buffer up to ``batch_size`` tuples,
    # issue every crowd task of the window up front, and settle them in
    # one marketplace round — their simulated latencies overlap instead
    # of adding up.  1 is a window of one tuple; only CROWDORDER sorts
    # switch to their sequential variants there.
    batch_size: int = 16
    # HIT groups: up to this many fill tasks for one table/column set are
    # packaged into a single HIT with one combined form (reward and
    # completion time scale with group size).  1 posts one HIT per task.
    hit_group_size: int = 1
    # Adaptive quality control.  Setting ``target_confidence`` switches
    # fill/compare HITs from fixed ``replication`` to adaptive
    # replication: post ``min_replication`` assignments up front, then
    # extend the HIT one assignment at a time while the weighted-consensus
    # confidence stays below the target, capped at ``max_replication``.
    # ``None`` (the default) reproduces the paper's fixed behaviour.
    target_confidence: Optional[float] = None
    min_replication: int = 2
    max_replication: int = 7
    # Gold-standard probes: fraction of posted HITs matched by an extra
    # known-answer HIT used purely to score workers (0 disables).
    gold_rate: float = 0.0
    # Workers whose estimated accuracy drops below this are blocked via
    # the WRM (the platforms stop offering them HITs).  None disables.
    block_below: Optional[float] = None
    # Platform-call robustness: ``post_hit``/``extend_hit`` failures of
    # the transient kind (:class:`TransientPlatformError`) are retried up
    # to ``platform_retries`` times with exponential backoff starting at
    # ``platform_retry_backoff`` seconds.  ``platform_timeout`` bounds the
    # *cumulative* backoff budget per call; once projected waiting would
    # exceed it, the error propagates instead.  Simulated platforms (any
    # platform with a ``clock``) never sleep real wall-clock time.
    platform_retries: int = 3
    platform_retry_backoff: float = 0.05
    platform_timeout: Optional[float] = None
    # Per-statement guard defaults (overridable per statement with
    # ``... WITH DEADLINE <ms> BUDGET <cents>`` or per submission over the
    # wire).  The deadline is simulated marketplace milliseconds; the
    # budget is crowd cents attributed to the statement's ledger.  When a
    # cap trips, the statement returns a ``status="partial"`` result with
    # the rows settled so far instead of raising.
    statement_deadline_ms: Optional[int] = None
    statement_budget_cents: Optional[int] = None
    # Circuit breaker guarding mutating platform calls.  When recent
    # calls fail (consecutive run, windowed failure rate) or crawl past
    # ``breaker_latency_seconds``, the breaker opens: further issues are
    # refused with :class:`CircuitOpenError`, parked in a durable retry
    # queue, and replayed once the platform recovers (half-open probes
    # succeed).  The cooldown is wall-clock seconds.
    breaker_enabled: bool = True
    breaker_failure_threshold: int = 5
    breaker_window: int = 20
    breaker_failure_rate: float = 0.5
    breaker_min_calls: int = 4
    breaker_cooldown_seconds: float = 1.0
    breaker_latency_seconds: Optional[float] = None
    breaker_half_open_probes: int = 2


@dataclass
class TaskManagerStats:
    """Counters the benchmarks report."""

    hits_posted: int = 0
    assignments_received: int = 0
    cost_cents: int = 0
    fill_requests: int = 0
    new_tuple_requests: int = 0
    compare_requests: int = 0
    cache_hits: int = 0
    timeouts: int = 0
    # marketplace rounds driven (serial waits + scheduler advances) —
    # the runtime counterpart of the cost model's latency rounds
    marketplace_rounds: int = 0
    # adaptive quality control
    hit_extensions: int = 0        # extra assignments requested on live HITs
    gold_hits_posted: int = 0      # known-answer probes injected
    gold_answers_scored: int = 0   # worker answers graded against gold
    gold_assignments_received: int = 0
    gold_cost_cents: int = 0       # spend attributable to gold probes
    confidence_sum: float = 0.0    # over settled verdicts (mean = sum/count)
    confidence_count: int = 0
    # dynamically named counters (e.g. per-kind issue counts).  They live
    # in one dict but flatten into every snapshot, so a counter created
    # mid-query is present in all later before/after snapshots and
    # per-statement deltas stay deltas instead of absolute totals.
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, amount: float = 1) -> None:
        """Increment a dynamically named counter."""
        self.extra[key] = self.extra.get(key, 0) + amount

    def snapshot(self) -> dict[str, float]:
        data = {k: v for k, v in self.__dict__.items() if k != "extra"}
        data.update(self.extra)
        return data


class TaskManager:
    """Posts tasks, waits for answers, votes, and parses results."""

    def __init__(
        self,
        platforms: PlatformRegistry,
        ui_manager: UITemplateManager,
        config: Optional[CrowdConfig] = None,
    ) -> None:
        self.platforms = platforms
        self.ui_manager = ui_manager
        self.config = config if config is not None else CrowdConfig()
        self.stats = TaskManagerStats()
        # comparison caches: the paper stores every crowd answer for reuse
        self._equal_cache: dict[tuple, bool] = {}
        self._order_cache: dict[tuple, str] = {}
        # pending futures by request key.  Within one connection this
        # matters after a partial (deadline/budget/breaker) result, whose
        # unfinished futures a retry of the statement reuses instead of
        # reposting HITs; the multi-session Server swaps in one pool
        # shared by every session.
        self.task_pool = TaskPool()
        # per-worker reputation (connect() attaches the WRM-backed store)
        # and the gold probes it learns from
        self.reputation = ReputationStore()
        self._gold_accumulator = 0.0
        self._gold_pending: list[tuple[HIT, Any, CrowdPlatform, float]] = []
        # optional trace sink (repro.obs.TraceSink): HIT-lifecycle span
        # events, wired by connect() when observability is on
        self.tracer: Optional[Any] = None
        # optional durable crowd ledger (repro.storage.ledger.CrowdLedger):
        # settled CROWDEQUAL/CROWDORDER verdicts are written through so a
        # recovered instance never re-buys a paid answer
        self.ledger: Optional[Any] = None
        # failure containment: one circuit breaker per platform plus a
        # (optionally durable) parking lot for HIT issues refused while a
        # breaker is open.  Parked work replays through the request path
        # on the next crowd activity after recovery, so replayed futures
        # enter the task pool and dedup normally.
        self.breakers: dict[str, CircuitBreaker] = {}
        self.retry_queue = RetryQueue()
        self._replay_pending = False
        self._replaying = False

    # -- platform-call robustness -----------------------------------------------------

    def _platform_call(self, platform: CrowdPlatform, method: str, *args: Any) -> Any:
        """Invoke a platform method under bounded exponential-backoff retry.

        Only :class:`TransientPlatformError` is retried — permanent
        rejections (budget, unknown HIT, ...) propagate immediately.
        Platforms driven by a simulated clock never block real time; the
        virtual delay still counts against ``platform_timeout`` so the
        budget semantics are testable deterministically.
        """
        retries = max(0, self.config.platform_retries)
        delay = max(0.0, self.config.platform_retry_backoff)
        budget = self.config.platform_timeout
        waited = 0.0
        attempt = 0
        breaker = self._breaker_for(platform)
        while True:
            if breaker is not None and not breaker.allow():
                raise CircuitOpenError(
                    f"{getattr(platform, 'name', '?')} breaker is "
                    f"{breaker.state}; refusing {method}"
                )
            clock = getattr(platform, "clock", None)
            try:
                started = time.perf_counter()
                sim_started = clock.now if clock is not None else 0.0
                result = getattr(platform, method)(*args)
            except TransientPlatformError as error:
                if breaker is not None:
                    breaker.record_failure()
                attempt += 1
                if attempt > retries:
                    raise
                if budget is not None and waited + delay > budget:
                    raise TransientPlatformError(
                        f"{method} still failing after {attempt} attempt(s) "
                        f"and the {budget}s retry budget: {error}"
                    ) from error
                self.stats.bump("platform_retries")
                if self.tracer is not None:
                    clock = getattr(platform, "clock", None)
                    self.tracer.emit(
                        "hit.retry",
                        sim=clock.now if clock is not None else 0.0,
                        method=method,
                        platform=getattr(platform, "name", "?"),
                        attempt=attempt,
                        backoff=delay,
                        error=str(error),
                    )
                if delay > 0 and getattr(platform, "clock", None) is None:
                    time.sleep(delay)
                waited += delay
                delay = delay * 2 if delay > 0 else 0.0
            else:
                if breaker is not None:
                    # latency is whichever clock the platform burned: wall
                    # time for real platforms, simulated seconds for sims
                    # (an injected latency spike shows up only there)
                    latency = time.perf_counter() - started
                    if clock is not None:
                        latency = max(latency, clock.now - sim_started)
                    breaker.record_success(latency)
                return result

    # -- circuit breaker + retry queue --------------------------------------------

    def _breaker_for(self, platform: CrowdPlatform) -> Optional[CircuitBreaker]:
        """Lazily create the per-platform breaker (None when disabled)."""
        if not self.config.breaker_enabled:
            return None
        name = getattr(platform, "name", "default")
        breaker = self.breakers.get(name)
        if breaker is None:
            config = self.config
            breaker = CircuitBreaker(
                name,
                failure_threshold=config.breaker_failure_threshold,
                window=config.breaker_window,
                failure_rate=config.breaker_failure_rate,
                min_calls=config.breaker_min_calls,
                cooldown_seconds=config.breaker_cooldown_seconds,
                latency_threshold=config.breaker_latency_seconds,
                half_open_probes=config.breaker_half_open_probes,
                on_open=self._on_breaker_open,
                on_close=self._on_breaker_close,
            )
            self.breakers[name] = breaker
        return breaker

    def _on_breaker_open(self, name: str) -> None:
        self.stats.bump("breaker_opens")
        if self.tracer is not None:
            self.tracer.emit("breaker.open", platform=name)

    def _on_breaker_close(self, name: str) -> None:
        self.stats.bump("breaker_closes")
        if self.tracer is not None:
            self.tracer.emit("breaker.close", platform=name)
        # Replay is deferred to the next crowd activity (or an explicit
        # replay_parked() call): the close fires from inside a platform
        # call whose own issue is mid-flight, so re-entering begin_* here
        # could double-post the very key being issued.
        if len(self.retry_queue):
            self._replay_pending = True

    def breaker_states(self) -> dict[str, float]:
        """Per-platform breaker state codes (0 closed / 1 half-open /
        2 open) for the labeled metrics gauge."""
        return {name: b.state_code for name, b in self.breakers.items()}

    def breaker_snapshot(self) -> dict[str, float]:
        """Flattened breaker + retry-queue stats for metrics collection."""
        data: dict[str, float] = {"retry_queue_depth": len(self.retry_queue)}
        for name, breaker in self.breakers.items():
            for key, value in breaker.snapshot().items():
                data[f"{name}_{key}"] = value
        return data

    def _park(self, kind: RequestKind, request: tuple, key: tuple,
              platform: Optional[str]) -> None:
        """Park one refused request in the retry queue.

        The entry carries the request's task-pool key signature, so that
        if the same work settles through another route before replay (a
        retried statement reissued it), the stale parked entry is
        discarded instead of repurchasing the answer."""
        entry = {"kind": kind.name, **kind.encode(request),
                 "platform": platform, "signature": _key_signature(key)}
        self.retry_queue.park(entry)
        self.stats.bump("breaker_parked")
        if self.tracer is not None:
            self.tracer.emit(
                "breaker.park", task=kind.name, platform=platform or "default"
            )

    def replay_parked(self) -> int:
        """Re-issue parked requests through the request path.

        Called automatically at the next crowd activity after a breaker
        closes.  Replayed futures register in the task pool, so
        statements that retry the same predicate reuse them — zero
        repurchased assignments.  Returns the number of entries
        successfully re-issued.
        """
        if self._replaying or not len(self.retry_queue):
            return 0
        self._replaying = True
        replayed = 0
        try:
            entries = self.retry_queue.drain()
            for position, entry in enumerate(entries):
                try:
                    kind = KINDS[entry["kind"]]
                    request = kind.decode(self.ui_manager.catalog, entry)
                    self._begin(kind, [request], entry.get("platform"))
                    replayed += 1
                except CircuitOpenError:
                    # Platform is sick again: keep the remainder parked.
                    self.retry_queue.requeue(entries[position:])
                    break
                except Exception:
                    self.stats.bump("breaker_replay_failed")
        finally:
            self._replaying = False
            self._replay_pending = len(self.retry_queue) > 0
        if replayed:
            self.stats.bump("breaker_replayed", replayed)
            if self.tracer is not None:
                self.tracer.emit("breaker.replay", count=replayed)
        return replayed

    # -- adaptive quality plumbing ---------------------------------------------------

    @property
    def adaptive_enabled(self) -> bool:
        return self.config.target_confidence is not None

    @property
    def weighting_enabled(self) -> bool:
        """Votes are reputation-weighted exactly under adaptive
        replication."""
        return self.adaptive_enabled

    def _initial_replication(self) -> int:
        if self.adaptive_enabled:
            return max(1, min(self.config.min_replication,
                              self.config.max_replication))
        return self.config.replication

    def vote(self, ballots: list[Ballot]) -> Optional[VoteResult]:
        """Settle-time consensus over one verdict's ballots (``None``
        without any), recorded for confidence telemetry and as consensus
        observations on the reputation ledger, weighted by how sure the
        verdict itself is."""
        if not ballots:
            return None
        vote = MajorityVote(
            self.config.min_agreement,
            reputation=self.reputation if self.weighting_enabled else None,
            tracer=self.tracer,
        ).vote_ballots(ballots)
        self.stats.confidence_sum += vote.confidence
        self.stats.confidence_count += 1
        for ballot in ballots:
            if ballot.worker_id:
                self.reputation.observe_consensus(
                    ballot.worker_id,
                    ballot.key == vote.key,
                    weight=vote.confidence,
                )
        return vote

    def _probe_voter(self) -> MajorityVote:
        """The confidence-probe voter (never warns, same weighting)."""
        return MajorityVote(
            0.0,
            reputation=self.reputation if self.weighting_enabled else None,
        )

    def _maybe_extend(self, future: CrowdFuture) -> bool:
        """Extend a completed adaptive future's HITs by one assignment if
        the weakest verdict over its ballots is below
        ``target_confidence`` — and the deadline, ``max_replication`` cap
        and budget all allow.  Returns whether an extension happened."""
        config = self.config
        questions = future.ballots(future.hits)
        confidence = 0.0
        if all(questions):
            voter = self._probe_voter()
            confidence = min(
                (voter.vote_ballots(b, quiet=True).confidence
                 for b in questions),
                default=1.0,
            )
        future.confidence = confidence
        if config.target_confidence is None:
            return False
        if confidence >= config.target_confidence:
            return False
        clock = getattr(future.platform, "clock", None)
        if clock is not None and clock.now >= future.deadline:
            return False
        candidates = [
            hit
            for hit in future.hits
            if hit.status is HITStatus.COMPLETED
            and hit.assignments_requested < config.max_replication
        ]
        if not candidates:
            return False
        if config.budget_cents is not None:
            accrued = sum(
                hit.reward_cents * len(hit.assignments)
                for hit in future.hits
            )
            projected = sum(hit.reward_cents for hit in candidates)
            if self.stats.cost_cents + accrued + projected > config.budget_cents:
                return False
        for hit in candidates:
            self._platform_call(future.platform, "extend_hit", hit.hit_id, 1)
        future.extensions += 1
        future.extension_assignments += len(candidates)
        self.stats.hit_extensions += len(candidates)
        if self.tracer is not None:
            self.tracer.emit(
                "hit.extend",
                sim=clock.now if clock is not None else 0.0,
                hits=[hit.hit_id for hit in candidates],
                task_kind=future.kind,
                confidence=round(confidence, 4),
                target=config.target_confidence,
                extension=future.extensions,
            )
        return True

    # -- the request path ----------------------------------------------------------------

    def begin_fill_many(
        self,
        requests: list[tuple],
        platform: Optional[str] = None,
    ) -> list[CrowdFuture]:
        """CrowdProbe: fill the CNULL values of several tuples, one future
        per ``(schema, primary_key, columns, known_values)`` request, all
        posted before any is waited on.  Each future resolves to ``column
        -> typed value`` (NULL when the crowd answered "no value" or
        never answered).  Up to ``config.hit_group_size`` requests of one
        table and column set share a HIT whose answers fan back out to
        the per-request futures."""
        return self._begin(FILL, requests, platform)

    def begin_new_tuples(
        self,
        schema: Any,
        count: int,
        fixed_values: Optional[dict[str, Any]] = None,
        platform: Optional[str] = None,
        known_keys: Optional[set] = None,
    ) -> CrowdFuture:
        """Ask the crowd for up to ``count`` new tuples of a CROWD table.

        ``fixed_values`` pre-fill constrained columns (e.g. the join key a
        CrowdJoin probes with).  Tuples whose primary key normalizes into
        ``known_keys`` (already stored) are dropped, as are duplicates
        within the batch — the open-world de-duplication rule.
        """
        fixed = {k.lower(): v for k, v in (fixed_values or {}).items()}
        request = (schema, count, fixed, set(known_keys or ()))
        return self._begin(NEW_TUPLES, [request], platform)[0]

    def begin_compare_equal(
        self,
        left: Any,
        right: Any,
        question: Optional[str] = None,
        platform: Optional[str] = None,
    ) -> CrowdFuture:
        """CROWDEQUAL ballot: do the two values denote the same entity?"""
        return self._begin(EQUAL, [(left, right, question)], platform)[0]

    def begin_compare_order(
        self,
        left: Any,
        right: Any,
        question: str,
        platform: Optional[str] = None,
    ) -> CrowdFuture:
        """CROWDORDER ballot: should ``left`` be ranked before ``right``?"""
        return self._begin(ORDER, [(left, right, question)], platform)[0]

    def _begin(self, kind: RequestKind, requests: list[tuple],
               platform: Optional[str]) -> list[CrowdFuture]:
        """Look each request up, then issue the misses — grouped where
        the kind groups — and park every request of a chunk the breaker
        refuses."""
        if self._replay_pending and not self._replaying:
            self.replay_parked()
        platform_key = self._platform_key(platform)
        futures: list[Optional[CrowdFuture]] = []
        keys: list[tuple] = []
        fresh: dict[Any, list[int]] = {}  # kind group -> request indexes
        first: dict[tuple, int] = {}      # intra-batch dedup
        duplicates: list[int] = []
        for i, request in enumerate(requests):
            key = kind.key(request, platform_key)
            keys.append(key)
            futures.append(kind.lookup(self, key))
            if futures[i] is not None:
                continue
            if key in first:
                duplicates.append(i)
            else:
                first[key] = i
                fresh.setdefault(kind.group(request), []).append(i)
        for indexes in fresh.values():
            size = max(1, self.config.hit_group_size)
            for start in range(0, len(indexes), size):
                chunk = indexes[start : start + size]
                try:
                    issued = self._issue(
                        kind, [requests[i] for i in chunk],
                        [keys[i] for i in chunk], platform,
                    )
                except CircuitOpenError:
                    if not self._replaying:  # replay requeues its own entry
                        for i in chunk:
                            self._park(kind, requests[i], keys[i], platform)
                    raise
                for i, future in zip(chunk, issued):
                    futures[i] = future
        for i in duplicates:
            futures[i] = futures[first[keys[i]]]
        return futures

    def _issue(self, kind: RequestKind, requests: list[tuple], keys: list[tuple],
               platform_name: Optional[str]) -> list[CrowdFuture]:
        """Build, budget-check and post one HIT set; register its future
        and return one future per request (a HIT group's members are
        views of the group's future)."""
        task, form_html, copies = kind.build(self.ui_manager, requests)
        size = task_size(task)
        replication = (
            self._initial_replication() if kind.adaptive
            else self.config.replication
        )
        # grouped HITs pay proportionally: same per-task reward, one HIT
        hits = [
            HIT(
                task=task,
                reward_cents=self.config.reward_cents * size,
                assignments_requested=replication,
                form_html=form_html,
                locality=self.config.locality,
            )
            for _ in range(copies)
        ]
        projected = sum(
            hit.reward_cents * hit.assignments_requested for hit in hits
        )
        if (
            self.config.budget_cents is not None
            and self.stats.cost_cents + projected > self.config.budget_cents
        ):
            raise BudgetExceededError(
                f"posting {len(hits)} HIT(s) (~{projected}c) would exceed the "
                f"budget of {self.config.budget_cents}c "
                f"({self.stats.cost_cents}c already spent)"
            )
        platform = self.platforms.get(platform_name)
        # per-HIT retried posts: a transient failure mid-batch must not
        # re-post the HITs that already made it to the marketplace
        for hit in hits:
            self._platform_call(platform, "post_hit", hit)
        self.stats.hits_posted += len(hits)
        self.stats.bump(f"hits_{kind.name}", len(hits))
        clock = getattr(platform, "clock", None)
        posted_at = clock.now if clock is not None else 0.0
        key = (
            keys[0] if len(requests) == 1
            else kind.group_key(requests, self._platform_key(platform_name))
        )
        future = CrowdFuture(
            kind.name, key, hits, platform, posted_at,
            self.config.timeout_seconds,
            finalize=lambda done: kind.finish(self, key, requests, done),
        )
        if kind.adaptive and self.adaptive_enabled:
            future.ballots = kind.ballots
            future.extend = self._maybe_extend
        if self.tracer is not None:
            for hit in hits:
                self.tracer.emit(
                    "hit.issue",
                    sim=posted_at,
                    hit=hit.hit_id,
                    task_kind=kind.name,
                    platform=getattr(platform, "name", "?"),
                    reward_cents=hit.reward_cents,
                    replication=hit.assignments_requested,
                    group_size=size,
                    adaptive=future.extend is not None,
                )
        self.task_pool.register(future)
        self._maybe_inject_gold(platform, len(hits))
        if len(requests) == 1:
            return [future]
        if self.tracer is not None:
            self.tracer.emit(
                "hit.group",
                sim=posted_at,
                hit=hits[0].hit_id,
                table=task.table,
                columns=list(task.columns),
                members=len(requests),
            )
        members = [
            CrowdFuture.view(future, member_key, operator.itemgetter(index))
            for index, member_key in enumerate(keys)
        ]
        for member in members:
            self.task_pool.register(member)
        return members

    # -- gold-standard probes ------------------------------------------------------------

    def _maybe_inject_gold(
        self, platform: CrowdPlatform, issued_hits: int
    ) -> None:
        """Shadow real work with known-answer probes at ``gold_rate``.

        Injection is a deterministic accumulator (no randomness): every
        ``1/gold_rate`` real HITs, one banked gold task is re-posted with
        a single assignment.  Whoever answers it gets graded against the
        known answer when the probe is swept at the next settlement.
        """
        if self.config.gold_rate <= 0:
            return
        self._gold_accumulator += self.config.gold_rate * issued_hits
        while self._gold_accumulator >= 1.0:
            self._gold_accumulator -= 1.0
            gold = self.reputation.next_gold()
            if gold is None:
                return
            if self.config.budget_cents is not None and (
                self.stats.cost_cents + self.config.reward_cents
                > self.config.budget_cents
            ):
                return  # never let probes blow the query budget
            hit = HIT(
                task=gold.task,
                reward_cents=self.config.reward_cents,
                assignments_requested=1,
                form_html="",
                locality=self.config.locality,
            )
            try:
                self._platform_call(platform, "post_hit", hit)
            except TransientPlatformError:
                # a probe is optional work — skip it rather than fail the
                # real query it shadows
                self.stats.bump("gold_posts_abandoned")
                continue
            clock = getattr(platform, "clock", None)
            posted_at = clock.now if clock is not None else 0.0
            self.stats.hits_posted += 1
            self.stats.gold_hits_posted += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "gold.issue",
                    sim=posted_at,
                    hit=hit.hit_id,
                    platform=getattr(platform, "name", "?"),
                    reward_cents=hit.reward_cents,
                )
            self._gold_pending.append((hit, gold.expected, platform, posted_at))

    def _sweep_gold(self) -> None:
        """Grade and account every finished gold probe (called from
        :meth:`settle`, so probes resolve in the same rounds as the real
        work they shadow)."""
        if not self._gold_pending:
            return
        remaining: list[tuple[HIT, Any, CrowdPlatform, float]] = []
        for entry in self._gold_pending:
            hit, expected, platform, posted_at = entry
            if hit.status is HITStatus.OPEN:
                clock = getattr(platform, "clock", None)
                deadline = posted_at + self.config.timeout_seconds
                if clock is not None and clock.now < deadline:
                    remaining.append(entry)
                    continue
                platform.expire_hit(hit.hit_id)
            self._score_gold(hit, expected)
            self.stats.assignments_received += len(hit.assignments)
            self.stats.cost_cents += hit.reward_cents * len(hit.assignments)
            # parallel gold-only counters let per-statement accounting
            # attribute probe spend without a global delta over the real
            # counters (which concurrent sessions would pollute)
            self.stats.gold_assignments_received += len(hit.assignments)
            self.stats.gold_cost_cents += (
                hit.reward_cents * len(hit.assignments)
            )
        self._gold_pending = remaining

    def _score_gold(self, hit: HIT, expected: Any) -> None:
        for assignment in hit.assignments:
            correct = grade_gold(hit.task, expected, assignment.answer)
            if correct is None:
                continue
            self.reputation.observe_gold(assignment.worker_id, correct)
            self.stats.gold_answers_scored += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "gold.score",
                    hit=hit.hit_id,
                    worker=assignment.worker_id,
                    correct=correct,
                )

    # -- wait / settle ---------------------------------------------------------------

    def wait(self, future: CrowdFuture, until: Optional[float] = None) -> None:
        """Serial path for one future: :meth:`wait_many` of one."""
        self.wait_many([future], until)

    def wait_many(
        self, futures: list[CrowdFuture], until: Optional[float] = None
    ) -> None:
        """Serial path: every HIT of the set is already in the
        marketplace, so advance each platform's clock until the whole set
        is done (or past its deadlines), then settle all — the batch pays
        overlapped rounds instead of ``len(futures)`` sequential ones.
        Adaptive members re-enter the marketplace round-by-round as their
        ``ready()`` polls extend under-confident HITs.

        ``until`` is a statement guard's absolute sim-time cap: members
        ready by then settle, the rest stay **unsettled** and registered
        in the task pool — the statement degrades to a partial result and
        a later retry of the same predicate reuses the still-running HITs
        for free."""
        pending: list[CrowdFuture] = []
        seen: set[int] = set()
        for future in futures:
            target = future.mirror_of or future
            if target.settled or id(target) in seen:
                continue
            seen.add(id(target))
            if target.platform is not None:
                pending.append(target)
        by_platform: dict[int, list[CrowdFuture]] = {}
        for future in pending:
            by_platform.setdefault(id(future.platform), []).append(future)
        for group in by_platform.values():
            platform = group[0].platform
            clock = getattr(platform, "clock", None)
            all_ready = readiness(group, every=True)
            while not all_ready():
                if clock is not None:
                    timeout = max(
                        0.0, max(f.deadline for f in group) - clock.now
                    )
                    if until is not None:
                        timeout = min(timeout, max(0.0, until - clock.now))
                else:
                    timeout = max(f.timeout_seconds for f in group)
                self.stats.marketplace_rounds += 1
                met = platform.run_until(all_ready, timeout)
                if not met and clock is not None:
                    break  # deadlines (or the guard cap) reached
        for future in futures:
            target = future.mirror_of or future
            # under a guard cap, settle only what finished
            if until is None or target.ready() or target.past_deadline():
                self.settle(future)

    def settle(self, future: CrowdFuture) -> Any:
        """Finalize a completed (or timed-out) future: expire stragglers,
        account costs, vote, parse.  Idempotent — shared futures settle
        once and fan the answer out to every waiter."""
        if future.mirror_of is not None:
            self.settle(future.mirror_of)
            self.task_pool.forget(future)
            return future.result()
        if future.settled:
            return future._value
        timed_out = not future.hits_closed()
        if timed_out:
            self.stats.timeouts += 1
            for hit in future.hits:
                if hit.status is HITStatus.OPEN:
                    future.platform.expire_hit(hit.hit_id)
        assignments = sum(len(hit.assignments) for hit in future.hits)
        cents = sum(
            hit.reward_cents * len(hit.assignments) for hit in future.hits
        )
        self.stats.assignments_received += assignments
        self.stats.cost_cents += cents
        # capture the verdict-confidence telemetry finalization records,
        # then stamp the future with its own accounting so every waiting
        # statement attributes exactly this future's spend to itself
        confidence_sum_before = self.stats.confidence_sum
        confidence_count_before = self.stats.confidence_count
        future._value = future._finalize(future.hits)
        future._settled = True
        future.accounting = {
            "assignments": assignments,
            "cost_cents": cents,
            "confidence_sum": (
                self.stats.confidence_sum - confidence_sum_before
            ),
            "confidence_count": (
                self.stats.confidence_count - confidence_count_before
            ),
        }
        if self.tracer is not None:
            clock = getattr(future.platform, "clock", None)
            sim_now = clock.now if clock is not None else 0.0
            # adaptive futures carry their probe confidence; for
            # fixed-replication ones report the mean verdict confidence
            # recorded while finalizing
            confidence = future.confidence
            if confidence is None and future.accounting["confidence_count"]:
                confidence = (
                    future.accounting["confidence_sum"]
                    / future.accounting["confidence_count"]
                )
            self.tracer.emit(
                "future.settle",
                sim=sim_now,
                task_kind=future.kind,
                hits=[hit.hit_id for hit in future.hits],
                workers=sorted(
                    {
                        a.worker_id
                        for hit in future.hits
                        for a in hit.assignments
                        if a.worker_id
                    }
                ),
                assignments=assignments,
                cost_cents=cents,
                confidence=(
                    round(confidence, 4) if confidence is not None else None
                ),
                extensions=future.extensions,
                timed_out=timed_out,
                latency_seconds=round(max(0.0, sim_now - future.posted_at), 3),
            )
        self.task_pool.forget(future)
        # the same work may sit parked in the retry queue (refused by an
        # open breaker, then reissued by a retried statement) under this
        # future's key or the key of any view it answers — a HIT group's
        # members; now that it settled, replaying a parked copy would buy
        # it again
        if len(self.retry_queue):
            stale = sum(
                self.retry_queue.discard(_key_signature(key))
                for key in (future.key, *future.aliases)
            )
            if stale:
                self.stats.bump("breaker_parked_superseded", stale)
        self._sweep_gold()
        return future._value

    def _platform_key(self, platform_name: Optional[str]) -> str:
        """The registry key two requests must share to be poolable."""
        return (platform_name or "").lower() or "@default"


def _key_signature(key: tuple) -> str:
    """Canonical string form of a task-pool key, stamped on parked retry
    entries so a settle of the same work can discard them."""

    def encode(value: Any) -> Any:
        if isinstance(value, (tuple, list, frozenset, set)):
            items = [encode(v) for v in value]
            if isinstance(value, (frozenset, set)):
                items.sort(key=repr)
            return items
        return encode_value(value)

    return json.dumps(encode(key), sort_keys=True, default=repr)
