"""Task Manager: the abstraction layer between CrowdDB and the platforms.

"The Task Manager provides an abstraction layer that manages the
interaction between CrowdDB and the crowdsourcing platforms.  It
instantiates the user interfaces, makes the API calls to post tasks,
assess their status, and obtain results.  The Task Manager also interacts
with the storage engine to obtain values to pre-load into the task user
interfaces and to memorize the results sourced from the crowd."
(paper §3)

Operator-facing API:

* :meth:`fill_values` — CrowdProbe sourcing of CNULL column values;
* :meth:`source_new_tuples` — open-world tuple sourcing (CrowdProbe on
  CROWD tables, CrowdJoin inner probes);
* :meth:`compare_equal` / :meth:`compare_order` — CrowdCompare ballots,
  cached ("results obtained from the crowd are always stored ... for
  future use").

Each blocking call is a thin wrapper over the issue/poll/resume protocol
used by the concurrent query server (:mod:`repro.server`):

* :meth:`begin_fill` / :meth:`begin_new_tuples` / :meth:`begin_compare_equal`
  / :meth:`begin_compare_order` post the HITs and return a
  :class:`CrowdFuture` without advancing the platform clock;
* :meth:`wait` drives one future to completion (the serial path);
* :meth:`settle` finalizes a future whose HITs have completed (or whose
  deadline passed) — the cooperative scheduler's resume path.

Batch crowd execution adds a group-issue layer: :meth:`begin_fill_many`
posts a whole window of fill tasks up front (packaging them into HIT
groups of up to ``config.hit_group_size`` tasks per HIT), and
:meth:`wait_many` / :meth:`settle_many` drive the resulting future *set*
through one overlapped marketplace round instead of one round per task.
The per-task ``begin_*`` calls are group-of-one wrappers, so the server's
shared :class:`~repro.server.task_pool.TaskPool` dedup keeps working.

When a shared task pool is attached (``task_manager.task_pool``),
``begin_*`` deduplicates identical pending requests across concurrent
sessions: both callers receive the *same* future and resume on one HIT's
answers — the cross-query generalization of the paper's "results are
always stored for future use" memorization.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.catalog.table import TableSchema
from repro.codec import decode_value, encode_value
from repro.crowd.breaker import CircuitBreaker, RetryQueue
from repro.crowd.model import (
    HIT,
    HITStatus,
    CompareEqualTask,
    CompareOrderTask,
    FillGroupTask,
    FillTask,
    NewTupleTask,
)
from repro.crowd.platform import CrowdPlatform, PlatformRegistry
from repro.crowd.quality import Ballot, MajorityVote, VoteResult, normalize_answer
from repro.crowd.reputation import ReputationStore
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    ExecutionError,
    TransientPlatformError,
    TypeError_,
)
from repro.sqltypes import NULL, parse_literal
from repro.ui.manager import UITemplateManager


@dataclass
class CrowdConfig:
    """Per-connection crowdsourcing policy."""

    replication: int = 3           # assignments per HIT (majority voting)
    reward_cents: int = 2
    timeout_seconds: float = 6 * 3600.0
    budget_cents: Optional[int] = None
    min_agreement: float = 0.5
    platform: Optional[str] = None  # default platform name
    locality: Optional[tuple[float, float, float]] = None
    fuzzy_cleansing: bool = True  # merge typo-variant keys when sourcing
    # batch crowd execution: operators buffer up to ``batch_size`` tuples,
    # issue every crowd task of the window up front, and settle them in
    # one marketplace round — their simulated latencies overlap instead
    # of adding up.  1 restores tuple-at-a-time execution.
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
    # Reputation-weighted voting: ``None`` enables it exactly when
    # adaptive replication is on; True/False force it either way.
    reputation_weighting: Optional[bool] = None
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


class CrowdFuture:
    """One outstanding crowd request: posted HITs plus the recipe that
    turns their assignments into a typed answer.

    The future is *done* when every HIT stopped accepting assignments
    (completed or expired) or its deadline passed; it must then be
    *settled* (accounting + voting + parsing, exactly once) before
    :meth:`result` is available.  Futures are shared across sessions by
    the task pool, so settlement is idempotent and the computed value is
    fanned out to every waiter.
    """

    def __init__(
        self,
        kind: str,
        key: tuple,
        hits: list[HIT],
        platform: Optional[CrowdPlatform],
        posted_at: float,
        timeout_seconds: float,
        finalize: Callable[[list[HIT]], Any],
    ) -> None:
        self.kind = kind
        self.key = key
        self.hits = hits
        self.platform = platform
        self.posted_at = posted_at
        self.timeout_seconds = timeout_seconds
        self._finalize = finalize
        self._settled = False
        self._value: Any = None
        # a mirrored comparison or a HIT-group member rides another
        # future's HITs (see ``mirrored`` / ``member``); settlement and
        # accounting happen on the parent
        self.mirror_of: Optional["CrowdFuture"] = None
        self.invert = False
        self.extract_index: Optional[int] = None
        # adaptive replication state (carried by the future so sessions
        # joining through the shared task pool see the same controller,
        # confidence, and extension history)
        self.adaptive: Optional["AdaptiveReplication"] = None
        self.confidence: Optional[float] = None
        self.extensions = 0
        # per-future settlement accounting (assignments, cents, verdict
        # confidence) — stamped once by TaskManager.settle so every
        # waiting statement can attribute exactly this future's spend to
        # itself (see ExecutionContext's CrowdLedger)
        self.accounting: Optional[dict[str, float]] = None
        self.extension_assignments = 0  # extra assignments bought adaptively

    @classmethod
    def resolved(cls, kind: str, key: tuple, value: Any) -> "CrowdFuture":
        """A future that never reached a platform (answer was cached)."""
        future = cls(kind, key, [], None, 0.0, 0.0, lambda hits: value)
        future._settled = True
        future._value = value
        return future

    @classmethod
    def mirrored(
        cls, parent: "CrowdFuture", key: tuple, invert: bool
    ) -> "CrowdFuture":
        """A view of ``parent`` asked in the opposite direction.

        CROWDORDER('a', 'b') and CROWDORDER('b', 'a') are one ballot; the
        mirror shares the parent's HITs and negates its settled value, so
        symmetric concurrent requests never post twice (or cache
        contradictory answers)."""
        future = cls(
            parent.kind,
            key,
            parent.hits,
            parent.platform,
            parent.posted_at,
            parent.timeout_seconds,
            finalize=lambda hits: None,
        )
        future.mirror_of = parent
        future.invert = invert
        return future

    @classmethod
    def member(
        cls, parent: "CrowdFuture", key: tuple, index: int
    ) -> "CrowdFuture":
        """One task of a HIT group.

        The member shares the grouped HIT of ``parent`` (whose settled
        value is the list of per-subtask answers) and resolves to the
        slice at ``index`` — one posted HIT fans back out to the right
        futures on completion."""
        future = cls(
            parent.kind,
            key,
            parent.hits,
            parent.platform,
            parent.posted_at,
            parent.timeout_seconds,
            finalize=lambda hits: None,
        )
        future.mirror_of = parent
        future.extract_index = index
        return future

    @property
    def deadline(self) -> float:
        return self.posted_at + self.timeout_seconds

    @property
    def settled(self) -> bool:
        if self.mirror_of is not None:
            return self.mirror_of.settled
        return self._settled

    def hits_closed(self) -> bool:
        """Poll: has every HIT stopped accepting assignments?"""
        return all(hit.status is not HITStatus.OPEN for hit in self.hits)

    def past_deadline(self) -> bool:
        clock = getattr(self.platform, "clock", None)
        if clock is None:
            return True  # platform has no clock: waiting cannot help
        return clock.now >= self.deadline

    def ready(self) -> bool:
        """Poll: can this future be settled without further waiting?

        An adaptive future whose HITs just completed may *extend* them
        here instead — requesting more assignments and staying pending —
        which is what lets every polling path (serial waits, batch waits,
        the cooperative scheduler) drive confidence rounds without
        blocking anyone.
        """
        if self.mirror_of is not None:
            return self.mirror_of.ready()
        if self._settled:
            return True
        if self.hits_closed():
            if self.adaptive is not None and self.adaptive.maybe_extend(self):
                return False
            return True
        return self.past_deadline()

    def result(self) -> Any:
        if self.mirror_of is not None:
            value = self.mirror_of.result()
            if self.extract_index is not None:
                return value[self.extract_index]
            return (not value) if self.invert else value
        if not self._settled:
            raise ExecutionError(
                f"crowd future {self.key!r} consumed before settlement"
            )
        return self._value


class AdaptiveReplication:
    """Confidence-driven replication controller for one crowd future.

    ``confidence_of`` recomputes the weighted-consensus confidence over
    the future's current assignments.  :meth:`maybe_extend` is invoked
    from :meth:`CrowdFuture.ready` whenever the HITs have completed: if
    the verdict is still below ``target_confidence`` (and the deadline,
    ``max_replication`` cap, and budget all allow) it requests one more
    assignment per HIT and reports the future as still pending.
    """

    def __init__(
        self,
        manager: "TaskManager",
        confidence_of: Callable[["CrowdFuture"], float],
    ) -> None:
        self.manager = manager
        self.confidence_of = confidence_of

    def maybe_extend(self, future: "CrowdFuture") -> bool:
        """Extend the future's HITs by one assignment if the consensus is
        not confident yet.  Returns whether an extension happened."""
        config = self.manager.config
        confidence = self.confidence_of(future)
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
            if (
                self.manager.stats.cost_cents + accrued + projected
                > config.budget_cents
            ):
                return False
        for hit in candidates:
            self.manager._platform_call(
                future.platform, "extend_hit", hit.hit_id, 1
            )
        future.extensions += 1
        future.extension_assignments += len(candidates)
        self.manager.stats.hit_extensions += len(candidates)
        tracer = self.manager.tracer
        if tracer is not None:
            tracer.emit(
                "hit.extend",
                sim=clock.now if clock is not None else 0.0,
                hits=[hit.hit_id for hit in candidates],
                task_kind=future.kind,
                confidence=round(confidence, 4),
                target=config.target_confidence,
                extension=future.extensions,
            )
        return True


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
        self._voter = MajorityVote(self.config.min_agreement)
        # comparison caches: the paper stores every crowd answer for reuse
        self._equal_cache: dict[tuple, bool] = {}
        self._order_cache: dict[tuple, str] = {}
        # optional shared pool (repro.server): dedups identical pending
        # requests across concurrent sessions
        self.task_pool: Optional[Any] = None
        # adaptive quality control: per-worker reputation + gold probes
        self.reputation: Optional[ReputationStore] = None
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
        # breaker is open.  Parked work replays through the public
        # ``begin_*`` API on the next crowd activity after recovery, so
        # replayed futures re-enter the task pool and dedup normally.
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

    def _park_entry(self, entry: dict, key: Optional[tuple] = None) -> None:
        """Park one refused issue descriptor in the retry queue.

        ``key`` is the issue's task-pool key; its signature is stamped on
        the entry so that if the same work settles through another route
        before replay (a retried statement reissued it), the stale parked
        entry is discarded instead of repurchasing the answer."""
        if key is not None:
            entry["signature"] = _key_signature(key)
        self.retry_queue.park(entry)
        self.stats.bump("breaker_parked")
        if self.tracer is not None:
            self.tracer.emit(
                "breaker.park",
                task=entry.get("kind", "?"),
                platform=entry.get("platform") or "default",
            )

    def _park_fills(
        self,
        requests: list[tuple],
        keys: list[tuple],
        chunk: list[int],
        platform: Optional[str],
        error: CircuitOpenError,
    ) -> None:
        """Park every fill request of a refused chunk, then re-raise."""
        for i in chunk:
            schema, primary_key, columns, known_values = requests[i]
            self._park_entry(
                {
                    "kind": "fill",
                    "table": schema.name,
                    "primary_key": _encode_parked_row(primary_key),
                    "columns": list(columns),
                    "known_values": {
                        column: encode_value(value)
                        for column, value in known_values.items()
                    },
                    "platform": platform,
                },
                key=keys[i],
            )
        raise error

    def replay_parked(self) -> int:
        """Re-issue parked HIT work through the public ``begin_*`` API.

        Called automatically at the next crowd activity after a breaker
        closes (and available to the shell/benchmarks directly).  Replayed
        futures register in the shared task pool, so statements that retry
        the same predicate reuse them — zero repurchased assignments.
        Returns the number of entries successfully re-issued.
        """
        if self._replaying or not len(self.retry_queue):
            return 0
        self._replaying = True
        replayed = 0
        try:
            entries = self.retry_queue.drain()
            for position, entry in enumerate(entries):
                try:
                    self._replay_entry(entry)
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

    def _maybe_replay(self) -> None:
        if self._replay_pending and not self._replaying:
            self.replay_parked()

    def _replay_entry(self, entry: dict) -> None:
        kind = entry["kind"]
        platform = entry.get("platform")
        if kind == "fill":
            schema = self.ui_manager.catalog.table(entry["table"])
            self.begin_fill(
                schema,
                _decode_parked_row(entry["primary_key"]),
                tuple(entry["columns"]),
                {
                    column: _decode_parked(value)
                    for column, value in entry["known_values"].items()
                },
                platform,
            )
        elif kind == "new":
            schema = self.ui_manager.catalog.table(entry["table"])
            self.begin_new_tuples(
                schema,
                int(entry["count"]),
                {
                    column: _decode_parked(value)
                    for column, value in entry["fixed_values"].items()
                },
                platform,
                known_keys={
                    _decode_parked_row(row) for row in entry["known_keys"]
                },
            )
        elif kind == "eq":
            self.begin_compare_equal(
                _decode_parked(entry["left"]),
                _decode_parked(entry["right"]),
                entry["question"],
                platform,
            )
        elif kind == "ord":
            self.begin_compare_order(
                _decode_parked(entry["left"]),
                _decode_parked(entry["right"]),
                entry["question"],
                platform,
            )
        else:
            raise ExecutionError(f"unknown parked entry kind {kind!r}")

    # -- adaptive quality plumbing ---------------------------------------------------

    def attach_reputation(self, store: ReputationStore) -> None:
        """Wire a reputation store in (done by ``connect()``)."""
        self.reputation = store

    @property
    def adaptive_enabled(self) -> bool:
        return self.config.target_confidence is not None

    @property
    def weighting_enabled(self) -> bool:
        """Whether votes are reputation-weighted (on iff adaptive unless
        ``config.reputation_weighting`` forces it)."""
        if self.reputation is None:
            return False
        if self.config.reputation_weighting is not None:
            return self.config.reputation_weighting
        return self.adaptive_enabled

    def _initial_replication(self) -> int:
        if self.adaptive_enabled:
            return max(1, min(self.config.min_replication,
                              self.config.max_replication))
        return self.config.replication

    def _ballot_voter(self) -> MajorityVote:
        """The settle-time voter (reputation-weighted when enabled)."""
        return MajorityVote(
            self.config.min_agreement,
            reputation=self.reputation if self.weighting_enabled else None,
            tracer=self.tracer,
        )

    def _probe_voter(self) -> MajorityVote:
        """The confidence-probe voter (never warns, same weighting)."""
        return MajorityVote(
            0.0,
            reputation=self.reputation if self.weighting_enabled else None,
        )

    def _make_adaptive(
        self, confidence_of: Callable[[CrowdFuture], float]
    ) -> Optional[AdaptiveReplication]:
        if not self.adaptive_enabled:
            return None
        return AdaptiveReplication(self, confidence_of)

    # -- CrowdProbe: fill CNULL values --------------------------------------------

    def fill_values(
        self,
        schema: TableSchema,
        primary_key: tuple[Any, ...],
        columns: tuple[str, ...],
        known_values: dict[str, Any],
        platform: Optional[str] = None,
    ) -> dict[str, Any]:
        """Source the missing values of one tuple.

        Returns ``column -> typed value`` — NULL when the crowd answered
        "no value" or never answered within the timeout.
        """
        future = self.begin_fill(
            schema, primary_key, columns, known_values, platform
        )
        self.wait(future)
        return future.result()

    def begin_fill(
        self,
        schema: TableSchema,
        primary_key: tuple[Any, ...],
        columns: tuple[str, ...],
        known_values: dict[str, Any],
        platform: Optional[str] = None,
    ) -> CrowdFuture:
        """Post a fill task and return its future without waiting —
        a group of one (see :meth:`begin_fill_many`)."""
        (future,) = self.begin_fill_many(
            [(schema, primary_key, columns, known_values)], platform
        )
        return future

    def begin_fill_many(
        self,
        requests: list[tuple],
        platform: Optional[str] = None,
    ) -> list[CrowdFuture]:
        """Group-issue fill tasks: one future per request, all posted
        before any is waited on.

        ``requests`` are ``(schema, primary_key, columns, known_values)``
        tuples.  Requests already in flight (shared task pool, or earlier
        in this batch) reuse the pending future; the rest are packaged
        into paper-style HIT groups — up to ``config.hit_group_size``
        tasks sharing a table and column set become one HIT whose answers
        fan back out to per-request futures on settlement.
        """
        self._maybe_replay()
        futures: list[Optional[CrowdFuture]] = [None] * len(requests)
        keys: list[tuple] = []
        fresh: dict[tuple, list[int]] = {}   # (table, columns) -> indexes
        local: dict[tuple, int] = {}         # intra-batch dedup
        for i, (schema, primary_key, columns, known_values) in enumerate(
            requests
        ):
            self.stats.fill_requests += 1
            key = (
                "fill",
                schema.name,
                tuple(primary_key),
                tuple(columns),
                self._platform_key(platform),
            )
            keys.append(key)
            shared = self._pool_lookup(key)
            if shared is not None:
                futures[i] = shared
                continue
            if key in local:
                continue  # patched to the first occurrence's future below
            local[key] = i
            group = (schema.name, tuple(c.lower() for c in columns))
            fresh.setdefault(group, []).append(i)

        group_size = max(1, self.config.hit_group_size)
        for indexes in fresh.values():
            for start in range(0, len(indexes), group_size):
                chunk = indexes[start : start + group_size]
                try:
                    if len(chunk) == 1:
                        i = chunk[0]
                        schema, primary_key, columns, known_values = requests[i]
                        futures[i] = self._issue_fill(
                            schema, primary_key, columns, known_values,
                            platform, keys[i],
                        )
                    else:
                        self._issue_fill_group(
                            requests, keys, chunk, platform, futures
                        )
                except CircuitOpenError as error:
                    self._park_fills(requests, keys, chunk, platform, error)
        for i, key in enumerate(keys):
            if futures[i] is None:  # intra-batch duplicate
                futures[i] = futures[local[key]]
        return futures

    def _fill_task(
        self,
        schema: TableSchema,
        primary_key: tuple[Any, ...],
        columns: tuple[str, ...],
        known_values: dict[str, Any],
    ) -> FillTask:
        return FillTask(
            table=schema.name,
            primary_key=primary_key,
            columns=columns,
            known_values=dict(known_values),
            column_types={
                c: str(schema.column(c).sql_type) for c in columns
            },
            instructions=(
                f"Fill in the missing fields of this {schema.name} record."
            ),
        )

    def _issue_fill(
        self,
        schema: TableSchema,
        primary_key: tuple[Any, ...],
        columns: tuple[str, ...],
        known_values: dict[str, Any],
        platform: Optional[str],
        key: tuple,
    ) -> CrowdFuture:
        task = self._fill_task(schema, primary_key, columns, known_values)
        template = self.ui_manager.fill_template(schema, columns)
        form_html = self.ui_manager.instantiate(template, known_values)
        hit = self._make_hit(task, form_html)
        return self._issue(
            "fill",
            key,
            [hit],
            platform,
            lambda hits: self._finish_fill(schema, columns, hits),
            adaptive=self._make_adaptive(
                lambda future: self._fill_confidence(columns, future.hits[0])
            ),
        )

    def _issue_fill_group(
        self,
        requests: list[tuple],
        keys: list[tuple],
        chunk: list[int],
        platform: Optional[str],
        futures: list[Optional[CrowdFuture]],
    ) -> None:
        """Package ``chunk`` (request indexes sharing a table and column
        set) into one grouped HIT and hand each request a member future."""
        schema = requests[chunk[0]][0]
        columns = tuple(requests[chunk[0]][2])
        subtasks = tuple(
            self._fill_task(*requests[i]) for i in chunk
        )
        task = FillGroupTask(
            table=schema.name,
            columns=columns,
            subtasks=subtasks,
            instructions=(
                f"Fill in the missing fields of these {len(subtasks)} "
                f"{schema.name} records."
            ),
        )
        template = self.ui_manager.fill_template(schema, columns)
        form_html = "\n<hr/>\n".join(
            self.ui_manager.instantiate(template, subtask.known_values)
            for subtask in subtasks
        )
        hit = self._make_hit(task, form_html, size=len(subtasks))
        parent_key = (
            "fillgroup",
            schema.name,
            tuple(subtask.primary_key for subtask in subtasks),
            columns,
            self._platform_key(platform),
        )
        parent = self._issue(
            "fill",
            parent_key,
            [hit],
            platform,
            lambda hits: self._finish_fill_group(
                schema, columns, len(subtasks), hits
            ),
            adaptive=self._make_adaptive(
                lambda future: self._fill_group_confidence(
                    columns, len(subtasks), future.hits[0]
                )
            ),
        )
        if self.tracer is not None:
            self.tracer.emit(
                "hit.group",
                sim=parent.posted_at,
                hit=hit.hit_id,
                table=schema.name,
                columns=list(columns),
                members=len(chunk),
            )
        for index, i in enumerate(chunk):
            member = CrowdFuture.member(parent, keys[i], index)
            futures[i] = member
            if self.task_pool is not None:
                self.task_pool.register(member)

    def _vote_fill(
        self,
        schema: TableSchema,
        columns: tuple[str, ...],
        answers: list[tuple[str, dict[str, Any]]],
        task: Optional[FillTask] = None,
    ) -> dict[str, Any]:
        """Weighted per-column consensus over ``(worker_id, answer)``
        pairs; feeds the reputation ledger and deposits confident
        verdicts into the gold bank."""
        voter = self._ballot_voter()
        result: dict[str, Any] = {}
        gold_expected: dict[str, Any] = {}
        gold_worthy = True
        for column in columns:
            ballots = [
                Ballot(value=answer.get(column, ""), worker_id=worker_id)
                for worker_id, answer in answers
                if str(answer.get(column, "")).strip()
            ]
            if not ballots:
                result[column] = NULL
                gold_worthy = False
                continue
            vote = voter.vote_ballots(ballots)
            self._record_verdict(ballots, vote)
            result[column] = self._parse(schema, column, vote.value)
            if vote.confidence >= _GOLD_DEPOSIT_CONFIDENCE:
                gold_expected[column] = vote.value
            else:
                gold_worthy = False
        if (
            gold_worthy
            and gold_expected
            and task is not None
            and self.reputation is not None
            and self.config.gold_rate > 0
        ):
            self.reputation.add_gold(task, gold_expected)
        return result

    def _fill_answers(self, hit: HIT) -> list[tuple[str, dict[str, Any]]]:
        return [
            (a.worker_id, a.answer)
            for a in hit.assignments
            if isinstance(a.answer, dict)
        ]

    def _finish_fill(
        self,
        schema: TableSchema,
        columns: tuple[str, ...],
        hits: list[HIT],
    ) -> dict[str, Any]:
        (hit,) = hits
        task = hit.task if isinstance(hit.task, FillTask) else None
        return self._vote_fill(
            schema, columns, self._fill_answers(hit), task=task
        )

    def _group_answers(
        self, hit: HIT, index: int
    ) -> list[tuple[str, dict[str, Any]]]:
        return [
            (a.worker_id, a.answer[index])
            for a in hit.assignments
            if isinstance(a.answer, (list, tuple))
            and index < len(a.answer)
            and isinstance(a.answer[index], dict)
        ]

    def _finish_fill_group(
        self,
        schema: TableSchema,
        columns: tuple[str, ...],
        count: int,
        hits: list[HIT],
    ) -> list[dict[str, Any]]:
        """Vote each subtask of a grouped HIT independently: answers are
        per-assignment lists parallel to the group's subtasks."""
        (hit,) = hits
        subtasks = getattr(hit.task, "subtasks", ())
        results: list[dict[str, Any]] = []
        for index in range(count):
            task = subtasks[index] if index < len(subtasks) else None
            results.append(
                self._vote_fill(
                    schema, columns, self._group_answers(hit, index),
                    task=task,
                )
            )
        return results

    def _record_verdict(self, ballots: list[Ballot], vote: VoteResult) -> None:
        """Settle-time bookkeeping: confidence telemetry plus consensus
        observations on the reputation ledger (weighted by how sure the
        verdict itself is)."""
        self.stats.confidence_sum += vote.confidence
        self.stats.confidence_count += 1
        if self.reputation is None:
            return
        winner_key = normalize_answer(vote.value)
        for ballot in ballots:
            if not ballot.worker_id:
                continue
            agreed = normalize_answer(ballot.value) == winner_key
            self.reputation.observe_consensus(
                ballot.worker_id, agreed, weight=vote.confidence
            )

    # -- CrowdProbe / CrowdJoin: source new tuples -----------------------------------

    def source_new_tuples(
        self,
        schema: TableSchema,
        count: int,
        fixed_values: Optional[dict[str, Any]] = None,
        platform: Optional[str] = None,
        known_keys: Optional[set] = None,
    ) -> list[dict[str, Any]]:
        """Ask the crowd for up to ``count`` new tuples of a CROWD table.

        ``fixed_values`` pre-fill constrained columns (e.g. the join key a
        CrowdJoin probes with).  Tuples whose primary key normalizes into
        ``known_keys`` (already stored) are dropped, as are duplicates
        within the batch — the open-world de-duplication rule.
        """
        future = self.begin_new_tuples(
            schema, count, fixed_values, platform, known_keys
        )
        self.wait(future)
        return future.result()

    def begin_new_tuples(
        self,
        schema: TableSchema,
        count: int,
        fixed_values: Optional[dict[str, Any]] = None,
        platform: Optional[str] = None,
        known_keys: Optional[set] = None,
    ) -> CrowdFuture:
        """Post new-tuple tasks and return their future without waiting."""
        self._maybe_replay()
        self.stats.new_tuple_requests += 1
        fixed = {k.lower(): v for k, v in (fixed_values or {}).items()}
        key = (
            "new",
            schema.name,
            count,
            tuple(sorted(fixed.items())),
            frozenset(known_keys or ()),
            self._platform_key(platform),
        )
        shared = self._pool_lookup(key)
        if shared is not None:
            return shared
        task = NewTupleTask(
            table=schema.name,
            columns=schema.column_names,
            fixed_values=fixed,
            column_types={
                c.name: str(c.sql_type) for c in schema.columns
            },
            instructions=f"Contribute a new {schema.name} record.",
        )
        template = self.ui_manager.new_tuple_template(
            schema, tuple(fixed.keys())
        )
        form_html = self.ui_manager.instantiate(template, fixed)
        hits = [
            self._make_hit(task, form_html, replication=self.config.replication)
            for _ in range(count)
        ]
        frozen_known = set(known_keys or set())
        try:
            return self._issue(
                "new",
                key,
                hits,
                platform,
                lambda done: self._finish_new_tuples(
                    schema, fixed, frozen_known, done
                ),
            )
        except CircuitOpenError as error:
            self._park_entry(
                {
                    "kind": "new",
                    "table": schema.name,
                    "count": count,
                    "fixed_values": {
                        column: encode_value(value)
                        for column, value in fixed.items()
                    },
                    "known_keys": [
                        _encode_parked_row(row) for row in frozen_known
                    ],
                    "platform": platform,
                },
                key=key,
            )
            raise error

    def _finish_new_tuples(
        self,
        schema: TableSchema,
        fixed: dict[str, Any],
        known_keys: set,
        hits: list[HIT],
    ) -> list[dict[str, Any]]:
        # Different assignments of one HIT legitimately contribute
        # *different* tuples, so voting happens within primary-key groups:
        # assignments agreeing on the key are replicas of one entity and
        # their non-key fields are majority-voted; distinct keys are
        # distinct new tuples (open-world de-duplication).
        pk_columns = tuple(schema.primary_key)
        answers: list[dict[str, Any]] = []
        for hit in hits:
            for assignment in hit.assignments:
                if not isinstance(assignment.answer, dict):
                    continue
                if not any(str(v).strip() for v in assignment.answer.values()):
                    continue
                answers.append(assignment.answer)
        if not answers:
            return []

        groups: dict[tuple, list[dict[str, Any]]] = {}
        order: list[tuple] = []
        for answer in answers:
            key = tuple(
                normalize_answer(str(answer.get(c, "")).strip())
                for c in pk_columns
            )
            if pk_columns and any(part == "" for part in key):
                continue  # a tuple without its key cannot be stored
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(answer)

        # Cleansing: merge near-duplicate keys (worker typos) into the
        # best-supported spelling, then drop keys that are merely typo
        # variants of tuples already stored.
        if pk_columns and len(order) > 1 and self.config.fuzzy_cleansing:
            order = _merge_similar_keys(groups, order)

        seen: set = set(known_keys)
        if pk_columns and self.config.fuzzy_cleansing:
            order = [
                key for key in order if not _is_near_duplicate(key, seen)
            ]
        tuples: list[dict[str, Any]] = []
        for key in order:
            if pk_columns and key in seen:
                continue
            votes = self._voter.vote_fields(groups[key])
            row: dict[str, Any] = {}
            for column in schema.columns:
                if column.name.lower() in fixed:
                    row[column.name] = fixed[column.name.lower()]
                    continue
                vote = votes.get(column.name)
                if vote is None or not str(vote.value).strip():
                    row[column.name] = NULL
                else:
                    row[column.name] = self._parse(schema, column.name, vote.value)
            if pk_columns:
                seen.add(key)
            tuples.append(row)
        return tuples

    # -- CrowdCompare --------------------------------------------------------------------

    def compare_equal(
        self,
        left: Any,
        right: Any,
        question: Optional[str] = None,
        platform: Optional[str] = None,
    ) -> bool:
        """CROWDEQUAL ballot: do the two values denote the same entity?"""
        future = self.begin_compare_equal(left, right, question, platform)
        self.wait(future)
        return future.result()

    def begin_compare_equal(
        self,
        left: Any,
        right: Any,
        question: Optional[str] = None,
        platform: Optional[str] = None,
    ) -> CrowdFuture:
        """Post (or reuse) a CROWDEQUAL ballot; never advances the clock."""
        self._maybe_replay()
        cache_key = (normalize_answer(left), normalize_answer(right))
        key = ("eq",) + cache_key + (self._platform_key(platform),)
        cached = self._equal_cache.get(cache_key)
        if cached is None:
            cached = self._equal_cache.get((cache_key[1], cache_key[0]))
        if cached is not None:
            self.stats.cache_hits += 1
            return CrowdFuture.resolved("eq", key, cached)
        shared = self._pool_lookup(key)
        if shared is not None:
            return shared
        # equality is symmetric: a pending ballot for (b, a) answers (a, b)
        mirrored_pending = self._pool_lookup(
            ("eq", cache_key[1], cache_key[0], self._platform_key(platform))
        )
        if mirrored_pending is not None:
            return mirrored_pending
        self.stats.compare_requests += 1
        task = CompareEqualTask(
            left=left,
            right=right,
            question=question or "Do these two values refer to the same thing?",
        )
        template = self.ui_manager.compare_equal_template()
        form_html = self.ui_manager.instantiate(
            template, {"left": left, "right": right}
        )
        hit = self._make_hit(task, form_html)
        try:
            return self._issue(
                "eq",
                key,
                [hit],
                platform,
                lambda hits: self._finish_compare_equal(cache_key, hits),
                adaptive=self._make_adaptive(
                    lambda future: self._ballot_confidence(
                        future.hits[0], lambda a: bool(a.answer)
                    )
                ),
            )
        except CircuitOpenError as error:
            self._park_entry(
                {
                    "kind": "eq",
                    "left": encode_value(left),
                    "right": encode_value(right),
                    "question": question,
                    "platform": platform,
                },
                key=key,
            )
            raise error

    def _finish_compare_equal(self, cache_key: tuple, hits: list[HIT]) -> bool:
        (hit,) = hits
        ballots = [
            Ballot(value=bool(a.answer), worker_id=a.worker_id)
            for a in hit.assignments
        ]
        if not ballots:
            answer = False  # no worker responded: conservatively not equal
        else:
            vote = self._ballot_voter().vote_ballots(ballots)
            self._record_verdict(ballots, vote)
            answer = bool(vote.value)
            self._maybe_deposit_compare_gold(hit.task, answer, vote)
        self._equal_cache[cache_key] = answer
        if self.ledger is not None:
            self.ledger.record_equal(cache_key[0], cache_key[1], answer)
        return answer

    def compare_order(
        self,
        left: Any,
        right: Any,
        question: str,
        platform: Optional[str] = None,
    ) -> bool:
        """CROWDORDER ballot: should ``left`` be ranked before ``right``?"""
        future = self.begin_compare_order(left, right, question, platform)
        self.wait(future)
        return future.result()

    def begin_compare_order(
        self,
        left: Any,
        right: Any,
        question: str,
        platform: Optional[str] = None,
    ) -> CrowdFuture:
        """Post (or reuse) a CROWDORDER ballot; never advances the clock."""
        self._maybe_replay()
        left_key = normalize_answer(left)
        right_key = normalize_answer(right)
        key = ("ord", question, left_key, right_key, self._platform_key(platform))
        if left_key == right_key:
            return CrowdFuture.resolved("ord", key, True)
        cache_key = (question, left_key, right_key)
        cached = self._order_cache.get(cache_key)
        if cached is None:
            mirrored = self._order_cache.get((question, right_key, left_key))
            if mirrored is not None:
                cached = "right" if mirrored == "left" else "left"
        if cached is not None:
            self.stats.cache_hits += 1
            return CrowdFuture.resolved("ord", key, cached == "left")
        shared = self._pool_lookup(key)
        if shared is not None:
            return shared
        # a pending ballot for the opposite direction is the same question
        # with the answer inverted — ride its HITs instead of reposting
        mirrored_pending = self._pool_lookup(
            ("ord", question, right_key, left_key, self._platform_key(platform))
        )
        if mirrored_pending is not None:
            return CrowdFuture.mirrored(mirrored_pending, key, invert=True)
        self.stats.compare_requests += 1
        task = CompareOrderTask(left=left, right=right, question=question)
        template = self.ui_manager.compare_order_template(question)
        form_html = self.ui_manager.instantiate(
            template, {"left": left, "right": right}
        )
        hit = self._make_hit(task, form_html)
        try:
            return self._issue(
                "ord",
                key,
                [hit],
                platform,
                lambda hits: self._finish_compare_order(cache_key, hits),
                adaptive=self._make_adaptive(
                    lambda future: self._ballot_confidence(
                        future.hits[0],
                        lambda a: a.answer,
                        accept=lambda a: a.answer in ("left", "right"),
                    )
                ),
            )
        except CircuitOpenError as error:
            self._park_entry(
                {
                    "kind": "ord",
                    "left": encode_value(left),
                    "right": encode_value(right),
                    "question": question,
                    "platform": platform,
                },
                key=key,
            )
            raise error

    def _finish_compare_order(self, cache_key: tuple, hits: list[HIT]) -> bool:
        (hit,) = hits
        ballots = [
            Ballot(value=a.answer, worker_id=a.worker_id)
            for a in hit.assignments
            if a.answer in ("left", "right")
        ]
        if not ballots:
            winner = "left"  # stable fallback: keep current order
        else:
            vote = self._ballot_voter().vote_ballots(ballots)
            self._record_verdict(ballots, vote)
            winner = str(vote.value)
            self._maybe_deposit_compare_gold(hit.task, winner, vote)
        self._order_cache[cache_key] = winner
        if self.ledger is not None:
            self.ledger.record_order(
                cache_key[0], cache_key[1], cache_key[2], winner
            )
        return winner == "left"

    # -- confidence probes (adaptive replication) ----------------------------------------

    def _fill_confidence(self, columns: tuple[str, ...], hit: HIT) -> float:
        """Current confidence of one fill HIT: the weakest column wins.

        Blank answers vote for the empty class — a crowd unanimously
        reporting "no value" is a confident verdict, not a reason to pay
        for more assignments.
        """
        answers = self._fill_answers(hit)
        if not answers:
            return 0.0
        voter = self._probe_voter()
        confidence = 1.0
        for column in columns:
            ballots = [
                Ballot(value=answer.get(column, ""), worker_id=worker_id)
                for worker_id, answer in answers
            ]
            vote = voter.vote_ballots(ballots, quiet=True)
            confidence = min(confidence, vote.confidence)
        return confidence

    def _fill_group_confidence(
        self, columns: tuple[str, ...], count: int, hit: HIT
    ) -> float:
        """A grouped HIT extends until its least confident subtask is
        happy (one extension buys a ballot for every member)."""
        voter = self._probe_voter()
        confidence = 1.0
        for index in range(count):
            answers = self._group_answers(hit, index)
            if not answers:
                return 0.0
            for column in columns:
                ballots = [
                    Ballot(value=answer.get(column, ""), worker_id=worker_id)
                    for worker_id, answer in answers
                ]
                vote = voter.vote_ballots(ballots, quiet=True)
                confidence = min(confidence, vote.confidence)
        return confidence

    def _ballot_confidence(
        self,
        hit: HIT,
        value_of: Callable[[Any], Any],
        accept: Optional[Callable[[Any], bool]] = None,
    ) -> float:
        """Confidence of a comparison HIT's current ballots."""
        ballots = [
            Ballot(value=value_of(a), worker_id=a.worker_id)
            for a in hit.assignments
            if accept is None or accept(a)
        ]
        if not ballots:
            return 0.0
        return self._probe_voter().vote_ballots(ballots, quiet=True).confidence

    # -- gold-standard probes ------------------------------------------------------------

    def _maybe_deposit_compare_gold(
        self, task: Any, answer: Any, vote: VoteResult
    ) -> None:
        if (
            self.reputation is None
            or self.config.gold_rate <= 0
            or vote.confidence < _GOLD_DEPOSIT_CONFIDENCE
        ):
            return
        self.reputation.add_gold(task, answer)

    def _maybe_inject_gold(
        self, platform: CrowdPlatform, issued_hits: int
    ) -> None:
        """Shadow real work with known-answer probes at ``gold_rate``.

        Injection is a deterministic accumulator (no randomness): every
        ``1/gold_rate`` real HITs, one banked gold task is re-posted with
        a single assignment.  Whoever answers it gets graded against the
        known answer when the probe is swept at the next settlement.
        """
        if self.reputation is None or self.config.gold_rate <= 0:
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
            correct = _gold_answer_correct(hit.task, expected, assignment.answer)
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

    # -- issue / poll / resume protocol -------------------------------------------------

    def _issue(
        self,
        kind: str,
        key: tuple,
        hits: list[HIT],
        platform_name: Optional[str],
        finalize: Callable[[list[HIT]], Any],
        adaptive: Optional[AdaptiveReplication] = None,
    ) -> CrowdFuture:
        """Budget-check, post, and wrap the HITs in an unsettled future."""
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
        platform = self.platforms.get(platform_name or self.config.platform)
        # per-HIT retried posts: a transient failure mid-batch must not
        # re-post the HITs that already made it to the marketplace
        for hit in hits:
            self._platform_call(platform, "post_hit", hit)
        self.stats.hits_posted += len(hits)
        self.stats.bump(f"hits_{kind}", len(hits))
        clock = getattr(platform, "clock", None)
        posted_at = clock.now if clock is not None else 0.0
        future = CrowdFuture(
            kind=kind,
            key=key,
            hits=hits,
            platform=platform,
            posted_at=posted_at,
            timeout_seconds=self.config.timeout_seconds,
            finalize=finalize,
        )
        future.adaptive = adaptive
        if self.tracer is not None:
            for hit in hits:
                group = getattr(hit.task, "subtasks", None)
                self.tracer.emit(
                    "hit.issue",
                    sim=posted_at,
                    hit=hit.hit_id,
                    task_kind=kind,
                    platform=getattr(platform, "name", "?"),
                    reward_cents=hit.reward_cents,
                    replication=hit.assignments_requested,
                    group_size=len(group) if group is not None else 1,
                    adaptive=adaptive is not None,
                )
        if self.task_pool is not None:
            self.task_pool.register(future)
        self._maybe_inject_gold(platform, len(hits))
        return future

    def wait(self, future: CrowdFuture, until: Optional[float] = None) -> None:
        """Serial path: advance the platform clock until the future is
        done (or its deadline passes), then settle it.

        An adaptive future may *extend* its HITs when polled (see
        :meth:`CrowdFuture.ready`), so the wait loops over marketplace
        rounds until the verdict is confident, capped, or out of time.

        ``until`` is a statement guard's absolute sim-time cap: when the
        *cap* (not the future's own HIT deadline) ends the wait, the
        future is left **unsettled** and registered in the task pool —
        the statement degrades to a partial result and a later retry of
        the same predicate reuses the still-running HITs for free.
        """
        target = future.mirror_of if future.mirror_of is not None else future
        while not target.settled and not target.ready():
            clock = getattr(target.platform, "clock", None)
            remaining = target.timeout_seconds
            if clock is not None:
                remaining = max(0.0, target.deadline - clock.now)
                if until is not None:
                    remaining = min(remaining, max(0.0, until - clock.now))
            self.stats.marketplace_rounds += 1
            met = target.platform.run_until(target.ready, remaining)
            if not met and clock is not None:
                if (
                    until is not None
                    and clock.now >= until
                    and not target.past_deadline()
                ):
                    return  # guard cap hit first: leave it running
                break  # deadline reached with work still open
        self.settle(future)

    def wait_many(
        self, futures: list[CrowdFuture], until: Optional[float] = None
    ) -> None:
        """Serial path for a batch: every HIT of the set is already in the
        marketplace, so advance each platform's clock until the whole set
        is done (or past its deadlines), then settle all — the batch pays
        overlapped rounds instead of ``len(futures)`` sequential ones.
        Adaptive members re-enter the marketplace round-by-round as their
        ``ready()`` polls extend under-confident HITs.

        ``until`` caps the wait at a statement guard's deadline; see
        :meth:`wait`.  Members ready by then settle, the rest stay live
        in the task pool."""
        pending: list[CrowdFuture] = []
        seen: set[int] = set()
        for future in futures:
            target = future.mirror_of if future.mirror_of is not None else future
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

            def all_ready(group=group) -> bool:
                # all() short-circuits; sum forces every member's poll so
                # adaptive extensions are not starved by a slow sibling
                return sum(0 if f.ready() else 1 for f in group) == 0

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
        if until is not None:
            # Settle only what finished; leave the rest live for reuse.
            for future in futures:
                target = (
                    future.mirror_of if future.mirror_of is not None else future
                )
                if target.settled or target.ready() or target.past_deadline():
                    self.settle(future)
            return
        self.settle_many(futures)

    def settle_many(self, futures: list[CrowdFuture]) -> None:
        """Finalize every future of a batch (idempotent, like
        :meth:`settle`)."""
        for future in futures:
            self.settle(future)

    def settle(self, future: CrowdFuture) -> Any:
        """Finalize a completed (or timed-out) future: expire stragglers,
        account costs, vote, parse.  Idempotent — shared futures settle
        once and fan the answer out to every waiter."""
        if future.mirror_of is not None:
            self.settle(future.mirror_of)
            if self.task_pool is not None:
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
        if self.task_pool is not None:
            self.task_pool.forget(future)
        # the same work may sit parked in the retry queue (refused by an
        # open breaker, then reissued by a retried statement): now that
        # it settled, replaying the parked copy would buy it again
        if future.key is not None and len(self.retry_queue):
            stale = self.retry_queue.discard(_key_signature(future.key))
            if stale:
                self.stats.bump("breaker_parked_superseded", stale)
        self._sweep_gold()
        return future._value

    # -- internals -----------------------------------------------------------------------

    def _platform_key(self, platform_name: Optional[str]) -> str:
        """The registry key two requests must share to be poolable."""
        name = platform_name or self.config.platform
        return (name or "").lower() or "@default"

    def _pool_lookup(self, key: tuple) -> Optional[CrowdFuture]:
        if self.task_pool is None:
            return None
        return self.task_pool.lookup(key)

    def _make_hit(
        self,
        task: Any,
        form_html: str,
        size: int = 1,
        replication: Optional[int] = None,
    ) -> HIT:
        # grouped HITs pay proportionally: same per-task reward, one HIT;
        # adaptive mode starts at min_replication and extends on demand
        # (new-tuple sourcing keeps fixed replication: distinct
        # assignments contribute distinct tuples, so there is no single
        # verdict whose confidence could gate an extension)
        return HIT(
            task=task,
            reward_cents=self.config.reward_cents * size,
            assignments_requested=(
                self._initial_replication() if replication is None
                else replication
            ),
            form_html=form_html,
            locality=self.config.locality,
        )

    @staticmethod
    def _parse(schema: TableSchema, column: str, raw: Any) -> Any:
        sql_type = schema.column(column).sql_type
        try:
            return parse_literal(str(raw), sql_type)
        except TypeError_:
            return NULL


#: Verdicts at least this confident are safe to re-ask as gold probes.
_GOLD_DEPOSIT_CONFIDENCE = 0.9


def _gold_answer_correct(task: Any, expected: Any, answer: Any) -> Optional[bool]:
    """Grade one worker answer against a gold task's known answer
    (``None`` when the answer has the wrong shape to grade)."""
    if isinstance(task, FillTask):
        if not isinstance(answer, dict) or not isinstance(expected, dict):
            return None
        return all(
            normalize_answer(str(answer.get(column, "")))
            == normalize_answer(str(value))
            for column, value in expected.items()
        )
    if isinstance(task, CompareEqualTask):
        return bool(answer) == bool(expected)
    if isinstance(task, CompareOrderTask):
        if answer not in ("left", "right"):
            return None
        return answer == expected
    return None


_SIMILARITY_THRESHOLD = 0.82


def _keys_similar(a: tuple, b: tuple) -> bool:
    """Typo-level similarity between two normalized key tuples."""
    import difflib

    if len(a) != len(b):
        return False
    for part_a, part_b in zip(a, b):
        text_a, text_b = str(part_a), str(part_b)
        if text_a == text_b:
            continue
        ratio = difflib.SequenceMatcher(None, text_a, text_b).ratio()
        if ratio < _SIMILARITY_THRESHOLD:
            return False
    return True


def _merge_similar_keys(
    groups: dict[tuple, list[dict[str, Any]]], order: list[tuple]
) -> list[tuple]:
    """Fold typo-variant key groups into the best-supported spelling.

    Keys are processed by descending support, so a singleton typo merges
    into the group the majority of workers agreed on.
    """
    by_support = sorted(order, key=lambda key: -len(groups[key]))
    canonical: list[tuple] = []
    for key in by_support:
        merged = False
        for existing in canonical:
            if _keys_similar(key, existing):
                groups[existing].extend(groups.pop(key))
                merged = True
                break
        if not merged:
            canonical.append(key)
    return [key for key in order if key in groups]


def _is_near_duplicate(key: tuple, known: set) -> bool:
    """Is ``key`` exactly or approximately one of the stored keys?"""
    if key in known:
        return True
    return any(_keys_similar(key, stored) for stored in known)


# -- retry-queue value codec ---------------------------------------------------
#
# Parked issue descriptors must be JSON lines (the queue is durable), but
# crowd values include the NULL/CNULL singletons.


def _decode_parked(value: Any) -> Any:
    return decode_value(value, ExecutionError)


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


def _encode_parked_row(values: Any) -> list:
    return [encode_value(v) for v in values]


def _decode_parked_row(values: Any) -> tuple:
    return tuple(_decode_parked(v) for v in values)
