"""Cooperative scheduler: many suspended queries, one simulated clock.

The seed executed one statement at a time, spinning the platform's
discrete-event clock inside every crowd wait — a second query could not
even start while the first waited on ballots.  The scheduler inverts
that: sessions run until they *issue* crowd tasks and suspend; only when
no session can make progress does the scheduler advance the simulated
clock, once, for everyone.  All HITs pending across all sessions are in
the marketplace together, so their latencies overlap instead of adding
up, and the shared task pool collapses identical requests into single
HITs while they are in flight.

Scheduling is deterministic: runnable sessions are picked lowest
session-id first, platforms are advanced in name order, and only one
thread (a session's or the caller's) ever executes at a time.
Electronic work runs in place inside a session's slice, so the only
thing the scheduler ever waits on is a crowd future.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.crowd.future import readiness
from repro.errors import ExecutionError
from repro.server.admission import AdmissionController
from repro.server.session import Session, SessionState


@dataclass
class SchedulerStats:
    slices: int = 0           # baton hand-offs into sessions
    suspensions: int = 0      # times a session parked on a crowd future
    clock_advances: int = 0   # times the simulated clock had to move
    futures_settled: int = 0  # crowd futures resolved by the scheduler

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class CooperativeScheduler:
    """Drives a set of sessions to completion over one shared engine."""

    def __init__(self, task_manager: Optional[object]) -> None:
        self.task_manager = task_manager
        self.stats = SchedulerStats()

    def drain(
        self,
        sessions: Iterable[Session],
        admission: Optional[AdmissionController] = None,
    ) -> None:
        """Run until every session is quiescent (queue empty, nothing in
        flight).  Admission-waitlisted sessions are promoted as admitted
        sessions drain."""
        ordered = sorted(sessions, key=lambda s: s.session_id)
        if admission is not None:
            for session in ordered:
                if not session.quiescent() and not admission.is_admitted(
                    session
                ):
                    admission.request(session)
        while True:
            outcome = self.step(ordered, admission)
            if outcome == "idle":
                return
            if outcome == "deadlock":
                raise ExecutionError(
                    "admission deadlock: waitlisted sessions but no "
                    "active session can drain"
                )

    def step(
        self,
        sessions: Iterable[Session],
        admission: Optional[AdmissionController] = None,
    ) -> str:
        """One bounded scheduling action, for callers that interleave
        scheduling with other work (the network front end's engine pump
        polls its command queue between steps).

        Returns ``"ran"`` (a session got a slice), ``"advanced"`` (the
        clock moved), ``"promoted"``
        (waitlisted sessions were admitted), ``"idle"`` (every session
        quiescent), or ``"deadlock"`` (waitlist nonempty but nothing can
        drain — the caller decides whether that is fatal)."""
        ordered = sorted(sessions, key=lambda s: s.session_id)
        active = [
            s for s in ordered if admission is None or admission.is_admitted(s)
        ]
        session = self._next_runnable(active)
        if session is not None:
            before = session.suspensions
            session.run_slice()
            self.stats.slices += 1
            self.stats.suspensions += session.suspensions - before
            return "ran"
        waiting = [s for s in active if s.state is SessionState.WAITING]
        if waiting:
            self._advance(waiting)
            return "advanced"
        if admission is not None and admission.waiting_count > 0:
            promoted = []
            for s in active:
                if s.quiescent():
                    promoted.extend(admission.release(s))
            if promoted:
                return "promoted"
            return "deadlock"
        return "idle"

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _next_runnable(active: list[Session]) -> Optional[Session]:
        for session in active:  # already sorted by session id
            if session.runnable():
                return session
        return None

    def _advance(self, waiting: list[Session]) -> None:
        """Advance the simulated clock until at least one pending crowd
        future can settle, then settle everything that is ready.

        A session suspended on a *set* of futures (batch crowd execution)
        contributes every unsettled member; it becomes runnable once the
        whole set has settled, which may take several advance rounds.

        Every session passed in is WAITING and not runnable, so at least
        one of its futures is unsettled: ``futures`` is never empty."""
        futures = []
        seen: set[int] = set()
        for session in waiting:
            for future in session.waiting_futures():
                # mirrors and HIT-group members poll and settle through
                # their parent future
                target = future.mirror_of or future
                if target.settled or id(target) in seen:
                    continue
                seen.add(id(target))
                futures.append(target)
        if self.task_manager is None:  # pragma: no cover
            raise ExecutionError("sessions wait on crowd but server has none")
        # statement deadline caps: never advance the marketplace past the
        # earliest in-flight guard deadline — the guard trips instead and
        # its session wakes up to return a partial result
        guard_cap: Optional[float] = None
        for session in waiting:
            guard = session.active_guard()
            if guard is None or guard.tripped:
                continue
            remaining = guard.remaining_seconds()
            if remaining is not None:
                guard_cap = (
                    remaining if guard_cap is None
                    else min(guard_cap, remaining)
                )
        deadline_capped = False
        by_platform: dict[str, list] = {}
        for future in futures:
            name = getattr(future.platform, "name", "?")
            by_platform.setdefault(name, []).append(future)
        progressed = False
        for name in sorted(by_platform):
            group = by_platform[name]
            extensions_before = sum(f.extensions for f in group)
            ready = [f for f in group if f.ready()]
            if not ready:
                platform = group[0].platform
                clock = getattr(platform, "clock", None)
                if clock is not None:
                    timeout = min(
                        max(0.0, f.deadline - clock.now) for f in group
                    )
                else:  # pragma: no cover - clockless platforms are ready()
                    timeout = min(f.timeout_seconds for f in group)
                if guard_cap is not None and guard_cap < timeout:
                    timeout = guard_cap
                    deadline_capped = True
                # ready() (not hits_closed) so adaptive futures extend
                # their under-confident HITs mid-advance instead of
                # settling prematurely or stalling the scheduler
                platform.run_until(readiness(group, every=False), timeout)
                self.stats.clock_advances += 1
                # runtime counterpart of the cost model's "rounds": the
                # scheduler drives the marketplace for every session, so
                # count it where TaskManager.wait_many would have
                self.task_manager.stats.marketplace_rounds += 1
                ready = [f for f in group if f.ready()]
            for future in ready:
                self.task_manager.settle(future)
                self.stats.futures_settled += 1
                progressed = True
            if sum(f.extensions for f in group) > extensions_before:
                # an adaptive future bought another marketplace round;
                # that is progress even though nothing settled yet
                progressed = True
        if not progressed:
            if deadline_capped:
                # the advance was cut short by a statement deadline, not
                # by a stuck marketplace: the guard has now expired, so
                # its session becomes runnable and unwinds partial
                return
            raise ExecutionError(
                "scheduler stalled: no pending crowd future can make "
                "progress before its deadline"
            )
