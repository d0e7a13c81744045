"""CrowdFuture: one outstanding crowd request.

The Task Manager's ``begin_*`` calls post HITs and return a future without
advancing the platform clock; whoever drives the marketplace (a serial
wait, or the cooperative scheduler) polls :meth:`CrowdFuture.ready` and
settles the future once its HITs have closed or its deadline passed.
Futures are shared across sessions by the server's task pool, so every
field a waiter reads lives on the shared object.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.crowd.model import HIT, HITStatus
from repro.errors import ExecutionError


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
        platform: Optional[Any],
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
        # a view (see ``view``) rides another future's HITs: settlement and
        # accounting happen on that parent, which lists the views' keys in
        # ``aliases`` so settling it resolves every key at once
        self.mirror_of: Optional["CrowdFuture"] = None
        self.project: Optional[Callable[[Any], Any]] = None
        self.aliases: list[tuple] = []
        # adaptive replication (set by the Task Manager when it is on):
        # ``extend`` decides from ``ballots(hits)`` whether to buy another
        # round.  The state sits on the future so sessions joining through
        # the shared task pool see the same confidence and extensions.
        self.extend: Optional[Callable[["CrowdFuture"], bool]] = None
        self.ballots: Optional[Callable[[list[HIT]], list]] = None
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
    def view(
        cls, parent: "CrowdFuture", key: tuple, project: Callable[[Any], Any]
    ) -> "CrowdFuture":
        """A request answered by ``parent``'s HITs, its value
        ``project(parent value)``.

        Two requests are views: one task of a HIT group (the parent's
        value is the list of per-subtask answers, ``project`` picks one)
        and CROWDORDER(b, a) while CROWDORDER(a, b) is pending (``project``
        negates) — one posted HIT fans back out to every request."""
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
        future.project = project
        parent.aliases.append(key)
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
        which is what lets every polling path (serial waits, the
        cooperative scheduler) drive confidence rounds without blocking
        anyone.
        """
        if self.mirror_of is not None:
            return self.mirror_of.ready()
        if self._settled:
            return True
        if self.hits_closed():
            return self.extend is None or not self.extend(self)
        return self.past_deadline()

    def result(self) -> Any:
        if self.mirror_of is not None:
            return self.project(self.mirror_of.result())
        if not self._settled:
            raise ExecutionError(
                f"crowd future {self.key!r} consumed before settlement"
            )
        return self._value


def readiness(futures: list[CrowdFuture], every: bool) -> Callable[[], bool]:
    """The predicate a waiter hands ``platform.run_until`` for a group of
    futures on one platform: every member ready (``every``) or any.

    The "every" form polls each member, never stopping at the first one
    still pending: an adaptive member extends its HITs when polled, and a
    slow sibling must not starve it.

    A future's readiness changes only when one of its HITs changes status
    (``platform.hit_revision`` moves) or the clock passes its deadline, and
    the platform calls the predicate after every event.  So on a platform
    with a clock the members are polled again only when the revision
    moved since the last poll or the clock reached the next member
    deadline; otherwise the last answer stands.  A platform without a
    clock is polled every time.
    """
    if len(futures) == 1:
        poll = futures[0].ready
    elif every:
        def poll() -> bool:
            return sum(0 if f.ready() else 1 for f in futures) == 0
    else:
        def poll() -> bool:
            return any(f.ready() for f in futures)
    platform = futures[0].platform
    clock = getattr(platform, "clock", None)
    if clock is None:
        return poll
    deadlines = sorted({f.deadline for f in futures})
    revision: Optional[int] = None  # as of the last poll; None: never polled
    wake = 0.0  # the first member deadline after the last poll
    answer = False

    def gated() -> bool:
        nonlocal revision, wake, answer
        now = clock.now
        if revision == platform.hit_revision and now < wake:
            return answer
        # read before polling: an extension made by the poll itself moves
        # the revision again, so the next call polls once more
        revision = platform.hit_revision
        wake = next((d for d in deadlines if d > now), math.inf)
        answer = poll()
        return answer

    return gated
