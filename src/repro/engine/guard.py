"""Per-statement deadline and budget guard.

A crowd-backed statement can run for simulated hours and buy hundreds of
paid assignments, so callers need a way to say "give me what you have by
then" — ``SELECT ... WITH DEADLINE 5000 BUDGET 40`` (milliseconds of
simulated marketplace time, cents of crowd spend), or per-connection
defaults via ``CrowdConfig(statement_deadline_ms=..., statement_budget_cents=...)``.

The guard is enforced *cooperatively*: it is checked at crowd
boundaries (before issuing HITs, before and after waiting on futures)
and by the scheduler when it computes how far the marketplace clock may
advance.  When it trips it raises
:class:`~repro.errors.PartialResultStop`, which the executor converts
into a ``status="partial"`` result carrying the rows settled so far —
the statement degrades instead of failing.  Unfinished crowd futures
stay registered in the shared task pool, so a later retry of the same
statement reuses them at zero extra cost.

Deadlines are measured on the simulated marketplace clock (the busiest
platform's clock), matching how the Task Manager measures HIT timeouts.
Budgets are measured against the statement's own crowd ledger, which
attributes settled spend per statement.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import PartialResultStop

__all__ = ["StatementGuard"]

REASON_DEADLINE = "deadline"
REASON_BUDGET = "budget"
REASON_BREAKER = "breaker"


class StatementGuard:
    """Tracks one statement's deadline/budget caps and trip state."""

    def __init__(
        self,
        deadline_ms: Optional[int] = None,
        budget_cents: Optional[int] = None,
        now_fn: Optional[Callable[[], float]] = None,
        ledger=None,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.budget_cents = budget_cents
        self.now_fn = now_fn
        self.ledger = ledger
        self.tripped = False
        self.reason: Optional[str] = None
        self.deadline_at: Optional[float] = None
        if deadline_ms is not None and now_fn is not None:
            self.deadline_at = now_fn() + deadline_ms / 1000.0

    @property
    def active(self) -> bool:
        return self.deadline_at is not None or self.budget_cents is not None

    # -- measurement -----------------------------------------------------

    def remaining_seconds(self) -> Optional[float]:
        """Simulated seconds until the deadline (None if no deadline)."""
        if self.deadline_at is None or self.now_fn is None:
            return None
        return max(0.0, self.deadline_at - self.now_fn())

    def deadline_expired(self) -> bool:
        if self.deadline_at is None or self.now_fn is None:
            return False
        return self.now_fn() >= self.deadline_at

    def budget_spent(self) -> int:
        if self.ledger is None:
            return 0
        return int(self.ledger.summary().get("cost_cents", 0))

    def budget_exhausted(self) -> bool:
        if self.budget_cents is None:
            return False
        return self.budget_spent() >= self.budget_cents

    # -- tripping --------------------------------------------------------

    def trip(self, reason: str) -> PartialResultStop:
        """Mark the guard tripped and return the stop to raise."""
        if not self.tripped:
            self.tripped = True
            self.reason = reason
        return PartialResultStop(self.reason or reason)

    def trip_if_expired(self) -> bool:
        """Deadline-only check for the scheduler: trips (without raising)
        when simulated time has passed the cap.  Returns the trip state so
        ``Session.runnable()`` can wake a suspended statement."""
        if self.tripped:
            return True
        if self.deadline_expired():
            self.trip(REASON_DEADLINE)
            return True
        return False

    def check(self) -> None:
        """Raise :class:`PartialResultStop` if the guard has tripped or a
        cap is now exceeded.  Called at every crowd boundary."""
        if self.tripped:
            raise PartialResultStop(self.reason or REASON_DEADLINE)
        if self.deadline_expired():
            raise self.trip(REASON_DEADLINE)
        if self.budget_exhausted():
            raise self.trip(REASON_BUDGET)
