"""Simulated time for the crowd platforms.

All platform dynamics (worker arrivals, task completion latencies, HIT
expiry) run against this discrete-event clock, so experiments that took
the paper's authors days of wall-clock AMT time replay in milliseconds —
deterministically.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class SimClock:
    """Monotonic simulated clock (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> None:
        if timestamp < self._now:
            raise ValueError(
                f"clock cannot move backwards ({timestamp} < {self._now})"
            )
        self._now = timestamp


class EventQueue:
    """Priority queue of timed callbacks driving one simulation.

    The heap holds ``(time, sequence, callback)`` tuples: the sequence
    number breaks time ties first-scheduled-first and keeps the callback
    out of every comparison."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        heapq.heappush(
            self._heap,
            (self.clock.now + delay, next(self._sequence), callback),
        )

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> None:
        self.schedule(max(0.0, timestamp - self.clock.now), callback)

    def step(self) -> bool:
        """Pop and run the next event.  Returns False when empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.clock.advance_to(time)
        callback()
        return True

    def run_until(
        self,
        condition: Callable[[], bool],
        timeout: Optional[float] = None,
    ) -> bool:
        """Step events until ``condition()`` holds or ``timeout`` elapses.

        Returns whether the condition was met.  The clock ends either at
        the event that satisfied the condition or at the deadline.
        """
        deadline = None if timeout is None else self.clock.now + timeout
        if condition():
            return True
        while self._heap:
            if deadline is not None and self._heap[0][0] > deadline:
                self.clock.advance_to(deadline)
                return condition()
            self.step()
            if condition():
                return True
        if deadline is not None:
            self.clock.advance_to(deadline)
        return condition()
