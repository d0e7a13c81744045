"""Shared crowd-task pool: cross-session deduplication of pending HITs.

The paper's storage engine already memorizes every crowd answer ("results
... are always stored in the database for future use", §3), which covers
*sequential* reuse: the second query finds the first one's answers in the
heap.  A concurrent server needs the same economy for *in-flight* work:
when two sessions ask for the same CNULL fill while the first HIT is
still open, posting a second HIT would pay the crowd twice for one fact.

The pool closes that window.  Every pending :class:`CrowdFuture` is
indexed by its semantic key (task kind + table + key values + platform);
``TaskManager.begin_*`` consults the pool before posting, and an exact
match hands the *same* future to the second session.  Both sessions
suspend on it, and when its HIT completes the settled answer fans out to
every waiter — one HIT, N resumed queries.

Batching falls out of the same mechanism: concurrently pooled fills of
one table share a HIT group key, so the platform lists them as one large
group, which the marketplace model services faster (group-size
visibility, paper's companion experiments) — concurrent workloads see
sub-linear crowd cost and latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.crowd.future import CrowdFuture


@dataclass
class TaskPoolStats:
    """Counters the server benchmark reports."""

    lookups: int = 0        # pool consultations by begin_*
    deduplicated: int = 0   # requests satisfied by an in-flight future
    registered: int = 0     # futures actually posted (pool misses)
    max_pending: int = 0    # high-water mark of concurrently open futures

    @property
    def hits_saved(self) -> int:
        """HITs that were *not* posted thanks to in-flight sharing."""
        return self.deduplicated

    def snapshot(self) -> dict[str, int]:
        data = dict(self.__dict__)
        data["hits_saved"] = self.hits_saved
        return data


class TaskPool:
    """Pending crowd futures shared by every session of one server."""

    def __init__(self) -> None:
        self._pending: dict[tuple, CrowdFuture] = {}
        self.stats = TaskPoolStats()

    def __len__(self) -> int:
        return len(self._pending)

    def snapshot(self) -> dict[str, int]:
        """Lifetime counters plus the live pending-future count."""
        data = self.stats.snapshot()
        data["pending"] = len(self._pending)
        return data

    def lookup(self, key: tuple) -> Optional[CrowdFuture]:
        """An unsettled future for ``key``, if one is in flight."""
        self.stats.lookups += 1
        future = self._pending.get(key)
        if future is None:
            return None
        if future.settled:
            # a HIT-group member settled through its parent without an
            # explicit settle() call — drop the stale entry
            del self._pending[key]
            return None
        self.stats.deduplicated += 1
        return future

    def register(self, future: CrowdFuture) -> None:
        """Index a freshly issued future for other sessions to join."""
        self._pending[future.key] = future
        self.stats.registered += 1
        self.stats.max_pending = max(self.stats.max_pending, len(self._pending))

    def forget(self, future: CrowdFuture) -> None:
        """Drop a settled future; later identical requests re-post (and
        normally hit the storage engine's memorization instead)."""
        self._pending.pop(future.key, None)

    def pending(self) -> list[CrowdFuture]:
        """Unsettled futures, in issue order.

        Adaptive futures carry their confidence state (``confidence``,
        ``extensions``) on the shared object, so a session that joins a
        deduplicated request mid-flight resumes with the same verdict
        progress the first session paid for.
        """
        return [f for f in self._pending.values() if not f.settled]
