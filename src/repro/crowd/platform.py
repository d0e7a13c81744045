"""Abstract crowdsourcing platform interface.

CrowdDB "is able to work with two crowdsourcing platforms: Amazon
Mechanical Turk and our own mobile crowdsourcing platform" (paper §3).
Both simulated platforms implement this interface; the Task Manager only
talks to it, which is what gives the system *platform independence* — the
same compiled task runs on either platform (the point of the demo's
Figures 2 and 3).
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Optional

from repro.crowd.model import HIT, Assignment, HITStatus
from repro.errors import CrowdPlatformError


class CrowdPlatform(abc.ABC):
    """What the Task Manager needs from a crowdsourcing platform."""

    name: str = "abstract"
    #: a platform with a ``clock`` bumps this whenever a HIT it holds is
    #: posted, extended, completes or expires — the only events besides a
    #: deadline that can change whether a future is ready — and waiters
    #: re-poll their futures only when it moved (``future.readiness``);
    #: a platform without a clock is polled every time
    hit_revision: int = 0

    @abc.abstractmethod
    def post_hit(self, hit: HIT) -> str:
        """Publish a HIT; returns its id."""

    @abc.abstractmethod
    def get_hit(self, hit_id: str) -> HIT:
        """Fetch a HIT (with its current assignments)."""

    @abc.abstractmethod
    def expire_hit(self, hit_id: str) -> None:
        """Stop accepting assignments for a HIT."""

    @abc.abstractmethod
    def run_until(
        self,
        condition: Callable[[], bool],
        timeout: float,
    ) -> bool:
        """Advance platform time until ``condition()`` or ``timeout``
        simulated seconds elapse.  Returns whether the condition was met.

        A production adapter would poll the real service; the simulated
        platforms advance their discrete-event clock.
        """

    # -- conveniences over the abstract core ---------------------------------

    def extend_hit(self, hit_id: str, additional: int) -> None:
        """Request ``additional`` more assignments for a HIT (adaptive
        replication).  Subclasses re-kick their marketplace dynamics; the
        base implementation just reopens the HIT."""
        self.get_hit(hit_id).extend(additional)
        self.hit_revision += 1

    def post_hits(self, hits: Iterable[HIT]) -> list[str]:
        return [self.post_hit(hit) for hit in hits]

    def wait_for_hits(self, hit_ids: list[str], timeout: float) -> bool:
        """Advance until every HIT is complete (or expired/cancelled)."""

        def all_done() -> bool:
            return all(
                self.get_hit(hit_id).status is not HITStatus.OPEN
                for hit_id in hit_ids
            )

        return self.run_until(all_done, timeout)

    def assignments_for(self, hit_id: str) -> list[Assignment]:
        return list(self.get_hit(hit_id).assignments)


class PlatformRegistry:
    """Named platforms available to one CrowdDB instance."""

    def __init__(self) -> None:
        self._platforms: dict[str, CrowdPlatform] = {}
        self._default: Optional[str] = None

    def register(self, platform: CrowdPlatform, default: bool = False) -> None:
        self._platforms[platform.name.lower()] = platform
        if default or self._default is None:
            self._default = platform.name.lower()

    def get(self, name: Optional[str] = None) -> CrowdPlatform:
        key = (name or self._default or "").lower()
        if key not in self._platforms:
            raise CrowdPlatformError(
                f"no crowdsourcing platform registered under {name!r}"
            )
        return self._platforms[key]

    def names(self) -> list[str]:
        return list(self._platforms)
