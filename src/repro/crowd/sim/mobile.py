"""Simulated locality-aware mobile crowdsourcing platform.

The paper's second platform lets tasks be "posted to users in a specific
geographic area" — at the demo, the VLDB attendees themselves.  Compared
with AMT the simulation models:

* a much smaller, geo-tagged population (conference attendees);
* a **locality filter**: a HIT carrying ``locality=(lat, lon, radius_km)``
  is only visible to workers inside the radius;
* **session burstiness**: attendees work their phones between conference
  sessions, so the arrival rate follows a break/session square wave;
* registration-free participation — wider skill variance.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.crowd.model import HIT
from repro.crowd.sim.base import SimulatedCrowdPlatform
from repro.crowd.sim.behavior import BehaviorConfig
from repro.crowd.sim.population import distance_km, generate_population
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.sim.worker import SimWorker

#: Seattle, site of VLDB 2011 — default venue for demo workloads.
VLDB_VENUE = (47.6062, -122.3321)


class SimulatedMobilePlatform(SimulatedCrowdPlatform):
    """The conference crowd."""

    name = "mobile"

    def __init__(
        self,
        oracle: GroundTruthOracle,
        workers: Optional[list[SimWorker]] = None,
        population: int = 60,
        venue: tuple[float, float] = VLDB_VENUE,
        config: Optional[BehaviorConfig] = None,
        seed: int = 42,
        session_minutes: float = 90.0,
        break_minutes: float = 30.0,
        wrm=None,
        transient_error_rate: float = 0.0,
    ) -> None:
        if config is None:
            config = BehaviorConfig(
                base_arrival_rate=1.0 / 30.0,
                completion_time_median=60.0,   # phone in hand, short tasks
                base_accuracy=0.85,            # registration-free crowd
            )
        if workers is None:
            workers = generate_population(
                population,
                seed=seed,
                skill_range=(0.45, 1.0),
                region=(venue[0], venue[1], 2.0),
                id_prefix="mob-",
            )
        super().__init__(
            workers, oracle, config=config, seed=seed, wrm=wrm,
            transient_error_rate=transient_error_rate,
        )
        self.venue = venue
        self.session_seconds = session_minutes * 60.0
        self.break_seconds = break_minutes * 60.0

    # -- specializations ---------------------------------------------------------

    def hit_eligible(self, worker: SimWorker, hit: HIT) -> bool:
        if not super().hit_eligible(worker, hit):
            return False
        if hit.locality is None:
            return True
        if worker.location is None:
            return False
        lat, lon, radius_km = hit.locality
        return distance_km(worker.location, (lat, lon)) <= radius_km

    def arrival_rate(self) -> float:
        """Square-wave burstiness: attendees browse during breaks."""
        base = super().arrival_rate()
        cycle = self.session_seconds + self.break_seconds
        phase = math.fmod(self.clock.now, cycle)
        if phase >= self.session_seconds:
            return base * 4.0  # coffee break: phones out
        return base * 0.5  # talks in progress
