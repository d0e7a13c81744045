"""Worker population generation.

Activity weights are Pareto-distributed: a few workers browse the
marketplace constantly while most drop by rarely.  That single modelling
choice is what reproduces the paper's worker-affinity finding (a small
number of workers complete the majority of HITs).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Optional

from repro.crowd.sim.worker import SimWorker


def generate_population(
    size: int,
    seed: int = 7,
    pareto_alpha: float = 1.3,
    skill_range: tuple[float, float] = (0.55, 1.0),
    speed_range: tuple[float, float] = (0.5, 2.0),
    price_sensitivity_range: tuple[float, float] = (0.5, 2.5),
    region: Optional[tuple[float, float, float]] = None,
    id_prefix: str = "w",
) -> list[SimWorker]:
    """Create ``size`` workers with heavy-tailed activity.

    ``region`` (lat, lon, radius_km) scatters workers geographically for
    the mobile platform; AMT workers get no location.
    """
    rng = random.Random(seed)
    workers: list[SimWorker] = []
    for index in range(size):
        activity = rng.paretovariate(pareto_alpha)
        skill = rng.uniform(*skill_range)
        speed = rng.uniform(*speed_range)
        price_sensitivity = rng.uniform(*price_sensitivity_range)
        location = None
        if region is not None:
            lat, lon, radius_km = region
            # ~111 km per degree of latitude; good enough for a demo radius
            offset = radius_km / 111.0
            location = (
                lat + rng.uniform(-offset, offset),
                lon + rng.uniform(-offset, offset),
            )
        workers.append(
            SimWorker(
                worker_id=f"{id_prefix}{index:04d}",
                skill=skill,
                speed=speed,
                activity=activity,
                price_sensitivity=price_sensitivity,
                location=location,
            )
        )
    return workers


def generate_skew_population(
    size: int,
    seed: int = 7,
    spammer_fraction: float = 0.3,
    expert_skill_range: tuple[float, float] = (0.85, 1.0),
    spammer_skill_range: tuple[float, float] = (0.1, 0.35),
    **kwargs,
) -> list[SimWorker]:
    """A bimodal-skill population: mostly diligent workers plus a slice
    of spammers.

    This is the adversarial profile the adaptive-quality experiments
    (E15) run against: plain majority voting pays the same three
    assignments whether the ballots came from experts or spammers, while
    reputation-weighted consensus learns the difference.  Spammer slots
    are assigned deterministically by index (every ``1/spammer_fraction``
    th worker) so one seed yields one population regardless of draw
    order.
    """
    workers = generate_population(
        size, seed=seed, skill_range=expert_skill_range, **kwargs
    )
    if spammer_fraction <= 0:
        return workers
    rng = random.Random(seed + 1)
    stride = max(1, round(1.0 / spammer_fraction))
    for index, worker in enumerate(workers):
        if index % stride == 0:
            worker.skill = rng.uniform(*spammer_skill_range)
            worker.spammer = True
    return workers


def activity_table(workers: list[SimWorker]) -> tuple[list[float], float]:
    """What :func:`pick_weighted` draws over, computed once per population:
    the running activity sums, added left to right from ``0.0``, and the
    total.

    The total is ``sum()`` of the activities, not the last running sum:
    it scales the threshold, and ``sum()`` may round differently."""
    activities = [worker.activity for worker in workers]
    cumulative = list(itertools.accumulate(activities, initial=0.0))[1:]
    return cumulative, sum(activities)


def pick_weighted(
    workers: list[SimWorker],
    table: tuple[list[float], float],
    rng: random.Random,
) -> SimWorker:
    """Sample one worker proportionally to activity weight: the first
    worker whose running sum reaches the threshold (the last worker when
    none does), found by bisection over ``activity_table(workers)``."""
    cumulative, total = table
    index = bisect.bisect_left(cumulative, rng.random() * total)
    return workers[min(index, len(workers) - 1)]


def distance_km(
    a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Equirectangular approximation — fine at conference scale."""
    import math

    lat1, lon1 = a
    lat2, lon2 = b
    x = (lon2 - lon1) * math.cos(math.radians((lat1 + lat2) / 2))
    y = lat2 - lat1
    return 111.0 * math.hypot(x, y)
