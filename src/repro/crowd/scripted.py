"""A scripted, instantaneous crowd platform.

Useful for unit tests and deterministic demos: every posted HIT is
answered immediately by ``answer_fn(task, replica_index)`` — no clock, no
noise, no worker model.  ``answer_fn`` returns what a worker would submit:
a ``dict`` for FILL/NEW_TUPLE tasks, ``bool`` for COMPARE_EQUAL,
``"left"``/``"right"`` for COMPARE_ORDER; returning ``None`` means "no
worker took this assignment".
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.crowd.model import HIT, Assignment, Task
from repro.crowd.platform import CrowdPlatform
from repro.errors import CrowdPlatformError

AnswerFn = Callable[[Task, int], Any]


class ScriptedPlatform(CrowdPlatform):
    """Answers every HIT synchronously from a scripted function."""

    name = "scripted"

    def __init__(self, answer_fn: AnswerFn, latency: float = 1.0) -> None:
        self.answer_fn = answer_fn
        self.latency = latency
        self._hits: dict[str, HIT] = {}
        self._replicas_asked: dict[str, int] = {}
        self._now = 0.0
        self.posted_tasks: list[Task] = []

    def post_hit(self, hit: HIT) -> str:
        if hit.hit_id in self._hits:
            raise CrowdPlatformError(f"HIT {hit.hit_id} already posted")
        hit.created_at = self._now
        self._hits[hit.hit_id] = hit
        self.posted_tasks.append(hit.task)
        self._answer_replicas(hit, 0, hit.assignments_requested)
        return hit.hit_id

    def extend_hit(self, hit_id: str, additional: int) -> None:
        """Adaptive replication on a scripted crowd: the extra replicas
        answer synchronously, continuing the replica numbering."""
        hit = self.get_hit(hit_id)
        start = self._replicas_asked.get(hit_id, hit.assignments_requested)
        hit.extend(additional)
        self._answer_replicas(hit, start, hit.assignments_requested)

    def _answer_replicas(self, hit: HIT, start: int, stop: int) -> None:
        self._replicas_asked[hit.hit_id] = stop
        for replica in range(start, stop):
            answer = self.answer_fn(hit.task, replica)
            if answer is None:
                continue
            self._now += self.latency
            hit.add_assignment(
                Assignment(
                    hit_id=hit.hit_id,
                    worker_id=f"scripted-{replica}",
                    answer=answer,
                    submitted_at=self._now,
                )
            )

    def get_hit(self, hit_id: str) -> HIT:
        try:
            return self._hits[hit_id]
        except KeyError:
            raise CrowdPlatformError(f"unknown HIT {hit_id!r}") from None

    def expire_hit(self, hit_id: str) -> None:
        from repro.crowd.model import HITStatus

        hit = self.get_hit(hit_id)
        if hit.status is HITStatus.OPEN:
            hit.status = HITStatus.EXPIRED

    def run_until(self, condition: Callable[[], bool], timeout: float) -> bool:
        return condition()  # everything already happened at post time


def oracle_answer_fn(oracle, rng=None) -> AnswerFn:
    """A scripted answer function that answers perfectly from a
    :class:`~repro.crowd.sim.traces.GroundTruthOracle` (no noise)."""
    import random

    from repro.crowd.model import (
        CompareEqualTask,
        CompareOrderTask,
        FillGroupTask,
        FillTask,
        NewTupleTask,
    )

    rng = rng if rng is not None else random.Random(0)

    def answer(task: Task, replica: int) -> Any:
        if isinstance(task, FillGroupTask):
            return [answer(subtask, replica) for subtask in task.subtasks]
        if isinstance(task, FillTask):
            row = oracle.fill_row(task.table, task.primary_key) or {}
            return {
                column: _text(row.get(column.lower()))
                for column in task.columns
            }
        if isinstance(task, NewTupleTask):
            candidate = oracle.new_tuple(task.table, task.fixed_values, rng)
            if candidate is None:
                return {}
            return {
                column: _text(
                    candidate.get(
                        column.lower(), task.fixed_values.get(column.lower())
                    )
                )
                for column in task.columns
            }
        if isinstance(task, CompareEqualTask):
            return oracle.equal(task.left, task.right)
        if isinstance(task, CompareOrderTask):
            return (
                "left"
                if oracle.prefer_left(task.question, task.left, task.right)
                else "right"
            )
        raise TypeError(f"unknown task {type(task).__name__}")

    return answer


def _text(value: Any) -> str:
    return "" if value is None else str(value)
