"""Simulated crowd workers and their answer generation.

A worker is parameterized by skill (drives accuracy), speed (drives
latency), activity weight (drives how often they browse the marketplace —
the heavy tail behind worker affinity), price sensitivity, and an optional
geographic location used by the mobile platform's locality filter.

Answer generation consults the ground-truth oracle and then perturbs:
wrong answers (flipped votes, distractor values, typos) with the
behavioural error probability, plus benign *format noise* (case,
whitespace, punctuation) that exercises the answer-cleansing pipeline.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.crowd.model import (
    CompareEqualTask,
    CompareOrderTask,
    FillGroupTask,
    FillTask,
    NewTupleTask,
    Task,
    TaskKind,
)
from repro.crowd.sim.behavior import BehaviorConfig, error_probability
from repro.crowd.sim.traces import GroundTruthOracle


@dataclass
class SimWorker:
    """One member of the simulated worker population."""

    worker_id: str
    skill: float                  # in (0, 1]; scales accuracy
    speed: float                  # > 0; scales completion latency
    activity: float               # marketplace browsing weight (heavy tail)
    price_sensitivity: float      # > 0; scales the reward needed to accept
    location: Optional[tuple[float, float]] = None  # (lat, lon) for mobile
    familiar_groups: set[str] = field(default_factory=set)
    completed_hits: int = 0
    # a spammer answers carelessly (config.spammer_error) regardless of
    # task difficulty — the adversary adaptive quality control exists for
    spammer: bool = False

    def remember_group(self, group_key: str) -> None:
        self.familiar_groups.add(group_key)
        self.completed_hits += 1

    # -- answer generation ---------------------------------------------------

    def answer(
        self,
        task: Task,
        oracle: GroundTruthOracle,
        rng: random.Random,
        config: BehaviorConfig,
    ) -> Any:
        """Produce this worker's answer for ``task``."""
        if self.spammer:
            p_error = config.spammer_error
        else:
            p_error = error_probability(self.skill, task.kind, config)
        if isinstance(task, FillGroupTask):
            # one form, several tuples: answer each subtask in order
            return [
                self._answer_fill(subtask, oracle, rng, p_error)
                for subtask in task.subtasks
            ]
        if isinstance(task, FillTask):
            return self._answer_fill(task, oracle, rng, p_error)
        if isinstance(task, NewTupleTask):
            return self._answer_new_tuple(task, oracle, rng, p_error)
        if isinstance(task, CompareEqualTask):
            truth = oracle.equal(task.left, task.right)
            return (not truth) if rng.random() < p_error else truth
        if isinstance(task, CompareOrderTask):
            truth = oracle.prefer_left(task.question, task.left, task.right)
            flipped = rng.random() < p_error
            prefer_left = (not truth) if flipped else truth
            return "left" if prefer_left else "right"
        raise TypeError(f"unknown task type {type(task).__name__}")

    def _answer_fill(
        self,
        task: FillTask,
        oracle: GroundTruthOracle,
        rng: random.Random,
        p_error: float,
    ) -> dict[str, str]:
        answer: dict[str, str] = {}
        row = oracle.fill_row(task.table, task.primary_key) or {}
        for column in task.columns:
            truth = row.get(column.lower())
            if truth is None:
                answer[column] = ""  # worker honestly finds nothing
                continue
            text = str(truth)
            if rng.random() < p_error:
                text = self._corrupt(
                    text, task.table, column, oracle, rng
                )
            answer[column] = _format_noise(text, rng)
        return answer

    def _answer_new_tuple(
        self,
        task: NewTupleTask,
        oracle: GroundTruthOracle,
        rng: random.Random,
        p_error: float,
    ) -> dict[str, str]:
        candidate = oracle.new_tuple(task.table, task.fixed_values, rng)
        if candidate is None:
            return {}  # nothing left to contribute
        answer: dict[str, str] = {}
        for column in task.columns:
            if column.lower() in task.fixed_values:
                answer[column] = str(task.fixed_values[column.lower()])
                continue
            value = candidate.get(column.lower())
            if value is None:
                answer[column] = ""
                continue
            text = str(value)
            if rng.random() < p_error:
                text = self._corrupt(text, task.table, column, oracle, rng)
            answer[column] = _format_noise(text, rng)
        return answer

    @staticmethod
    def _corrupt(
        text: str,
        table: str,
        column: str,
        oracle: GroundTruthOracle,
        rng: random.Random,
    ) -> str:
        """A wrong answer: a distractor value when available, else a typo."""
        distractor = oracle.distractor(table, column, text, rng)
        if distractor is not None:
            return str(distractor)
        return _typo(text, rng)


def _typo(text: str, rng: random.Random) -> str:
    if not text:
        return rng.choice(string.ascii_lowercase)
    position = rng.randrange(len(text))
    substitute = rng.choice(string.ascii_lowercase)
    kind = rng.random()
    if kind < 0.4:  # substitution
        return text[:position] + substitute + text[position + 1 :]
    if kind < 0.7:  # deletion
        return text[:position] + text[position + 1 :]
    return text[:position] + substitute + text[position:]  # insertion


def _format_noise(text: str, rng: random.Random) -> str:
    """Benign formatting diversity real workers produce."""
    roll = rng.random()
    if roll < 0.15:
        text = " " + text
    elif roll < 0.3:
        text = text + "  "
    roll = rng.random()
    if roll < 0.1:
        text = text.upper()
    elif roll < 0.2:
        text = text.lower()
    return text
