"""Quality control: answer cleansing, majority voting, weighted consensus.

"Since human inputs are inherently error prone and diverse in formats,
answers from the crowd workers can never be assumed to be complete or
correct.  The ... operators also have majority-vote driven quality control
measures built-in." (paper §3.2.1)

Cleansing normalizes the free-text diversity (whitespace, case, trivial
punctuation) before voting, so "IBM " and "ibm" count as the same answer;
the *stored* value is the most common raw spelling within the winning
normalized class.

Beyond the paper's plain majority, :meth:`MajorityVote.vote_ballots`
implements **reputation-weighted consensus**: each ballot carries the
submitting worker's log-odds weight (from a
:class:`~repro.crowd.reputation.ReputationStore`), the winning class is
the one with the highest total weight, and the :class:`VoteResult` gains
a posterior ``confidence`` — the sigmoid of the weight margin between the
top two classes (1.0 when unanimous).  Adaptive replication extends a HIT
only while that confidence sits below ``target_confidence``.

Ties between normalized classes break deterministically: the
lexicographically smallest class (by ``repr``) wins, and a
:class:`LowQualityWarning` names the losing class.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import LowQualityWarning, QualityControlError

_WHITESPACE = re.compile(r"\s+")
_PUNCTUATION = re.compile(r"[.,;:!?'\"()\[\]]")


def group_key(value: Any) -> Any:
    """``value`` as a tally key: itself, or its ``repr`` when it cannot
    be hashed.  Ballot values are platform answers, outside input that
    no parameter check has seen."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def normalize_answer(value: Any) -> Any:
    """Canonical form of a worker answer used as the voting key."""
    if isinstance(value, str):
        text = value.strip()
        text = _PUNCTUATION.sub("", text)
        text = _WHITESPACE.sub(" ", text)
        return text.casefold()
    return value


@dataclass(frozen=True)
class Ballot:
    """One worker's answer to one question, ready for weighted voting.

    ``key`` is the value's normalized class, computed once here: every
    vote over the ballot reads it."""

    value: Any
    worker_id: str = ""
    weight: float = 1.0
    key: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", normalize_answer(self.value))


@dataclass(frozen=True)
class VoteResult:
    """Outcome of (possibly weighted) voting over one question."""

    value: Any                  # representative raw answer of the winners
    votes: int                  # ballots for the winning class
    total: int                  # valid ballots counted
    agreement: float            # votes / total (unweighted share)
    confidence: float = 1.0     # posterior confidence in the winning class
    winners: tuple[str, ...] = ()  # worker ids that voted for the winner
    key: Any = None             # the winning normalized class

    @property
    def unanimous(self) -> bool:
        return self.votes == self.total


def _class_sort_key(key: Any) -> tuple[str, str]:
    """Deterministic total order over normalized answer classes."""
    return (type(key).__name__, repr(key))


class MajorityVote:
    """Majority vote with normalization and a confidence threshold.

    ``min_agreement`` below which a :class:`LowQualityWarning` is issued;
    the winning answer is still returned (the paper performs "simple
    quality control", not rejection).  With ``reputation`` attached,
    :meth:`vote_ballots` weights each ballot by the worker's log-odds
    accuracy estimate; without it every ballot weighs 1.0 and the winner
    is the plain plurality class.
    """

    def __init__(
        self,
        min_agreement: float = 0.5,
        reputation: Optional[Any] = None,  # ReputationStore
        tracer: Optional[Any] = None,      # repro.obs.TraceSink
    ) -> None:
        self.min_agreement = min_agreement
        self.reputation = reputation
        self.tracer = tracer

    def vote(self, answers: list[Any], quiet: bool = False) -> VoteResult:
        """Vote over raw answers ordered by submission time."""
        return self.vote_ballots(
            [Ballot(value=raw) for raw in answers], quiet=quiet
        )

    def vote_ballots(
        self, ballots: list[Ballot], quiet: bool = False
    ) -> VoteResult:
        """Weighted consensus over worker ballots.

        ``quiet`` suppresses the low-quality warnings — used by the
        adaptive-replication confidence probes, which re-vote the same
        ballots every marketplace round.
        """
        if not ballots:
            raise QualityControlError("majority vote over zero answers")
        weights_by_class: dict[Any, list[float]] = {}
        counts: dict[Any, int] = {}
        raw_by_class: dict[Any, Counter] = {}
        workers_by_class: dict[Any, list[str]] = {}
        for ballot in ballots:
            key = ballot.key
            weight = ballot.weight
            if self.reputation is not None and ballot.worker_id:
                weight = self.reputation.weight(ballot.worker_id)
            weights_by_class.setdefault(key, []).append(weight)
            counts[key] = counts.get(key, 0) + 1
            raw_by_class.setdefault(key, Counter())[group_key(ballot.value)] += 1
            workers_by_class.setdefault(key, []).append(ballot.worker_id)
        # per-class score summed over *sorted* weights (math.fsum): the
        # total is exact and independent of ballot arrival order, so the
        # tie comparison below is genuinely permutation-invariant
        scores = {
            key: math.fsum(sorted(weights))
            for key, weights in weights_by_class.items()
        }

        # winner: highest total weight; exact ties break to the
        # lexicographically smallest class (deterministic regardless of
        # ballot arrival order)
        best_score = max(scores.values())
        tied = sorted(
            (key for key, score in scores.items() if score == best_score),
            key=_class_sort_key,
        )
        winner_key = tied[0]
        winner_votes = counts[winner_key]
        representative = self._representative(raw_by_class[winner_key])
        total = len(ballots)
        agreement = winner_votes / total
        confidence = self._confidence(scores, winner_key)
        if not quiet:
            if len(tied) > 1:
                losers = ", ".join(repr(key) for key in tied[1:])
                warnings.warn(
                    f"vote tied between {winner_key!r} and {losers}; "
                    f"breaking toward {winner_key!r}",
                    LowQualityWarning,
                    stacklevel=3,
                )
            elif agreement < self.min_agreement:
                warnings.warn(
                    f"majority vote agreement {agreement:.0%} below threshold "
                    f"{self.min_agreement:.0%} (answer {representative!r})",
                    LowQualityWarning,
                    stacklevel=3,
                )
        if self.tracer is not None and not quiet:
            # settle-time verdicts only: quiet confidence probes re-vote
            # the same ballots every round and would flood the ring
            self.tracer.emit(
                "vote",
                value=str(representative),
                votes=winner_votes,
                total=total,
                agreement=round(agreement, 4),
                confidence=round(confidence, 4),
                weighted=self.reputation is not None,
            )
        return VoteResult(
            value=representative,
            votes=winner_votes,
            total=total,
            agreement=agreement,
            confidence=confidence,
            winners=tuple(workers_by_class[winner_key]),
            key=winner_key,
        )

    @staticmethod
    def _representative(raw_counts: Counter) -> Any:
        """Most common raw spelling; ties break lexicographically."""
        best = max(raw_counts.values())
        return sorted(
            (raw for raw, count in raw_counts.items() if count == best),
            key=_class_sort_key,
        )[0]

    @staticmethod
    def _confidence(scores: dict[Any, float], winner_key: Any) -> float:
        """Posterior confidence: sigmoid of the weight margin between the
        top two classes; 1.0 when every ballot fell into one class."""
        if len(scores) == 1:
            return 1.0
        runner_up = max(
            score for key, score in scores.items() if key != winner_key
        )
        margin = scores[winner_key] - runner_up
        if margin > 60.0:  # exp overflow guard; sigmoid is 1.0 anyway
            return 1.0
        return 1.0 / (1.0 + math.exp(-margin))

    def vote_fields(self, answers: list[dict[str, Any]]) -> dict[str, VoteResult]:
        """Vote per form field over dict-shaped answers (FILL/NEW_TUPLE)."""
        if not answers:
            raise QualityControlError("majority vote over zero answers")
        fields: dict[str, list[Any]] = {}
        for answer in answers:
            for field_name, value in answer.items():
                fields.setdefault(field_name, []).append(value)
        return {
            field_name: self.vote(values)
            for field_name, values in fields.items()
        }

    def vote_boolean(
        self, answers: list[bool], quiet: bool = False
    ) -> VoteResult:
        """Specialized vote for COMPARE_EQUAL ballots."""
        return self.vote([bool(a) for a in answers], quiet=quiet)
