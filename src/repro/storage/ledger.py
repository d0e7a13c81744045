"""The durable crowd-answer ledger.

CrowdDB's economics rest on "results are always stored for future use"
(paper §3): once a ballot is paid for, its verdict must never be bought
again.  Fill answers and crowdsourced tuples are already durable as
ordinary DML records with ``origin="crowd"``; this module covers the
crowd state that does *not* live in a table:

* CROWDEQUAL verdicts (the Task Manager's ``_equal_cache``),
* CROWDORDER winners (``_order_cache``),
* reputation posteriors (the :class:`ReputationStore`'s observed/correct
  weights per worker).

Each write appends one ``origin="crowd"`` record to the WAL; recovery
folds them back into the caches before the first query runs, so a
crashed-and-recovered instance issues **zero** new paid HITs for answers
it already settled.

Reputation records carry *absolute* totals (last-write-wins on replay)
rather than deltas — replay order is the append order, so the final
record for a worker reproduces the exact posterior, and re-recovering an
already-recovered WAL stays idempotent.
"""

from __future__ import annotations

from typing import Any, Optional


class CrowdLedger:
    """Write-side API over the WAL for non-tabular crowd state."""

    def __init__(self, wal: Any) -> None:
        self.wal = wal
        self.records = 0

    def _append(self, record: dict) -> None:
        record["origin"] = "crowd"
        self.wal.append(record)
        self.records += 1

    def record_equal(self, left_key: str, right_key: str, verdict: bool) -> None:
        """One settled CROWDEQUAL ballot (normalized operand keys)."""
        self._append(
            {
                "op": "crowd_eq",
                "left": left_key,
                "right": right_key,
                "verdict": bool(verdict),
            }
        )

    def record_order(
        self, question: str, left_key: str, right_key: str, winner: str
    ) -> None:
        """One settled CROWDORDER ballot (winner is "left" or "right")."""
        self._append(
            {
                "op": "crowd_ord",
                "question": question,
                "left": left_key,
                "right": right_key,
                "winner": winner,
            }
        )

    def record_reputation(
        self, worker_id: str, observed: float, correct: float
    ) -> None:
        """A worker's current posterior totals (absolute, not deltas)."""
        self._append(
            {
                "op": "crowd_rep",
                "worker": worker_id,
                "observed": observed,
                "correct": correct,
            }
        )


class CrowdState:
    """Recovered non-tabular crowd state, ready to seed the live caches."""

    def __init__(
        self,
        equal: Optional[dict] = None,
        order: Optional[dict] = None,
        reputation: Optional[dict] = None,
    ) -> None:
        #: (left_key, right_key) -> bool
        self.equal: dict[tuple, bool] = dict(equal or {})
        #: (question, left_key, right_key) -> "left" | "right"
        self.order: dict[tuple, str] = dict(order or {})
        #: worker_id -> (observed_weight, correct_weight)
        self.reputation: dict[str, tuple[float, float]] = dict(reputation or {})

    @classmethod
    def gather(
        cls,
        base: Optional["CrowdState"] = None,
        task_manager: Any = None,
        reputation: Any = None,
    ) -> "CrowdState":
        """What a checkpoint carries: ``base`` (recovered state) overlaid
        with a Task Manager's caches and a ReputationStore's posteriors."""
        base = base or cls()
        state = cls(base.equal, base.order, base.reputation)
        if task_manager is not None:
            state.equal.update(task_manager._equal_cache)
            state.order.update(task_manager._order_cache)
        if reputation is not None:
            for worker, observed in reputation._observed.items():
                state.reputation[worker] = (
                    observed,
                    reputation._correct.get(worker, 0.0),
                )
        return state

    def apply_record(self, record: dict) -> bool:
        """Fold one WAL record in; True when it was a crowd-ledger record."""
        op = record.get("op")
        if op == "crowd_eq":
            self.equal[(record["left"], record["right"])] = record["verdict"]
        elif op == "crowd_ord":
            self.order[
                (record["question"], record["left"], record["right"])
            ] = record["winner"]
        elif op == "crowd_rep":
            self.reputation[record["worker"]] = (
                record["observed"],
                record["correct"],
            )
        else:
            return False
        return True

    def to_checkpoint(self) -> dict:
        return {
            "equal": [
                [left, right, verdict]
                for (left, right), verdict in self.equal.items()
            ],
            "order": [
                [question, left, right, winner]
                for (question, left, right), winner in self.order.items()
            ],
            "reputation": {
                worker: [observed, correct]
                for worker, (observed, correct) in self.reputation.items()
            },
        }

    @classmethod
    def from_checkpoint(cls, data: Optional[dict]) -> "CrowdState":
        if not data:
            return cls()
        return cls(
            equal={
                (left, right): verdict
                for left, right, verdict in data.get("equal", [])
            },
            order={
                (question, left, right): winner
                for question, left, right, winner in data.get("order", [])
            },
            reputation={
                worker: (observed, correct)
                for worker, (observed, correct) in data.get(
                    "reputation", {}
                ).items()
            },
        )
