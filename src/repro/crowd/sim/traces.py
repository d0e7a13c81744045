"""Ground-truth oracle backing the simulated crowd.

The paper's experiments drew on real workers' world knowledge (paper
abstracts, attendee counts, company names, restaurant facts).  Offline we
substitute a ground-truth oracle: benchmarks and examples load reference
data into it, simulated workers answer as noisy draws from it, and —
crucially — result quality can be *scored* against the truth, which live
AMT never allowed.

The oracle answers four question shapes, one per task kind, plus
``distractor`` (a plausible wrong answer for error injection).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.crowd.quality import normalize_answer


class GroundTruthOracle:
    """Reference knowledge for the simulated crowd."""

    def __init__(self) -> None:
        # table -> pk tuple -> column -> value
        self._fill: dict[str, dict[tuple, dict[str, Any]]] = {}
        # table -> frozenset(fixed items) -> list of candidate tuples
        self._new_tuples: dict[str, dict[frozenset, list[dict[str, Any]]]] = {}
        # normalized entity -> canonical id (for CROWDEQUAL)
        self._entities: dict[Any, int] = {}
        self._next_entity = 0
        # question -> scoring function (higher = ranks earlier)
        self._scores: dict[str, Callable[[Any], float]] = {}
        # table -> column -> distractor pool
        self._distractors: dict[str, dict[str, _DistractorPool]] = {}

    # -- loading -----------------------------------------------------------------

    def load_fill(
        self, table: str, primary_key: tuple, values: dict[str, Any]
    ) -> None:
        """Register the true crowd-column values of one tuple."""
        table_truth = self._fill.setdefault(table.lower(), {})
        row = table_truth.setdefault(_key(primary_key), {})
        for column, value in values.items():
            row[column.lower()] = value
            if value is not None:
                pools = self._distractors.setdefault(table.lower(), {})
                pool = pools.get(column.lower())
                if pool is None:
                    pool = pools[column.lower()] = _DistractorPool()
                pool.values.append(value)

    def load_new_tuples(
        self,
        table: str,
        tuples: list[dict[str, Any]],
        fixed_columns: tuple[str, ...] = (),
    ) -> None:
        """Register tuples the crowd could contribute to a CROWD table.

        ``fixed_columns`` partition the pool: a CrowdJoin probing with
        ``title = X`` draws from the tuples whose ``title`` is X.
        """
        groups = self._new_tuples.setdefault(table.lower(), {})
        for row in tuples:
            lowered = {k.lower(): v for k, v in row.items()}
            key = frozenset(
                (c.lower(), _norm(lowered.get(c.lower())))
                for c in fixed_columns
            )
            groups.setdefault(key, []).append(lowered)

    def declare_same_entity(self, *representations: Any) -> None:
        """Declare that several surface forms denote one real-world entity
        (e.g. "I.B.M.", "IBM", "International Business Machines")."""
        entity_id = self._next_entity
        self._next_entity += 1
        for representation in representations:
            self._entities[_norm(representation)] = entity_id

    def load_ranking(
        self, question: str, scores: dict[Any, float] | Callable[[Any], float]
    ) -> None:
        """Register the ground-truth ranking for a CROWDORDER question."""
        if callable(scores):
            self._scores[question] = scores
        else:
            table = {_norm(k): v for k, v in scores.items()}
            self._scores[question] = lambda item: table.get(_norm(item), 0.0)

    # -- answering ----------------------------------------------------------------

    def fill_row(self, table: str, primary_key: tuple) -> Optional[dict[str, Any]]:
        """The true crowd-column values of one tuple (lower-cased column
        -> value; read-only), or None for an unknown tuple — one key
        normalization for every column a task asks about."""
        return self._fill.get(table.lower(), {}).get(_key(primary_key))

    def fill_value(self, table: str, primary_key: tuple, column: str) -> Optional[Any]:
        row = self.fill_row(table, primary_key)
        if row is None:
            return None
        return row.get(column.lower())

    def new_tuple(
        self,
        table: str,
        fixed_values: dict[str, Any],
        rng: random.Random,
    ) -> Optional[dict[str, Any]]:
        """A candidate tuple matching ``fixed_values``, or None."""
        groups = self._new_tuples.get(table.lower())
        if groups is None:
            return None
        key = frozenset(
            (c.lower(), _norm(v)) for c, v in fixed_values.items()
        )
        pool = groups.get(key)
        if pool is None:
            # The probe constrains different columns than the load-time
            # grouping (e.g. an anti-probe pins the primary key while the
            # pool is grouped by foreign key): filter the union instead.
            pool = [
                row
                for rows in groups.values()
                for row in rows
                if all(
                    _norm(row.get(c.lower())) == _norm(v)
                    for c, v in fixed_values.items()
                )
            ]
        if not pool:
            return None
        return rng.choice(pool)

    def equal(self, left: Any, right: Any) -> bool:
        """Ground truth for CROWDEQUAL."""
        left_key, right_key = _norm(left), _norm(right)
        if left_key == right_key:
            return True
        left_entity = self._entities.get(left_key)
        right_entity = self._entities.get(right_key)
        if left_entity is None or right_entity is None:
            return False
        return left_entity == right_entity

    def prefer_left(self, question: str, left: Any, right: Any) -> bool:
        """Ground truth for CROWDORDER: does ``left`` rank before
        ``right``?  Unknown questions fall back to string order so the
        simulation never stalls."""
        score = self._scores.get(question)
        if score is None:
            return str(left) <= str(right)
        return score(left) >= score(right)

    def score(self, question: str, item: Any) -> float:
        scorer = self._scores.get(question)
        return scorer(item) if scorer else 0.0

    def distractor(
        self, table: str, column: str, truth: str, rng: random.Random
    ) -> Optional[Any]:
        """A plausible wrong value for error injection: a uniform draw
        over the column's loaded values that do not normalize to
        ``truth``."""
        pool = self._distractors.get(table.lower(), {}).get(column.lower())
        if pool is None:
            return None
        wrong = _Without(pool.values, pool.positions(_norm(truth)))
        if not len(wrong):
            return None
        return rng.choice(wrong)


class _DistractorPool:
    """One column's loaded values (append-only) and where each
    normalized value sits among them, indexed lazily by the first draw
    after a load."""

    def __init__(self) -> None:
        self.values: list[Any] = []
        self._positions: dict[Any, list[int]] = {}
        self._indexed = 0

    def positions(self, norm: Any) -> list[int]:
        """Ascending positions of the values that normalize to ``norm``."""
        for position in range(self._indexed, len(self.values)):
            self._positions.setdefault(
                _norm(self.values[position]), []
            ).append(position)
        self._indexed = len(self.values)
        return self._positions.get(norm, [])


class _Without:
    """``values`` minus the ascending ``excluded`` positions, as a
    sequence of just the length and indexing ``random.choice`` reads: the
    same draw as over the filtered list, without building it."""

    def __init__(self, values: list[Any], excluded: list[int]) -> None:
        self._values = values
        self._excluded = excluded

    def __len__(self) -> int:
        return len(self._values) - len(self._excluded)

    def __getitem__(self, index: int) -> Any:
        for position in self._excluded:
            if position > index:
                break
            index += 1
        return self._values[index]


def _key(primary_key: tuple) -> tuple:
    return tuple(_norm(part) for part in primary_key)


def _norm(value: Any) -> Any:
    return normalize_answer(value)
