"""The crowd-backed sort.

Only a Sort with a CROWDORDER key runs here; every other ORDER BY is the
columnar :class:`~repro.exec.vectorized.VectorSortOp` (over row input
through ``RowsToBatchOp``).  A CROWDORDER sort is a comparison sort whose
comparator is the CrowdCompare operator: every binary comparison becomes
a ballot ("an operator that implements quick-sort can use CrowdCompare to
perform the required binary comparisons", paper §3.2.1).  With a top-k
bound (stop-after push-down) a selection tournament replaces the full
sort, cutting comparisons from O(n log n) to O(n·k).

Batch crowd execution (``batch_size`` > 1) swaps both crowd sorts for
round-based variants — a pairwise elimination bracket for top-k and a
lock-step bottom-up merge sort for full orders — that collect each
round's comparison set, issue every ballot together, and settle them in
one overlapped marketplace round.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional

from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.exec.sort import missing_aware_compare
from repro.sql import ast
from repro.sqltypes import is_missing
from repro.storage.row import Scope


class SortOp(PhysicalOperator):
    """ORDER BY with a CROWDORDER key, over materialized row input."""

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        keys: tuple[tuple[ast.Expression, bool], ...],
        top_k: Optional[int] = None,
    ) -> None:
        super().__init__(context)
        self.child = child
        self.keys = keys
        self.top_k = top_k

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def sources_crowd_on_pull(self) -> bool:
        # the child is consumed entirely on first pull, but the tournament
        # top-k issues ballots per emitted row
        return True

    def __iter__(self) -> Iterator[tuple]:
        rows = list(self.child)
        if not rows:
            return
        self._crowd_keys = self._compiled_keys()
        compare = self._comparator(self._crowd_keys)
        batched = (
            self.context.task_manager is not None
            and self.context.batch_size > 1
            and len(rows) > 2
        )
        if self.top_k is not None and self.top_k < len(rows):
            if batched:
                yield from self._bracket_top_k(rows, compare, self.top_k)
            else:
                yield from self._tournament_top_k(rows, compare, self.top_k)
        elif batched:
            yield from self._batched_merge_sort(rows, compare)
        else:
            yield from sorted(rows, key=functools.cmp_to_key(compare))

    # -- crowd-backed sort ----------------------------------------------------------

    def _compiled_keys(self):
        """Per-key compiled forms: ``(value fn, crowd question, asc)``;
        ``question`` is None for electronic keys."""
        scope = self.child.scope
        compiled = []
        for expr, ascending in self.keys:
            if isinstance(expr, ast.CrowdOrder):
                compiled.append(
                    (self.compile_value(expr.operand, scope),
                     expr.question, ascending)
                )
            else:
                compiled.append(
                    (self.compile_value(expr, scope), None, ascending)
                )
        return compiled

    def _comparator(self, compiled_keys):
        crowd_order = self.context.crowd_order

        def compare(a: tuple, b: tuple) -> int:
            for fn, question, ascending in compiled_keys:
                left = fn(a)
                right = fn(b)
                if question is not None:
                    if is_missing(left) or is_missing(right):
                        ordering = 0
                    elif left == right:
                        ordering = 0
                    else:
                        prefer_left = crowd_order(left, right, question)
                        ordering = -1 if prefer_left else 1
                else:
                    ordering = missing_aware_compare(left, right)
                if not ascending:
                    ordering = -ordering
                if ordering != 0:
                    return ordering
            return 0

        return compare

    # -- batched crowd sort ---------------------------------------------------------

    def _needed_ballot(self, a: tuple, b: tuple) -> Optional[tuple]:
        """The one CROWDORDER ballot ``compare(a, b)`` will ask, if any.

        Keys are walked in order: electronic keys (and tying crowd keys)
        are resolved locally; the first crowd key whose operands differ
        decides the comparison with a single ballot, because a ballot
        never ties."""
        for fn, question, _ascending in self._crowd_keys:
            if question is not None:
                left = fn(a)
                right = fn(b)
                if is_missing(left) or is_missing(right) or left == right:
                    continue  # ties; the next key decides
                return (left, right, question)
            if missing_aware_compare(fn(a), fn(b)) != 0:
                return None  # an electronic key decides first
        return None

    def _prefetch_pairs(self, pairs: list[tuple[tuple, tuple]]) -> None:
        """Issue the ballots a round of comparisons needs, settle once."""
        ballots = []
        for a, b in pairs:
            ballot = self._needed_ballot(a, b)
            if ballot is not None:
                ballots.append(ballot)
        if ballots:
            self.context.prefetch_compare_order(ballots)

    def _bracket_top_k(
        self, rows: list[tuple], compare, k: int
    ) -> Iterator[tuple]:
        """Selection tournament, batched: each pass finds the minimum of
        the remaining rows with a pairwise elimination bracket whose
        rounds issue their ballots together — the same n-1 comparisons
        per pass as the linear scan, but O(log n) crowd rounds instead of
        O(n), and later passes mostly replay cached ballots."""
        remaining = list(rows)
        for _ in range(min(k, len(rows))):
            candidates = list(range(len(remaining)))
            while len(candidates) > 1:
                pairs = [
                    (candidates[i], candidates[i + 1])
                    for i in range(0, len(candidates) - 1, 2)
                ]
                self._prefetch_pairs(
                    [(remaining[a], remaining[b]) for a, b in pairs]
                )
                winners = []
                for a, b in pairs:
                    # ties keep the earlier row, like the linear scan
                    winners.append(
                        a if compare(remaining[a], remaining[b]) <= 0 else b
                    )
                if len(candidates) % 2:
                    winners.append(candidates[-1])
                candidates = winners
            yield remaining.pop(candidates[0])

    def _batched_merge_sort(self, rows: list[tuple], compare) -> Iterator[tuple]:
        """Bottom-up stable merge sort whose active merges advance in
        lock-step rounds: each round issues one ballot per merge and
        settles them together, cutting crowd rounds from O(n log n) to
        O(n).  Both this and the sequential comparison sort are stable,
        so a consistent comparator yields identical output."""
        runs: list[list[tuple]] = [[row] for row in rows]
        while len(runs) > 1:
            merges = [
                _MergeState(runs[i], runs[i + 1])
                for i in range(0, len(runs) - 1, 2)
            ]
            leftover = runs[-1] if len(runs) % 2 else None
            while True:
                active = [m for m in merges if m.active()]
                if not active:
                    break
                self._prefetch_pairs([m.frontier() for m in active])
                for merge in active:
                    merge.step(compare)
            runs = [m.finish() for m in merges]
            if leftover is not None:
                runs.append(leftover)
        yield from runs[0]

    @staticmethod
    def _tournament_top_k(rows: list[tuple], compare, k: int) -> Iterator[tuple]:
        """Selection tournament: k passes of pairwise minimum.

        Uses at most (n-1) + (k-1)(n-1) ≈ n·k comparisons and never more
        ballots than a full sort would — the paper's stop-after push-down
        payoff for Example 3 (LIMIT 10 over CROWDORDER).
        """
        remaining = list(rows)
        for _ in range(min(k, len(rows))):
            best_index = 0
            for index in range(1, len(remaining)):
                if compare(remaining[index], remaining[best_index]) < 0:
                    best_index = index
            yield remaining.pop(best_index)


class _MergeState:
    """One in-progress stable merge of two sorted runs."""

    __slots__ = ("a", "b", "i", "j", "out")

    def __init__(self, a: list[tuple], b: list[tuple]) -> None:
        self.a = a
        self.b = b
        self.i = 0
        self.j = 0
        self.out: list[tuple] = []

    def active(self) -> bool:
        return self.i < len(self.a) and self.j < len(self.b)

    def frontier(self) -> tuple[tuple, tuple]:
        """The pair the next step will compare."""
        return (self.a[self.i], self.b[self.j])

    def step(self, compare) -> None:
        if compare(self.a[self.i], self.b[self.j]) <= 0:
            self.out.append(self.a[self.i])
            self.i += 1
        else:
            self.out.append(self.b[self.j])
            self.j += 1

    def finish(self) -> list[tuple]:
        return self.out + self.a[self.i :] + self.b[self.j :]
