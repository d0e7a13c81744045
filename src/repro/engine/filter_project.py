"""The row filter, projection and limit: point reads, and the parts of a
plan above crowd operators, which need tuples one at a time.  Every
other electronic operator runs on batches (:mod:`repro.exec.vectorized`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.exec.vector import chunked as _chunked
from repro.plan.compiled import is_electronic
from repro.sql import ast
from repro.storage.row import Scope


class FilterOp(PhysicalOperator):
    """Keep rows whose predicate evaluates to TRUE (3VL).

    The predicate is compiled once at plan time; electronic predicates
    additionally run batch-at-a-time, filtering ``BATCH_ROWS``-row chunks
    through one list comprehension instead of a per-row generator
    round-trip (gated on the child never sourcing crowd data on pull, so
    the eager chunk cannot issue crowd tasks a stop-after bound would
    have prevented).

    Mixed predicates are evaluated as *partitioned conjuncts*: the purely
    electronic conjuncts — which the optimizer already ordered by
    selectivity-per-cost — run first with short-circuiting, and only
    rows surviving all of them evaluate the crowd/subquery tail.  A row
    an electronic conjunct rejects never spends a cent.  The tail itself
    is never short-circuited, so the window prefetch below stays exact
    and batch and per-row execution issue identical ballot sequences.

    A tail containing CROWDEQUAL runs batch-at-a-time: the operator
    buffers ``batch_size`` child rows (batch size 1 is a window of one),
    filters them electronically, issues the survivors' ballots together,
    settles them in one overlapped round, and only then evaluates the
    tail per row — the evaluation hits the Task Manager's comparison
    cache and never waits.  Only CASE branches are lazy, so those
    predicates keep the per-row path, as does a connection without a
    crowd.
    """

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        predicate: ast.Expression,
        batch_size: int,
    ) -> None:
        super().__init__(context)
        self.child = child
        self.predicate_expr = predicate
        self.batch_size = batch_size
        self._electronic = is_electronic(predicate)
        self._partitioned = self._partitioned_conjuncts()

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def _partitioned_conjuncts(
        self,
    ) -> Optional[tuple[list[ast.Expression], list[ast.Expression]]]:
        """(electronic conjuncts, crowd/subquery tail), or None when the
        predicate has no mixed AND-chain to partition."""
        from repro.optimizer.rules import split_conjuncts

        conjuncts = split_conjuncts(self.predicate_expr)
        if len(conjuncts) < 2:
            return None
        electronic = [c for c in conjuncts if is_electronic(c)]
        tail = [c for c in conjuncts if not is_electronic(c)]
        if not electronic or not tail:
            return None
        return electronic, tail

    def __iter__(self) -> Iterator[tuple]:
        child_scope = self.child.scope
        if self._partitioned is not None:
            yield from self._iter_partitioned(*self._partitioned)
            return
        predicate = self.compile_predicate(self.predicate_expr, child_scope)
        prefetchable = (
            self._prefetchable_equals(self.predicate_expr)
            if self.context.task_manager is not None and not self._electronic
            else ()
        )
        if not prefetchable:
            if self._electronic and not self.child.sources_crowd_on_pull():
                yield from self._iter_chunked(predicate)
                return
            for values in self.child:
                if predicate(values).value is True:
                    yield values
            return
        operand_fns = self._operand_fns(prefetchable)
        window: list[tuple] = []
        for values in self.child:
            window.append(values)
            if len(window) >= self.batch_size:
                yield from self._filter_window(
                    window, predicate, prefetchable, operand_fns
                )
                window = []
        if window:
            yield from self._filter_window(
                window, predicate, prefetchable, operand_fns
            )

    # -- partitioned conjunct evaluation ---------------------------------------

    def _iter_partitioned(
        self,
        electronic: list[ast.Expression],
        tail: list[ast.Expression],
    ) -> Iterator[tuple]:
        from repro.optimizer.rules import conjoin

        child_scope = self.child.scope
        electronic_fns = [
            self.compile_predicate(c, child_scope) for c in electronic
        ]
        tail_fns = [self.compile_predicate(c, child_scope) for c in tail]
        tail_predicate = conjoin(tail)
        prefetchable = (
            self._prefetchable_equals(tail_predicate)
            if self.context.task_manager is not None
            else ()
        )
        if not prefetchable:
            for values in self.child:
                if self._electronic_pass(electronic_fns, values) and (
                    self._tail_pass(tail_fns, values)
                ):
                    yield values
            return
        operand_fns = self._operand_fns(prefetchable)
        window: list[tuple] = []
        for values in self.child:
            window.append(values)
            if len(window) >= self.batch_size:
                yield from self._partitioned_window(
                    window, electronic_fns, tail_fns, prefetchable, operand_fns
                )
                window = []
        if window:
            yield from self._partitioned_window(
                window, electronic_fns, tail_fns, prefetchable, operand_fns
            )

    @staticmethod
    def _electronic_pass(fns, values) -> bool:
        """Short-circuiting conjunction: electronic conjuncts have no
        observable side effects, so stopping at the first non-TRUE
        verdict is safe — and skips every crowd cent the tail would
        have spent on this row."""
        return all(fn(values).value is True for fn in fns)

    @staticmethod
    def _tail_pass(fns, values) -> bool:
        """Non-short-circuiting conjunction over the crowd/subquery
        tail: every conjunct evaluates, so window prefetch stays exact
        and batch and per-row execution stay call-for-call identical."""
        passed = True
        for fn in fns:
            if fn(values).value is not True:
                passed = False
        return passed

    def _partitioned_window(
        self,
        window: list[tuple],
        electronic_fns,
        tail_fns,
        equals: tuple[ast.CrowdEqual, ...],
        operand_fns: dict,
    ) -> Iterator[tuple]:
        survivors = [
            values
            for values in window
            if self._electronic_pass(electronic_fns, values)
        ]
        self._prefetch_pairs(survivors, equals, operand_fns)
        for values in survivors:
            if self._tail_pass(tail_fns, values):
                yield values

    # -- shared plumbing ---------------------------------------------------------

    def _operand_fns(self, equals: tuple[ast.CrowdEqual, ...]) -> dict:
        child_scope = self.child.scope
        return {
            node: (
                self.compile_value(node.left, child_scope),
                self.compile_value(node.right, child_scope),
            )
            for node in equals
        }

    def _iter_chunked(self, predicate) -> Iterator[tuple]:
        """Batch-at-a-time electronic filtering over row chunks."""
        for chunk in _chunked(self.child):
            yield from [v for v in chunk if predicate(v).value is True]

    def sources_crowd_on_pull(self) -> bool:
        return not self._electronic or self.child.sources_crowd_on_pull()

    def _prefetchable_equals(
        self, predicate: ast.Expression
    ) -> tuple[ast.CrowdEqual, ...]:
        """The CROWDEQUAL nodes whose ballots the window can issue up
        front — exactly the ones per-row evaluation is guaranteed to
        reach, with operands that are cheap and pure to evaluate twice."""
        nodes = list(ast.walk_expression(predicate))
        if any(isinstance(node, ast.CaseExpr) for node in nodes):
            return ()  # CASE branches short-circuit: reach is row-dependent
        equals = tuple(
            node for node in nodes if isinstance(node, ast.CrowdEqual)
        )
        for node in equals:
            if not (node.left.facts.electronic and node.right.facts.electronic):
                return ()
        return equals

    def _prefetch_pairs(
        self,
        rows: list[tuple],
        equals: tuple[ast.CrowdEqual, ...],
        operand_fns: dict,
    ) -> None:
        from repro.sqltypes import is_missing

        pairs = []
        for values in rows:
            for node in equals:
                left_fn, right_fn = operand_fns[node]
                left = left_fn(values)
                right = right_fn(values)
                if is_missing(left) or is_missing(right) or left == right:
                    continue  # evaluation resolves these without a ballot
                pairs.append((left, right, node.question))
        if pairs:
            self.context.prefetch_compare_equal(pairs)

    def _filter_window(
        self,
        window: list[tuple],
        predicate,
        equals: tuple[ast.CrowdEqual, ...],
        operand_fns: dict,
    ) -> Iterator[tuple]:
        self._prefetch_pairs(window, equals, operand_fns)
        for values in window:
            if predicate(values).value is True:
                yield values


class ProjectOp(PhysicalOperator):
    """Compute the select-list expressions.

    Select-list expressions compile to closures at plan time; electronic
    projections run batch-at-a-time over ``BATCH_ROWS``-row chunks.
    """

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        items: tuple[tuple[ast.Expression, str], ...],
    ) -> None:
        super().__init__(context)
        self.child = child
        self.items = items
        self._scope = Scope([("", name) for _expr, name in items])
        self._electronic = all(is_electronic(expr) for expr, _name in items)

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        return not self._electronic or self.child.sources_crowd_on_pull()

    def __iter__(self) -> Iterator[tuple]:
        from repro.plan.compiled import tuple_maker

        child_scope = self.child.scope
        row_fn = tuple_maker(
            [
                self.compile_value(expr, child_scope)
                for expr, _name in self.items
            ]
        )
        if self._electronic and not self.child.sources_crowd_on_pull():
            for chunk in _chunked(self.child):
                yield from [row_fn(v) for v in chunk]
            return
        for values in self.child:
            yield row_fn(values)


class LimitOp(PhysicalOperator):
    """Stop-after: skip ``offset`` rows, then yield at most ``limit``."""

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        limit: Optional[int],
        offset: int = 0,
    ) -> None:
        super().__init__(context)
        self.child = child
        self.limit = limit
        self.offset = offset

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def __iter__(self) -> Iterator[tuple]:
        skipped = 0
        emitted = 0
        for values in self.child:
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and emitted >= self.limit:
                return
            emitted += 1
            yield values
            if self.limit is not None and emitted >= self.limit:
                return
