"""Join operators: block nested-loop, hash equi-join, and the CrowdJoin."""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.catalog.table import TableSchema
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.sql import ast
from repro.sqltypes import CNULL, NULL, is_cnull, is_missing
from repro.storage.row import Scope


class NestedLoopJoinOp(PhysicalOperator):
    """Materializing nested-loop join supporting INNER, CROSS, and LEFT."""

    def __init__(
        self,
        context: ExecutionContext,
        left: PhysicalOperator,
        right: PhysicalOperator,
        join_type: str = "INNER",
        condition: Optional[ast.Expression] = None,
    ) -> None:
        super().__init__(context)
        if join_type not in ("INNER", "CROSS", "LEFT"):
            raise ExecutionError(f"unsupported join type {join_type!r}")
        self.left = left
        self.right = right
        self.join_type = join_type
        self.condition = condition
        self._scope = left.scope.concat(right.scope)

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        # the right side is materialized on first pull either way; the
        # streamed left side — and a condition with crowd constructs,
        # evaluated per emitted row — react to extra pulls
        from repro.plan.compiled import is_electronic

        return (
            self.condition is not None and not is_electronic(self.condition)
        ) or self.left.sources_crowd_on_pull()

    def __iter__(self) -> Iterator[tuple]:
        right_rows = list(self.right)
        right_width = len(self.right.scope)
        condition = (
            self.compile_predicate(self.condition, self._scope)
            if self.condition is not None
            else None
        )
        for left_values in self.left:
            matched = False
            for right_values in right_rows:
                combined = left_values + right_values
                if condition is not None and condition(combined).value is not True:
                    continue
                matched = True
                yield combined
            if not matched and self.join_type == "LEFT":
                yield left_values + (NULL,) * right_width


class HashJoinOp(PhysicalOperator):
    """Hash equi-join for INNER and LEFT joins with extractable key pairs.

    ``left_keys``/``right_keys`` are parallel expression lists; a residual
    condition (the full original one) is re-checked on each candidate to
    keep semantics identical to the nested-loop plan.  LEFT joins build
    on the right side as usual and pad unmatched (or missing-key) outer
    rows with NULLs.
    """

    def __init__(
        self,
        context: ExecutionContext,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[ast.Expression, ...],
        right_keys: tuple[ast.Expression, ...],
        condition: Optional[ast.Expression] = None,
        join_type: str = "INNER",
    ) -> None:
        super().__init__(context)
        if join_type not in ("INNER", "LEFT"):
            raise ExecutionError(f"unsupported hash join type {join_type!r}")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.condition = condition
        self.join_type = join_type
        self._scope = left.scope.concat(right.scope)

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        # the build side is materialized on first pull either way; the
        # streamed probe side — and a residual condition with crowd
        # constructs, evaluated per emitted row — react to extra pulls
        from repro.plan.compiled import is_electronic

        return (
            self.condition is not None and not is_electronic(self.condition)
        ) or self.left.sources_crowd_on_pull()

    def __iter__(self) -> Iterator[tuple]:
        condition = (
            self.compile_predicate(self.condition, self._scope)
            if self.condition is not None
            else None
        )
        if len(self.left_keys) == 1:
            yield from self._iter_single_key(condition)
            return
        from repro.plan.compiled import tuple_maker

        table: dict[tuple, list[tuple]] = {}
        build_key = tuple_maker(
            [
                self.compile_value(expr, self.right.scope)
                for expr in self.right_keys
            ]
        )
        probe_key = tuple_maker(
            [
                self.compile_value(expr, self.left.scope)
                for expr in self.left_keys
            ]
        )
        setdefault = table.setdefault
        for right_values in self.right:
            key = build_key(right_values)
            if any(is_missing(part) for part in key):
                continue
            setdefault(key, []).append(right_values)
        get_bucket = table.get
        left_outer = self.join_type == "LEFT"
        padding = (NULL,) * len(self.right.scope)
        for left_values in self.left:
            key = probe_key(left_values)
            matched = False
            if not any(is_missing(part) for part in key):
                for right_values in get_bucket(key, ()):
                    combined = left_values + right_values
                    if condition is not None and condition(combined).value is not True:
                        continue
                    matched = True
                    yield combined
            if left_outer and not matched:
                yield left_values + padding

    def _iter_single_key(self, condition) -> Iterator[tuple]:
        """The common one-key equi-join, with scalar hash keys and inline
        missing checks."""
        build_key = self.compile_value(self.right_keys[0], self.right.scope)
        probe_key = self.compile_value(self.left_keys[0], self.left.scope)
        table: dict = {}
        setdefault = table.setdefault
        for right_values in self.right:
            key = build_key(right_values)
            if key is NULL or key is None or key is CNULL:
                continue
            setdefault(key, []).append(right_values)
        get_bucket = table.get
        empty = ()
        left_outer = self.join_type == "LEFT"
        padding = (NULL,) * len(self.right.scope)
        for left_values in self.left:
            key = probe_key(left_values)
            if key is NULL or key is None or key is CNULL:
                bucket = empty
            else:
                bucket = get_bucket(key, empty)
            if not bucket:
                if left_outer:
                    yield left_values + padding
                continue
            if condition is None:
                for right_values in bucket:
                    yield left_values + right_values
                continue
            matched = False
            for right_values in bucket:
                combined = left_values + right_values
                if condition(combined).value is True:
                    matched = True
                    yield combined
            if left_outer and not matched:
                yield left_values + padding


class CrowdJoinOp(PhysicalOperator):
    """The paper's CrowdJoin: index nested-loop join over a CROWD inner.

    Per outer tuple: evaluate the join key, probe the stored inner tuples
    through an index, and — when nothing is stored — ask the crowd for
    matching tuples, memorize them, and join.  Crowd columns the query
    needs (``needed_columns``) are probed on every matched inner tuple.

    The operator buffers a window of ``batch_size`` outer tuples (one at
    ``batch_size`` 1) and issues the *whole* probe batch — new-tuple
    requests for every unmatched key, then fill tasks for every matched
    inner tuple's missing crowd columns — before waiting, so a window
    pays two overlapped crowd rounds instead of one per outer tuple.
    Without a task manager both rounds are skipped: stored matches only.
    """

    def __init__(
        self,
        context: ExecutionContext,
        left: PhysicalOperator,
        inner_table: TableSchema,
        inner_binding: str,
        condition: ast.Expression,
        inner_key_columns: tuple[str, ...],
        outer_key_exprs: tuple[ast.Expression, ...],
        needed_columns: tuple[str, ...],
        batch_size: int,
    ) -> None:
        super().__init__(context)
        self.left = left
        self.inner_table = inner_table
        self.inner_binding = inner_binding
        self.condition = condition
        self.inner_key_columns = inner_key_columns
        self.outer_key_exprs = outer_key_exprs
        self.needed_columns = needed_columns
        self._needed = [
            (column, inner_table.column_index(column))
            for column in needed_columns
        ]
        self.batch_size = batch_size
        self._inner_scope = Scope.for_table(
            inner_binding, inner_table.column_names
        )
        self._scope = left.scope.concat(self._inner_scope)
        self._probed_keys: set[tuple] = set()

    def bind(self, planner, copy: bool = True) -> PhysicalOperator:
        bound = super().bind(planner, copy)
        bound._probed_keys = set()  # the keys this execution asked for
        return bound

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        return True

    def __iter__(self) -> Iterator[tuple]:
        left_scope = self.left.scope
        key_fns = [
            self.compile_value(expr, left_scope)
            for expr in self.outer_key_exprs
        ]
        condition = self.compile_predicate(self.condition, self._scope)
        window: list[tuple[tuple, tuple]] = []  # (left values, join key)
        for left_values in self.left:
            key = tuple(fn(left_values) for fn in key_fns)
            if any(is_missing(part) for part in key):
                continue
            window.append((left_values, key))
            if len(window) >= self.batch_size:
                yield from self._join_window(window, condition)
                window = []
        if window:
            yield from self._join_window(window, condition)

    # -- window probing -------------------------------------------------------

    def _join_window(
        self, window: list[tuple[tuple, tuple]], condition
    ) -> Iterator[tuple]:
        heap = self.context.engine.table(self.inner_table.name)
        index = self._ensure_index(heap)
        crowd = self.context.task_manager is not None
        # round 1: one new-tuple request per unmatched, unprobed key
        specs = []
        for _left_values, key in window:
            if key in self._probed_keys or index.lookup(key):
                continue
            self._probed_keys.add(key)
            fixed = dict(zip(self.inner_key_columns, key))
            specs.append((self.inner_table, 1, fixed, None))
        if crowd:
            results = self.context.crowd_new_tuples_many(specs)
            self.context.crowd_join_tasks += len(specs)
            for new_tuples in results:
                for values in new_tuples:
                    self.context.memorize_tuple(self.inner_table, values)
        # round 2: one fill task per matched inner tuple with CNULLs
        names = self.inner_table.column_names
        needed = self._needed if crowd else ()
        matched: list[tuple[tuple, list[int]]] = []
        fills = []
        seen_rowids: set[int] = set()
        for left_values, key in window:
            rowids = sorted(index.lookup(key))
            matched.append((left_values, rowids))
            for rowid in rowids:
                if rowid in seen_rowids:
                    continue
                seen_rowids.add(rowid)
                values = heap.get(rowid).values
                missing = tuple(c for c, at in needed if is_cnull(values[at]))
                if missing:
                    fills.append((dict(zip(names, values)), missing))
        self.context.crowd_fill_rows(self.inner_table, fills)
        # emit: probe results are memorized, so read back and join
        for left_values, rowids in matched:
            for rowid in rowids:
                self.context.rows_scanned += 1
                combined = left_values + heap.get(rowid).values
                if condition(combined).value is True:
                    yield combined

    def _ensure_index(self, heap):
        index = heap.index_on(self.inner_key_columns)
        if index is None:
            index = heap.create_index(
                f"{self.inner_table.name}_auto_"
                f"{'_'.join(self.inner_key_columns)}",
                self.inner_key_columns,
            )
        return index
