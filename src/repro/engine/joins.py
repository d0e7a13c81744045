"""The CrowdJoin: the one join that runs on rows.

Every other join runs on :class:`~repro.exec.vectorized.VectorHashJoinOp`.
"""

from __future__ import annotations

from typing import Iterator

from repro.catalog.table import TableSchema
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.sql import ast
from repro.sqltypes import is_cnull, is_missing
from repro.storage.row import Scope


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
