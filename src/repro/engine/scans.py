"""Scan operators, including the open-world CROWD-table scan."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.catalog.table import TableSchema
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.sql import ast
from repro.sqltypes import coerce
from repro.storage.row import Scope


class TableScan(PhysicalOperator):
    """Scan the stored tuples of a table.

    For a CROWD table with a ``limit_hint`` (attached by stop-after
    push-down), the scan embodies the open-world assumption: when the
    stored tuples run out before the bound is reached, it asks the crowd
    for more, memorizes them, and keeps yielding — exactly the bounded
    sourcing the paper's optimizer guarantees.
    """

    def __init__(
        self,
        context: ExecutionContext,
        table: TableSchema,
        binding: str,
        limit_hint: Optional[int] = None,
    ) -> None:
        super().__init__(context)
        self.table = table
        self.binding = binding
        self.limit_hint = limit_hint
        self._scope = Scope.for_table(binding, table.column_names)

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        # open-world sourcing: a CROWD-table scan may ask the crowd for
        # more tuples once the stored ones run out
        return self.table.crowd

    def __iter__(self) -> Iterator[tuple]:
        heap = self.context.engine.table(self.table.name)
        # crowd execution can insert rows while this scan is suspended on
        # a future (another session under the server, or a crowd probe
        # into the scanned CROWD table); snapshot only then — the common
        # electronic scan iterates the heap directly
        snapshot = self.context.task_manager is not None and (
            self.context.crowd_waiter is not None or self.table.crowd
        )
        yielded = 0
        try:
            for values in heap.scan_values(snapshot=snapshot):
                yielded += 1
                yield values
        finally:
            # one counter update per scan (or early close), not per row
            self.context.rows_scanned += yielded
        if (
            self.table.crowd
            and self.limit_hint is not None
            and yielded < self.limit_hint
            and self.context.task_manager is not None
        ):
            yield from self._source_more(self.limit_hint - yielded)

    def _source_more(self, count: int) -> Iterator[tuple]:
        """Open-world sourcing, bounded by the stop-after hint."""
        heap = self.context.engine.table(self.table.name)
        (new_tuples,) = self.context.crowd_new_tuples_many(
            [(self.table, count, None, _known_primary_keys(heap, self.table))]
        )
        self.context.crowd_probe_tasks += len(new_tuples)
        for values in new_tuples:
            # a tuple a concurrent session memorized first comes back as
            # stored, so identical queries return identical answers
            stored = self.context.memorize_tuple(self.table, values)
            if stored is not None:
                yield stored


def index_rowids(
    heap, key_columns: tuple[str, ...], key_values: tuple, prefix: bool = False
) -> list[int]:
    """Row ids whose key equals ``key_values``, in row-id order, through
    the index on ``key_columns`` (with ``prefix``, the leading columns of
    an ordered index); a NULL/CNULL key matches nothing."""
    if prefix:
        index = heap.ordered_index_with_prefix(key_columns)
        return sorted(index.prefix_lookup(key_values))
    return sorted(heap.index_on(key_columns).lookup(key_values))


class IndexLookup(PhysicalOperator):
    """Equality lookup through an index: the access path of a filter on
    an indexed column (see :func:`index_rowids`).

    A prepared lookup's ``key_values`` may hold ``?`` parameters; binding
    coerces each to its column's type.  ``access`` -- the index-served
    Filter and its row bound -- lets binding decide the access path again
    when a value cannot be coerced, as it would for such a literal."""

    def __init__(
        self,
        context: ExecutionContext,
        table: TableSchema,
        binding: str,
        key_columns: tuple[str, ...],
        key_values: tuple,
        prefix: bool = False,
        access: Optional[tuple] = None,
    ) -> None:
        super().__init__(context)
        self.table = table
        self.binding = binding
        self.key_columns = key_columns
        self.key_values = key_values
        self.prefix = prefix
        self.access = access
        self._key_types = tuple(
            table.column(column).sql_type for column in key_columns
        )
        self._scope = Scope.for_table(binding, table.column_names)

    def bind(self, planner, copy: bool = True) -> PhysicalOperator:
        parameters = planner.context.parameters
        try:
            keys = tuple(
                coerce(parameters[key.index], sql_type)
                if type(key) is ast.Parameter else key
                for key, sql_type in zip(self.key_values, self._key_types)
            )
        except Exception:
            # mistyped or unsupplied value (see match_index_access)
            return planner.bind_access_path(*self.access)
        bound = super().bind(planner, copy)
        bound.key_values = keys
        return bound

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        return False  # lookups only read stored tuples

    def __iter__(self) -> Iterator[tuple]:
        heap = self.context.engine.table(self.table.name)
        for rowid in index_rowids(
            heap, self.key_columns, self.key_values, self.prefix
        ):
            self.context.rows_scanned += 1
            yield heap.get(rowid).values


_NO_COLUMNS = Scope([])


class SingleRowOp(PhysicalOperator):
    """Produces exactly one empty tuple (SELECT without FROM)."""

    @property
    def scope(self) -> Scope:
        return _NO_COLUMNS

    def sources_crowd_on_pull(self) -> bool:
        return False

    def __iter__(self) -> Iterator[tuple]:
        yield ()


def _known_primary_keys(heap, table: TableSchema):
    """Normalized PK tuples already stored (for open-world dedup).

    The heap maintains this set incrementally on insert/update/delete, so
    sourcing calls no longer pay a full scan-and-normalize per request.
    """
    if not table.primary_key:
        return set()
    return heap.normalized_primary_keys()
