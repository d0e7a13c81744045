"""Batch operators: binder-approved plan regions, and every join,
aggregate, electronic sort, DISTINCT, set operation and derived table.

The scan, filter, project and limit mirror the row operators in
:mod:`repro.engine` exactly — same scopes, same missing-key/NULL-padding/
insertion-order semantics, same errors — but exchange
:class:`~repro.exec.vector.ColumnBatch`es instead of row tuples.  The
physical planner instantiates them only for nodes the binder marked
vector-eligible (pure electronic, no crowd hazard).  Joins without a
CROWD inner, aggregation, sorts with no CROWDORDER key, DISTINCT, set
operations and derived tables have no row operator: over input the
binder left on rows they read it through :class:`RowsToBatchOp`.  Every
region is capped with :class:`BatchToRowsOp`, so row-only parents and
the executor see ordinary tuples.

Exactness strategy: every fast path is gated on runtime column
cleanliness tags; anything unclean (possible NULL/CNULL/bools/mixed
types) drops to element-wise code mirroring the row engine's compiled
closures, or to the row closures themselves mapped over
``batch.rows()``.  The only licensed divergence is *eagerness*: batch
operators may evaluate expressions for rows a row-at-a-time consumer
would never have pulled (the contract documented in
:mod:`repro.plan.compiled`).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import add as _add, itemgetter
from typing import Any, Iterator, Optional, Sequence

from repro.catalog.table import TableSchema
from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.exec.kernels import (
    CannotVectorize,
    _ndcolumn,
    compile_column_kernel,
    compile_mask_kernel,
    note_fallback,
)
from repro.exec.sort import sort_order
from repro.exec.vector import (
    DICTIONARY_ROWS_PER_VALUE,
    LANE_ROWS,
    TAG_FLOAT,
    TAG_INT,
    TAG_NUM,
    TAG_STR,
    VECTOR_ROWS,
    Coded,
    ColumnBatch,
    ColumnLanes,
    as_list,
    take,
)
from repro.plan.compiled import rendered_position
from repro.sql import ast
from repro.sql.pretty import format_expression
from repro.sqltypes import CNULL, NULL, SQLType, is_missing
from repro.storage.row import Scope

try:  # index-lane accelerations are optional, like the kernel lanes
    import numpy as _np
except ImportError:  # pragma: no cover - image without numpy
    _np = None


def _collect_refs(expr: ast.Expression, scope: Scope, out: set) -> bool:
    """Accumulate the scope positions ``expr`` reads into ``out``.
    Returns False on any construct it cannot see through (the caller
    must then assume every column is referenced)."""
    kind = type(expr)
    if kind is ast.ColumnRef:
        try:
            out.add(scope.resolve(expr.name, expr.table))
        except ExecutionError:
            return False
        return True
    if kind in (ast.Literal, ast.CNullLiteral, ast.Parameter, ast.Star):
        return True
    # a GROUP BY expression or aggregate call over an Aggregate reads the
    # Aggregate's output column, by its rendered name
    position = rendered_position(expr, scope)
    if position is not None:
        out.add(position)
        return True
    if kind is ast.UnaryOp:
        return _collect_refs(expr.operand, scope, out)
    if kind is ast.BinaryOp:
        return _collect_refs(expr.left, scope, out) and _collect_refs(
            expr.right, scope, out
        )
    if kind is ast.IsNull:
        return _collect_refs(expr.operand, scope, out)
    if kind is ast.InList:
        return _collect_refs(expr.operand, scope, out) and all(
            _collect_refs(item, scope, out) for item in expr.items
        )
    if kind is ast.Between:
        return (
            _collect_refs(expr.operand, scope, out)
            and _collect_refs(expr.low, scope, out)
            and _collect_refs(expr.high, scope, out)
        )
    if kind is ast.FunctionCall and not expr.is_aggregate:
        return all(_collect_refs(arg, scope, out) for arg in expr.args)
    return False


def referenced_positions(
    exprs: Sequence[ast.Expression], scope: Scope
) -> Optional[frozenset]:
    """Scope positions read by ``exprs``, or None when unknowable (any
    construct the walker cannot see through forces all-live)."""
    out: set = set()
    for expr in exprs:
        if not _collect_refs(expr, scope, out):
            return None
    return frozenset(out)


def _pivot_columns(columns: Sequence, count: int) -> list:
    """Pivot columns of any form into row tuples of plain Python values
    (the row boundary), tolerant of pruned (None) columns: dead positions
    pivot as NULL.  Safe because dead means no consumer of these rows
    reads that position — liveness sets are supersets of every
    expression's references by construction."""
    if not columns:
        return [()] * count
    source = [
        repeat(NULL) if column is None else as_list(column)
        for column in columns
    ]
    if any(column is None for column in columns):
        return list(islice(zip(*source), count))
    return list(zip(*source))


def _pivot_rows(batch: ColumnBatch) -> list:
    """``batch.rows()`` tolerant of pruned (None) columns."""
    return _pivot_columns(batch.columns, batch.num_rows)


class VectorOperator(PhysicalOperator):
    """Base for operators yielding ColumnBatches.

    A region the binder marks is pure electronic, so eager batch pulls
    there can never issue crowd work.  Row input enters through a
    :class:`RowsToBatchOp`, under an operator that reads it whole
    (aggregate, sort, a join's build side) or one row per batch where
    the rows below source crowd work on pull (a join's probe side, the
    inputs of a DISTINCT, a set operation or a derived table).
    ``sources_crowd_on_pull`` relays through the transitions, the join,
    the set operations and the alias; a scan answers False, and so do
    the aggregate and the sort, which consume their input entirely
    either way.

    Column pruning: a consumer that knows which of this operator's
    output positions it reads calls :meth:`set_live` with that set;
    positions outside it are *dead* and materialize as ``None`` columns
    (never gathered, never copied).  The default — no call — is
    all-live, so the region cap (:class:`BatchToRowsOp`) always sees
    fully materialized batches.  Operators that narrow their input on
    their own (aggregate, project) seed the propagation; pass-through
    operators (filter, join, alias) relay, widening by whatever their
    own expressions read; a DISTINCT or set operation, which compares
    every column, stops it."""

    _live: Optional[frozenset] = None  # None = every position live

    def set_live(self, live: Optional[frozenset]) -> None:
        self._live = live

    def column_kernel(self, expr: ast.Expression, scope: Scope) -> tuple:
        """``(True, column kernel)`` for ``expr`` over ``scope``, or
        ``(False, row closure)`` when it is outside the kernel subset
        (counted as a fallback of this operator); prepared once when
        ``expr`` is static."""
        return self.compile_kernel("column", expr, scope, self._column_or_row)

    def _column_or_row(
        self, expr: ast.Expression, scope: Scope, parameters: tuple
    ) -> tuple:
        try:
            return True, compile_column_kernel(expr, scope, parameters)
        except CannotVectorize:
            note_fallback(type(self).__name__)
            return False, self.compile_value(expr, scope)


class BatchToRowsOp(PhysicalOperator):
    """The batch→row transition capping every vectorized region.

    Values inside batches use the same in-band NULL/CNULL representation
    as row tuples, so the transition is a pivot (ndarray and coded
    columns become lists here, and only here) — crowd filters, crowd
    joins/sorts, stop-after bounds, and batch-window semantics above it
    observe bit-identical rows.
    """

    def __init__(
        self, context: ExecutionContext, child: VectorOperator
    ) -> None:
        super().__init__(context)
        self.child = child

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def __iter__(self) -> Iterator[tuple]:
        # lazy per batch, no Python frame per row: a consumer that drains
        # the region (the executor's ``extend``) pays one pivot per batch
        return chain.from_iterable(map(_pivot_rows, self.child))


class RowsToBatchOp(VectorOperator):
    """The row→batch transition under a batch operator whose input the
    vector region does not reach (crowd operators, index lookups,
    correlated subqueries).

    Rows become untagged list columns, so every kernel takes its exact
    element-wise path.  An aggregate, a sort and a join's build side read
    their whole input whichever way it is cut, so the pull changes no
    crowd work below.  One row per batch (``per_row``) serves an input
    that streams rows sourcing crowd work on pull -- a join's probe side,
    a DISTINCT's, a set operation's or a derived table's input: a LIMIT
    above then pulls no more of it than a row-at-a-time loop would --
    and a consumer that evaluates CROWDEQUAL or a subquery per row: those
    calls then interleave with the rows pulled from below as in a
    row-at-a-time loop, key before arguments."""

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        per_row: bool = False,
    ) -> None:
        super().__init__(context)
        self.child = child
        self.per_row = per_row

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def __iter__(self) -> Iterator[ColumnBatch]:
        width = len(self.child.scope)
        size = 1 if self.per_row else VECTOR_ROWS
        rows = iter(self.child)
        while True:
            chunk = list(islice(rows, size))
            if not chunk:
                return
            yield ColumnBatch.from_rows(chunk, width)


class VectorScanOp(VectorOperator):
    """Columnar scan of a non-crowd heap table.

    Cleanliness tags are derived from the table's live statistics at
    iteration time — never at plan/bind time, because cached plans
    outlive inserts that introduce NULLs (the plan-cache epoch does not
    fold row counts).  Each batch carries the lanes of the table version
    it read (:class:`~repro.exec.vector.ColumnLanes`), so statements over
    an unchanged table share their typed forms of the stored columns.
    """

    def __init__(
        self, context: ExecutionContext, table: TableSchema, binding: str
    ) -> None:
        super().__init__(context)
        self.table = table
        self.binding = binding
        self._scope = Scope.for_table(binding, table.column_names)

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        return False  # stored tuples of an electronic table only

    def __iter__(self) -> Iterator[ColumnBatch]:
        heap = self.context.engine.table(self.table.name)
        # columns and tags read one heap version: one thread runs the
        # engine at a time (the scheduler's baton, or the TCP pump), and
        # nothing between these two calls yields it
        stored, total = heap.scan_columns()
        store = heap.column_lanes()
        tags = _scan_tags(heap)
        dictionary = _dictionary_ordinals(heap, tags, total)
        live = self._live
        columns = stored
        if live is not None:
            columns = [
                column if i in live else None
                for i, column in enumerate(stored)
            ]
        yielded = 0
        try:
            if total == 0:
                return
            for start in range(0, total, VECTOR_ROWS):
                stop = min(start + VECTOR_ROWS, total)
                yielded = stop
                # one window is the whole table: hand the heap's cached
                # column lists straight to the batch (consumers never
                # mutate batch columns); more are slices, lanes with them
                window = columns if stop - start == total else [
                    None if column is None else column[start:stop]
                    for column in columns
                ]
                batch = ColumnBatch(window, stop - start, tags)
                batch.lanes = ColumnLanes(
                    store, stored, tags, dictionary, window, start,
                    stop - start,
                )
                yield batch
        finally:
            self.context.rows_scanned += yielded


def _dictionary_ordinals(heap, tags: list, total: int) -> frozenset:
    """Clean string columns whose statistics show few distinct values."""
    if _np is None or total < LANE_ROWS:
        return frozenset()
    return frozenset(
        ordinal
        for ordinal, column in enumerate(heap.schema.columns)
        if tags[ordinal] == TAG_STR
        and heap.statistics.column(column.name).distinct_count
        * DICTIONARY_ROWS_PER_VALUE <= total
    )


def _scan_tags(heap) -> list[Optional[str]]:
    """Per-column cleanliness tags from live statistics + schema types."""
    tags: list[Optional[str]] = []
    for column in heap.schema.columns:
        try:
            stats = heap.statistics.column(column.name)
        except KeyError:
            tags.append(None)
            continue
        if stats.null_count or stats.cnull_count:
            tags.append(None)
        elif column.sql_type is SQLType.INTEGER:
            tags.append(TAG_INT)
        elif column.sql_type is SQLType.FLOAT:
            # storage coerces every write to a FLOAT column through
            # float() (heap.prepare_values/set_value), so the column
            # holds only exact Python floats
            tags.append(TAG_FLOAT)
        elif column.sql_type is SQLType.STRING:
            tags.append(TAG_STR)
        else:  # BOOLEAN: bools must take compare_values paths
            tags.append(None)
    return tags


class VectorFilterOp(VectorOperator):
    """Column-at-a-time filter: mask kernel + one selection pass."""

    def __init__(
        self,
        context: ExecutionContext,
        child: VectorOperator,
        predicate: ast.Expression,
    ) -> None:
        super().__init__(context)
        self.child = child
        self.predicate_expr = predicate
        self._pred_refs = referenced_positions((predicate,), child.scope)

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def set_live(self, live: Optional[frozenset]) -> None:
        # relay: output positions are input positions, widened by what
        # the predicate itself reads
        self._live = live
        if live is None or self._pred_refs is None:
            self.child.set_live(None)
        else:
            self.child.set_live(live | self._pred_refs)

    def _dead(self, column, position: int) -> bool:
        live = self._live
        return column is None or (live is not None and position not in live)

    def _mask_or_rows(
        self, expr: ast.Expression, scope: Scope, parameters: tuple
    ):
        try:
            return compile_mask_kernel(expr, scope, parameters)
        except CannotVectorize:
            # whole-expression fallback: the row-compiled closure mapped
            # over the batch — exactly the row engine's chunked loop
            note_fallback(type(self).__name__)
            row_predicate = self.compile_predicate(expr, scope)
            return lambda batch: (
                [row_predicate(values).value for values in _pivot_rows(batch)],
                False,
            )

    def __iter__(self) -> Iterator[ColumnBatch]:
        kernel = self.compile_kernel(
            "mask", self.predicate_expr, self.child.scope, self._mask_or_rows
        )
        for batch in self.child:
            mask, clean = kernel(batch)
            if clean and type(mask) is not list:
                # ndarray mask from the numeric lanes: select by index,
                # and every column keeps its form (see ``take``)
                indices = _np.flatnonzero(mask)
                kept = len(indices)
                if kept == 0:
                    continue
                if kept == batch.num_rows:
                    yield batch
                    continue
                lanes = batch.lanes
                yield ColumnBatch(
                    [
                        None if self._dead(column, position)
                        else take(column, indices, lanes)
                        for position, column in enumerate(batch.columns)
                    ],
                    kept,
                    batch.tags,
                )
                continue
            selection = mask if clean else [value is True for value in mask]
            kept = selection.count(True)
            if kept == 0:
                continue
            if kept == batch.num_rows:
                yield batch
                continue
            rows: Optional[list] = None  # kept row indices, for typed columns
            out_columns = []
            for position, column in enumerate(batch.columns):
                if self._dead(column, position):
                    out_columns.append(None)
                elif type(column) is list:
                    out_columns.append(list(compress(column, selection)))
                else:
                    if rows is None:
                        rows = list(compress(range(batch.num_rows), selection))
                    out_columns.append(take(column, rows))
            yield ColumnBatch(out_columns, kept, batch.tags)


class VectorProjectOp(VectorOperator):
    """Vectorwise projection; falls back per item, not per operator."""

    def __init__(
        self,
        context: ExecutionContext,
        child: VectorOperator,
        items: tuple[tuple[ast.Expression, str], ...],
    ) -> None:
        super().__init__(context)
        self.child = child
        self.items = items
        self._scope = Scope([("", name) for _expr, name in items])
        # projection consumes only what its expressions read — seed the
        # downward liveness propagation even with no consumer hint
        self.set_live(None)

    @property
    def scope(self) -> Scope:
        return self._scope

    def set_live(self, live: Optional[frozenset]) -> None:
        self._live = live
        needed = [
            expr
            for position, (expr, _name) in enumerate(self.items)
            if live is None or position in live
        ]
        self.child.set_live(referenced_positions(needed, self.child.scope))

    def __iter__(self) -> Iterator[ColumnBatch]:
        child_scope = self.child.scope
        live = self._live
        kernels = [
            (None, None) if live is not None and position not in live
            else self.column_kernel(expr, child_scope)
            for position, (expr, _name) in enumerate(self.items)
        ]
        for batch in self.child:
            columns: list = []
            tags: list = []
            rows: Optional[list] = None
            for vectorized, kernel in kernels:
                if vectorized is None:  # dead output position
                    column, tag = None, None
                elif vectorized:
                    column, tag = kernel(batch)
                else:
                    if rows is None:
                        rows = _pivot_rows(batch)
                    column = [kernel(values) for values in rows]
                    tag = None
                columns.append(column)
                tags.append(tag)
            out_batch = ColumnBatch(columns, batch.num_rows, tags)
            # column references pass input columns through as-is
            out_batch.lanes = batch.lanes
            yield out_batch


class VectorSortOp(VectorOperator):
    """ORDER BY over batches: every sort with no CROWDORDER key.

    The input is one batch (several are joined); key columns come from
    column kernels (a key they cannot take -- a subquery, CROWDEQUAL, an
    outer reference of a correlated subquery -- from the row closure,
    key by key over all rows), and :func:`~repro.exec.sort.sort_order`
    turns them into the row order.  Only the first ``top_k`` rows are
    gathered."""

    def __init__(
        self,
        context: ExecutionContext,
        child: VectorOperator,
        keys: tuple[tuple[ast.Expression, bool], ...],
        top_k: Optional[int] = None,
    ) -> None:
        super().__init__(context)
        self.child = child
        self.keys = keys
        self.top_k = top_k
        self._key_refs = referenced_positions(
            [expr for expr, _ascending in keys], child.scope
        )

    @property
    def scope(self) -> Scope:
        return self.child.scope

    def sources_crowd_on_pull(self) -> bool:
        return False  # the input is read whole on first pull

    def set_live(self, live: Optional[frozenset]) -> None:
        # relay, widened by what the keys read
        self._live = live
        if live is None or self._key_refs is None:
            self.child.set_live(None)
        else:
            self.child.set_live(live | self._key_refs)

    def __iter__(self) -> Iterator[ColumnBatch]:
        batch = _concat_batches(list(self.child))
        if batch is None:
            return
        evaluate = column_evaluator(
            self, [expr for expr, _ascending in self.keys], self.child.scope
        )
        key_columns, key_tags = evaluate(batch)
        order = sort_order(
            key_columns,
            key_tags,
            [ascending for _expr, ascending in self.keys],
            self.top_k,
            batch,
        )
        live = self._live
        yield ColumnBatch(
            [
                None
                if column is None or (live is not None and position not in live)
                else take(column, order)
                for position, column in enumerate(batch.columns)
            ],
            len(order),
            batch.tags,
        )


class VectorLimitOp(VectorOperator):
    """Stop-after over batches: skip ``offset`` rows, keep ``limit``.

    Like the row ``LimitOp`` it pulls its input until the bound is met
    (the first batch even under ``LIMIT 0``), never further."""

    def __init__(
        self,
        context: ExecutionContext,
        child: VectorOperator,
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

    def set_live(self, live: Optional[frozenset]) -> None:
        self._live = live
        self.child.set_live(live)

    def __iter__(self) -> Iterator[ColumnBatch]:
        skip = self.offset
        remaining = self.limit  # None: unbounded
        for batch in self.child:
            if remaining is not None and remaining <= 0:
                return
            rows = batch.num_rows
            if skip >= rows:
                skip -= rows
                continue
            stop = rows if remaining is None else min(rows, skip + remaining)
            if skip == 0 and stop == rows:
                yield batch
            else:
                yield ColumnBatch(
                    [
                        None if column is None
                        else Coded(column.codes[skip:stop], column.values)
                        if type(column) is Coded
                        else column[skip:stop]
                        for column in batch.columns
                    ],
                    stop - skip,
                    batch.tags,
                )
            if remaining is not None:
                remaining -= stop - skip
                if remaining <= 0:
                    return
            skip = 0


def _concat_batches(batches: list) -> Optional[ColumnBatch]:
    """One batch holding ``batches`` in order (None for none): the batch
    itself when there is one, else joined columns whose tags survive
    where every batch agrees."""
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    columns: list = []
    tags: list = []
    for position, tag in enumerate(batches[0].tags):
        parts = [batch.columns[position] for batch in batches]
        columns.append(
            None if any(part is None for part in parts)
            else list(chain.from_iterable(map(as_list, parts)))
        )
        tags.append(
            tag if all(batch.tags[position] == tag for batch in batches)
            else None
        )
    return ColumnBatch(
        columns, sum(batch.num_rows for batch in batches), tags
    )


def column_evaluator(
    operator: VectorOperator,
    exprs: Sequence[ast.Expression],
    scope: Scope,
):
    """Per-batch evaluator of ``exprs`` over ``scope``: batch -> (one
    column per expression, their tags).  An expression outside the
    kernel subset runs ``operator``'s row closure over the pivoted
    batch (tag None)."""
    kernels = [operator.column_kernel(expr, scope) for expr in exprs]

    def evaluate(batch: ColumnBatch) -> tuple[list, list]:
        columns = []
        tags = []
        rows: Optional[list] = None
        for vectorized, kernel in kernels:
            if vectorized:
                column, tag = kernel(batch)
            else:
                if rows is None:
                    rows = _pivot_rows(batch)
                column = [kernel(values) for values in rows]
                tag = None
            columns.append(column)
            tags.append(tag)
        return columns, tags

    return evaluate


class VectorSetOp(VectorOperator):
    """DISTINCT and UNION [ALL] / EXCEPT / INTERSECT over batches, with
    SQL set semantics: DISTINCT is a UNION of one input (``right`` None),
    and UNION ALL concatenates its inputs' batches.

    The others stream: the rows of each input batch not seen before come
    out, in input order, as one gathered batch before the next batch is
    pulled.  Over rows that source crowd work on pull the planner feeds
    one row per batch, so a LIMIT above pulls no more than a
    row-at-a-time loop would.  EXCEPT and INTERSECT read the right
    input's rows whole before the first left batch.  Rows compare as
    tuples of values, as GROUP BY compares its keys.  The keys span
    every column, so a consumer's :meth:`set_live` goes no further."""

    def __init__(
        self,
        context: ExecutionContext,
        left: VectorOperator,
        right: Optional[VectorOperator],
        op: str,
    ) -> None:
        super().__init__(context)
        self.left = left
        self.right = right
        self.op = op

    @property
    def scope(self) -> Scope:
        return self.left.scope

    def __iter__(self) -> Iterator[ColumnBatch]:
        if self.op == "UNION ALL":
            yield from self.left
            yield from self.right
            return
        seen: set = set()
        wanted: Optional[set] = None  # INTERSECT: the right side's rows
        inputs = [self.left]
        if self.op == "UNION":
            if self.right is not None:
                inputs.append(self.right)
        else:
            right = {
                row for batch in self.right for row in _pivot_rows(batch)
            }
            if self.op == "EXCEPT":
                seen = right
            else:
                wanted = right
        for batch in chain.from_iterable(inputs):
            keep = []
            for index, row in enumerate(_pivot_rows(batch)):
                if row in seen or (wanted is not None and row not in wanted):
                    continue
                seen.add(row)
                keep.append(index)
            if len(keep) == batch.num_rows:
                yield batch
            elif keep:
                yield ColumnBatch(
                    [
                        None if column is None else take(column, keep)
                        for column in batch.columns
                    ],
                    len(keep),
                    batch.tags,
                )


class VectorAliasOp(VectorOperator):
    """A derived table: its input's batches as they are, under the scope
    its alias renames."""

    def __init__(
        self, context: ExecutionContext, child: VectorOperator, alias: str
    ) -> None:
        super().__init__(context)
        self.child = child
        self._scope = child.scope.rename(alias)

    @property
    def scope(self) -> Scope:
        return self._scope

    def set_live(self, live: Optional[frozenset]) -> None:
        self._live = live
        self.child.set_live(live)

    def __iter__(self) -> Iterator[ColumnBatch]:
        return iter(self.child)


class VectorHashJoinOp(VectorOperator):
    """The one electronic join: INNER, LEFT and CROSS, over batches.

    Build/probe keys come from column kernels over the extracted equi
    keys; a join without one (CROSS, or a theta condition) has a single
    bucket, every build row, and probes in slices of about
    ``VECTOR_ROWS`` candidate pairs.  Each probe row's candidates come in
    build order -- left-major, right-minor output -- with missing keys
    skipped, the condition checked on each candidate and unmatched LEFT
    rows padded with NULLs, whether a probe looks its keys up in the
    build dict or searches a :class:`_SortedKeys`.  The condition is skipped
    only when there is none, or when it *is* the single extracted key
    equality and both key columns are clean (no bools/missing -- then
    bucket equality and the compiled ``=`` agree, including the NaN
    identity-bucket corner).

    The build side is read whole before the first probe.  A condition
    holding CROWDEQUAL or a subquery runs per candidate, and each row it
    decides (or each LEFT pad) is yielded at once, in a batch of its own:
    a consumer that stops never has the crowd asked about a candidate it
    would not read.
    """

    def __init__(
        self,
        context: ExecutionContext,
        left: VectorOperator,
        right: VectorOperator,
        left_keys: tuple[ast.Expression, ...],
        right_keys: tuple[ast.Expression, ...],
        condition: Optional[ast.Expression] = None,
        join_type: str = "INNER",
    ) -> None:
        super().__init__(context)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.condition = condition
        self.join_type = join_type
        self._scope = left.scope.concat(right.scope)
        self._left_out: Optional[frozenset] = None
        self._right_out: Optional[frozenset] = None

    def sources_crowd_on_pull(self) -> bool:
        # the build side is read whole on first pull either way; the
        # probe side -- and a crowd condition, asked per candidate --
        # react to extra pulls
        return (
            self.condition is not None
            and not self.condition.facts.electronic
        ) or self.left.sources_crowd_on_pull()

    @property
    def scope(self) -> Scope:
        return self._scope

    def set_live(self, live: Optional[frozenset]) -> None:
        # relay: children must materialize what the consumer reads plus
        # what the key expressions and the residual condition read (the
        # residual-skip decision is runtime, so plan for the worst);
        # the operator's own output gathers honor the consumer's
        # positions alone — they run only on the residual-skip path
        self._live = live
        left_width = len(self.left.scope)
        if live is None:
            self._left_out = self._right_out = None
        else:
            self._left_out = frozenset(p for p in live if p < left_width)
            self._right_out = frozenset(
                p - left_width for p in live if p >= left_width
            )
        need = live
        if need is not None and self.condition is not None:
            cond_refs = referenced_positions((self.condition,), self._scope)
            need = None if cond_refs is None else need | cond_refs
        if need is None:
            left_need = right_need = None
        else:
            left_need = frozenset(p for p in need if p < left_width)
            right_need = frozenset(
                p - left_width for p in need if p >= left_width
            )
        left_keys = referenced_positions(self.left_keys, self.left.scope)
        right_keys = referenced_positions(self.right_keys, self.right.scope)
        self.left.set_live(
            None
            if left_need is None or left_keys is None
            else left_need | left_keys
        )
        self.right.set_live(
            None
            if right_need is None or right_keys is None
            else right_need | right_keys
        )

    def __iter__(self) -> Iterator[ColumnBatch]:
        keyed = bool(self.left_keys)
        single = len(self.left_keys) == 1
        build_keys = column_evaluator(self, self.right_keys, self.right.scope)
        probe_keys = column_evaluator(self, self.left_keys, self.left.scope)
        condition = (
            self.compile_predicate(self.condition, self._scope)
            if self.condition is not None
            else None
        )
        stream = condition is not None and not self.condition.facts.electronic
        # residual ≡ the key equality itself → skippable on clean keys
        condition_is_key_equality = (
            single
            and isinstance(self.condition, ast.BinaryOp)
            and self.condition.op == "="
        )

        # Build side stored column-major with the hash table mapping key
        # → build row index (int) or list of indices for duplicate keys.
        # Bucket contents stay in insertion order, so candidate emission
        # order matches the row operator exactly.
        right_width = len(self.right.scope)
        build_clean = True
        right_tags: Optional[list] = None
        built: list[tuple] = []  # (batch, its keys, first key's tag)
        for batch in self.right:
            keys = tag = None
            if keyed:
                key_columns, key_tags = build_keys(batch)
                build_clean = build_clean and None not in key_tags
                keys = (
                    key_columns[0] if single
                    else list(zip(*map(as_list, key_columns)))
                )
                tag = key_tags[0]
            if right_tags is None:
                right_tags = list(batch.tags)
            elif right_tags != batch.tags:
                right_tags = [
                    a if a == b else None
                    for a, b in zip(right_tags, batch.tags)
                ]
            built.append((batch, keys, tag))
        table: Optional[dict] = {}
        searchable: Optional[_SortedKeys] = None
        build: Optional[ColumnBatch] = None
        if len(built) == 1:
            # the whole build side arrived in one batch: adopt its
            # columns zero-copy instead of re-accumulating them, and its
            # lanes (the build index of an unfiltered stored key, numpy
            # gathers)
            build, keys, tag = built[0]
            right_columns: list = build.columns
            if not keyed:
                unique_build = False
            elif single:
                index = _single_key_index(build, keys, tag)
                if type(index) is _SortedKeys:
                    searchable, table = index, None
                    unique_build = index.unique
                else:
                    table, unique_build = index
            else:
                unique_build = _add_build_rows(table, keys, 0, False)
            offset = build.num_rows
        else:
            unique_build = keyed
            offset = 0
            right_columns = [[] for _ in range(right_width)]
            for batch, keys, _tag in built:
                if keyed:
                    unique_build = _add_build_rows(
                        table, as_list(keys) if single else keys, offset,
                        single,
                    ) and unique_build
                offset += batch.num_rows
                for j, column in enumerate(batch.columns):
                    if column is None:
                        right_columns[j] = None  # pruned upstream
                    elif right_columns[j] is not None:
                        right_columns[j].extend(as_list(column))
        del built
        # a keyless join's one bucket: every build row, in build order
        everything = None if keyed or not offset else list(range(offset))
        left_outer = self.join_type == "LEFT"
        padding = (NULL,) * right_width
        width = len(self._scope)
        right_rows: Optional[list] = None  # lazy pivot, residual path only
        # output positions the consumer actually reads (None = all); the
        # skip-residual gather paths leave everything else as pruned
        # (None) columns so we never copy values nobody will look at
        left_out = self._left_out
        right_out = self._right_out
        if right_tags is None:
            right_tags = [None] * right_width
        no_tags = [None] * right_width

        def output(
            batch: ColumnBatch, columns: list, rows: int, padded: bool
        ) -> ColumnBatch:
            """The output batch: right columns keep their tags when every
            row came from a build row; padding NULLs move the tags beside
            them, to ``pad_tags`` (a fold can drop the padding)."""
            out_batch = ColumnBatch(
                columns, rows,
                list(batch.tags) + (no_tags if padded else right_tags),
            )
            if padded:
                out_batch.pad_tags = [None] * len(batch.tags) + right_tags
            return out_batch

        padded_sources: dict = {}  # build column j as a list, built once

        def gather_right(indices: list, padded: bool) -> list:
            """Build-side output columns for the given build-row indices
            (``None`` entries mean pad with NULL when ``padded``).  Dead
            and non-consumed columns come back as ``None``; a padded
            column is a list, any other keeps its form (``take``)."""
            out: list = []
            for j, column in enumerate(right_columns):
                if column is None or (
                    right_out is not None and j not in right_out
                ):
                    out.append(None)
                elif padded:
                    values = padded_sources.get(j)
                    if values is None:
                        values = padded_sources[j] = as_list(column)
                    out.append(
                        [NULL if e is None else values[e] for e in indices]
                    )
                else:
                    out.append(take(column, indices))
            return out

        def searched(batch: ColumnBatch, probe) -> Optional[ColumnBatch]:
            """The output for an int64 probe key lane: index vectors from
            the sorted build keys, and every column gathered by them in
            its typed form -- padded columns as lists."""
            probe_rows, build_rows, pad = searchable.probe(probe, left_outer)
            produced = len(probe_rows)
            if produced == 0:
                return None
            if produced == batch.num_rows and (
                left_outer or searchable.unique
            ):
                out_left = batch.columns  # one row per probe row, in order
            else:
                out_left = _take_columns(batch, left_out, probe_rows)
            out_right = _take_columns(build, right_out, build_rows)
            if pad is not None:
                # padded rows took build row 0: they read NULL
                padded_rows = pad.tolist()
                out_right = [
                    None if column is None else as_list(column)
                    for column in out_right
                ]
                for column in out_right:
                    if column is not None:
                        for i in padded_rows:
                            column[i] = NULL
            out_batch = output(
                batch, out_left + out_right, produced, pad is not None
            )
            if out_left is batch.columns:
                out_batch.lanes = batch.lanes  # probe columns as-is
            return out_batch

        probe = self.left
        if everything is not None:
            # each probe row pairs with every build row: probe in slices
            # of about VECTOR_ROWS pairs, so one step's index vectors and
            # condition checks stay batch-sized, and a consumer that stops
            # stops the pairing with it
            probe = _sliced(self.left, max(1, VECTOR_ROWS // offset))
        for batch in probe:
            key_columns, probe_tags = probe_keys(batch)
            skip_residual = condition is None or (
                condition_is_key_equality
                and None not in probe_tags
                and build_clean
            )
            if searchable is not None and skip_residual and (
                probe_tags[0] == TAG_INT
            ):
                probe = _ndcolumn(batch, key_columns[0], TAG_INT)
                if probe is not None:
                    out_batch = searched(batch, probe)
                    if out_batch is not None:
                        yield out_batch
                    continue
            if table is None:
                table = searchable.table()
            get_entry = table.get
            # Resolve every probe key to its table entry (None, a build
            # row index, or a bucket list) in one C map() pass.  Missing
            # keys need no pre-check: the build side never stored a key
            # with a missing part, so their lookup just misses.
            if not keyed:
                entries = [everything] * batch.num_rows
            elif single:
                entries = list(map(get_entry, as_list(key_columns[0])))
            else:
                entries = list(
                    map(get_entry, zip(*map(as_list, key_columns)))
                )
            if skip_residual:
                # Gather path: slice output columns straight from the
                # probe batch and the build-side column store — no
                # per-row tuple concatenation or re-pivot.
                if unique_build:
                    misses = entries.count(None)
                    if misses == 0 or left_outer:
                        # one output row per probe row (match or pad):
                        # the left columns pass through zero-copy
                        out_left = batch.columns
                        indices = entries
                        produced = batch.num_rows
                    else:
                        kept = [
                            i for i, e in enumerate(entries) if e is not None
                        ]
                        out_left = _take_columns(batch, left_out, kept)
                        indices = [entries[i] for i in kept]
                        produced = len(indices)
                    if produced == 0:
                        continue
                    padded = left_outer and misses > 0
                    out_right = gather_right(indices, padded)
                    out_batch = output(
                        batch, out_left + out_right, produced, padded
                    )
                    out_batch.lanes = batch.lanes  # probe columns as-is
                    yield out_batch
                    continue
                probe_indices: list[int] = []
                build_indices: list = []
                index_append = probe_indices.append
                build_append = build_indices.append
                padded = False
                for i, entry in enumerate(entries):
                    if entry is None:
                        if left_outer:
                            padded = True
                            index_append(i)
                            build_append(None)
                    elif type(entry) is int:
                        index_append(i)
                        build_append(entry)
                    else:
                        # duplicate-key bucket: replicate the probe index
                        # and splice the bucket in two C extends instead
                        # of a Python append per candidate
                        probe_indices.extend([i] * len(entry))
                        build_indices.extend(entry)
                if not probe_indices:
                    continue
                out_columns = _take_columns(batch, left_out, probe_indices)
                out_columns.extend(gather_right(build_indices, padded))
                yield output(batch, out_columns, len(probe_indices), padded)
                continue
            if right_rows is None:
                right_rows = _pivot_columns(right_columns, offset)
            tags = list(batch.tags) + (no_tags if left_outer else right_tags)
            decided = _checked_rows(
                entries, _pivot_rows(batch), right_rows, condition,
                padding if left_outer else None,
            )
            if stream:
                # a crowd condition: each decided row at once, in a batch
                # of its own
                for row in decided:
                    yield ColumnBatch.from_rows([row], width, tags)
                continue
            out_rows = list(decided)
            if out_rows:
                yield ColumnBatch.from_rows(out_rows, width, tags)


def _sliced(batches, rows: int) -> Iterator[ColumnBatch]:
    """``batches`` in windows of at most ``rows`` rows: a batch that fits
    as it is, a longer one as slices of its columns (without its lanes,
    which belong to the whole window)."""
    for batch in batches:
        total = batch.num_rows
        if total <= rows:
            yield batch
            continue
        for start in range(0, total, rows):
            stop = min(start + rows, total)
            part = ColumnBatch(
                [_rows_of(column, start, stop) for column in batch.columns],
                stop - start,
                batch.tags,
            )
            part.pad_tags = batch.pad_tags
            yield part


def _rows_of(column, start: int, stop: int):
    """Rows ``start:stop`` of a batch column, in its form."""
    if type(column) is Coded:
        return Coded(column.codes[start:stop], column.values)
    return None if column is None else column[start:stop]


def _checked_rows(
    entries: list, rows: list, right_rows: list, condition,
    padding: Optional[tuple],
) -> Iterator[tuple]:
    """The rows a join emits for probe ``rows``: each one's candidates
    (``entries``: None, a build row index or a list of them) joined in
    order and kept where ``condition`` is TRUE; with ``padding`` (LEFT),
    a row with no candidate kept is padded instead."""
    for entry, left_values in zip(entries, rows):
        matched = False
        if entry is not None:
            for e in (entry,) if type(entry) is int else entry:
                combined = left_values + right_rows[e]
                if condition(combined).value is True:
                    matched = True
                    yield combined
        if padding is not None and not matched:
            yield left_values + padding


def _take_columns(
    batch: ColumnBatch, live: Optional[frozenset], rows
) -> list:
    """``batch``'s columns at the row indices ``rows`` (a list, or an
    ndarray), each in its typed form (``take``); dead and unread columns
    stay None."""
    lanes = batch.lanes
    return [
        None
        if column is None or (live is not None and j not in live)
        else take(column, rows, lanes)
        for j, column in enumerate(batch.columns)
    ]


def _add_build_rows(table: dict, keys, offset: int, single: bool) -> bool:
    """Add build rows ``offset, offset + 1, ...`` under ``keys`` (values
    of one key column, or key tuples) to ``table``: key -> row index, or
    a list of indices in row order for a duplicate key; missing keys are
    skipped.  Returns False once any key has two rows."""
    get_entry = table.get
    unique = True
    for i, key in enumerate(keys, start=offset):
        if single:
            if key is NULL or key is None or key is CNULL:
                continue
        elif any(is_missing(part) for part in key):
            continue
        existing = get_entry(key)
        if existing is None:
            table[key] = i
        elif type(existing) is int:
            table[key] = [existing, i]
            unique = False
        else:
            existing.append(i)
    return unique


def _single_key_index(batch: ColumnBatch, keys: list, tag: Optional[str]):
    """The index over the one key column of a one-batch build side: a
    :class:`_SortedKeys` for a large clean integer key, else ``(table,
    unique)``.  An unfiltered stored column keeps its index for the table
    version (the ``"join"`` lane)."""

    def build(column):
        if tag == TAG_INT and len(column) >= LANE_ROWS:
            arr = _ndcolumn(batch, column, tag)
            if arr is not None:
                return _SortedKeys(arr)
        table: dict = {}
        return table, _add_build_rows(table, as_list(column), 0, True)

    lanes = batch.lanes
    built = lanes.join_table(keys, build) if lanes is not None else None
    return built if built is not None else build(keys)


class _SortedKeys:
    """An int64 build key lane in stable sorted order: equal keys
    adjacent, their rows in row order -- the buckets of
    :func:`_add_build_rows`, as arrays a probe lane searches.

    The order is an LSD radix sort of ``key - min`` (wrapping, as uint64)
    in 16-bit digits: numpy's stable argsort of a ``uint16`` digit is a
    linear radix pass, and a key span below ``2**16`` takes one pass, any
    span at most four.  It equals ``argsort(arr, kind="stable")``."""

    __slots__ = ("order", "keys", "unique", "_table")

    def __init__(self, arr) -> None:
        lowest = arr.min(keepdims=True).view(_np.uint64)
        offsets = arr.view(_np.uint64) - lowest
        order = _np.argsort(offsets.astype(_np.uint16), kind="stable")
        for shift in range(16, int(offsets.max()).bit_length(), 16):
            digit = (offsets[order] >> shift).astype(_np.uint16)
            order = order[_np.argsort(digit, kind="stable")]
        self.order = order
        self.keys = arr[order]
        self.unique = not (self.keys[1:] == self.keys[:-1]).any()
        self._table: Optional[dict] = None

    def probe(self, probe, left_outer: bool):
        """``(probe rows, build rows, padded output rows or None)`` for
        the int64 ``probe`` keys: probe rows in order, each one's matches
        in build row order, as the dict buckets emit them; under
        ``left_outer`` an unmatched probe row emits one padded row (build
        row 0, to be read as NULL)."""
        keys = self.keys
        low = keys.searchsorted(probe, "left")
        matches = keys.searchsorted(probe, "right") - low
        emit = _np.maximum(matches, 1) if left_outer else matches
        ends = _np.cumsum(emit)
        total = int(ends[-1]) if len(ends) else 0
        probe_rows = _np.repeat(_np.arange(len(probe)), emit)
        positions = (
            _np.arange(total)
            - _np.repeat(ends - emit, emit)
            + _np.repeat(low, emit)
        )
        pad = None
        if left_outer and total > int(matches.sum()):
            pad = _np.flatnonzero(_np.repeat(matches == 0, emit))
            positions[pad] = 0
        return probe_rows, self.order[positions], pad

    def table(self) -> dict:
        """What :func:`_add_build_rows` builds over the same keys, for
        probes that cannot search (an untagged or residual-checked probe
        key); built once."""
        if self._table is None:
            ordered = self.keys
            starts = _np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            keys = ordered[_np.concatenate(([0], starts))].tolist()
            rows = self.order.tolist()
            if self.unique:
                self._table = dict(zip(keys, rows))
            else:
                bounds = [0, *starts.tolist(), len(rows)]
                self._table = {
                    key: rows[low] if high - low == 1 else rows[low:high]
                    for key, low, high in zip(keys, bounds, bounds[1:])
                }
        return self._table


class _Accumulator:
    """State for one aggregate function within one group."""

    def __init__(self, call: ast.FunctionCall) -> None:
        self.name = call.name.upper()
        self.distinct = call.distinct
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self._seen: set = set()
        # branch flags hoisted out of the per-row add() path
        self._sums = self.name in ("SUM", "AVG")
        self._wants_min = self.name == "MIN"
        self._wants_max = self.name == "MAX"

    def add(self, value: Any) -> None:
        if value is NULL or value is None or value is CNULL:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self.count += 1
        if self._sums:
            value_type = type(value)
            if value_type is not int and value_type is not float and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ExecutionError(f"{self.name} needs numeric input")
            self.total = value if self.total is None else self.total + value
        elif self._wants_min:
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif self._wants_max:
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def result(self) -> Any:
        if self.name == "COUNT":
            return self.count
        if self.name == "SUM":
            return NULL if self.total is None else self.total
        if self.name == "AVG":
            return NULL if self.total is None else self.total / self.count
        if self.name in ("MIN", "MAX"):
            return NULL if self.extreme is None else self.extreme
        raise ExecutionError(f"unknown aggregate {self.name!r}")


class VectorAggregateOp(VectorOperator):
    """Hash aggregation (GROUP BY and scalar aggregates) over batches:
    every Aggregate of a plan.

    Output scope: one column per group-by expression (bound under the
    original table for plain column refs, so upstream references still
    resolve) followed by one column per aggregate, named by its rendered
    SQL (``COUNT(*)``), which upper expressions resolve.  Group keys
    resolve through a dict, groups in first-seen order; aggregate inputs
    are computed as columns and folded per group in row order — in
    numpy (:func:`_nd_fold`) for a clean
    column of ``LANE_ROWS`` rows or more, else with C-level
    ``reduce``/``min``/``max``/``len`` over each group's buffer when the
    input column is clean, or element-wise through ``_Accumulator``
    otherwise (distinct, unclean, unknown aggregates) — so results,
    errors, and tie-breaking do not depend on the path.
    """

    def __init__(
        self,
        context: ExecutionContext,
        child: VectorOperator,
        group_by: tuple[ast.Expression, ...],
        aggregates: tuple[ast.FunctionCall, ...],
    ) -> None:
        super().__init__(context)
        self.child = child
        self.group_by = group_by
        self.aggregates = aggregates
        entries: list[tuple[str, str]] = []
        for expr in group_by:
            if isinstance(expr, ast.ColumnRef):
                entries.append((expr.table or "", expr.name))
            else:
                entries.append(("", format_expression(expr)))
        for call in aggregates:
            entries.append(("", format_expression(call)))
        self._scope = Scope(entries)
        # the aggregate reads only its key and input expressions, whichever
        # outputs its consumer wants: it seeds the pruning propagation
        # once, here, and a consumer's set_live goes no further
        needed: list = list(group_by)
        for call in aggregates:
            for argument in call.args:
                if not isinstance(argument, ast.Star):
                    needed.append(argument)
        child.set_live(referenced_positions(needed, child.scope))

    @property
    def scope(self) -> Scope:
        return self._scope

    def sources_crowd_on_pull(self) -> bool:
        return False  # the input is read whole on first pull

    def _input_kernels(self, child_scope: Scope) -> list:
        """Per aggregate: ("star", None) | ("vector", kernel) |
        ("row", closure)."""
        kernels: list = []
        for call in self.aggregates:
            (argument,) = call.args
            if isinstance(argument, ast.Star):
                name = call.name.upper()
                if name != "COUNT":
                    raise ExecutionError(f"{name}(*) not supported")
                kernels.append(("star", None))
                continue
            vectorized, kernel = self.column_kernel(argument, child_scope)
            kernels.append(("vector" if vectorized else "row", kernel))
        return kernels

    def _fold(
        self,
        accumulator: _Accumulator,
        call: ast.FunctionCall,
        values: Sequence,
        clean_tag: Optional[str],
    ) -> None:
        """Fold one row-ordered value buffer (list or tuple) into an
        accumulator.

        ``clean_tag`` is the input column's tag when the whole buffer is
        known clean (then C reductions are exact); ``None`` forces the
        element-wise accumulator path.
        """
        if not values:
            return
        name = accumulator.name
        if clean_tag is not None and not accumulator.distinct:
            if name == "COUNT":
                accumulator.count += len(values)
                return
            if name in ("SUM", "AVG") and clean_tag in (
                TAG_INT, TAG_FLOAT, TAG_NUM
            ):
                accumulator.count += len(values)
                iterator = iter(values)
                total = accumulator.total
                if total is None:
                    total = next(iterator)
                # one value at a time, like _Accumulator.add: the builtin
                # sum() compensates float rounding from Python 3.12
                accumulator.total = reduce(_add, iterator, total)
                return
            if name == "MIN":
                accumulator.count += len(values)
                extreme = min(values)
                if extreme != extreme:  # NaN head: per-element semantics
                    for value in values:
                        if accumulator.extreme is None or value < accumulator.extreme:
                            accumulator.extreme = value
                elif accumulator.extreme is None or extreme < accumulator.extreme:
                    accumulator.extreme = extreme
                return
            if name == "MAX":
                accumulator.count += len(values)
                extreme = max(values)
                if extreme != extreme:
                    for value in values:
                        if accumulator.extreme is None or value > accumulator.extreme:
                            accumulator.extreme = value
                elif accumulator.extreme is None or extreme > accumulator.extreme:
                    accumulator.extreme = extreme
                return
        add = accumulator.add
        for value in values:
            add(value)

    def __iter__(self) -> Iterator[ColumnBatch]:
        child_scope = self.child.scope
        input_kernels = self._input_kernels(child_scope)
        if not self.group_by:
            yield from self._iter_global(input_kernels)
            return
        yield from self._iter_grouped(child_scope, input_kernels)

    def _iter_global(self, input_kernels: list) -> Iterator[ColumnBatch]:
        accumulators = [_Accumulator(call) for call in self.aggregates]
        for batch in self.child:
            rows: Optional[list] = None
            whole = _Partition.whole(batch.num_rows)
            for (kind, kernel), accumulator, call in zip(
                input_kernels, accumulators, self.aggregates
            ):
                if kind == "star":  # COUNT(*)
                    accumulator.count += batch.num_rows
                    continue
                if kind == "vector":
                    column, tag = kernel(batch)
                else:
                    if rows is None:
                        rows = _pivot_rows(batch)
                    column, tag = [kernel(values) for values in rows], None
                if (
                    whole is not None
                    and tag is not None
                    and not call.distinct
                    and _nd_fold([accumulator], batch, column, tag, whole)
                ):
                    continue
                self._fold(accumulator, call, as_list(column), tag)
        yield ColumnBatch.from_rows(
            [tuple(acc.result() for acc in accumulators)], len(self._scope)
        )

    def _iter_grouped(
        self, child_scope: Scope, input_kernels: list
    ) -> Iterator[ColumnBatch]:
        evaluate_keys = column_evaluator(self, self.group_by, child_scope)
        single = len(self.group_by) == 1
        # the input position of each plain-column argument: its LEFT join
        # padding, if marked, drops out of the fold
        positions = [
            child_scope.try_resolve(argument.name, argument.table)
            if type(argument) is ast.ColumnRef
            else None
            for (argument,) in (call.args for call in self.aggregates)
        ]

        group_index: dict = {}
        get_group = group_index.get
        key_tuples: list[tuple] = []  # first-seen key values per group
        group_accumulators: list[list[_Accumulator]] = []

        def group_of(key) -> int:
            """``key``'s group id, a new group when first seen."""
            gid = get_group(key)
            if gid is None:
                gid = group_index[key] = len(key_tuples)
                key_tuples.append((key,) if single else key)
                group_accumulators.append(
                    [_Accumulator(call) for call in self.aggregates]
                )
            return gid

        for batch in self.child:
            rows: Optional[list] = None
            key_columns, _key_tags = evaluate_keys(batch)

            # resolve group ids (one dict, groups in first-seen order on
            # every path).  A single coded key numbers this batch's groups
            # in numpy and looks up only each group's first row; other
            # keys register this batch's distinct keys via dict.fromkeys
            # (first-occurrence order, one C pass) and map every key to
            # its id in a second C pass.
            typed = _coded_groups(key_columns[0]) if single else None
            if typed is not None:
                firsts, local = typed
                keys = as_list(take(key_columns[0], firsts))
                group_ids = _np.array(
                    list(map(group_of, keys)), _np.intp
                )[local]
            else:
                if single:
                    batch_keys = as_list(key_columns[0])
                else:
                    batch_keys = list(zip(*map(as_list, key_columns)))
                for key in dict.fromkeys(batch_keys):
                    group_of(key)
                group_ids = list(map(group_index.__getitem__, batch_keys))

            partition = _Partition(group_ids, len(key_tuples))
            for index, ((kind, kernel), call, position) in enumerate(
                zip(input_kernels, self.aggregates, positions)
            ):
                accumulators = [group[index] for group in group_accumulators]
                if kind == "star":  # COUNT(*)
                    for accumulator, count in zip(
                        accumulators, partition.counts()
                    ):
                        accumulator.count += count
                    continue
                if kind == "vector":
                    column, tag = kernel(batch)
                else:
                    if rows is None:
                        rows = _pivot_rows(batch)
                    column, tag = [kernel(values) for values in rows], None
                part = partition
                pad_tags = batch.pad_tags
                if tag is None and pad_tags is not None and position is not None:
                    tag = pad_tags[position]
                    if tag is not None:
                        # a padded build column: without its padding NULLs
                        # it is clean
                        column = as_list(column)
                        kept = [value is not NULL for value in column]
                        column = list(compress(column, kept))
                        part = partition.select(kept)
                if (
                    tag is not None
                    and not call.distinct
                    and _nd_fold(accumulators, batch, column, tag, part)
                ):
                    continue
                column = as_list(column)
                for gid, indices in enumerate(part.index_lists()):
                    if not indices:
                        continue
                    buffer = (
                        itemgetter(*indices)(column)
                        if len(indices) > 1
                        else (column[indices[0]],)
                    )
                    self._fold(accumulators[gid], call, buffer, tag)

        if not key_tuples:
            return
        out_rows = [
            key_tuples[gid]
            + tuple(acc.result() for acc in group_accumulators[gid])
            for gid in range(len(key_tuples))
        ]
        yield ColumnBatch.from_rows(out_rows, len(self._scope))


def _coded_groups(column):
    """``(firsts, local)`` for a coded group key: ``local`` numbers each
    row's group (an intp ndarray), groups in first-appearance order, and
    ``firsts`` is each group's first row.  None when ``column`` is not a
    :class:`Coded` column with no more values than rows.

    Rows group as the group dict groups them: by the dict-deduplicated
    values their codes point at.  Group order never
    comes from hashes or from code order."""
    if type(column) is not Coded:
        return None
    values = column.values
    rows = len(column.codes)
    if len(values) > rows:
        return None
    index: dict = {}
    ids = [index.setdefault(value, len(index)) for value in values]
    dense = _np.array(ids, _np.intp)[column.codes]
    first = _np.full(len(index), rows, _np.intp)
    _np.minimum.at(first, dense, _np.arange(rows))
    seen = _np.flatnonzero(first < rows)
    order = _np.argsort(first[seen])
    rank = _np.empty(len(index), _np.intp)
    rank[seen[order]] = _np.arange(len(seen))
    return first[seen[order]], rank[dense]


class _Partition:
    """One batch's rows by group id (``group_ids``, in row order, ids
    below ``groups``: a list, or an intp ndarray), in the forms the folds
    read, each built once."""

    __slots__ = ("group_ids", "groups", "_gids", "_counts", "_index_lists")

    def __init__(self, group_ids, groups: int) -> None:
        self.group_ids = group_ids
        self.groups = groups
        self._gids = None if type(group_ids) is list else group_ids
        self._counts: Optional[list] = None
        self._index_lists: Optional[list] = None

    @classmethod
    def whole(cls, rows: int) -> Optional["_Partition"]:
        """``rows`` rows in one group, for a global aggregate's numpy
        folds; None where those would not run (see :meth:`numpy`)."""
        if _np is None or rows < LANE_ROWS:
            return None
        return cls(_np.zeros(rows, _np.intp), 1)

    def select(self, keep: list) -> "_Partition":
        """The partition of the rows ``keep`` marks."""
        if self._gids is not None:
            mask = _np.fromiter(keep, _np.bool_, len(keep))
            return _Partition(self._gids[mask], self.groups)
        return _Partition(list(compress(self.group_ids, keep)), self.groups)

    def numpy(self) -> bool:
        """True when the folds may read ndarrays: numpy, and rows enough
        to pay for its per-call cost."""
        return _np is not None and len(self.group_ids) >= LANE_ROWS

    def gids(self):
        """``group_ids`` as an intp ndarray."""
        if self._gids is None:
            self._gids = _np.fromiter(
                self.group_ids, _np.intp, len(self.group_ids)
            )
        return self._gids

    def counts(self) -> list:
        """Rows per group id."""
        if self._counts is None:
            if self.numpy():
                self._counts = _np.bincount(
                    self.gids(), minlength=self.groups
                ).tolist()
            else:
                self._counts = [
                    len(indices) for indices in self.index_lists()
                ]
        return self._counts

    def index_lists(self) -> list:
        """Per group id, its row indices in row order."""
        if self._index_lists is None:
            if self.numpy() and self.groups <= 64:
                # few groups over many rows: a flatnonzero scan per group
                # beats a Python append per row
                gids = self.gids()
                self._index_lists = [
                    _np.flatnonzero(gids == gid).tolist()
                    for gid in range(self.groups)
                ]
            else:
                self._index_lists = [[] for _ in range(self.groups)]
                for i, gid in enumerate(as_list(self.group_ids)):
                    self._index_lists[gid].append(i)
        return self._index_lists


def _nd_fold(
    accumulators: list,
    batch: ColumnBatch,
    column,
    tag: str,
    part: _Partition,
) -> bool:
    """Fold a clean input column into its per-group accumulators: COUNT
    by ``bincount``, the others over an INTEGER or FLOAT column's ndarray
    with unbuffered ufunc ``at`` calls, which apply each group's rows in
    row order, so a float sum is bit-identical to ``_Accumulator``'s
    one-by-one adds.  A group's float sum starts at its earlier total,
    else at -0.0 (``-0.0 + x`` is ``x`` for every ``x``).  False -- fold
    it in Python -- without numpy or rows enough, without an exact lane,
    for a NaN under MIN/MAX, for an integer sum that could pass int64, or
    after a batch of another numeric type."""
    if not part.numpy():
        return False
    name = accumulators[0].name
    counts = part.counts()
    if name == "COUNT":  # a clean column has no NULL to skip
        for accumulator, count in zip(accumulators, counts):
            accumulator.count += count
        return True
    arr = _ndcolumn(batch, column, tag)
    if arr is None:
        return False
    exact = float if tag == TAG_FLOAT else int
    if name == "SUM" or name == "AVG":
        if any(
            accumulator.total is not None and type(accumulator.total) is not exact
            for accumulator in accumulators
        ):
            return False
        if exact is float:
            totals = _np.array(
                [-0.0 if acc.total is None else acc.total for acc in accumulators]
            )
        else:
            bound = max(-int(arr.min()), int(arr.max()))
            if bound * len(arr) >= 1 << 63:
                return False
            totals = _np.zeros(len(accumulators), _np.int64)
        with _np.errstate(over="ignore", invalid="ignore"):  # as Python
            _np.add.at(totals, part.gids(), arr)
        for accumulator, count, total in zip(
            accumulators, counts, totals.tolist()
        ):
            if count:
                accumulator.count += count
                if exact is int and accumulator.total is not None:
                    total += accumulator.total
                accumulator.total = total
        return True
    lowest = name == "MIN"
    if exact is float:
        if _np.isnan(arr).any():
            return False
        start = _np.inf if lowest else -_np.inf
    else:
        limits = _np.iinfo(_np.int64)
        start = limits.max if lowest else limits.min
    gids = part.gids()
    extremes = _np.full(len(accumulators), start, arr.dtype)
    (_np.minimum if lowest else _np.maximum).at(extremes, gids, arr)
    tied = extremes == 0
    if exact is float and tied.any():
        # -0.0 and 0.0 tie: a group's first zero is its extreme
        zeros = _np.flatnonzero(arr == 0)
        first = _np.full(len(accumulators), len(arr))
        _np.minimum.at(first, gids[zeros], zeros)
        extremes[tied] = arr[first[tied]]
    for accumulator, count, extreme in zip(
        accumulators, counts, extremes.tolist()
    ):
        if not count:
            continue
        accumulator.count += count
        current = accumulator.extreme
        if current is None or (
            extreme < current if lowest else extreme > current
        ):
            accumulator.extreme = extreme
    return True
