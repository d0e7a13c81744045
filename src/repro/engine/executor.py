"""Statement execution: the top of the engine.

The executor compiles and runs any CrowdSQL statement: DDL goes to the
catalog/storage (and triggers compile-time UI template generation for
crowd-related tables, per paper §3.1); DML evaluates expressions and
mutates heaps; SELECTs run through build → optimize → physical plan →
iterate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro.catalog.ddl import build_table_schema
from repro.engine.context import CrowdLedger, ExecutionContext
from repro.engine.guard import StatementGuard
from repro.engine.planner import PhysicalPlanner, match_index_access
from repro.engine.scans import index_rowids
from repro.errors import (
    ExecutionError,
    PartialResultStop,
    PlanError,
    TypeError_,
)
from repro.obs import QueryProfiler, render_analyze
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.plan import logical
from repro.plan.builder import PlanBuilder
from repro.plan.compiled import compile_value
from repro.sql import ast
from repro.sql.pretty import format_statement
from repro.sqltypes import CNULL, NULL, is_missing
from repro.storage.engine import StorageEngine
from repro.storage.row import Row, Scope


_SCALAR_TYPES = (str, int, float)


def _checked_parameters(parameters: Sequence[Any]) -> tuple:
    """``parameters`` as a tuple, once each is known to be a SQL scalar.

    A ``?`` value must be None, NULL, CNULL, or a ``str``, ``int``
    (``bool`` included) or ``float``: the types
    :func:`~repro.sqltypes.coerce` stores.  Past this check every value
    a query sees hashes, so operators, statistics and the plan cache
    need no fallback for one that does not.  Anything else raises
    :class:`~repro.errors.TypeError_` naming the parameter ``#N``,
    counted from 1.
    """
    parameters = tuple(parameters)
    for number, value in enumerate(parameters, 1):
        if not (
            isinstance(value, _SCALAR_TYPES)
            or value is None or value is NULL or value is CNULL
        ):
            raise TypeError_(
                f"parameter #{number} has type {type(value).__name__!r}: "
                "a parameter must be None, NULL, CNULL, str, int or float"
            )
    return parameters


class StatementKey:
    """A statement AST as a cache key, hashed once per parsed AST (the
    parse memo hands the same object back) rather than on every lookup."""

    __slots__ = ("statement", "_hash")

    def __init__(self, statement: ast.Statement) -> None:
        self.statement = statement
        self._hash = statement.cache_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return type(other) is StatementKey and (
            other.statement is self.statement
            or other.statement == self.statement
        )


class PlanCache:
    """LRU memo with hit/miss counters, shareable across executors.

    The executor's plan cache keys on ``(statement AST, engine plan
    epoch, optimizer)``; the epoch folds in the catalog version and
    every table's statistics epoch and index count, so DDL, ``ANALYZE``
    (including auto-analyze), and index creation all miss cleanly and
    the LRU bound evicts the orphaned entries.  An entry keeps its
    prepared physical plans with it (``OptimizationResult.prepared``),
    so they go when it goes.  The concurrent query server hands one
    instance to every session's executor, so a query planned in one
    session is a cache hit in all of them.  The same structure backs the
    connection's SQL-text parse memo.
    """

    def __init__(self, size: int = 64) -> None:
        self.size = max(0, size)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.stats = {"hits": 0, "misses": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats["hits"] += 1
        return entry

    def store(self, key: tuple, compiled: Any) -> None:
        self.stats["misses"] += 1
        if not self.size:
            return
        self._entries[key] = compiled
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class ResultSet:
    """The outcome of one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    statement: str = ""
    plan: Optional[OptimizationResult] = None
    # per-statement crowd telemetry: operator task counts plus the
    # quality/cost deltas (assignments paid, cents, adaptive HIT
    # extensions, gold probes, mean verdict confidence)
    crowd_stats: dict[str, float] = field(default_factory=dict)
    # "complete", or "partial" when a statement guard (deadline/budget
    # cap or an open platform breaker) stopped the statement early; the
    # rows are everything settled before the trip
    status: str = "complete"
    # structured trip reason when partial: deadline | budget | breaker
    partial_reason: Optional[str] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {len(self.rows)} row(s)"
            )
        return self.rows[0][0]

    def column(self, index: int = 0) -> list:
        """Values of one output column.

        The index is validated against the result schema (not just the
        rows), so an out-of-range index raises the same clear error on an
        empty result instead of silently returning ``[]``.
        """
        if self.columns and not -len(self.columns) <= index < len(self.columns):
            raise ExecutionError(
                f"column index {index} out of range for "
                f"{len(self.columns)} column(s)"
            )
        return [row[index] for row in self.rows]

    def pretty(self) -> str:
        """ASCII table rendering for examples and the demo.

        Zero-column results (DML, DDL) render as a row-count summary;
        zero-row results render the header with a ``(0 row(s))`` footer —
        both consistently derived from ``rows``/``rowcount``.
        """
        from repro.sqltypes import format_value

        if not self.columns:
            if self.rows:
                # a degenerate SELECT with no output columns: count rows,
                # don't silently claim "affected"
                return f"({len(self.rows)} row(s))"
            return f"({self.rowcount} row(s) affected)"
        rendered = [
            [format_value(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(name), *(len(r[i]) for r in rendered)) if rendered else len(name)
            for i, name in enumerate(self.columns)
        ]
        def line(ch: str = "-") -> str:
            return "+" + "+".join(ch * (w + 2) for w in widths) + "+"
        out = [line(), "| " + " | ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        ) + " |", line("=")]
        for row in rendered:
            out.append(
                "| "
                + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                + " |"
            )
        out.append(line())
        out.append(f"({len(self.rows)} row(s))")
        return "\n".join(out)


class Executor:
    """Compiles and executes statements against one storage engine."""

    def __init__(
        self,
        engine: StorageEngine,
        optimizer: Optional[Optimizer] = None,
        task_manager: Optional[Any] = None,
        ui_manager: Optional[Any] = None,
        plan_cache: Optional[PlanCache] = None,
        plan_cache_size: int = 64,
        observability: Optional[Any] = None,  # repro.obs.Observability
    ) -> None:
        self.engine = engine
        self.optimizer = optimizer if optimizer is not None else Optimizer(engine)
        self.task_manager = task_manager
        self.ui_manager = ui_manager
        self.observability = observability
        # crowd ledger for the statement currently running: set by
        # _run_compiled, inherited by correlated subqueries through
        # _make_context so their spend attributes to the outer statement
        self._active_ledger: Optional[CrowdLedger] = None
        # deadline/budget guard for the statement currently running
        # (None between statements or without a crowd), mirrored into
        # the context the same way the ledger is; the scheduler reads it
        # (via Session.active_guard) to cap how far the marketplace clock
        # may advance
        self.active_guard: Optional[StatementGuard] = None
        # caps of the ast.Guarded wrapper being run: WITH DEADLINE/BUDGET
        # in the text, or what repro.statement resolved for a submission
        self._guard_request: tuple = (None, None)
        self.builder = PlanBuilder(engine.catalog)
        # issue/yield/resume hook: the concurrent query server installs a
        # callback here so crowd waits suspend the session instead of
        # advancing the simulated platform clock in place
        self.crowd_waiter: Optional[Any] = None
        # repeat queries — including every per-outer-row compilation of a
        # correlated subquery — skip optimization and physical planning
        # and bind the entry's prepared plan; pass a shared PlanCache to
        # pool plans across executors (the query server does)
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache(plan_cache_size)
        )

    # -- public entry point ---------------------------------------------------------

    def execute(
        self, stmt: ast.Statement, parameters: Sequence[Any] = ()
    ) -> ResultSet:
        parameters = _checked_parameters(parameters)
        obs = self.observability
        if obs is None or not obs.enabled:
            return self._dispatch(stmt, parameters)
        started = perf_counter()
        result = self._dispatch(stmt, parameters)
        obs.observe_statement(
            result.statement or type(stmt).__name__,
            perf_counter() - started,
            rows=result.rowcount,
            cost_cents=int(result.crowd_stats.get("cost_cents", 0)),
            sql_fn=lambda: format_statement(stmt),
        )
        return result

    def _dispatch(self, stmt: ast.Statement, parameters: tuple) -> ResultSet:
        if isinstance(stmt, ast.Guarded):
            # peel the caps off and run the inner statement under them;
            # the plan cache keys on the inner AST, so the same query
            # with different caps shares one plan.  A nested wrapper
            # (EXPLAIN ANALYZE ... WITH, under a submission's caps) wins
            # field by field, as the text wins in repro.statement
            previous = self._guard_request
            deadline, budget = previous
            if stmt.deadline_ms is not None:
                deadline = stmt.deadline_ms
            if stmt.budget_cents is not None:
                budget = stmt.budget_cents
            self._guard_request = (deadline, budget)
            try:
                return self._dispatch(stmt.statement, parameters)
            finally:
                self._guard_request = previous
        if isinstance(stmt, (ast.Select, ast.SetOp)):
            return self._execute_select(stmt, parameters)
        if isinstance(stmt, ast.CreateTable):
            return self._execute_create_table(stmt)
        if isinstance(stmt, ast.DropTable):
            self.engine.drop_table(stmt.name, if_exists=stmt.if_exists)
            return ResultSet(statement="DROP TABLE")
        if isinstance(stmt, ast.CreateIndex):
            # engine-level so the index build is logged and survives
            # replay/recovery (operator-built index caches stay unlogged)
            self.engine.create_index(
                stmt.table, stmt.name, stmt.columns, unique=stmt.unique
            )
            return ResultSet(statement="CREATE INDEX")
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt, parameters)
        if isinstance(stmt, ast.Update):
            return self._execute_update(stmt, parameters)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(stmt, parameters)
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(stmt, parameters)
        if isinstance(stmt, ast.Analyze):
            return self._execute_analyze(stmt)
        if isinstance(stmt, ast.ShowTables):
            rows = [(name,) for name in self.engine.table_names()]
            return ResultSet(
                columns=["table_name"], rows=rows, rowcount=len(rows),
                statement="SHOW TABLES",
            )
        raise ExecutionError(f"cannot execute {type(stmt).__name__}")

    # -- SELECT -----------------------------------------------------------------------

    def compile_select(self, stmt: ast.Statement) -> OptimizationResult:
        """Compile a SELECT or compound (set-operation) query."""
        return self._compile_cached(
            stmt, lambda: self.builder.build_statement(stmt)
        )

    def _compile_cached(
        self,
        stmt: ast.Statement,
        build: Callable[[], Any],
    ) -> OptimizationResult:
        """Optimize ``build()``'s plan, memoized on the statement AST.

        The key carries the engine's plan epoch (DDL version + statistics
        epoch + index population) and the optimizer's identity, so schema
        changes, ANALYZE, and optimizer swaps all miss cleanly.  Plans
        are parameter-value independent (estimation treats ``?`` as an
        opaque value), so one entry serves every binding.
        """
        key: Optional[tuple] = None
        if self.plan_cache.size:
            # the optimizer object itself is part of the key: a swapped
            # optimizer (different rules/cost mode) must miss, and holding
            # the reference keeps its identity from being recycled while
            # the entry lives
            key = (
                StatementKey(stmt), self.engine.plan_epoch(), self.optimizer
            )
        if key is not None:
            cached = self.plan_cache.lookup(key)
            if cached is not None:
                if not cached.boundedness.bounded:
                    # the compile-time warning is part of the statement's
                    # contract — a cache hit must not swallow it
                    import warnings

                    from repro.errors import UnboundedQueryWarning

                    warnings.warn(
                        "query may request an unbounded amount of data "
                        f"from the crowd: {cached.boundedness.describe()}",
                        UnboundedQueryWarning,
                        stacklevel=3,
                    )
                return cached
        compiled = self.optimizer.optimize(build())
        if key is not None:
            self.plan_cache.store(key, compiled)
        return compiled

    def _execute_select(
        self, stmt: ast.Statement, parameters: tuple
    ) -> ResultSet:
        compiled = self.compile_select(stmt)
        columns, rows, crowd_stats, partial_reason = self._run_compiled(
            compiled, parameters
        )
        return ResultSet(
            columns=columns,
            rows=rows,
            rowcount=len(rows),
            statement="SELECT",
            plan=compiled,
            crowd_stats=crowd_stats,
            status="partial" if partial_reason else "complete",
            partial_reason=partial_reason,
        )

    def _note_partial(self, reason: str) -> None:
        manager = self.task_manager
        if manager is None:
            return
        manager.stats.bump("partial_results")
        manager.stats.bump(f"partial_{reason}")
        if manager.tracer is not None:
            manager.tracer.emit("statement.partial", reason=reason)

    def _run_compiled(
        self,
        compiled: OptimizationResult,
        parameters: tuple,
        profiler: Optional[QueryProfiler] = None,
    ) -> tuple[list[str], list[tuple], dict[str, float], Optional[str]]:
        """Run one compiled query under a fresh per-statement crowd
        ledger, so concurrent sessions sharing the Task Manager report
        only their own spend.  Correlated subqueries executed while
        iterating inherit the ledger (their spend belongs to this
        statement); a nested top-level run (INSERT ... SELECT) saves and
        restores it.

        A :class:`StatementGuard` runs alongside the ledger; when it
        trips mid-iteration the rows produced so far are kept and the
        trip reason is returned (fourth element, None when complete).
        """
        previous = self._active_ledger
        previous_guard = self.active_guard
        self._active_ledger = (
            CrowdLedger() if self.task_manager is not None else None
        )
        guard = None
        if self.task_manager is not None:
            guard = StatementGuard(
                *self._guard_request,
                now_fn=self.sim_clock(),
                ledger=self._active_ledger,
            )
        self.active_guard = guard
        try:
            context = self._make_context(parameters)
            operator = PhysicalPlanner(
                context,
                profiler=profiler,
                bindings=compiled.bindings,
                metrics=self._metrics(),
            ).plan(compiled.plan, compiled.prepared)
            partial_reason: Optional[str] = None
            rows: list[tuple] = []
            try:
                # keeps the rows before a guard trip; a vectorized root
                # hands over one pivoted batch at a time
                rows.extend(operator)
            except PartialResultStop as stop:
                partial_reason = stop.reason
                self._note_partial(stop.reason)
            columns = [entry[1] for entry in operator.scope.entries]
            crowd_stats = {
                "probe_tasks": context.crowd_probe_tasks,
                "join_tasks": context.crowd_join_tasks,
                "compare_tasks": context.crowd_compare_tasks,
                "rows_scanned": context.rows_scanned,
            }
            crowd_stats.update(context.crowd_quality_stats())
            return columns, rows, crowd_stats, partial_reason
        finally:
            self._active_ledger = previous
            self.active_guard = previous_guard

    def _execute_explain(
        self, stmt: ast.Explain, parameters: tuple = ()
    ) -> ResultSet:
        inner = stmt.statement
        if isinstance(inner, ast.Guarded):
            if stmt.analyze:
                # ANALYZE runs the query, so its caps bound the crowd
                # work exactly as they would bound the bare SELECT
                return self._dispatch(
                    ast.Guarded(
                        ast.Explain(inner.statement, analyze=True),
                        inner.deadline_ms,
                        inner.budget_cents,
                    ),
                    parameters,
                )
            inner = inner.statement  # EXPLAIN shows the plan; caps don't apply
        if not isinstance(inner, (ast.Select, ast.SetOp)):
            raise ExecutionError("EXPLAIN supports SELECT statements only")
        compiled = self.compile_select(inner)
        if stmt.analyze:
            return self._execute_explain_analyze(compiled, parameters)
        lines = compiled.explain().splitlines()
        return ResultSet(
            columns=["plan"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
            statement="EXPLAIN",
            plan=compiled,
        )

    def _execute_explain_analyze(
        self, compiled: OptimizationResult, parameters: tuple
    ) -> ResultSet:
        """EXPLAIN ANALYZE: run the query with every operator wrapped in
        a measuring proxy, then render estimate-vs-actual per node."""
        profiler = QueryProfiler(
            task_stats=(
                self.task_manager.stats
                if self.task_manager is not None
                else None
            ),
            sim_clock=self.sim_clock(),
        )
        started = perf_counter()
        _columns, _rows, crowd_stats, partial_reason = self._run_compiled(
            compiled, parameters, profiler=profiler
        )
        total_seconds = perf_counter() - started
        flag_ratio = (
            self.observability.misestimate_ratio
            if self.observability is not None
            else 4.0
        )
        lines = render_analyze(
            compiled,
            profiler,
            total_seconds,
            crowd_stats=crowd_stats,
            flag_ratio=flag_ratio,
        ).splitlines()
        if partial_reason:
            lines.append(f"-- partial: {partial_reason}")
        return ResultSet(
            columns=["plan"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
            statement="EXPLAIN ANALYZE",
            plan=compiled,
            crowd_stats=crowd_stats,
            status="partial" if partial_reason else "complete",
            partial_reason=partial_reason,
        )

    def sim_clock(self) -> Optional[Callable[[], float]]:
        """Busiest-platform simulated clock: statement deadlines, per-node
        sim time and the server's ``simulated_seconds`` all read it."""
        registry = getattr(self.task_manager, "platforms", None)
        if registry is None:
            return None

        def now() -> float:
            latest = 0.0
            for name in registry.names():
                clock = getattr(registry.get(name), "clock", None)
                if clock is not None:
                    latest = max(latest, clock.now)
            return latest

        return now

    def _execute_analyze(self, stmt: ast.Analyze) -> ResultSet:
        analyzed = self.engine.analyze(stmt.table)
        rows = [
            (
                name,
                stats.row_count,
                sum(
                    1 for c in stats.columns.values() if c.histogram is not None
                ),
                stats.epoch,
            )
            for name, stats in analyzed
        ]
        return ResultSet(
            columns=["table_name", "row_count", "histograms", "stats_epoch"],
            rows=rows,
            rowcount=len(rows),
            statement="ANALYZE",
        )

    # -- DDL ---------------------------------------------------------------------------

    def _execute_create_table(self, stmt: ast.CreateTable) -> ResultSet:
        schema = build_table_schema(stmt)
        created = self.engine.create_table(
            schema, if_not_exists=stmt.if_not_exists
        )
        if created and self.ui_manager is not None and schema.is_crowd_related:
            # compile-time UI creation (paper §3.1)
            columns = tuple(c.name for c in schema.crowd_columns)
            if columns:
                self.ui_manager.fill_template(schema, columns)
            if schema.crowd:
                self.ui_manager.new_tuple_template(schema)
        return ResultSet(statement="CREATE TABLE")

    # -- DML ---------------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert, parameters: tuple) -> ResultSet:
        empty_scope = Scope([])
        if stmt.query is not None:
            rows = self._execute_select(stmt.query, parameters).rows
        else:
            rows = (
                [
                    compile_value(expr, empty_scope, parameters=parameters)(())
                    for expr in row_exprs
                ]
                for row_exprs in stmt.rows
            )
        with self.engine.atomic(stmt.table) as applied:
            for values in rows:
                row = self.engine.insert(
                    stmt.table, values, stmt.columns or None
                )
                applied.append((row.rowid, None, row.values))
        return ResultSet(rowcount=len(applied), statement="INSERT")

    def _execute_update(self, stmt: ast.Update, parameters: tuple) -> ResultSet:
        schema = self.engine.table(stmt.table).schema
        context = self._make_context(parameters)
        scope = Scope.for_table(stmt.table, schema.column_names)
        for name, _expr in stmt.assignments:
            schema.column(name)  # validate
        assignments = [
            (schema.column(name), context.compile_value_fn(expr, scope))
            for name, expr in stmt.assignments
        ]
        targets = self._target_rows(stmt, context)
        from repro.sqltypes import coerce

        with self.engine.atomic(stmt.table) as applied:
            for row in targets:
                new_values = list(row.values)
                for column, value_fn in assignments:
                    value = value_fn(row.values)
                    new_values[column.ordinal] = (
                        value if is_missing(value)
                        else coerce(value, column.sql_type)
                    )
                new = tuple(new_values)
                self.engine.update(stmt.table, row.rowid, new)
                applied.append((row.rowid, row.values, new))
        return _dml_result("UPDATE", targets, context.rows_scanned)

    def _execute_delete(self, stmt: ast.Delete, parameters: tuple) -> ResultSet:
        context = self._make_context(parameters)
        targets = self._target_rows(stmt, context)
        with self.engine.atomic(stmt.table) as applied:
            for row in targets:
                self.engine.delete(stmt.table, row.rowid)
                applied.append((row.rowid, row.values, None))
        return _dml_result("DELETE", targets, context.rows_scanned)

    def _target_rows(
        self, stmt: ast.Update | ast.Delete, context: ExecutionContext
    ) -> list[Row]:
        """The rows an UPDATE/DELETE's WHERE selects, all collected before
        anything is mutated.  An equality on an indexed column reads its
        candidates through that index, as SELECT does; otherwise every
        row is one.  The compiled WHERE decides, with no crowd operator
        in reach: a CNULL stays not-true and nothing is bought."""
        heap = self.engine.table(stmt.table)
        where = stmt.where
        matched = where is not None and match_index_access(
            self.engine,
            logical.Filter(logical.Scan(heap.schema, stmt.table), where),
            context.parameters,
        )
        candidates = (
            [heap.get(rowid) for rowid in index_rowids(heap, *matched)]
            if matched else list(heap.scan(snapshot=True))
        )
        context.rows_scanned += len(candidates)
        if where is None:
            return candidates
        test = context.compile_predicate_fn(
            where, Scope.for_table(stmt.table, heap.schema.column_names)
        )
        return [row for row in candidates if test(row.values).value is True]

    # -- plumbing -----------------------------------------------------------------------

    def _make_context(self, parameters: tuple) -> ExecutionContext:
        return ExecutionContext(
            engine=self.engine,
            task_manager=self.task_manager,
            parameters=parameters,
            subquery_executor=self._run_subquery,
            crowd_waiter=self.crowd_waiter,
            crowd_ledger=self._active_ledger,
            guard=self.active_guard,
        )

    def _run_subquery(
        self, query: ast.Select, outer_values: tuple, outer_scope: Scope,
        parameters: tuple,
    ) -> list[tuple]:
        """Execute a (possibly correlated) subquery for one outer row."""
        compiled = self._compile_cached(
            query, lambda: self.builder.build_select(query)
        )
        context = self._make_context(parameters)
        planner = PhysicalPlanner(
            context,
            correlation=(outer_values, outer_scope),
            metrics=self._metrics(),
        )
        return list(planner.plan(compiled.plan, compiled.prepared))

    def _metrics(self) -> Optional[Any]:
        obs = self.observability
        return obs.metrics if obs is not None else None


def _dml_result(statement: str, targets: list, rows_scanned: int) -> ResultSet:
    # rows_scanned: the rows examined, as a SELECT reports them
    return ResultSet(
        rowcount=len(targets), statement=statement,
        crowd_stats={"rows_scanned": rows_scanned},
    )
