"""Execution context: the runtime services physical operators share.

One context serves one statement execution.  It bundles the storage
engine, the Task Manager (absent for purely electronic queries) and the
subquery executor, and implements the
:class:`~repro.plan.compiled.EvalContext` protocol so CROWDEQUAL and
subqueries evaluate inside ordinary compiled predicates.

Every crowd request an operator makes flows through the ``crowd_*``
helpers here, which implement the issue/yield/resume protocol: issue the
tasks (non-blocking ``begin_*`` on the Task Manager), then hand the
futures to :meth:`wait_crowd_many`.  Standalone connections resolve the
wait by advancing the simulated platform clock in place; under the concurrent
query server a ``crowd_waiter`` callback is installed that *suspends the
whole session* until the scheduler has results, so other sessions run
while this one's HITs are pending.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import (
    CircuitOpenError,
    ConstraintError,
    ExecutionError,
    PartialResultStop,
)
from repro.sql import ast
from repro.sqltypes import NULL, is_missing
from repro.storage.engine import StorageEngine
from repro.storage.row import Scope


class CrowdLedger:
    """Per-statement attribution of crowd spend.

    The context records every future a statement waits on (mirrors and
    HIT-group members resolve to their settlement parent, deduplicated),
    and the Task Manager stamps each future with its own settlement
    accounting.  Summing those per-future figures gives the statement
    *its* cents/assignments even when concurrent sessions interleave —
    a global counter delta would absorb everyone else's spend.

    A future shared through the task pool (two sessions deduplicating
    onto one HIT) attributes its full spend to every waiter: each of
    those statements needed the answer and would have paid for it alone.
    """

    def __init__(self) -> None:
        self._futures: dict[int, Any] = {}

    def record(self, future: Any) -> None:
        target = future.mirror_of or future
        self._futures.setdefault(id(target), target)

    def summary(self) -> dict[str, float]:
        hits = assignments = cents = extensions = 0
        confidence_sum = 0.0
        confidence_count = 0
        for future in self._futures.values():
            hits += len(future.hits)
            extensions += future.extension_assignments
            accounting = future.accounting
            if accounting is None:
                continue  # cache-resolved future: no platform spend
            assignments += accounting["assignments"]
            cents += accounting["cost_cents"]
            confidence_sum += accounting["confidence_sum"]
            confidence_count += accounting["confidence_count"]
        return {
            "hits": hits,
            "assignments": assignments,
            "cost_cents": cents,
            "extension_assignments": extensions,
            "confidence_sum": confidence_sum,
            "confidence_count": confidence_count,
        }


class ExecutionContext:
    """Shared runtime state for one statement."""

    def __init__(
        self,
        engine: StorageEngine,
        task_manager: Optional[Any] = None,  # TaskManager, optional import cycle
        parameters: tuple = (),
        subquery_executor: Optional[
            Callable[[ast.Select, tuple, Scope, tuple], list[tuple]]
        ] = None,
        crowd_waiter: Optional[Callable[[Any], None]] = None,
        crowd_ledger: Optional[CrowdLedger] = None,
        guard: Optional[Any] = None,  # StatementGuard, deadline/budget caps
    ) -> None:
        self.engine = engine
        self.task_manager = task_manager
        self.parameters = parameters
        # the registry's default platform, read once per statement: every
        # crowd task the statement issues is posted to (and keyed by) it
        self.platform = (
            task_manager.platforms.default if task_manager is not None else None
        )
        # per-statement deadline/budget guard: checked at every crowd
        # boundary; a trip raises PartialResultStop, which the executor
        # converts into a status="partial" result
        self.guard = guard
        self._subquery_executor = subquery_executor
        self.crowd_waiter = crowd_waiter
        # per-execution metrics surfaced by EXPLAIN ANALYZE-style reporting
        self.rows_scanned = 0
        self.crowd_probe_tasks = 0
        self.crowd_join_tasks = 0
        self.crowd_compare_tasks = 0
        # per-statement crowd attribution: every future this statement
        # waits on is recorded here (the executor threads one ledger
        # through a statement and its subqueries)
        self.crowd_ledger = crowd_ledger
        # quality/cost telemetry: snapshot the Task Manager counters at
        # statement start so the ResultSet can report this query's own
        # spend (assignments, cents, adaptive extensions, gold probes)
        # and mean verdict confidence rather than connection lifetime
        # totals.  Snapshots flatten dynamically created counters too
        # (TaskManagerStats.extra), and the delta below defaults missing
        # keys to 0 on *both* sides, so a counter that first appears
        # mid-query yields a true delta instead of an absolute total.
        self._crowd_stats_before: dict[str, float] = (
            task_manager.stats.snapshot() if task_manager is not None else {}
        )

    def crowd_quality_stats(self) -> dict[str, float]:
        """This statement's quality/cost attribution over the crowd.

        Keys: ``hits_posted``, ``assignments``, ``cost_cents``,
        ``hit_extensions``, ``gold_hits``, ``mean_confidence`` (0.0 when
        no verdict settled during the statement).

        Figures are summed over the futures *this* statement waited on,
        from the :class:`CrowdLedger` the executor attaches whenever
        there is a task manager — exact even when concurrent server
        sessions spend in between.  Gold probes are charged via the
        gold-only counters (probes shadow whole marketplace rounds, not
        individual futures).
        """
        if self.task_manager is None:
            return {}
        after = self.task_manager.stats.snapshot()
        before = self._crowd_stats_before

        def delta(key: str) -> float:
            return after.get(key, 0) - before.get(key, 0)

        summary = self.crowd_ledger.summary()
        verdicts = summary["confidence_count"]
        mean_confidence = (
            summary["confidence_sum"] / verdicts if verdicts else 0.0
        )
        return {
            "hits_posted": int(summary["hits"] + delta("gold_hits_posted")),
            "assignments": int(
                summary["assignments"] + delta("gold_assignments_received")
            ),
            "cost_cents": int(
                summary["cost_cents"] + delta("gold_cost_cents")
            ),
            "hit_extensions": int(summary["extension_assignments"]),
            "gold_hits": int(delta("gold_hits_posted")),
            "mean_confidence": round(mean_confidence, 4),
        }

    # -- plan-time expression compilation -----------------------------------------

    def compile_value_fn(self, expr: ast.Expression, scope: Scope):
        """Compile ``expr`` to a ``values -> SQL value`` closure against
        ``scope``."""
        from repro.plan.compiled import compile_value

        return compile_value(
            expr, scope, context=self, parameters=self.parameters
        )

    def compile_predicate_fn(self, expr: ast.Expression, scope: Scope):
        """Compile ``expr`` to a ``values -> TriBool`` closure against
        ``scope``."""
        from repro.plan.compiled import compile_predicate

        return compile_predicate(
            expr, scope, context=self, parameters=self.parameters
        )

    # -- issue / yield / resume ---------------------------------------------------

    @property
    def batch_size(self) -> int:
        """The configured window for batch crowd execution; a window of
        one without a crowd."""
        if self.task_manager is None:
            return 1
        return max(1, self.task_manager.config.batch_size)

    def _guard_check(self) -> None:
        if self.guard is not None:
            self.guard.check()

    def _crowd_begin(self, issue: Callable[[], Any]) -> Any:
        """Gate one ``begin_*`` call on the statement guard.

        An open circuit breaker degrades the statement to a partial
        result when a guard is attached (SELECTs); without one the
        refusal propagates like any platform error."""
        self._guard_check()
        try:
            return issue()
        except CircuitOpenError as error:
            if self.guard is None:
                raise
            raise self.guard.trip("breaker") from error

    def wait_crowd_many(self, futures: list) -> None:
        """Block until every future of a batch is settled.

        Serial mode advances the platform's discrete-event clock right
        here, driving the whole set through overlapped marketplace
        rounds; cooperative mode suspends the session on the set, and the
        scheduler resumes it once every member settled.  A statement
        guard caps the wait: on expiry the unsettled futures stay live in
        the task pool and the statement unwinds with
        :class:`PartialResultStop`.
        """
        if self.crowd_ledger is not None:
            for future in futures:
                self.crowd_ledger.record(future)
        pending = [f for f in futures if not f.settled]
        if not pending:
            return
        self._guard_check()
        if self.crowd_waiter is not None:
            self.crowd_waiter(pending if len(pending) > 1 else pending[0])
            if any(not f.settled for f in pending):
                if self.guard is not None and self.guard.tripped:
                    raise PartialResultStop(self.guard.reason or "deadline")
                raise ExecutionError(
                    "cooperative scheduler resumed a session before its "
                    "crowd futures settled"
                )
        else:
            until = self.guard.deadline_at if self.guard is not None else None
            self.task_manager.wait_many(pending, until=until)
            if any(not f.settled for f in pending):
                raise self.guard.trip("deadline")

    # -- batch issue / settle-once -------------------------------------------------

    def crowd_fill_rows(
        self, schema: Any, rows: list[tuple[dict[str, Any], tuple[str, ...]]]
    ) -> list[dict[str, Any]]:
        """Fill the CNULL columns of stored tuples of ``schema``.

        ``rows`` holds, per tuple, its values by column name and the CNULL
        columns to ask for.  Every fill task is issued up front and the
        set settles in one round (see ``TaskManager.begin_fill_many``);
        the answers are memorized in the stored tuples (always, per the
        paper) and returned per row, typed."""
        if not rows:
            return []
        key_names = [schema.column(c).name for c in schema.primary_key]
        requests = [
            (
                schema,
                tuple(values[name] for name in key_names),
                columns,
                {c: v for c, v in values.items() if not is_missing(v)},
            )
            for values, columns in rows
        ]
        futures = self._crowd_begin(
            lambda: self.task_manager.begin_fill_many(
                requests, platform=self.platform
            )
        )
        self.wait_crowd_many(futures)
        self.crowd_probe_tasks += len(requests)
        heap = self.engine.table(schema.name)
        answer_lists = [future.result() for future in futures]
        for (_schema, key, _columns, _known), answers in zip(
            requests, answer_lists
        ):
            row = heap.lookup_primary_key(key) if key else None
            if row is None:
                continue
            for column, answer in answers.items():
                self.engine.set_value(
                    schema.name, row.rowid, column, answer, origin="crowd"
                )
        return answer_lists

    def memorize_tuple(
        self, schema: Any, values: dict[str, Any]
    ) -> Optional[tuple]:
        """Store one crowd-sourced tuple (always, per the paper) and return
        the stored row's values.  A duplicate key means a concurrent
        session memorized the tuple while this one was suspended on the
        shared crowd future: its stored row comes back instead (None when
        the key finds nothing)."""
        try:
            row = self.engine.insert(
                schema.name,
                [values.get(c, NULL) for c in schema.column_names],
                origin="crowd",
            )
        except ConstraintError:
            key = tuple(values.get(c, NULL) for c in schema.primary_key)
            heap = self.engine.table(schema.name)
            row = heap.lookup_primary_key(key) if key else None
        return None if row is None else row.values

    def crowd_new_tuples_many(
        self, specs: list[tuple]
    ) -> list[list[dict[str, Any]]]:
        """Issue several new-tuple requests (``(schema, count,
        fixed_values, known_keys)`` each) up front, settle the set once,
        and return the sourced tuples per request."""
        futures = [
            self._crowd_begin(
                lambda schema=schema, count=count, fixed_values=fixed_values,
                known_keys=known_keys: self.task_manager.begin_new_tuples(
                    schema,
                    count,
                    fixed_values=fixed_values,
                    platform=self.platform,
                    known_keys=known_keys,
                )
            )
            for schema, count, fixed_values, known_keys in specs
        ]
        self.wait_crowd_many(futures)
        return [future.result() for future in futures]

    def prefetch_compare_equal(self, pairs: list[tuple]) -> None:
        """Issue a window's CROWDEQUAL ballots together and settle them in
        one round; the answers land in the Task Manager's comparison
        cache, so per-row predicate evaluation afterwards never waits."""
        from repro.crowd.quality import normalize_answer

        futures = []
        seen: set[tuple] = set()
        for left, right, question in pairs:
            left_key = normalize_answer(left)
            right_key = normalize_answer(right)
            if (left_key, right_key) in seen or (right_key, left_key) in seen:
                continue  # one ballot answers both orientations
            seen.add((left_key, right_key))
            futures.append(
                self._crowd_begin(
                    lambda left=left, right=right, question=question:
                    self.task_manager.begin_compare_equal(
                        left, right, question, platform=self.platform
                    )
                )
            )
        self.wait_crowd_many(futures)

    def prefetch_compare_order(self, triples: list[tuple]) -> None:
        """Issue a round's CROWDORDER ballots together and settle them in
        one overlapped wait (crowd-sort batching)."""
        from repro.crowd.quality import normalize_answer

        futures = []
        seen: set[tuple] = set()
        for left, right, question in triples:
            left_key = normalize_answer(left)
            right_key = normalize_answer(right)
            if (
                (question, left_key, right_key) in seen
                or (question, right_key, left_key) in seen
            ):
                continue  # mirrored ballots share one HIT
            seen.add((question, left_key, right_key))
            futures.append(
                self._crowd_begin(
                    lambda left=left, right=right, question=question:
                    self.task_manager.begin_compare_order(
                        left, right, question, platform=self.platform
                    )
                )
            )
        self.wait_crowd_many(futures)

    # -- EvalContext protocol -----------------------------------------------------

    def crowd_equal(self, left: Any, right: Any, question: Optional[str]) -> bool:
        if self.task_manager is None:
            raise ExecutionError(
                "query needs CROWDEQUAL but no crowd platform is configured"
            )
        self.crowd_compare_tasks += 1
        future = self._crowd_begin(
            lambda: self.task_manager.begin_compare_equal(
                left, right, question, platform=self.platform
            )
        )
        self.wait_crowd_many([future])
        return future.result()

    def crowd_order(self, left: Any, right: Any, question: str) -> bool:
        if self.task_manager is None:
            raise ExecutionError(
                "query needs CROWDORDER but no crowd platform is configured"
            )
        self.crowd_compare_tasks += 1
        future = self._crowd_begin(
            lambda: self.task_manager.begin_compare_order(
                left, right, question, platform=self.platform
            )
        )
        self.wait_crowd_many([future])
        return future.result()

    def scalar_subquery(self, query: ast.Select, values: tuple, scope: Scope) -> Any:
        rows = self._run_subquery(query, values, scope)
        if not rows:
            return NULL
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must select exactly one column")
        return rows[0][0]

    def subquery_values(self, query: ast.Select, values: tuple, scope: Scope) -> list:
        rows = self._run_subquery(query, values, scope)
        if rows and len(rows[0]) != 1:
            raise ExecutionError("subquery must select exactly one column")
        return [row[0] for row in rows]

    def _run_subquery(
        self, query: ast.Select, values: tuple, scope: Scope
    ) -> list[tuple]:
        if self._subquery_executor is None:
            raise ExecutionError("subqueries are not available in this context")
        return self._subquery_executor(query, values, scope, self.parameters)
