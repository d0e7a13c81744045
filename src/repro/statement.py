"""One statement pipeline for every front end.

Whatever sent it — ``Connection.execute``/``executescript`` inline, a
server :class:`~repro.server.session.Session` under the scheduler, or a
wire frame through the TCP pump — a submission is one :class:`Statement`
and goes through :meth:`StatementRunner.run`:

    memoized parse → caps → execute each ;-statement → record → checkpoint

so how text is parsed, which cap wins, what an error does to the rest of
a script, where results land and what is owed after a statement are
decided here, once, rather than per front end.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.engine.executor import Executor, PlanCache
from repro.errors import StatementCancelled
from repro.sql import ast


class Statement:
    """One submission: text and caps in, one result per ;-statement out.

    The front end that builds it is the one that reads it back — the
    object the TCP pump posts to a session is the object it replies from.
    """

    __slots__ = (
        "sql", "parameters", "deadline_ms", "budget_cents",
        "statement_id", "results", "done", "started_at",
    )

    def __init__(
        self,
        sql: str,
        parameters: Sequence[Any] = (),
        deadline_ms: Optional[int] = None,
        budget_cents: Optional[int] = None,
        statement_id: int = 0,
    ) -> None:
        self.sql = sql
        self.parameters = parameters
        # per-submission caps (wire frames / Session.submit); a WITH
        # clause in the text wins over them, connect() defaults lose
        self.deadline_ms = deadline_ms
        self.budget_cents = budget_cents
        self.statement_id = statement_id  # the client's id on the wire
        self.results: list[Any] = []  # ResultSet | Exception, in order
        self.done = False  # set by the runner, after the last checkpoint
        self.started_at = 0.0  # perf_counter() when a session queued it


class StatementRunner:
    """Runs :class:`Statement` objects; one per CrowdDB instance, shared
    by the connection and every server session over it — so text any of
    them has submitted before parses once, and a durable instance
    checkpoints on schedule whichever front end did the writing."""

    def __init__(
        self,
        parse: Callable[[str, bool], list],
        storage: Optional[Any] = None,  # repro.storage.recovery.DurableStorage
        memo_size: int = 256,
    ) -> None:
        # (sql, single) -> statements; the owner's function, so the
        # parser is looked up where the owner imported it
        self._parse = parse
        self.storage = storage
        # SQL text -> statement ASTs (immutable, so reuse is safe); with
        # the executor's plan cache behind it, a repeated query skips
        # parsing *and* optimization entirely
        self.parse_memo = PlanCache(memo_size)

    def parsed(self, sql: str, single: bool = False) -> list:
        """The ;-separated statements of ``sql``, memoized on the text.
        ``single`` is ``execute()``'s contract of exactly one."""
        statements = self.parse_memo.lookup(sql)
        if statements is None:
            statements = self._parse(sql, single)
            self.parse_memo.store(sql, statements)
        elif single and len(statements) != 1:
            self._parse(sql, True)  # raises what a first parse would have
        return statements

    def run(
        self,
        statement: Statement,
        executor: Executor,
        single: bool = False,
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> Statement:
        """Drive ``statement`` through ``executor`` to ``done``.

        Without ``cancel_check`` the first error propagates (the
        in-process connection: its caller's ``try`` is the policy).  With
        one — a session's, called before each ;-statement — an error is
        recorded in the result's place and the script goes on, REPL-style,
        except that a :class:`StatementCancelled` ends it: the client
        asked for silence."""
        results = statement.results
        try:
            script = self.parsed(statement.sql, single)
        except Exception as error:
            if cancel_check is None:
                raise
            results.append(error)
            script = ()
        # cap precedence, decided here for every front end: WITH clause
        # in the text > the submission's own caps > connect() defaults
        deadline_ms, budget_cents = statement.deadline_ms, statement.budget_cents
        if executor.task_manager is not None:
            config = executor.task_manager.config
            if deadline_ms is None:
                deadline_ms = config.statement_deadline_ms
            if budget_cents is None:
                budget_cents = config.statement_budget_cents
        capped = deadline_ms is not None or budget_cents is not None
        for parsed in script:
            if capped:
                parsed = _under_caps(parsed, deadline_ms, budget_cents)
            try:
                if cancel_check is not None:
                    cancel_check()
                results.append(executor.execute(parsed, statement.parameters))
            except Exception as error:
                if cancel_check is None:
                    raise
                # the exception object keeps its worker-side traceback
                # (__traceback__), so whoever re-raises it later shows
                # the failing operator's frames
                results.append(error)
                if isinstance(error, StatementCancelled):
                    break
            # on the thread that holds the execution baton, between two
            # statements: the cut is at a WAL record boundary
            if self.storage is not None:
                self.storage.maybe_checkpoint()
        statement.done = True
        return statement


def _under_caps(
    parsed: ast.Statement,
    deadline_ms: Optional[int],
    budget_cents: Optional[int],
) -> ast.Guarded:
    """``parsed`` as the ``WITH DEADLINE/BUDGET`` node the executor
    honours; caps already written in the text win, field by field."""
    if isinstance(parsed, ast.Guarded):
        if parsed.deadline_ms is not None:
            deadline_ms = parsed.deadline_ms
        if parsed.budget_cents is not None:
            budget_cents = parsed.budget_cents
        parsed = parsed.statement
    return ast.Guarded(parsed, deadline_ms, budget_cents)
