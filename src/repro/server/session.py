"""One client session of the concurrent query server.

A session is the scheduler's shim over the one statement pipeline
(:mod:`repro.statement`): it owns a queue of :class:`Statement` objects,
a results list, and a worker thread that hands each statement to the
shared runner against the *shared* storage engine.  Threads are
used purely as suspendable stacks — the cooperative scheduler guarantees
that at most one session (or the scheduler itself) executes at any
moment, handing control back and forth with a pair of events:

* the scheduler calls :meth:`run_slice`, which wakes the thread and
  blocks until it *yields*;
* the thread yields when it finishes its queue (state ``IDLE``) or when
  a crowd operator issues tasks and parks on their future (state
  ``WAITING`` — the ``crowd_waiter`` installed on the session's
  executor).

Because exactly one thread is ever runnable, execution is deterministic:
same seed, same submission order, same interleaving, same answers.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from time import perf_counter
from typing import Any, Optional

from repro.engine.executor import Executor, ResultSet
from repro.errors import ExecutionError, StatementCancelled
from repro.sql.parser import parse_script
from repro.statement import Statement, StatementRunner


class SessionState(enum.Enum):
    IDLE = "IDLE"          # queue drained, parked, can take more work
    RUNNING = "RUNNING"    # currently holds the execution baton
    WAITING = "WAITING"    # parked on a pending crowd future
    CLOSED = "CLOSED"      # thread exited


#: how long run_slice waits for the worker thread before declaring it
#: wedged — generous, since simulated work completes in milliseconds
_SLICE_TIMEOUT_SECONDS = 60.0


class Session:
    """A suspendable CrowdSQL client multiplexed by the scheduler."""

    def __init__(
        self,
        session_id: int,
        executor: Executor,
        runner: Optional[StatementRunner] = None,
    ) -> None:
        self.session_id = session_id
        self.executor = executor
        # the server passes its connection's runner — parse memo and
        # checkpoint duty shared by all sessions, like the plan cache
        self._runner = runner if runner is not None else StatementRunner(
            lambda sql, _single: parse_script(sql)
        )
        executor.crowd_waiter = self._crowd_wait
        self.state = SessionState.IDLE
        # CrowdFuture — or a list of them, for a batch-issuing operator —
        # while WAITING; the session resumes when the whole set settled
        self.waiting_on: Optional[Any] = None
        # ResultSet | Exception per ;-statement, accumulated for the
        # in-process client; a front end that replies from the Statement
        # it posted (the TCP pump) clears this once the reply is out
        self.results: list[Any] = []
        self.statements_run = 0
        self.suspensions = 0
        self.busy_seconds = 0.0  # wall time spent running submissions
        self._statements: deque[Statement] = deque()
        self._thread: Optional[threading.Thread] = None
        self._resume = threading.Event()
        self._yielded = threading.Event()
        self._closing = False
        # cancel protocol: any thread may set the flag (the network
        # front end does); the worker observes it at its yield points
        # and unwinds the in-flight statement with StatementCancelled,
        # then drops the rest of its queue
        self._cancel_requested = False
        self.statements_cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session {self.session_id} {self.state.value} "
            f"queued={len(self._statements)} results={len(self.results)}>"
        )

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        sql: str | Statement,
        deadline_ms: Optional[int] = None,
        budget_cents: Optional[int] = None,
    ) -> "Session":
        """Queue one statement (or ;-separated script) for execution.

        ``deadline_ms``/``budget_cents`` cap the submission: when either
        is hit mid-statement the result degrades to ``status="partial"``
        instead of blocking forever or overspending.  A front end that
        wants the per-submission results back passes the
        :class:`Statement` it built (caps and all) in place of the text."""
        if self.state is SessionState.CLOSED:
            raise ExecutionError(
                f"session {self.session_id} is closed"
            )
        statement = (
            sql
            if isinstance(sql, Statement)
            else Statement(
                sql, deadline_ms=deadline_ms, budget_cents=budget_cents
            )
        )
        statement.started_at = perf_counter()
        self._statements.append(statement)
        return self

    @property
    def queued(self) -> int:
        return len(self._statements)

    @property
    def errors(self) -> list[Exception]:
        return [r for r in self.results if isinstance(r, Exception)]

    def last_result(self) -> ResultSet:
        """The most recent result; re-raises if it was an error."""
        if not self.results:
            raise ExecutionError(
                f"session {self.session_id} has no results yet"
            )
        result = self.results[-1]
        if isinstance(result, Exception):
            # re-raise with the worker thread's traceback attached: the
            # client-side stack alone would name run_slice/last_result,
            # not the operator that actually failed
            raise result.with_traceback(result.__traceback__)
        return result

    def cancel(self) -> None:
        """Abort the in-flight statement and drop the queued ones.

        Safe from any thread.  The worker notices the flag at its next
        yield point (crowd park or statement boundary) and
        unwinds with :class:`StatementCancelled` through the operators'
        normal error paths, so no future is double-settled and the WAL
        never stays mid-transaction.  A WAITING session becomes runnable
        immediately so the scheduler resumes it to unwind rather than
        advancing the clock for futures nobody wants anymore.
        """
        if self.state is SessionState.CLOSED or self.quiescent():
            return  # nothing in flight: don't poison the next statement
        self._cancel_requested = True

    # -- scheduler API -------------------------------------------------------

    def runnable(self) -> bool:
        """Can this session make progress right now without the clock?"""
        if self.state is SessionState.CLOSED:
            return False
        if self.state is SessionState.WAITING:
            if self._cancel_requested or self._closing:
                return True  # resume to unwind, futures be damned
            if self.trip_guard_if_expired():
                # statement deadline passed on the simulated clock:
                # resume so the worker unwinds into a partial result —
                # its unsettled futures stay in the shared task pool
                return True
            futures = self.waiting_futures()
            return bool(futures) and all(f.settled for f in futures)
        return bool(self._statements)

    def active_guard(self) -> Optional[Any]:
        """The deadline/budget guard of the in-flight statement, if any."""
        return self.executor.active_guard

    def trip_guard_if_expired(self) -> bool:
        """Trip (without raising) the in-flight statement's guard when
        its simulated-clock deadline has passed.  Scheduler-facing."""
        guard = self.executor.active_guard
        return guard is not None and guard.trip_if_expired()

    def waiting_futures(self) -> tuple:
        """The crowd futures this session is parked on (possibly many —
        batch-issuing operators suspend on a whole window's set)."""
        waiting = self.waiting_on
        if waiting is None:
            return ()
        if isinstance(waiting, (list, tuple)):
            return tuple(waiting)
        return (waiting,)

    def quiescent(self) -> bool:
        """No queued work and nothing in flight (slot can be released)."""
        return (
            self.state in (SessionState.IDLE, SessionState.CLOSED)
            and not self._statements
        )

    def run_slice(self) -> None:
        """Hand the baton to this session until it parks again."""
        if self.state is SessionState.CLOSED:
            return
        self._ensure_thread()
        self._yielded.clear()
        self._resume.set()
        if not self._yielded.wait(_SLICE_TIMEOUT_SECONDS):
            raise ExecutionError(
                f"session {self.session_id} did not yield within "
                f"{_SLICE_TIMEOUT_SECONDS}s — worker thread wedged?"
            )

    def close(self) -> None:
        """Stop the worker thread.  In-flight work is aborted: a session
        parked mid-statement unwinds with :class:`StatementCancelled`
        through the operators' error paths before the thread exits, and
        the (daemon) thread is joined so an abandoned connection cannot
        leak it."""
        if self.state is SessionState.CLOSED:
            return
        self._closing = True
        if self._thread is not None and self._thread.is_alive():
            self.run_slice()
            self._thread.join(timeout=_SLICE_TIMEOUT_SECONDS)
            if self._thread.is_alive():  # pragma: no cover - wedged worker
                raise ExecutionError(
                    f"session {self.session_id} worker thread did not "
                    "exit on close"
                )
        self.state = SessionState.CLOSED

    # -- worker thread -------------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._main,
                name=f"crowddb-session-{self.session_id}",
                daemon=True,
            )
            self._thread.start()

    def _main(self) -> None:
        try:
            self._await_resume()
            while not self._closing:
                if self._statements:
                    self._run_one(self._statements.popleft())
                    if self._cancel_requested:
                        # cancellation consumes the whole queue: the
                        # client that cancelled does not want the rest
                        self._statements.clear()
                        self._cancel_requested = False
                else:
                    self.state = SessionState.IDLE
                    self._park()
        finally:
            self.state = SessionState.CLOSED
            self._yielded.set()

    def _run_one(self, statement: Statement) -> None:
        self.state = SessionState.RUNNING
        started = perf_counter()
        self._runner.run(
            statement, self.executor, cancel_check=self._check_cancel
        )
        self.busy_seconds += perf_counter() - started
        self.results.extend(statement.results)
        for result in statement.results:
            if isinstance(result, StatementCancelled):
                self.statements_cancelled += 1
            elif not isinstance(result, Exception):
                self.statements_run += 1

    def _check_cancel(self, when: str = "before execution") -> None:
        """Raise :class:`StatementCancelled` in the worker thread if a
        cancel or close is pending — before each ;-statement (the
        runner's ``cancel_check``) and on either side of a park."""
        if self._cancel_requested or self._closing:
            raise StatementCancelled(
                f"session {self.session_id}: statement cancelled {when}"
            )

    def _crowd_wait(self, future: Any) -> None:
        """The executor's yield point: park until the scheduler has
        settled ``future`` — one crowd future or a batch-issued list of
        them (installed as ``executor.crowd_waiter``).

        A cancel or close that arrived while parked (or just before
        parking) raises :class:`StatementCancelled` here, in the worker
        thread, so the statement unwinds through its operators' normal
        error paths — futures left behind are simply never waited on
        again, which the Task Manager treats as abandonment, not
        settlement."""
        self._check_cancel("at a yield point")
        self.waiting_on = future
        self.state = SessionState.WAITING
        self.suspensions += 1
        self._park()
        self.waiting_on = None
        self.state = SessionState.RUNNING
        self._check_cancel("while suspended")

    def _park(self) -> None:
        """Yield the baton to the scheduler and sleep until resumed."""
        self._yielded.set()
        self._await_resume()

    def _await_resume(self) -> None:
        self._resume.wait()
        self._resume.clear()
