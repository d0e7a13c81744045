"""The concurrent CrowdDB query server.

One :class:`Server` multiplexes N client sessions over a single storage
engine, catalog, UI manager, Task Manager, and set of crowd platforms —
the whole Figure-1 stack shared, with per-session executors on top.  It
wires together the three server-side pieces:

* :class:`~repro.server.session.Session` — suspendable client contexts;
* :class:`~repro.server.scheduler.CooperativeScheduler` — runs sessions
  until they block on crowd tasks, then advances the simulated clock
  once for everyone;
* :class:`~repro.server.task_pool.TaskPool` — cross-session
  deduplication of in-flight HITs (attached to the shared Task Manager).

Typical use::

    from repro import serve

    server = serve(oracle=oracle, seed=7)
    a = server.open_session().submit("SELECT abstract FROM Talk ...")
    b = server.open_session().submit("SELECT abstract FROM Talk ...")
    server.run()        # both queries share one HIT where they overlap
    print(a.last_result().rows, b.last_result().rows)
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.engine.executor import Executor
from repro.server.admission import AdmissionConfig, AdmissionController
from repro.server.scheduler import CooperativeScheduler
from repro.server.session import Session
from repro.server.task_pool import TaskPool


class Server:
    """N sessions, one CrowdDB instance, one shared crowd-task pool."""

    def __init__(
        self,
        connection: Optional[Any] = None,
        admission: Optional[AdmissionConfig] = None,
        **connect_kwargs: Any,
    ) -> None:
        if connection is None:
            from repro.api import connect

            connection = connect(**connect_kwargs)
        elif connect_kwargs:
            raise TypeError(
                "pass either an existing connection or connect() kwargs, "
                "not both"
            )
        self.connection = connection
        self.task_pool = TaskPool()
        if connection.task_manager is not None:
            connection.task_manager.task_pool = self.task_pool
        self.admission = AdmissionController(admission)
        self.scheduler = CooperativeScheduler(connection.task_manager)
        self.sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._closed = False
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose every server subsystem through the connection's metrics
        registry: collectors for the stats objects, computed views for
        live occupancy, and a per-session labeled gauge family."""
        registry = self.connection.metrics
        registry.register_collector("task_pool", self.task_pool.snapshot)
        registry.register_collector("scheduler", self.scheduler.stats.snapshot)
        registry.register_collector("admission", self.admission.snapshot)
        registry.register_view(
            "sessions_open",
            lambda: len(self.sessions),
            help="sessions currently open on the server",
        )
        registry.register_view(
            "sessions_waitlisted",
            lambda: self.admission.waiting_count,
            help="sessions queued behind admission control",
        )
        registry.register_view(
            "simulated_seconds",
            self.simulated_seconds,
            help="wall-clock of the busiest simulated platform",
        )
        registry.register_view(
            "task_pool_dedup_rate",
            self._dedup_rate,
            help="share of pool lookups served by an in-flight HIT",
        )
        registry.register_labeled(
            "session_busy_seconds",
            "session",
            lambda: {
                str(sid): round(s.busy_seconds, 6)
                for sid, s in sorted(self.sessions.items())
            },
            help="wall time each session spent inside statements",
        )
        registry.register_labeled(
            "session_statements",
            "session",
            lambda: {
                str(sid): s.statements_run
                for sid, s in sorted(self.sessions.items())
            },
            help="statements completed per session",
        )

    def _dedup_rate(self) -> float:
        stats = self.task_pool.stats
        return (
            round(stats.deduplicated / stats.lookups, 4)
            if stats.lookups
            else 0.0
        )

    # -- session lifecycle ---------------------------------------------------

    def open_session(self) -> Session:
        """A new session (admitted or waitlisted; raises
        :class:`~repro.errors.AdmissionError` when the server is full)."""
        session_id = next(self._session_ids)
        shared = self.connection.executor
        executor = Executor(
            self.connection.engine,
            optimizer=self.connection.optimizer,
            task_manager=self.connection.task_manager,
            ui_manager=self.connection.ui_manager,
            platform=shared.platform,
            plan_cache=shared.plan_cache,  # plans pool across sessions
            observability=self.connection.observability,
        )
        # every session runs its statements through the connection's
        # runner: one parse memo, one cap precedence, one checkpoint duty
        session = Session(session_id, executor, self.connection.runner)
        self.admission.request(session)  # may raise before registration
        self.sessions[session_id] = session
        return session

    def close_session(self, session: Session) -> None:
        session.close()
        self.sessions.pop(session.session_id, None)
        self.admission.release(session)  # promotions take effect at run()

    # -- execution -----------------------------------------------------------

    def run(self) -> dict[int, list[Any]]:
        """Drive every open session to quiescence; returns the accumulated
        per-session results (ResultSet or Exception per statement)."""
        self.scheduler.drain(self.sessions.values(), self.admission)
        return {
            session_id: session.results
            for session_id, session in sorted(self.sessions.items())
        }

    def run_scripts(self, scripts: list[str]) -> list[list[Any]]:
        """Convenience: one fresh session per script, run concurrently,
        results in script order."""
        sessions = [self.open_session() for _ in scripts]
        for session, script in zip(sessions, scripts):
            session.submit(script)
        self.run()
        return [session.results for session in sessions]

    # -- introspection -------------------------------------------------------

    def simulated_seconds(self) -> float:
        """Wall-clock of the busiest platform (simulated seconds)."""
        now = self.connection.executor.sim_clock()
        return now() if now is not None else 0.0

    def stats(self) -> dict[str, Any]:
        """One snapshot across every server subsystem (read through the
        connection's metrics registry — same shape as always)."""
        registry = self.connection.metrics
        return {
            "sessions_open": len(self.sessions),
            "simulated_seconds": self.simulated_seconds(),
            "task_manager": dict(self.connection.crowd_stats),
            "task_pool": registry.collect("task_pool"),
            "scheduler": registry.collect("scheduler"),
            "admission": registry.collect("admission"),
        }

    def metrics_text(self) -> str:
        """Prometheus-style exposition of connection + server metrics."""
        return self.connection.metrics.text()

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Close every session (aborting any in-flight work)."""
        for session in list(self.sessions.values()):
            self.close_session(session)

    def close(self) -> None:
        """Graceful shutdown: drain sessions, then close the connection
        (which flushes the WAL and writes a final checkpoint when the
        instance is durable).  Safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        self.connection.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
