"""Public API: connect to a CrowdDB instance and run CrowdSQL.

Typical use::

    from repro import connect
    from repro.crowd.sim.traces import GroundTruthOracle

    oracle = GroundTruthOracle()
    oracle.load_fill("Talk", ("CrowdDB",), {"abstract": "..."})

    db = connect(oracle=oracle, seed=7)
    db.execute(\"\"\"CREATE TABLE Talk (
        title STRING PRIMARY KEY,
        abstract CROWD STRING,
        nb_attendees CROWD INTEGER)\"\"\")
    db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')")
    result = db.execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")

The connection owns the whole stack of the paper's Figure 1: parser,
optimizer, executor and storage on the left; UI template manager, task
manager, worker relationship manager and the two simulated platforms on
the right.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.crowd.platform import CrowdPlatform, PlatformRegistry
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.mobile import SimulatedMobilePlatform
from repro.crowd.reputation import ReputationStore
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.task_manager import CrowdConfig, TaskManager
from repro.crowd.wrm import WorkerRelationshipManager
from repro.engine.executor import Executor, ResultSet
from repro.errors import CrowdPlatformError, ExecutionError
from repro.obs import (
    MetricsRegistry,
    Observability,
    SlowQueryEntry,
    SlowQueryLog,
    TraceSink,
)
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.sql import ast
from repro.sql.parser import parse, parse_script
from repro.statement import Statement, StatementRunner
from repro.storage.engine import StorageEngine
from repro.storage.recovery import DurableStorage
from repro.ui.form_editor import FormEditor
from repro.ui.manager import UITemplateManager

if TYPE_CHECKING:
    from repro.server.admission import AdmissionConfig


def _parse_text(sql: str, single: bool = False) -> list[ast.Statement]:
    """What this instance's statement runner parses with: exactly one
    statement for ``execute`` (``"a; b"`` stays a parse error there), a
    ;-separated script for everything else."""
    return [parse(sql)] if single else parse_script(sql)


class Connection:
    """One CrowdDB instance: storage + compiler + crowd subsystem."""

    def __init__(
        self,
        engine: Optional[StorageEngine] = None,
        platforms: Optional[PlatformRegistry] = None,
        crowd_config: Optional[CrowdConfig] = None,
        strict_boundedness: bool = False,
        plan_cache_size: int = 64,
        auto_analyze_floor: Optional[int] = None,
        auto_analyze_fraction: Optional[float] = None,
        observability: bool = True,
        slow_query_seconds: Optional[float] = None,
        trace_capacity: int = 2048,
        misestimate_ratio: float = 4.0,
        path: Optional[str] = None,
        wal_sync: str = "commit",
        checkpoint_interval: Optional[int] = 1024,
    ) -> None:
        # durable storage: with a path the engine is recovered from disk —
        # checkpoint plus WAL tail — and every further mutation is
        # written ahead to <path>/wal.jsonl
        self.storage: Optional[DurableStorage] = None
        if path is not None:
            if engine is not None:
                raise ExecutionError(
                    "pass either a prebuilt engine or a storage path, not both"
                )
            self.storage = DurableStorage(
                path,
                wal_sync=wal_sync,
                checkpoint_interval=checkpoint_interval,
                auto_analyze_floor=auto_analyze_floor,
                auto_analyze_fraction=auto_analyze_fraction,
            )
            engine = self.storage.engine
        self.engine = (
            engine
            if engine is not None
            else StorageEngine(
                auto_analyze_floor=auto_analyze_floor,
                auto_analyze_fraction=auto_analyze_fraction,
            )
        )
        self._closed = False
        self.catalog: Catalog = self.engine.catalog
        self.platforms = platforms
        self.ui_manager = UITemplateManager(self.catalog)
        self.form_editor = FormEditor(self.ui_manager)
        self.wrm = WorkerRelationshipManager()
        self.reputation = ReputationStore(wrm=self.wrm)
        # observability bundle: metrics registry, HIT trace ring, slow
        # query log; enabled=False keeps the registry (compat views read
        # through it) but skips all per-statement and tracing work
        self.observability = Observability(
            enabled=observability,
            trace=TraceSink(capacity=trace_capacity),
            slow_log=SlowQueryLog(threshold_seconds=slow_query_seconds),
            misestimate_ratio=misestimate_ratio,
        )
        self.metrics: MetricsRegistry = self.observability.metrics
        self.task_manager: Optional[TaskManager] = None
        if platforms is not None:
            self.task_manager = TaskManager(
                platforms, self.ui_manager, config=crowd_config
            )
            self.task_manager.reputation = self.reputation
            self.reputation.block_below = self.task_manager.config.block_below
            if observability:
                self.task_manager.tracer = self.observability.trace
        if self.storage is not None:
            # seed comparison caches + reputation posteriors from the
            # recovered ledger and attach the write-through hooks
            self.storage.bind_crowd(self.task_manager, self.reputation)
            if self.task_manager is not None:
                # HIT issues parked while a platform breaker was open
                # survive restarts alongside the WAL
                self.task_manager.retry_queue.bind_path(
                    os.path.join(path, "crowd_retry.jsonl")
                )
        self.optimizer = Optimizer(
            self.engine,
            strict_boundedness=strict_boundedness,
            crowd_config=(
                self.task_manager.config
                if self.task_manager is not None
                else crowd_config
            ),
        )
        self.executor = Executor(
            self.engine,
            optimizer=self.optimizer,
            task_manager=self.task_manager,
            ui_manager=self.ui_manager,
            plan_cache_size=plan_cache_size,
            observability=self.observability,
        )
        # kernel fallback telemetry (one-shot warnings + counter) flows
        # through this connection's registry
        from repro.exec import kernels as _kernels

        _kernels.set_metrics_registry(self.metrics)
        # the one statement pipeline: execute()/executescript() here and
        # every server session (in-process or over TCP) run through it
        self.runner = StatementRunner(
            _parse_text,
            storage=self.storage,
            memo_size=max(0, plan_cache_size) * 4,
        )
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Expose the ad-hoc stats dicts as pull-based registry
        collectors; ``crowd_stats``/``plan_cache_stats`` become reads
        through the registry (same shapes as before)."""
        if self.task_manager is not None:
            self.metrics.register_collector(
                "crowd", self.task_manager.stats.snapshot
            )
            # breaker health: state per platform (0=closed, 1=half-open,
            # 2=open) plus the flattened per-breaker stats + queue depth
            self.metrics.register_labeled(
                "breaker_state",
                "platform",
                self.task_manager.breaker_states,
                help="circuit breaker state per crowd platform",
            )
            self.metrics.register_collector(
                "breaker", self.task_manager.breaker_snapshot
            )
        self.metrics.register_collector(
            "parse_cache", lambda: dict(self.parse_cache_stats)
        )
        self.metrics.register_collector(
            "plan_cache", lambda: dict(self.executor.plan_cache.stats)
        )
        if self.storage is not None:
            self.metrics.register_collector(
                "storage", self.storage.stats_snapshot
            )

    @property
    def parse_cache_stats(self) -> dict[str, int]:
        return self.runner.parse_memo.stats

    # -- statement execution ------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        """Parse and execute one CrowdSQL statement."""
        statement = Statement(sql, parameters)
        return self.runner.run(statement, self.executor, single=True).results[0]

    def executescript(self, sql: str) -> list[ResultSet]:
        """Execute a semicolon-separated script; returns all results."""
        return self.runner.run(Statement(sql), self.executor).results

    def _parse_select(self, sql: str, caller: str) -> ast.Statement:
        """The SELECT inside ``sql`` (``EXPLAIN`` / ``WITH DEADLINE``
        wrappers peeled off) for the plan-inspection helpers."""
        statement = parse(sql)
        if isinstance(statement, ast.Explain):
            statement = statement.statement
        if isinstance(statement, ast.Guarded):
            statement = statement.statement
        if not isinstance(statement, (ast.Select, ast.SetOp)):
            raise ExecutionError(
                f"{caller}() supports SELECT statements only"
            )
        return statement

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> list[tuple]:
        """Execute and return just the rows."""
        return self.execute(sql, parameters).rows

    def analyze(self, table: Optional[str] = None) -> ResultSet:
        """Rebuild histogram/MCV statistics (``ANALYZE`` convenience)."""
        return self.executor.execute(ast.Analyze(table))

    @property
    def plan_cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss counters of the parse memo and the plan cache
        (compatibility view over the metrics registry)."""
        return {
            "parse": self.metrics.collect("parse_cache"),
            "plan": self.metrics.collect("plan_cache"),
        }

    def explain(self, sql: str) -> str:
        """The optimized plan (with boundedness verdict) for a SELECT."""
        return self.executor.compile_select(
            self._parse_select(sql, "explain")
        ).explain()

    def compile(self, sql: str) -> OptimizationResult:
        """Compile a SELECT without executing it."""
        return self.executor.compile_select(self._parse_select(sql, "compile"))

    def cursor(self) -> "Cursor":
        return Cursor(self)

    # -- crowd plumbing -----------------------------------------------------------------

    def set_platform(self, name: str) -> None:
        """Make the platform registered under ``name`` the default for
        the next statement of every session (raises
        :class:`~repro.errors.CrowdPlatformError` for an unknown name)."""
        if self.platforms is None:
            raise CrowdPlatformError("no crowdsourcing platform is configured")
        self.platforms.set_default(name)

    @property
    def crowd_stats(self) -> dict[str, float]:
        """Task Manager counters (compatibility view over the registry)."""
        if self.task_manager is None:
            return {}
        return self.metrics.collect("crowd")

    # -- observability ------------------------------------------------------------------

    @property
    def trace(self) -> TraceSink:
        """The ring-buffered HIT lifecycle trace."""
        return self.observability.trace

    @property
    def slow_log(self) -> SlowQueryLog:
        return self.observability.slow_log

    def slow_queries(self, limit: Optional[int] = None) -> list[SlowQueryEntry]:
        """Most recent statements over the slow-query threshold."""
        return self.observability.slow_log.entries(limit)

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of every registered metric."""
        return self.metrics.text()

    def explain_analyze(self, sql: str) -> str:
        """Run a SELECT and return the estimate-vs-actual plan report.

        It runs as ``EXPLAIN ANALYZE <sql>`` through :meth:`execute`, so
        the query's caps — ``WITH DEADLINE/BUDGET`` in the text, else the
        ``connect()`` defaults — stop it as they would stop the SELECT;
        a tripped cap adds a ``-- partial: <reason>`` footer."""
        result = self.execute(f"EXPLAIN ANALYZE {sql}")
        return "\n".join(row[0] for row in result.rows)

    # -- durability ---------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Force a checkpoint now; returns the covered WAL LSN."""
        if self.storage is None:
            raise ExecutionError(
                "no durable storage attached — open with connect(path=...)"
            )
        return self.storage.checkpoint()

    @property
    def recovery_report(self):
        """What recovery found when this connection opened (None for
        in-memory connections)."""
        return self.storage.report if self.storage is not None else None

    def close(self) -> None:
        """Flush the WAL and write a final checkpoint; idempotent.

        In-memory connections keep the historical no-op behaviour."""
        if self._closed:
            return
        self._closed = True
        if self.storage is not None:
            self.storage.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Cursor:
    """Minimal DB-API-flavoured cursor over a :class:`Connection`."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._result: Optional[ResultSet] = None
        self._position = 0

    @property
    def description(self) -> Optional[list[tuple]]:
        if self._result is None or not self._result.columns:
            return None
        return [
            (name, None, None, None, None, None, None)
            for name in self._result.columns
        ]

    @property
    def rowcount(self) -> int:
        return -1 if self._result is None else self._result.rowcount

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "Cursor":
        self._result = self.connection.execute(sql, parameters)
        self._position = 0
        return self

    def fetchone(self) -> Optional[tuple]:
        if self._result is None or self._position >= len(self._result.rows):
            return None
        row = self._result.rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int = 1) -> list[tuple]:
        rows = []
        for _ in range(size):
            row = self.fetchone()
            if row is None:
                break
            rows.append(row)
        return rows

    def fetchall(self) -> list[tuple]:
        if self._result is None:
            return []
        rows = self._result.rows[self._position :]
        self._position = len(self._result.rows)
        return rows

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        self._result = None


def connect(
    oracle: Optional[GroundTruthOracle] = None,
    seed: int = 42,
    crowd_config: Optional[CrowdConfig] = None,
    strict_boundedness: bool = False,
    amt_population: int = 200,
    mobile_population: int = 60,
    platforms: Optional[Iterable[CrowdPlatform]] = None,
    default_platform: Optional[str] = None,
    with_crowd: bool = True,
    plan_cache_size: int = 64,
    auto_analyze_floor: Optional[int] = None,
    auto_analyze_fraction: Optional[float] = None,
    observability: bool = True,
    slow_query_seconds: Optional[float] = None,
    trace_capacity: int = 2048,
    misestimate_ratio: float = 4.0,
    path: Optional[str] = None,
    wal_sync: str = "commit",
    checkpoint_interval: Optional[int] = 1024,
) -> Connection:
    """Create a CrowdDB connection.

    By default two simulated platforms are attached — ``"amt"`` (the
    worldwide crowd) and ``"mobile"`` (the locality-aware conference
    crowd) — both answering from ``oracle``.  Pass ``with_crowd=False``
    for a traditional, crowd-less database.  ``default_platform`` names
    the registered platform queries post to (``None``: the first one);
    an unknown name raises :class:`~repro.errors.CrowdPlatformError`.

    Crowd policy — replication, batching, adaptive quality, retries,
    per-statement caps, the circuit breaker — is ``crowd_config`` (see
    :class:`CrowdConfig`); it has no keyword of its own here.

    ``plan_cache_size`` bounds the per-connection plan cache (0 disables
    caching); ``auto_analyze_floor`` / ``auto_analyze_fraction`` tune the
    statistics staleness guard that rebuilds histograms after enough DML
    (floor -1 disables it, leaving statistics to explicit ``ANALYZE``).

    ``observability=False`` disables per-statement metrics, HIT tracing,
    and the slow-query log (EXPLAIN ANALYZE still works — its profiling
    is always per-request).  ``slow_query_seconds`` sets the slow-query
    log threshold (``None`` leaves it off); ``trace_capacity`` bounds the
    HIT trace ring; ``misestimate_ratio`` is the estimate-vs-actual ratio
    at which EXPLAIN ANALYZE flags a plan node.

    ``path`` makes the instance durable: state is recovered from the
    directory on open (checkpoint + WAL tail, including every paid crowd
    answer) and every mutation is logged ahead to ``<path>/wal.jsonl``;
    without it the instance is in memory.  ``wal_sync`` picks the fsync
    policy (``"commit"``/``"batch"``/``"off"``); ``checkpoint_interval``
    is the number of WAL records between automatic checkpoints (``None``
    disables, leaving them to :meth:`Connection.checkpoint` and
    :meth:`Connection.close`).
    """
    planner_kwargs = dict(
        plan_cache_size=plan_cache_size,
        auto_analyze_floor=auto_analyze_floor,
        auto_analyze_fraction=auto_analyze_fraction,
        observability=observability,
        slow_query_seconds=slow_query_seconds,
        trace_capacity=trace_capacity,
        misestimate_ratio=misestimate_ratio,
        path=path,
        wal_sync=wal_sync,
        checkpoint_interval=checkpoint_interval,
    )
    if not with_crowd:
        return Connection(
            strict_boundedness=strict_boundedness, **planner_kwargs
        )
    if oracle is None:
        oracle = GroundTruthOracle()
    registry = PlatformRegistry()
    if platforms is None:
        platforms = (
            SimulatedAMT(oracle, population=amt_population, seed=seed),
            SimulatedMobilePlatform(
                oracle, population=mobile_population, seed=seed
            ),
        )
    for platform in platforms:
        registry.register(platform)
    if default_platform is not None:
        registry.set_default(default_platform)
    connection = Connection(
        platforms=registry,
        crowd_config=crowd_config,
        strict_boundedness=strict_boundedness,
        **planner_kwargs,
    )
    # wire the Worker Relationship Manager into every simulated platform:
    # payments/bonuses flow on each assignment, and the WRM's blocklist and
    # qualification checks gate worker eligibility
    for platform in platforms:
        hook = getattr(platform, "on_assignment", None)
        if isinstance(hook, list):
            hook.append(connection.wrm.on_assignment)
        if hasattr(platform, "wrm"):
            platform.wrm = connection.wrm
    return connection


def serve(
    connection: Optional[Connection] = None,
    admission: Optional[AdmissionConfig] = None,
    **connect_kwargs: Any,
):
    """Create a concurrent query server over one CrowdDB instance.

    Sessions opened on the returned :class:`~repro.server.Server` run
    under a cooperative scheduler: a query waiting on crowd ballots
    suspends, other sessions proceed, and identical in-flight crowd tasks
    are deduplicated through the shared task pool.  ``admission`` caps
    the active and waiting sessions; ``connect_kwargs`` are forwarded to
    :func:`connect` when no ``connection`` is given.
    """
    from repro.server import Server

    # Server itself rejects connection + connect_kwargs together, so
    # conflicting arguments raise instead of being silently dropped
    return Server(
        connection=connection, admission=admission, **connect_kwargs
    )
