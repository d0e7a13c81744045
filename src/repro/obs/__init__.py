"""End-to-end observability: profiling, tracing, metrics, slow queries.

Three layers, one bundle:

* :class:`~repro.obs.profiler.QueryProfiler` — per-plan-node actuals for
  ``EXPLAIN ANALYZE`` (opt-in per statement, zero cost otherwise);
* :class:`~repro.obs.trace.TraceSink` — ring-buffered HIT-lifecycle span
  events emitted by the Task Manager and the voting layer;
* :class:`~repro.obs.metrics.MetricsRegistry` — the connection-wide
  instrument registry with Prometheus-style exposition, plus the
  :class:`~repro.obs.slowlog.SlowQueryLog`.

:class:`Observability` carries all of it from ``connect()`` down through
the executor and the query server.  Always-on instrumentation is
per-*statement* (two clock reads and a histogram insert), which is how
the E17 benchmark keeps the measured overhead under 5%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import (
    NodeMetrics,
    ProfiledOperator,
    QueryProfiler,
    misestimate_ratio,
    render_analyze,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import TraceEvent, TraceSink

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeMetrics",
    "Observability",
    "ProfiledOperator",
    "QueryProfiler",
    "SlowQueryEntry",
    "SlowQueryLog",
    "TraceEvent",
    "TraceSink",
    "misestimate_ratio",
    "render_analyze",
]


@dataclass
class Observability:
    """The connection's observability bundle (threaded everywhere)."""

    enabled: bool = True
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    trace: TraceSink = field(default_factory=TraceSink)
    slow_log: SlowQueryLog = field(default_factory=SlowQueryLog)

    def observe_statement(
        self,
        statement: str,
        seconds: float,
        rows: int = 0,
        cost_cents: int = 0,
        sql_fn: Optional[Callable[[], str]] = None,
    ) -> None:
        """Per-statement bookkeeping: latency histogram, counters, and
        the slow-query log (SQL text rendered lazily, only for entries
        that actually record)."""
        self.metrics.counter(
            "statements_total", help="statements executed"
        ).inc()
        self.metrics.histogram(
            "statement_seconds", help="statement wall time"
        ).observe(seconds)
        if cost_cents:
            self.metrics.counter(
                "statement_crowd_cents_total",
                help="crowd cents spent by statements",
            ).inc(cost_cents)
        if self.slow_log.should_record(seconds):
            self.metrics.counter(
                "slow_queries_total", help="statements over the slow threshold"
            ).inc()
            sql = sql_fn() if sql_fn is not None else ""
            self.slow_log.record(
                sql,
                seconds,
                rows=rows,
                cost_cents=cost_cents,
                statement=statement,
            )
