"""Per-node query profiling for ``EXPLAIN ANALYZE``.

:class:`QueryProfiler` wraps every physical operator the planner builds
in a delegating :class:`ProfiledOperator` that measures, per plan node,
the rows produced, inclusive wall/simulated time, and the crowd spend
(cents, assignments, HITs, marketplace rounds) attributable to pulls
through that node.  Metrics are keyed by the *logical* node's identity,
so they join against the optimizer's compile-time
``annotations``/``costs`` and :func:`render_analyze` can print
estimate-vs-actual side by side, flagging misestimates whose smoothed
ratio exceeds a configurable threshold.

Like PostgreSQL's ``EXPLAIN ANALYZE``, per-node instrumentation runs
only when requested — ordinary queries never pay the per-row probes.
All measurements are inclusive (a node's time and cents contain its
subtree's), matching the cumulative cents/rounds semantics of the cost
model's estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.engine.base import PhysicalOperator
from repro.exec.vector import ColumnBatch
from repro.storage.row import Scope


@dataclass
class NodeMetrics:
    """Actuals for one plan node (inclusive of its subtree)."""

    rows: int = 0              # tuples this node produced
    batches: int = 0           # ColumnBatches produced (vectorized nodes)
    next_calls: int = 0        # pulls (rows + the exhausting pull)
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0   # simulated marketplace time
    cost_cents: int = 0
    assignments: int = 0       # crowd ballots received
    hits_posted: int = 0
    rounds: int = 0            # marketplace rounds driven


class ProfiledOperator(PhysicalOperator):
    """Transparent measuring wrapper around one physical operator.

    Parents interact with children only through ``scope``,
    ``sources_crowd_on_pull()``, ``children()``, and iteration — all
    delegated — so wrapping is invisible to the plan.
    """

    def __init__(
        self,
        target: PhysicalOperator,
        metrics: NodeMetrics,
        task_stats: Optional[Any] = None,      # TaskManagerStats
        sim_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(target.context)
        self.target = target
        self.metrics = metrics
        self._task_stats = task_stats
        self._sim_clock = sim_clock

    def bind(self, planner: Any, copy: bool = True) -> PhysicalOperator:
        bound = super().bind(planner, copy)
        bound.target = self.target.bind(planner, copy)
        return bound

    @property
    def scope(self) -> Scope:
        return self.target.scope

    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.target.children()

    def sources_crowd_on_pull(self) -> bool:
        return self.target.sources_crowd_on_pull()

    def set_live(self, live: Optional[Any]) -> None:
        # column-pruning relay (vectorized operators only): parents call
        # set_live through the wrapper, so forward it when present
        target_set_live = getattr(self.target, "set_live", None)
        if target_set_live is not None:
            target_set_live(live)

    def __iter__(self) -> Iterator[tuple]:
        metrics = self.metrics
        stats = self._task_stats
        clock = self._sim_clock
        iterator = iter(self.target)
        while True:
            metrics.next_calls += 1
            started = perf_counter()
            if stats is not None:
                cents0 = stats.cost_cents
                assignments0 = stats.assignments_received
                hits0 = stats.hits_posted
                rounds0 = stats.marketplace_rounds
            if clock is not None:
                sim0 = clock()
            try:
                row = next(iterator)
            except StopIteration:
                row = None
            metrics.wall_seconds += perf_counter() - started
            if stats is not None:
                metrics.cost_cents += stats.cost_cents - cents0
                metrics.assignments += stats.assignments_received - assignments0
                metrics.hits_posted += stats.hits_posted - hits0
                metrics.rounds += stats.marketplace_rounds - rounds0
            if clock is not None:
                metrics.sim_seconds += clock() - sim0
            if row is None:
                return
            if type(row) is ColumnBatch:
                # vectorized nodes yield whole batches: account the rows
                # they carry so totals match the row pipeline's
                metrics.rows += row.num_rows
                metrics.batches += 1
            else:
                metrics.rows += 1
            yield row


class QueryProfiler:
    """Collects :class:`NodeMetrics` keyed by logical plan node."""

    def __init__(
        self,
        task_stats: Optional[Any] = None,
        sim_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.task_stats = task_stats
        self.sim_clock = sim_clock
        self.nodes: dict[int, NodeMetrics] = {}

    def wrap(self, logical_node: Any, op: PhysicalOperator) -> PhysicalOperator:
        """Wrap ``op``, accumulating into the logical node's metrics."""
        metrics = self.nodes.setdefault(id(logical_node), NodeMetrics())
        return ProfiledOperator(
            op, metrics, task_stats=self.task_stats, sim_clock=self.sim_clock
        )

    def metrics_for(self, logical_node: Any) -> Optional[NodeMetrics]:
        return self.nodes.get(id(logical_node))


#: EXPLAIN ANALYZE flags a node whose :func:`misestimate_ratio` reaches this
MISESTIMATE_FLAG_RATIO = 4.0


def misestimate_ratio(estimated: float, actual: float) -> float:
    """Smoothed estimate-vs-actual ratio (symmetric, >= 1.0).

    Additive smoothing keeps tiny counts from screaming: est 0 vs act 1
    is 2x, not infinite.
    """
    high = max(estimated, actual) + 1.0
    low = min(estimated, actual) + 1.0
    return high / low


def render_analyze(
    compiled: Any,                 # OptimizationResult
    profiler: QueryProfiler,
    total_seconds: float,
    crowd_stats: Optional[dict[str, Any]] = None,
) -> str:
    """The ``EXPLAIN ANALYZE`` report: one line per plan node with
    estimated vs actual rows/cents/rounds, per-node wall time, and
    misestimate flags at :data:`MISESTIMATE_FLAG_RATIO`."""
    lines: list[str] = []
    flagged = 0

    def walk(node: Any, indent: int) -> None:
        nonlocal flagged
        text = "  " * indent + node.describe()
        estimate = compiled.annotations.get(id(node))
        cost = compiled.costs.get(id(node))
        metrics = profiler.metrics_for(node)
        est_rows = estimate.rows if estimate is not None else 0.0
        est_cents = cost.cents if cost is not None else 0.0
        est_rounds = cost.rounds if cost is not None else 0.0
        act_rows = metrics.rows if metrics is not None else 0
        act_cents = metrics.cost_cents if metrics is not None else 0
        act_rounds = metrics.rounds if metrics is not None else 0
        parts = [
            f"rows ~{est_rows:g}/{act_rows}",
            f"cents ~{est_cents:g}/{act_cents}",
            f"rounds ~{est_rounds:g}/{act_rounds}",
        ]
        if metrics is not None:
            parts.append(f"{metrics.wall_seconds * 1000.0:.2f} ms")
            if metrics.batches:
                parts.append(f"{metrics.batches} batch(es)")
            if metrics.sim_seconds:
                parts.append(f"sim {metrics.sim_seconds:.0f} s")
        text += "  -- " + " / ".join(parts)
        ratio = misestimate_ratio(est_rows, float(act_rows))
        if ratio >= MISESTIMATE_FLAG_RATIO:
            flagged += 1
            text += f"  !! rows misestimate {ratio:.1f}x"
        lines.append(text)
        for child in node.children():
            walk(child, indent + 1)

    walk(compiled.plan, 0)
    lines.append(f"-- boundedness: {compiled.boundedness.describe()}")
    actual = [f"{total_seconds * 1000.0:.2f} ms total"]
    if crowd_stats:
        actual.append(f"{int(crowd_stats.get('cost_cents', 0))}c")
        actual.append(f"{int(crowd_stats.get('assignments', 0))} assignment(s)")
        actual.append(f"{int(crowd_stats.get('hits_posted', 0))} HIT(s)")
    lines.append("-- actual: " + ", ".join(actual))
    if flagged:
        lines.append(
            f"-- misestimates: {flagged} node(s) at or above "
            f"{MISESTIMATE_FLAG_RATIO:g}x"
        )
    else:
        lines.append(
            f"-- misestimates: none above {MISESTIMATE_FLAG_RATIO:g}x"
        )
    return "\n".join(lines)
