"""Cardinality estimation for logical plans.

The paper's optimizer "first annotates the query plan with the cardinality
predictions between the operators" (Section 3.2.2).  Estimates combine
live table statistics with textbook selectivity guesses; crowd operators
additionally expose an estimate of how many *crowd requests* they will
issue, which the cost model and the boundedness analysis consume.

Where statistics exist the estimator answers from them instead of
textbook constants:

* equality against a literal uses the exact live value frequency;
* range, BETWEEN, and prefix-LIKE predicates interpolate over the
  column's equi-depth histogram (built by ``ANALYZE``/auto-analyze);
* ``IS [C]NULL`` uses the tracked null/CNULL fractions;
* equi-join selectivity between two columns is ``1 / max(NDV)``.

Without them (unknown column, unanalyzed range, leading-wildcard LIKE
with no MCVs) the textbook constants below apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.plan import logical
from repro.sql import ast
from repro.storage.engine import StorageEngine
from repro.storage.statistics import ColumnStatistics

EQUALITY_SELECTIVITY_DEFAULT = 0.1
RANGE_SELECTIVITY_DEFAULT = 0.3
LIKE_SELECTIVITY_DEFAULT = 0.25
NULL_SELECTIVITY_DEFAULT = 0.1
UNBOUNDED = float("inf")


@dataclass(frozen=True)
class Estimate:
    """Annotation for one plan node."""

    rows: float
    crowd_calls: float = 0.0

    def __str__(self) -> str:
        crowd = f", crowd~{self.crowd_calls:g}" if self.crowd_calls else ""
        return f"~{self.rows:g} rows{crowd}"


class CardinalityEstimator:
    """Bottom-up row-count and crowd-call estimation."""

    def __init__(self, engine: StorageEngine) -> None:
        self.engine = engine
        # per-node memo (plans are immutable; entries hold the node so
        # its id cannot be recycled).  One estimator serves one
        # optimization run, so statistics cannot change under the memo —
        # and DPsize costing of thousands of candidate joins sharing
        # subtrees stays linear instead of quadratic.
        self._memo: dict[int, tuple[Any, Estimate]] = {}
        # column-ref -> statistics resolution cache.  Within one query a
        # binding names one table, so the resolution is subplan-invariant;
        # misses (ref not under the probed subplan) are not cached.
        self._column_cache: dict[tuple[str, str], tuple[ColumnStatistics, Any]] = {}

    def annotate(self, plan: logical.LogicalPlan) -> dict[int, Estimate]:
        """Estimate every node; returns ``id(node) -> Estimate``."""
        annotations: dict[int, Estimate] = {}
        self._estimate(plan, annotations)
        # memo hits stop the recursion early, so backfill every node the
        # walk can reach from the memo
        for node in plan.walk():
            if id(node) not in annotations:
                self._estimate(node, annotations)
        return annotations

    def estimate_rows(self, plan: logical.LogicalPlan) -> float:
        return self._estimate(plan, {}).rows

    # -- internals ---------------------------------------------------------------

    def _estimate(
        self,
        plan: logical.LogicalPlan,
        annotations: dict[int, Estimate],
    ) -> Estimate:
        cached = self._memo.get(id(plan))
        if cached is not None:
            annotations[id(plan)] = cached[1]
            return cached[1]
        estimate = self._estimate_node(plan, annotations)
        annotations[id(plan)] = estimate
        self._memo[id(plan)] = (plan, estimate)
        return estimate

    def _estimate_node(
        self,
        plan: logical.LogicalPlan,
        annotations: dict[int, Estimate],
    ) -> Estimate:
        if isinstance(plan, logical.SingleRow):
            return Estimate(rows=1)
        if isinstance(plan, logical.Scan):
            rows = float(self._table_rows(plan.table.name))
            if plan.table.crowd:
                # Open-world: a bare crowd-table scan may keep asking the
                # crowd for more tuples.  The boundedness analysis decides
                # whether something above bounds it.
                return Estimate(rows=rows, crowd_calls=UNBOUNDED)
            return Estimate(rows=rows)
        if isinstance(plan, logical.CrowdProbe):
            child = self._estimate(plan.child, annotations)
            calls = child.crowd_calls
            probe_calls = 0.0
            for column in plan.columns:
                probe_calls += self._cnull_count(plan.table.name, column)
            if child.rows and child.rows != UNBOUNDED:
                probe_calls = min(probe_calls, child.rows * len(plan.columns))
            calls += probe_calls + len(plan.anti_probe_keys)
            return Estimate(rows=child.rows, crowd_calls=calls)
        if isinstance(plan, logical.Filter):
            child = self._estimate(plan.child, annotations)
            selectivity = self._selectivity(plan.predicate, plan.child)
            return Estimate(
                rows=child.rows * selectivity, crowd_calls=child.crowd_calls
            )
        if isinstance(plan, logical.Project):
            child = self._estimate(plan.child, annotations)
            return Estimate(rows=child.rows, crowd_calls=child.crowd_calls)
        if isinstance(plan, logical.Join):
            left = self._estimate(plan.left, annotations)
            right = self._estimate(plan.right, annotations)
            crowd = left.crowd_calls + right.crowd_calls
            if plan.join_type == "CROSS" or plan.condition is None:
                return Estimate(rows=left.rows * right.rows, crowd_calls=crowd)
            selectivity = self._selectivity(plan.condition, plan)
            rows = left.rows * right.rows * selectivity
            if plan.join_type == "LEFT":
                rows = max(rows, left.rows)
            return Estimate(rows=rows, crowd_calls=crowd)
        if isinstance(plan, logical.CrowdJoin):
            left = self._estimate(plan.left, annotations)
            # one lookup (and possibly one crowd task) per outer tuple
            per_outer = 1.0
            rows = left.rows * max(
                self._join_fanout(plan.inner_table.name), 1.0
            )
            calls = left.crowd_calls + left.rows * per_outer
            return Estimate(rows=rows, crowd_calls=calls)
        if isinstance(plan, logical.Aggregate):
            child = self._estimate(plan.child, annotations)
            if not plan.group_by:
                return Estimate(rows=1, crowd_calls=child.crowd_calls)
            groups = max(1.0, child.rows ** 0.5)
            return Estimate(rows=groups, crowd_calls=child.crowd_calls)
        if isinstance(plan, logical.Sort):
            child = self._estimate(plan.child, annotations)
            crowd = child.crowd_calls
            if plan.is_crowd_sort:
                # comparison sort: ~n log2 n crowd comparisons
                import math

                n = child.rows
                if n == UNBOUNDED:
                    crowd = UNBOUNDED
                elif n > 1:
                    crowd += n * math.log2(n)
            return Estimate(rows=child.rows, crowd_calls=crowd)
        if isinstance(plan, logical.Limit):
            child = self._estimate(plan.child, annotations)
            rows = child.rows
            if plan.limit is not None:
                rows = min(rows, float(plan.limit))
            crowd = child.crowd_calls
            if crowd == UNBOUNDED and plan.limit is not None:
                # stop-after bounds the crowd requests of an open-world scan
                crowd = float(plan.limit + plan.offset)
            return Estimate(rows=rows, crowd_calls=crowd)
        if isinstance(plan, logical.Distinct):
            child = self._estimate(plan.child, annotations)
            return Estimate(
                rows=max(1.0, child.rows * 0.9) if child.rows else 0.0,
                crowd_calls=child.crowd_calls,
            )
        if isinstance(plan, logical.SubqueryAlias):
            child = self._estimate(plan.child, annotations)
            return Estimate(rows=child.rows, crowd_calls=child.crowd_calls)
        if isinstance(plan, logical.SetOperation):
            left = self._estimate(plan.left, annotations)
            right = self._estimate(plan.right, annotations)
            crowd = left.crowd_calls + right.crowd_calls
            if plan.op == "UNION ALL":
                rows = left.rows + right.rows
            elif plan.op == "UNION":
                rows = max(left.rows, right.rows, (left.rows + right.rows) * 0.75)
            elif plan.op == "EXCEPT":
                rows = max(0.0, left.rows - right.rows * 0.5)
            else:  # INTERSECT
                rows = min(left.rows, right.rows) * 0.5
            return Estimate(rows=rows, crowd_calls=crowd)
        raise TypeError(f"cannot estimate {type(plan).__name__}")

    # -- statistics helpers ---------------------------------------------------------

    def _table_rows(self, name: str) -> int:
        if self.engine.has_table(name):
            return self.engine.table(name).statistics.row_count
        return 0

    def _cnull_count(self, table: str, column: str) -> float:
        if not self.engine.has_table(table):
            return 0.0
        return float(
            self.engine.table(table).statistics.column(column).cnull_count
        )

    def _join_fanout(self, inner_table: str) -> float:
        rows = self._table_rows(inner_table)
        return max(1.0, rows / 10.0) if rows else 1.0

    def selectivity(
        self, predicate: ast.Expression, below: logical.LogicalPlan
    ) -> float:
        """Public entry point (the cost model and conjunct ordering use it)."""
        return self._selectivity(predicate, below)

    def _selectivity(
        self, predicate: ast.Expression, below: logical.LogicalPlan
    ) -> float:
        if isinstance(predicate, ast.BinaryOp):
            if predicate.op == "AND":
                return self._selectivity(predicate.left, below) * self._selectivity(
                    predicate.right, below
                )
            if predicate.op == "OR":
                a = self._selectivity(predicate.left, below)
                b = self._selectivity(predicate.right, below)
                return min(1.0, a + b - a * b)
            if predicate.op == "=":
                return self._equality_selectivity(predicate, below)
            if predicate.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(predicate, below)
            if predicate.op == "<>":
                return 1.0 - self._equality_selectivity(predicate, below)
            if predicate.op == "LIKE":
                return self._like_selectivity(predicate, below)
        if isinstance(predicate, ast.UnaryOp) and predicate.op == "NOT":
            return 1.0 - self._selectivity(predicate.operand, below)
        if isinstance(predicate, ast.InList):
            return self._in_list_selectivity(predicate, below)
        if isinstance(predicate, ast.Between):
            return self._between_selectivity(predicate, below)
        if isinstance(predicate, ast.IsNull):
            return self._is_null_selectivity(predicate, below)
        if isinstance(predicate, ast.CrowdEqual):
            return EQUALITY_SELECTIVITY_DEFAULT
        return 0.5

    # -- per-predicate estimators ------------------------------------------------

    def _equality_selectivity(
        self, predicate: ast.BinaryOp, below: logical.LogicalPlan
    ) -> float:
        column, literal = _column_vs_literal(predicate)
        if column is None:
            join = self._join_equality_selectivity(predicate, below)
            if join is not None:
                return join
            return EQUALITY_SELECTIVITY_DEFAULT
        found = self._column_stats(column, below)
        if found is None:
            return EQUALITY_SELECTIVITY_DEFAULT
        column_stats, sql_type = found
        if literal is not None:
            value = _coerced(literal, sql_type)
            if value is not None:
                return column_stats.selectivity_equals(value)
        return column_stats.selectivity_equals()

    def _join_equality_selectivity(
        self, predicate: ast.BinaryOp, below: logical.LogicalPlan
    ) -> Optional[float]:
        """``a.x = b.y`` between two base columns: the textbook
        ``1 / max(NDV(x), NDV(y))``."""
        if not isinstance(predicate.left, ast.ColumnRef) or not isinstance(
            predicate.right, ast.ColumnRef
        ):
            return None
        left = self._column_stats(predicate.left, below)
        right = self._column_stats(predicate.right, below)
        if left is None or right is None:
            return None
        ndv = max(left[0].distinct_count, right[0].distinct_count)
        if ndv <= 0:
            return None
        return 1.0 / ndv

    def _range_selectivity(
        self, predicate: ast.BinaryOp, below: logical.LogicalPlan
    ) -> float:
        column, literal = _column_vs_literal(predicate)
        if column is None or literal is None:
            return RANGE_SELECTIVITY_DEFAULT
        op = predicate.op
        if isinstance(predicate.right, ast.ColumnRef):
            # literal on the left: mirror the comparison
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        found = self._column_stats(column, below)
        if found is None:
            return RANGE_SELECTIVITY_DEFAULT
        column_stats, sql_type = found
        value = _coerced(literal, sql_type)
        if value is None:
            return RANGE_SELECTIVITY_DEFAULT
        if op in ("<", "<="):
            estimate = column_stats.selectivity_range(
                high=value, high_inclusive=(op == "<=")
            )
        else:
            estimate = column_stats.selectivity_range(
                low=value, low_inclusive=(op == ">=")
            )
        return estimate if estimate is not None else RANGE_SELECTIVITY_DEFAULT

    def _between_selectivity(
        self, predicate: ast.Between, below: logical.LogicalPlan
    ) -> float:
        inner = RANGE_SELECTIVITY_DEFAULT
        if (
            isinstance(predicate.operand, ast.ColumnRef)
            and isinstance(predicate.low, ast.Literal)
            and isinstance(predicate.high, ast.Literal)
        ):
            found = self._column_stats(predicate.operand, below)
            if found is not None:
                column_stats, sql_type = found
                low = _coerced(predicate.low.value, sql_type)
                high = _coerced(predicate.high.value, sql_type)
                if low is not None and high is not None:
                    estimate = column_stats.selectivity_range(low=low, high=high)
                    if estimate is not None:
                        inner = estimate
        return 1.0 - inner if predicate.negated else inner

    def _like_selectivity(
        self, predicate: ast.BinaryOp, below: logical.LogicalPlan
    ) -> float:
        if not isinstance(predicate.left, ast.ColumnRef) or not isinstance(
            predicate.right, ast.Literal
        ):
            return LIKE_SELECTIVITY_DEFAULT
        pattern = predicate.right.value
        if not isinstance(pattern, str):
            return LIKE_SELECTIVITY_DEFAULT
        found = self._column_stats(predicate.left, below)
        if found is None:
            return LIKE_SELECTIVITY_DEFAULT
        column_stats, _sql_type = found
        prefix = _like_prefix(pattern)
        if not prefix:
            # leading wildcard: no histogram range applies, but the MCV
            # heavy hitters can be matched against the pattern directly
            estimate = _mcv_like_selectivity(column_stats, pattern)
            return estimate if estimate is not None else LIKE_SELECTIVITY_DEFAULT
        if prefix == pattern:
            # no wildcard at all: plain equality
            return column_stats.selectivity_equals(prefix)
        # rows matching 'abc%...' all fall in [prefix, prefix + U+10FFFF)
        estimate = column_stats.selectivity_range(
            low=prefix, high=prefix + "\U0010ffff"
        )
        if estimate is None:
            estimate = _mcv_like_selectivity(column_stats, pattern)
        return estimate if estimate is not None else LIKE_SELECTIVITY_DEFAULT

    def _in_list_selectivity(
        self, predicate: ast.InList, below: logical.LogicalPlan
    ) -> float:
        inner: Optional[float] = None
        if isinstance(predicate.operand, ast.ColumnRef):
            found = self._column_stats(predicate.operand, below)
            if found is not None and all(
                isinstance(item, ast.Literal) for item in predicate.items
            ):
                column_stats, sql_type = found
                total = 0.0
                for item in predicate.items:
                    value = _coerced(item.value, sql_type)
                    if value is None:
                        total += EQUALITY_SELECTIVITY_DEFAULT
                    else:
                        total += column_stats.selectivity_equals(value)
                inner = min(1.0, total)
        if inner is None:
            inner = min(
                1.0, EQUALITY_SELECTIVITY_DEFAULT * len(predicate.items)
            )
        return 1.0 - inner if predicate.negated else inner

    def _is_null_selectivity(
        self, predicate: ast.IsNull, below: logical.LogicalPlan
    ) -> float:
        inner = NULL_SELECTIVITY_DEFAULT
        if isinstance(predicate.operand, ast.ColumnRef):
            found = self._column_stats(predicate.operand, below)
            if found is not None:
                column_stats, _sql_type = found
                inner = (
                    column_stats.cnull_fraction()
                    if predicate.cnull
                    else column_stats.null_fraction()
                )
        return 1.0 - inner if predicate.negated else inner

    # -- statistics lookup --------------------------------------------------------

    def _column_stats(
        self, column: ast.ColumnRef, below: logical.LogicalPlan
    ) -> Optional[tuple[ColumnStatistics, Any]]:
        """Resolve a column reference to its live statistics (and SQL
        type) by walking the scans under ``below``."""
        key = ((column.table or "").lower(), column.name.lower())
        cached = self._column_cache.get(key)
        if cached is not None:
            return cached
        found = self._column_stats_walk(column, below)
        if found is not None:
            self._column_cache[key] = found
        return found

    def _column_stats_walk(
        self, column: ast.ColumnRef, below: logical.LogicalPlan
    ) -> Optional[tuple[ColumnStatistics, Any]]:
        table = column.table.lower() if column.table is not None else None
        for node in below.scans:
            if table is not None and table != node.binding.lower():
                continue
            if node.table.has_column(column.name):
                if not self.engine.has_table(node.table.name):
                    return None
                stats = self.engine.table(node.table.name).statistics.column(
                    column.name
                )
                return stats, node.table.column(column.name).sql_type
        return None


def _column_vs_literal(
    predicate: ast.BinaryOp,
) -> tuple[Optional[ast.ColumnRef], Any]:
    """Unpack ``col <op> literal`` (either orientation); literal is the
    raw python value (None both for "no literal" and for SQL NULL)."""
    if isinstance(predicate.left, ast.ColumnRef) and isinstance(
        predicate.right, ast.Literal
    ):
        return predicate.left, predicate.right.value
    if isinstance(predicate.right, ast.ColumnRef) and isinstance(
        predicate.left, ast.Literal
    ):
        return predicate.right, predicate.left.value
    return None, None


def _coerced(value: Any, sql_type: Any) -> Any:
    """Coerce a literal to the column's storage type for statistics
    probes; None when the literal cannot be coerced (mistyped query)."""
    if value is None:
        return None
    from repro.sqltypes import coerce

    try:
        return coerce(value, sql_type)
    except Exception:
        return None


def _mcv_like_selectivity(
    column_stats: ColumnStatistics, pattern: str
) -> Optional[float]:
    """LIKE selectivity from the analyzed most-common values: heavy
    hitters are matched against the pattern exactly; the non-MCV
    remainder keeps the textbook guess."""
    if not column_stats.mcv:
        return None
    total = column_stats.total_count
    if not total:
        return None
    from repro.plan.compiled import cached_like_regex

    match = cached_like_regex(pattern).match
    mcv_rows = 0
    matched_rows = 0
    for value, count in column_stats.mcv.items():
        if not isinstance(value, str):
            return None  # non-string heavy hitters: pattern can't apply
        mcv_rows += count
        if match(value):
            matched_rows += count
    rest = max(0, total - mcv_rows)
    return min(
        1.0,
        matched_rows / total + LIKE_SELECTIVITY_DEFAULT * rest / total,
    )


def _like_prefix(pattern: str) -> str:
    """The literal prefix of a LIKE pattern (up to the first wildcard),
    with escapes resolved."""
    prefix: list[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch in ("%", "_"):
            break
        if ch == "\\" and i + 1 < len(pattern):
            i += 1
            ch = pattern[i]
        prefix.append(ch)
        i += 1
    return "".join(prefix)
