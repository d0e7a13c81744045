"""Physical planning: translate optimized logical plans into operators."""

from __future__ import annotations

from typing import Optional

from repro.engine.base import Correlation, PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.engine.crowd_probe import CrowdProbeOp
from repro.engine.filter_project import (
    DistinctOp,
    FilterOp,
    LimitOp,
    ProjectOp,
    SetOpOp,
    SubqueryAliasOp,
)
from repro.engine.joins import CrowdJoinOp, HashJoinOp, NestedLoopJoinOp
from repro.engine.scans import SingleRowOp, TableScan
from repro.engine.sort_limit import SortOp
from repro.errors import PlanError
from repro.exec.vectorized import (
    BatchToRowsOp,
    RowsToBatchOp,
    VectorAggregateOp,
    VectorSortOp,
)
from repro.optimizer.rules import split_conjuncts
from repro.plan import logical
from repro.sql import ast
from repro.storage.row import Scope


class PhysicalPlanner:
    """Maps each logical node to its physical operator.

    With a ``profiler`` (EXPLAIN ANALYZE), every operator is wrapped in
    a transparent measuring proxy keyed by its logical node, so runtime
    actuals join against the optimizer's compile-time annotations.
    """

    def __init__(
        self,
        context: ExecutionContext,
        correlation: Correlation = None,
        profiler: Optional[object] = None,  # repro.obs.QueryProfiler
        bindings: Optional[dict] = None,  # id(node) -> plan.binder.NodeBinding
    ) -> None:
        self.context = context
        self.correlation = correlation
        self.profiler = profiler
        # correlated subqueries evaluate against an outer row the batch
        # kernels know nothing about — they stay on the row pipeline
        self.bindings = bindings if correlation is None else None

    def plan(
        self,
        node: logical.LogicalPlan,
        row_bound: Optional[int] = None,
    ) -> PhysicalOperator:
        """Translate ``node``; ``row_bound`` is the number of output rows
        the consumer can possibly pull (an enclosing LIMIT), threaded
        down through row-preserving operators to clamp batch windows."""
        if self.bindings is not None:
            binding = self.bindings.get(id(node))
            if binding is not None and binding.vectorized:
                # the transition operator is not profiler-wrapped: the
                # vector node inside already carries this logical node's
                # metrics (batch-aware row accounting)
                return BatchToRowsOp(self.context, self._plan_vector(node))
        operator = self._plan_node(node, row_bound)
        if self.profiler is not None:
            operator = self.profiler.wrap(node, operator)
        return operator

    def _plan_vector(self, node: logical.LogicalPlan) -> PhysicalOperator:
        """Build the batch operator for a binder-approved node (children
        included: the binder only marks a node when its whole input
        subtree is vector-eligible)."""
        from repro.exec.vectorized import (
            VectorFilterOp,
            VectorHashJoinOp,
            VectorLimitOp,
            VectorProjectOp,
            VectorScanOp,
        )

        if isinstance(node, logical.Scan):
            operator: PhysicalOperator = VectorScanOp(
                self.context, node.table, node.binding
            )
        elif isinstance(node, logical.Filter):
            operator = VectorFilterOp(
                self.context, self._plan_vector(node.child), node.predicate
            )
        elif isinstance(node, logical.Project):
            operator = VectorProjectOp(
                self.context, self._plan_vector(node.child), node.items
            )
        elif isinstance(node, logical.Join):
            left = self._plan_vector(node.left)
            right = self._plan_vector(node.right)
            keys = _extract_equi_keys(node.condition, left.scope, right.scope)
            if not keys:
                raise PlanError(
                    "binder marked a join without extractable equi keys"
                )
            left_keys, right_keys = keys
            operator = VectorHashJoinOp(
                self.context,
                left,
                right,
                left_keys,
                right_keys,
                condition=node.condition,
                join_type=node.join_type,
            )
        elif isinstance(node, logical.Aggregate):
            operator = VectorAggregateOp(
                self.context,
                self._plan_vector(node.child),
                node.group_by,
                node.aggregates,
            )
        elif isinstance(node, logical.Sort):
            operator = VectorSortOp(
                self.context,
                self._plan_vector(node.child),
                node.keys,
                top_k=node.top_k,
            )
        elif isinstance(node, logical.Limit):
            operator = VectorLimitOp(
                self.context,
                self._plan_vector(node.child),
                node.limit,
                node.offset,
            )
        else:
            raise PlanError(
                f"no vectorized operator for {type(node).__name__}"
            )
        if self.profiler is not None:
            operator = self.profiler.wrap(node, operator)
        return operator

    def _plan_node(
        self,
        node: logical.LogicalPlan,
        row_bound: Optional[int] = None,
    ) -> PhysicalOperator:
        if isinstance(node, logical.Scan):
            return TableScan(
                self.context,
                node.table,
                node.binding,
                limit_hint=node.limit_hint,
                correlation=self.correlation,
            )
        if isinstance(node, logical.SingleRow):
            return SingleRowOp(self.context, self.correlation)
        if isinstance(node, logical.CrowdProbe):
            return CrowdProbeOp(
                self.context,
                self.plan(node.child, row_bound),
                node.table,
                node.binding,
                node.columns,
                anti_probe_keys=node.anti_probe_keys,
                batch_size=self._batch_hint(node.child, row_bound),
                correlation=self.correlation,
            )
        if isinstance(node, logical.Filter):
            indexed = self._try_index_scan(node, row_bound)
            if indexed is not None:
                return indexed
            return FilterOp(
                self.context,
                self.plan(node.child, row_bound),
                node.predicate,
                batch_size=self._batch_hint(node.child, row_bound),
                correlation=self.correlation,
            )
        if isinstance(node, logical.Project):
            return ProjectOp(
                self.context,
                self.plan(node.child, row_bound),
                node.items,
                correlation=self.correlation,
            )
        if isinstance(node, logical.Join):
            return self._plan_join(node)
        if isinstance(node, logical.CrowdJoin):
            return CrowdJoinOp(
                self.context,
                self.plan(node.left, row_bound),
                node.inner_table,
                node.inner_binding,
                node.condition,
                node.inner_key_columns,
                node.outer_key_exprs,
                node.needed_columns,
                batch_size=self._batch_hint(node.left, row_bound),
                correlation=self.correlation,
            )
        # aggregation and sorting consume everything: columnar over row
        # input (no batch window reaches the child) unless crowd-ordered
        if isinstance(node, logical.Aggregate):
            inputs = [*node.group_by]
            for call in node.aggregates:
                inputs.extend(call.args)
            rows = RowsToBatchOp(
                self.context,
                self.plan(node.child),
                per_row=not all(expr.facts.electronic for expr in inputs),
            )
            return BatchToRowsOp(self.context, VectorAggregateOp(
                self.context, rows, node.group_by, node.aggregates,
                correlation=self.correlation,
            ))
        if isinstance(node, logical.Sort) and not node.is_crowd_sort:
            rows = RowsToBatchOp(self.context, self.plan(node.child))
            return BatchToRowsOp(self.context, VectorSortOp(
                self.context, rows, node.keys, top_k=node.top_k,
                correlation=self.correlation,
            ))
        if isinstance(node, logical.Sort):
            return SortOp(
                self.context,
                self.plan(node.child),  # sorting consumes everything
                node.keys,
                top_k=node.top_k,
                correlation=self.correlation,
            )
        if isinstance(node, logical.Limit):
            bound = None
            if node.limit is not None:
                bound = max(1, node.limit + node.offset)
                if row_bound is not None:
                    bound = min(bound, row_bound)
            else:
                bound = row_bound
            return LimitOp(
                self.context,
                self.plan(node.child, bound),
                node.limit,
                node.offset,
                correlation=self.correlation,
            )
        if isinstance(node, logical.Distinct):
            return DistinctOp(
                self.context,
                self.plan(node.child, row_bound),
                correlation=self.correlation,
            )
        if isinstance(node, logical.SubqueryAlias):
            return SubqueryAliasOp(
                self.context,
                self.plan(node.child, row_bound),
                node.alias,
                correlation=self.correlation,
            )
        if isinstance(node, logical.SetOperation):
            return SetOpOp(
                self.context,
                self.plan(node.left),
                self.plan(node.right),
                node.op,
                correlation=self.correlation,
            )
        raise PlanError(f"no physical operator for {type(node).__name__}")

    # -- batch crowd execution ------------------------------------------------------

    def _batch_hint(
        self,
        child: logical.LogicalPlan,
        row_bound: Optional[int] = None,
    ) -> int:
        """Window for batch crowd execution over ``child``'s tuples.

        The session's configured ``batch_size``, clamped by a pushed-down
        stop-after bound on the scan *and* by any enclosing LIMIT that
        was not pushed down (e.g. one stopping above a crowd filter), so
        a bounded query never speculatively issues crowd tasks for more
        rows than its consumer can pull."""
        hint = self.context.batch_size
        if isinstance(child, logical.Scan) and child.limit_hint is not None:
            hint = min(hint, max(1, child.limit_hint))
        if row_bound is not None:
            hint = min(hint, max(1, row_bound))
        return hint

    # -- access-path selection ------------------------------------------------------

    def _try_index_scan(
        self, node: logical.Filter, row_bound: Optional[int] = None
    ) -> Optional[PhysicalOperator]:
        """Filter(Scan) with indexed equality conjuncts becomes an index
        lookup plus a residual filter — the access-method selection H2
        would perform.

        The equality conjuncts are matched as a *set* against every index
        key: a composite index is used when the conjuncts cover all of
        its columns (e.g. ``a = 1 AND b = 2`` against an index on
        ``(a, b)``), and an ordered index is still used when they only
        cover a key prefix.  The longest covered key wins; ties prefer
        full-key matches over prefix scans.

        Skipped for crowd scans carrying a limit hint (those must run the
        open-world sourcing path of :class:`TableScan`).
        """
        from repro.engine.scans import IndexLookup

        scan = node.child
        matched = match_index_access(
            self.context.engine, node, self.context.parameters
        )
        if matched is None:
            return None
        key_columns, key_values, prefix = matched
        lookup = IndexLookup(
            self.context,
            scan.table,
            scan.binding,
            key_columns,
            key_values,
            prefix=prefix,
            correlation=self.correlation,
        )
        # keep the full predicate as a residual: cheap and always safe
        return FilterOp(
            self.context, lookup, node.predicate,
            batch_size=self._batch_hint(scan, row_bound),
            correlation=self.correlation,
        )

    # -- join strategy ------------------------------------------------------------

    def _plan_join(self, node: logical.Join) -> PhysicalOperator:
        left = self.plan(node.left)
        right = self.plan(node.right)
        if node.join_type in ("INNER", "LEFT") and node.condition is not None:
            keys = _extract_equi_keys(node.condition, left.scope, right.scope)
            if keys:
                left_keys, right_keys = keys
                return HashJoinOp(
                    self.context,
                    left,
                    right,
                    left_keys,
                    right_keys,
                    condition=node.condition,
                    join_type=node.join_type,
                    correlation=self.correlation,
                )
        return NestedLoopJoinOp(
            self.context,
            left,
            right,
            join_type=node.join_type,
            condition=node.condition,
            correlation=self.correlation,
        )


def match_index_access(
    engine: object, node: logical.Filter, parameters: Optional[tuple] = None
) -> Optional[tuple[tuple[str, ...], tuple, bool]]:
    """The access-method decision for a Filter node, shared by the
    physical planner (which builds the IndexLookup), UPDATE/DELETE
    (which read their target rows the same way) and the binder (which
    must mark index-served filters row so both stages agree).

    A key is a literal or a ``?``.  The binder passes no ``parameters``:
    a ``?`` then matches whatever its value, so one cached plan serves
    every value; at run time the value is coerced as a literal is.

    Returns ``(key_columns, key_values, prefix)`` when an index serves
    the filter's equality conjuncts, else ``None``.
    """
    from repro.storage.index import OrderedIndex
    from repro.sqltypes import coerce

    scan = node.child
    if not isinstance(scan, logical.Scan) or scan.limit_hint is not None:
        return None
    if not engine.has_table(scan.table.name):
        return None
    heap = engine.table(scan.table.name)
    equalities: dict[str, object] = {}
    for conjunct in split_conjuncts(node.predicate):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        column, operand = _column_key(conjunct)
        if column is None:
            continue
        if column.table is not None and (
            column.table.lower() != scan.binding.lower()
        ):
            continue
        if not scan.table.has_column(column.name):
            continue
        sql_type = scan.table.column(column.name).sql_type
        try:
            if isinstance(operand, ast.Literal):
                key = coerce(operand.value, sql_type)
            elif parameters is None:
                key = operand  # compile time: the unbound ``?`` stands in
            else:
                key = coerce(parameters[operand.index], sql_type)
        except Exception:
            # mistyped or unsupplied value: with an index on exactly this
            # column fall back to a scan (the lookup key would be garbage);
            # otherwise just drop the conjunct from the equality set
            # so other conjuncts can still pick their index
            if heap.index_on((column.name,)) is not None:
                return None
            continue
        equalities.setdefault(column.name.lower(), key)
    if not equalities:
        return None
    best: Optional[tuple[tuple[str, ...], bool]] = None  # (columns, prefix)
    for index in heap.indexes.values():
        covered = 0
        for column in index.columns:
            if column.lower() not in equalities:
                break
            covered += 1
        if covered == 0:
            continue
        full = covered == len(index.columns)
        if not full and not isinstance(index, OrderedIndex):
            continue  # hash indexes need the whole key
        candidate = (tuple(index.columns[:covered]), not full)
        if best is None or (len(candidate[0]), not candidate[1]) > (
            len(best[0]), not best[1]
        ):
            best = candidate
    if best is None:
        return None
    key_columns, prefix = best
    return (
        key_columns,
        tuple(equalities[c.lower()] for c in key_columns),
        prefix,
    )


def _extract_equi_keys(
    condition: ast.Expression, left_scope: Scope, right_scope: Scope
) -> Optional[tuple[tuple[ast.Expression, ...], tuple[ast.Expression, ...]]]:
    """Split equality conjuncts into (left keys, right keys) when possible."""
    left_keys: list[ast.Expression] = []
    right_keys: list[ast.Expression] = []
    for conjunct in split_conjuncts(condition):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        if conjunct.facts.crowd:
            continue
        a_side = _side_of(conjunct.left, left_scope, right_scope)
        b_side = _side_of(conjunct.right, left_scope, right_scope)
        if a_side == "left" and b_side == "right":
            left_keys.append(conjunct.left)
            right_keys.append(conjunct.right)
        elif a_side == "right" and b_side == "left":
            left_keys.append(conjunct.right)
            right_keys.append(conjunct.left)
    if not left_keys:
        return None
    return tuple(left_keys), tuple(right_keys)


def _column_key(
    conjunct: ast.BinaryOp,
) -> tuple[Optional[ast.ColumnRef], Optional[ast.Expression]]:
    """Unpack ``col = literal`` or ``col = ?`` (either orientation)."""
    for column, key in (
        (conjunct.left, conjunct.right), (conjunct.right, conjunct.left)
    ):
        if isinstance(column, ast.ColumnRef) and isinstance(
            key, (ast.Literal, ast.Parameter)
        ):
            return column, key
    return None, None


def _side_of(
    expr: ast.Expression, left_scope: Scope, right_scope: Scope
) -> Optional[str]:
    refs = list(ast.expression_columns(expr))
    if not refs:
        return None
    in_left = all(ref_resolves(ref, left_scope) for ref in refs)
    in_right = all(ref_resolves(ref, right_scope) for ref in refs)
    if in_left and not in_right:
        return "left"
    if in_right and not in_left:
        return "right"
    return None


def ref_resolves(ref: ast.ColumnRef, scope: Scope) -> bool:
    return scope.has(ref.name, ref.table)
