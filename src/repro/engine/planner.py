"""Physical planning: translate optimized logical plans into operators.

Planning has two steps.  *Prepare* builds a plan's operator tree: which
operator each node gets and its scope, column pruning, equi-join keys,
crowd batch windows, and the index access path (the index, its key
columns and whether it is a prefix, never the key values).  The prepared
tree holds no execution context.  *Bind* attaches one execution
(:meth:`~repro.engine.base.PhysicalOperator.bind`): its context and
correlation row, and index keys coerced from its parameters.  A
plan-cache entry keeps the tree its second execution prepares, and every
later execution binds a copy of it (see :meth:`PhysicalPlanner.plan`).
The closures and kernels of static expressions are compiled at their
first use and kept with that tree, as are electronic closures reading a
``?``; the others are compiled again in every execution.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.base import Correlation, PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.engine.crowd_probe import CrowdProbeOp
from repro.engine.filter_project import FilterOp, LimitOp, ProjectOp
from repro.engine.joins import CrowdJoinOp
from repro.engine.scans import IndexLookup, SingleRowOp, TableScan
from repro.engine.sort_limit import SortOp
from repro.errors import PlanError
from repro.exec.vectorized import (
    BatchToRowsOp,
    RowsToBatchOp,
    VectorAggregateOp,
    VectorAliasOp,
    VectorFilterOp,
    VectorHashJoinOp,
    VectorLimitOp,
    VectorOperator,
    VectorProjectOp,
    VectorScanOp,
    VectorSetOp,
    VectorSortOp,
)
from repro.optimizer.rules import split_conjuncts
from repro.plan import logical
from repro.sql import ast
from repro.storage.row import Scope

#: The context of a prepared operator: none until it is bound.
UNBOUND = None


class PhysicalPlanner:
    """Maps each logical node to its physical operator: prepares a plan's
    operator tree and binds it to one execution (see the module doc).

    With a ``profiler`` (EXPLAIN ANALYZE), every operator of a freshly
    prepared tree is wrapped in a transparent measuring proxy keyed by
    its logical node, so runtime actuals join against the optimizer's
    compile-time annotations.  ``metrics`` (the connection's registry)
    counts the trees prepared and the operators built.
    """

    def __init__(
        self,
        context: ExecutionContext,
        correlation: Correlation = None,
        profiler: Optional[object] = None,  # repro.obs.QueryProfiler
        bindings: Optional[dict] = None,  # id(node) -> plan.binder.NodeBinding
        metrics: Optional[Any] = None,  # repro.obs.MetricsRegistry
    ) -> None:
        self.context = context
        self.correlation = correlation
        self.profiler = profiler
        # correlated subqueries evaluate against an outer row the batch
        # kernels know nothing about — they stay on the row pipeline
        self.bindings = bindings if correlation is None else None
        self.metrics = metrics

    def plan(
        self,
        node: logical.LogicalPlan,
        prepared: Optional[dict] = None,
    ) -> PhysicalOperator:
        """The operator tree that runs ``node`` in this planner's
        execution, bound and ready to iterate.

        ``prepared`` is where a plan-cache entry keeps its prepared tree
        (``OptimizationResult.prepared``), per what preparing read from
        the execution: whether a correlation row is bound (no vector
        region then) and the crowd batch window.  The entry's first
        execution prepares a tree and runs it; the second prepares the
        tree the entry keeps, and it and every later execution bind a
        copy of that.  A statement that never runs twice -- most of a
        miss-heavy stream -- keeps nothing, so the cache holds no more
        than it did before trees were kept.  EXPLAIN ANALYZE prepares
        its own tree, wrapped, and keeps none.
        """
        keep = prepared is not None and self.profiler is None
        key = (self.correlation is None, self.context.batch_size)
        template = prepared.get(key) if keep else None
        if template is not None:
            return template.bind(self)
        operator = self._prepare(node)
        self._count(operator)
        if keep and key in prepared:
            for each in _operators(operator):
                each._closures = {}
            prepared[key] = operator
            return operator.bind(self)
        if keep:
            prepared[key] = None  # ran once
        return operator.bind(self, copy=False)

    def bind_access_path(
        self, node: logical.Filter, row_bound: Optional[int]
    ) -> PhysicalOperator:
        """The access path under an index-served Filter when this
        execution's key cannot be coerced: decided again with the
        execution's parameters, as for a literal key -- a scan, or an
        index on other conjuncts -- and built for this execution alone."""
        matched = match_index_access(
            self.context.engine, node, self.context.parameters
        )
        if matched is None:
            operator = self._prepare(node.child, row_bound)
        else:
            operator = self._index_lookup(node, matched, row_bound)
        self._count(operator, tree=False)
        return operator.bind(self, copy=False)

    def _count(self, root: PhysicalOperator, tree: bool = True) -> None:
        """Count a prepared tree (not when ``tree`` is false: a subtree
        built at bind) and the operators built for it, by class."""
        metrics = self.metrics
        if metrics is None:
            return
        if tree:
            metrics.counter(
                "physical_plans_prepared_total",
                help="physical operator trees prepared",
            ).inc()
        built: dict[type, int] = {}
        for operator in _operators(root):
            built[type(operator)] = built.get(type(operator), 0) + 1
        for kind, count in built.items():
            metrics.counter(
                f"operators_built.{kind.__name__}",
                help="physical operators built, by class",
            ).inc(count)

    # -- prepare ------------------------------------------------------------------

    def _prepare(
        self,
        node: logical.LogicalPlan,
        row_bound: Optional[int] = None,
    ) -> PhysicalOperator:
        """Prepare ``node``'s operator; ``row_bound`` is the number of
        output rows the consumer can possibly pull (an enclosing LIMIT),
        threaded down through row-preserving operators to clamp batch
        windows."""
        if self.bindings is not None:
            binding = self.bindings.get(id(node))
            if binding is not None and binding.vectorized:
                # the transition operator is not profiler-wrapped: the
                # vector node inside already carries this logical node's
                # metrics (batch-aware row accounting)
                return BatchToRowsOp(UNBOUND, self._prepare_vector(node))
        operator = self._prepare_node(node, row_bound)
        vector = isinstance(operator, VectorOperator)
        if self.profiler is not None:
            operator = self.profiler.wrap(node, operator)
        if vector:
            # a batch operator the binder left unmarked meets row
            # parents here
            operator = BatchToRowsOp(UNBOUND, operator)
        return operator

    def _batches(
        self, operator: PhysicalOperator, per_row: bool = False
    ) -> VectorOperator:
        """A prepared ``operator`` as the input of a batch operator: a
        vector child's batches as they are, a row operator's rows through
        a ``RowsToBatchOp``.  ``per_row`` asks for one row per batch even
        from a vector child (a consumer that evaluates crowd work per
        row, or one streaming rows that source crowd work on pull)."""
        if type(operator) is BatchToRowsOp and not per_row:
            return operator.child
        return RowsToBatchOp(UNBOUND, operator, per_row=per_row)

    def _streamed(
        self, node: logical.LogicalPlan, row_bound: Optional[int] = None
    ) -> VectorOperator:
        """``node`` prepared as the input of a batch operator that
        streams it: one row per batch when its rows source crowd work on
        pull."""
        operator = self._prepare(node, row_bound)
        return self._batches(operator, operator.sources_crowd_on_pull())

    def _prepare_vector(self, node: logical.LogicalPlan) -> PhysicalOperator:
        """Build the batch operator for a binder-approved node (children
        included: the binder only marks a node when its whole input
        subtree is vector-eligible).  A node with a row operator too gets
        its batch operator here; any other is built as when unmarked, its
        inputs' batches taken as they are."""
        if isinstance(node, logical.Scan):
            operator: PhysicalOperator = VectorScanOp(
                UNBOUND, node.table, node.binding
            )
        elif isinstance(node, logical.Filter):
            operator = VectorFilterOp(
                UNBOUND, self._prepare_vector(node.child), node.predicate
            )
        elif isinstance(node, logical.Project):
            operator = VectorProjectOp(
                UNBOUND, self._prepare_vector(node.child), node.items
            )
        elif isinstance(node, logical.Limit):
            operator = VectorLimitOp(
                UNBOUND,
                self._prepare_vector(node.child),
                node.limit,
                node.offset,
            )
        else:
            operator = self._prepare_node(node)
        if self.profiler is not None:
            operator = self.profiler.wrap(node, operator)
        return operator

    def _prepare_node(
        self,
        node: logical.LogicalPlan,
        row_bound: Optional[int] = None,
    ) -> PhysicalOperator:
        if isinstance(node, logical.Scan):
            return TableScan(
                UNBOUND, node.table, node.binding, limit_hint=node.limit_hint
            )
        if isinstance(node, logical.SingleRow):
            return SingleRowOp(UNBOUND)
        if isinstance(node, logical.CrowdProbe):
            return CrowdProbeOp(
                UNBOUND,
                self._prepare(node.child, row_bound),
                node.table,
                node.binding,
                node.columns,
                anti_probe_keys=node.anti_probe_keys,
                batch_size=self._batch_hint(node.child, row_bound),
            )
        if isinstance(node, logical.Filter):
            indexed = self._try_index_scan(node, row_bound)
            if indexed is not None:
                return indexed
            return FilterOp(
                UNBOUND,
                self._prepare(node.child, row_bound),
                node.predicate,
                batch_size=self._batch_hint(node.child, row_bound),
            )
        if isinstance(node, logical.Project):
            return ProjectOp(
                UNBOUND, self._prepare(node.child, row_bound), node.items
            )
        if isinstance(node, logical.Join):
            # the build side is read whole; the probe side streams
            left = self._streamed(node.left)
            right = self._batches(self._prepare(node.right))
            keys = None
            if node.condition is not None:
                keys = _extract_equi_keys(
                    node.condition, left.scope, right.scope
                )
            left_keys, right_keys = keys or ((), ())
            return VectorHashJoinOp(
                UNBOUND,
                left,
                right,
                left_keys,
                right_keys,
                condition=node.condition,
                join_type=node.join_type,
            )
        if isinstance(node, logical.CrowdJoin):
            return CrowdJoinOp(
                UNBOUND,
                self._prepare(node.left, row_bound),
                node.inner_table,
                node.inner_binding,
                node.condition,
                node.inner_key_columns,
                node.outer_key_exprs,
                node.needed_columns,
                batch_size=self._batch_hint(node.left, row_bound),
            )
        # aggregation and sorting consume everything: columnar over row
        # input (no batch window reaches the child) unless crowd-ordered
        if isinstance(node, logical.Aggregate):
            inputs = [*node.group_by]
            for call in node.aggregates:
                inputs.extend(call.args)
            return VectorAggregateOp(
                UNBOUND,
                self._batches(
                    self._prepare(node.child),
                    not all(expr.facts.electronic for expr in inputs),
                ),
                node.group_by,
                node.aggregates,
            )
        if isinstance(node, logical.Sort) and not node.is_crowd_sort:
            return VectorSortOp(
                UNBOUND, self._batches(self._prepare(node.child)), node.keys,
                top_k=node.top_k,
            )
        if isinstance(node, logical.Sort):
            return SortOp(
                UNBOUND,
                self._prepare(node.child),  # sorting consumes everything
                node.keys,
                top_k=node.top_k,
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
                UNBOUND,
                self._prepare(node.child, bound),
                node.limit,
                node.offset,
            )
        if isinstance(node, logical.Distinct):
            return VectorSetOp(
                UNBOUND, self._streamed(node.child, row_bound), None, "UNION"
            )
        if isinstance(node, logical.SubqueryAlias):
            return VectorAliasOp(
                UNBOUND, self._streamed(node.child, row_bound), node.alias
            )
        if isinstance(node, logical.SetOperation):
            return VectorSetOp(
                UNBOUND,
                self._streamed(node.left, row_bound),
                self._streamed(node.right),
                node.op,
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
        full-key matches over prefix scans.  A ``?`` key matches whatever
        its value: binding coerces it (see :meth:`bind_access_path`).

        Skipped for crowd scans carrying a limit hint (those must run the
        open-world sourcing path of :class:`TableScan`).
        """
        matched = match_index_access(self.context.engine, node)
        if matched is None:
            return None
        # keep the full predicate as a residual: cheap and always safe
        return FilterOp(
            UNBOUND,
            self._index_lookup(node, matched, row_bound),
            node.predicate,
            batch_size=self._batch_hint(node.child, row_bound),
        )

    @staticmethod
    def _index_lookup(
        node: logical.Filter, matched: tuple, row_bound: Optional[int]
    ) -> IndexLookup:
        key_columns, key_values, prefix = matched
        return IndexLookup(
            UNBOUND,
            node.child.table,
            node.child.binding,
            key_columns,
            key_values,
            prefix=prefix,
            access=(node, row_bound),
        )


def _operators(root: PhysicalOperator):
    """Every operator of a tree; EXPLAIN ANALYZE's proxy stands for the
    operator it measures."""
    stack = [root]
    while stack:
        operator = stack.pop()
        operator = operator.__dict__.get("target", operator)
        yield operator
        state = operator.__dict__
        for name in ("child", "left", "right"):  # see bind()
            if state.get(name) is not None:
                stack.append(state[name])


def match_index_access(
    engine: object, node: logical.Filter, parameters: Optional[tuple] = None
) -> Optional[tuple[tuple[str, ...], tuple, bool]]:
    """The access-method decision for a Filter node, shared by the
    physical planner (which builds the IndexLookup), UPDATE/DELETE
    (which read their target rows the same way) and the binder (which
    must mark index-served filters row so both stages agree).

    A key is a literal or a ``?``.  The binder and prepare pass no
    ``parameters``: a ``?`` then matches whatever its value and stays in
    the returned keys, so one cached plan serves every value; binding
    coerces the value as a literal is.

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
