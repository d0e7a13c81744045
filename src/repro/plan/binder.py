"""The binder stage: decide, per logical node, vectorized vs row execution.

Runs after logical optimization (rule rewrites, join enumeration) and
before physical planning.  For every node of the optimized plan it
records a :class:`NodeBinding`: whether the node may execute on the
columnar batch pipeline, the output :class:`Scope` mapping each column
reference to its batch ordinal (equi-join keys are extracted against
it), and, for a filter served by an index, the index key EXPLAIN shows.

A node is vector-eligible only when its entire input subtree is: the
physical planner builds one contiguous batch region per marked node and
caps it with a ``BatchToRowsOp`` transition, so crowd operators,
crowd-ordered sorts and set operations above the region consume
ordinary row tuples and keep their semantics (crowd batching windows,
open-world sourcing, 3VL verdicts) bit-identical to the row engine.  A
query of scans, filters, joins, aggregates, sorts and limits over stored
electronic tables runs in the vector region up to its root.

Eligibility is deliberately conservative:

* Scans: electronic tables only — CROWD tables run the open-world
  sourcing path, and stop-after limit hints bound how many tuples that
  path may request, neither of which the batch scan models.
* Filters: electronic predicates (no CROWDEQUAL, no subqueries), and
  only when the access-path selector would *not* serve the filter from
  an index (the shared :func:`~repro.engine.planner.match_index_access`
  keeps binder and planner agreeing).
* Joins: INNER, LEFT and CROSS joins with an electronic condition (or
  none), with or without equi keys.
* Aggregates: the five classic functions over electronic arguments.
* Sorts: electronic keys only (no CROWDORDER, no subquery), top-k or
  full; stop-after bounds and projections over a vectorized child.

Everything else (crowd-ordered sorts, distinct, set ops, crowd
operators, derived-table aliases) falls back to rows, with the vector
region — if any — ending below it.  An unmarked Join, Aggregate, or
Sort with no CROWDORDER key, still runs on the batch operator (there is
no row join, no row aggregate and no electronic row sort): it takes a
vector child's batches as they are and a row child's rows through a
``RowsToBatchOp``.  Its mark, and EXPLAIN's ``execution:`` tag, say
whether the whole subtree below runs on batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.plan import logical
from repro.plan.compiled import is_electronic
from repro.sql import ast
from repro.sql.pretty import format_expression
from repro.storage.row import Scope

#: Aggregate functions the vectorized fold implements.
_VECTOR_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass
class NodeBinding:
    """Per-node decision produced by :class:`Binder`.

    ``scope`` maps column references to batch ordinals for vectorized
    nodes (mirroring the row operator's output scope exactly, so
    expressions compile against identical name resolution).
    """

    vectorized: bool
    scope: Optional[Scope] = None
    index_columns: Optional[tuple] = None  # key of a filter's serving index


class Binder:
    """Walk an optimized logical plan and produce bindings keyed by
    ``id(node)`` — the same keying the optimizer uses for annotations
    and costs, and the profiler for metrics."""

    def __init__(self, engine: object) -> None:
        self.engine = engine
        self.bindings: dict[int, NodeBinding] = {}

    def bind(self, plan: logical.LogicalPlan) -> dict[int, NodeBinding]:
        self.bindings = {}
        self._bind(plan)
        return self.bindings

    # -- recursion ----------------------------------------------------------

    def _bind(self, node: logical.LogicalPlan) -> NodeBinding:
        binding = self._bind_node(node)
        self.bindings[id(node)] = binding
        return binding

    def _bind_node(self, node: logical.LogicalPlan) -> NodeBinding:
        if isinstance(node, logical.Scan):
            return self._bind_scan(node)
        if isinstance(node, logical.Filter):
            return self._bind_filter(node)
        if isinstance(node, logical.Project):
            return self._bind_project(node)
        if isinstance(node, logical.Join):
            return self._bind_join(node)
        if isinstance(node, logical.Aggregate):
            return self._bind_aggregate(node)
        if isinstance(node, logical.Sort):
            return self._bind_sort(node)
        if isinstance(node, logical.Limit):
            return self._bind_limit(node)
        # row-only operators (crowd operators, distinct, set operations,
        # aliases): still recurse so vector regions below them are
        # discovered and bound
        for child in node.children():
            self._bind(child)
        return NodeBinding(False)

    # -- per-node rules -----------------------------------------------------

    def _bind_scan(self, node: logical.Scan) -> NodeBinding:
        if (
            node.table.crowd  # the open-world scan
            or node.limit_hint is not None
            or not self.engine.has_table(node.table.name)
        ):
            return NodeBinding(False)
        scope = Scope.for_table(node.binding, node.table.column_names)
        return NodeBinding(True, scope)

    def _bind_filter(self, node: logical.Filter) -> NodeBinding:
        from repro.engine.planner import match_index_access

        child = self._bind(node.child)
        matched = match_index_access(self.engine, node)
        if matched is not None:
            return NodeBinding(False, index_columns=matched[0])
        if not child.vectorized or not is_electronic(node.predicate):
            return NodeBinding(False)
        return NodeBinding(True, child.scope)

    def _bind_project(self, node: logical.Project) -> NodeBinding:
        child = self._bind(node.child)
        if not child.vectorized or not all(
            is_electronic(expr) for expr, _name in node.items
        ):
            return NodeBinding(False)
        return NodeBinding(True, Scope([("", name) for _e, name in node.items]))

    def _bind_sort(self, node: logical.Sort) -> NodeBinding:
        child = self._bind(node.child)
        if not child.vectorized or not all(
            is_electronic(expr) for expr, _asc in node.keys
        ):
            return NodeBinding(False)
        return NodeBinding(True, child.scope)

    def _bind_limit(self, node: logical.Limit) -> NodeBinding:
        child = self._bind(node.child)
        return NodeBinding(child.vectorized, child.scope)

    def _bind_join(self, node: logical.Join) -> NodeBinding:
        left = self._bind(node.left)
        right = self._bind(node.right)
        if not (left.vectorized and right.vectorized) or (
            node.condition is not None and not is_electronic(node.condition)
        ):
            return NodeBinding(False)
        return NodeBinding(True, left.scope.concat(right.scope))

    def _bind_aggregate(self, node: logical.Aggregate) -> NodeBinding:
        child = self._bind(node.child)
        if not child.vectorized or not all(
            is_electronic(expr) for expr in node.group_by
        ):
            return NodeBinding(False)
        for call in node.aggregates:
            name = call.name.upper()
            if name not in _VECTOR_AGGREGATES or len(call.args) != 1:
                return NodeBinding(False)
            (argument,) = call.args
            if isinstance(argument, ast.Star):
                if name != "COUNT":
                    return NodeBinding(False)
            elif not is_electronic(argument):
                return NodeBinding(False)
        # mirror VectorAggregateOp's output scope exactly
        entries = [
            (expr.table or "", expr.name)
            if isinstance(expr, ast.ColumnRef)
            else ("", format_expression(expr))
            for expr in node.group_by
        ]
        entries += [("", format_expression(call)) for call in node.aggregates]
        return NodeBinding(True, Scope(entries))
