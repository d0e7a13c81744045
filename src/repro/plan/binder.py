"""The binder stage: decide, per logical node, vectorized vs row execution.

Runs after logical optimization (rule rewrites, join enumeration) and
before physical planning.  For every node of the optimized plan it
records a :class:`NodeBinding`: whether the node may execute on the
columnar batch pipeline and, for a filter served by an index, the index
key EXPLAIN shows.  Scopes are the operators' own: each batch operator
is built, and names its output, in one place, the physical planner.

A node is vector-eligible only when its entire input subtree is: the
physical planner builds one contiguous batch region per marked node and
caps it with a ``BatchToRowsOp`` transition, so crowd operators and
crowd-ordered sorts above the region consume ordinary row tuples and
keep their semantics (crowd batching windows, open-world sourcing, 3VL
verdicts) bit-identical to the row engine.  A query of scans, filters,
joins, aggregates, sorts, DISTINCT, set operations, derived tables and
limits over stored electronic tables runs in the vector region up to
its root.

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
  full.
* Stop-after bounds, DISTINCT and derived-table aliases over a
  vectorized child, set operations over two, and electronic
  projections.

Everything else (crowd-ordered sorts, crowd operators, SELECT without
FROM) falls back to rows, with the vector region — if any — ending
below it.  An unmarked Join, Aggregate, Sort with no CROWDORDER key,
DISTINCT, set operation or alias still runs on its batch operator
(none has a row operator): it takes a vector child's batches as they
are and a row child's rows through a ``RowsToBatchOp``.  Its mark, and
EXPLAIN's ``execution:`` tag, say whether the whole subtree below runs
on batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.plan import logical
from repro.plan.compiled import is_electronic
from repro.sql import ast

#: Aggregate functions the vectorized fold implements.
_VECTOR_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass
class NodeBinding:
    """Per-node decision produced by :class:`Binder`."""

    vectorized: bool
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
            return NodeBinding(
                not node.table.crowd  # the open-world scan
                and node.limit_hint is None
                and self.engine.has_table(node.table.name)
            )
        if isinstance(node, logical.Filter):
            return self._bind_filter(node)
        # every input is bound (a list, not a short-circuit), so vector
        # regions below a row node are discovered too
        inputs = all([
            self._bind(child).vectorized for child in node.children()
        ])
        if isinstance(node, logical.Project):
            return NodeBinding(inputs and all(
                is_electronic(expr) for expr, _name in node.items
            ))
        if isinstance(node, logical.Join):
            return NodeBinding(inputs and (
                node.condition is None or is_electronic(node.condition)
            ))
        if isinstance(node, logical.Aggregate):
            return NodeBinding(inputs and self._vector_aggregate(node))
        if isinstance(node, logical.Sort):
            return NodeBinding(inputs and all(
                is_electronic(expr) for expr, _asc in node.keys
            ))
        if isinstance(node, (logical.Limit, logical.Distinct,
                             logical.SubqueryAlias, logical.SetOperation)):
            return NodeBinding(inputs)
        return NodeBinding(False)  # crowd operators and SingleRow

    # -- per-node rules -----------------------------------------------------

    def _bind_filter(self, node: logical.Filter) -> NodeBinding:
        from repro.engine.planner import match_index_access

        child = self._bind(node.child)
        matched = match_index_access(self.engine, node)
        if matched is not None:
            return NodeBinding(False, index_columns=matched[0])
        return NodeBinding(
            child.vectorized and is_electronic(node.predicate)
        )

    @staticmethod
    def _vector_aggregate(node: logical.Aggregate) -> bool:
        if not all(is_electronic(expr) for expr in node.group_by):
            return False
        for call in node.aggregates:
            name = call.name.upper()
            if name not in _VECTOR_AGGREGATES or len(call.args) != 1:
                return False
            (argument,) = call.args
            if isinstance(argument, ast.Star):
                if name != "COUNT":
                    return False
            elif not is_electronic(argument):
                return False
        return True
