"""The binder stage: decide, per logical node, vectorized vs row execution.

Runs after logical optimization (rule rewrites, join enumeration) and
before physical planning.  For every node of the optimized plan it
records a :class:`NodeBinding`: whether the node may execute on the
columnar batch pipeline, the output :class:`Scope` mapping each column
reference to its batch ordinal, advisory output types, and — when the
node must stay on the row pipeline — a human-readable reason that
EXPLAIN surfaces.

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
* Joins: INNER/LEFT hash joins with extractable equi keys — the same
  test the row planner applies, via the same helper.
* Aggregates: the five classic functions over electronic arguments.
* Sorts: electronic keys only (no CROWDORDER, no subquery), top-k or
  full; stop-after bounds and projections over a vectorized child.

Everything else (crowd-ordered sorts, distinct, set ops, crowd
operators, derived-table aliases) falls back to rows, with the vector
region — if any — ending below it.  An unmarked Aggregate, or Sort with
no CROWDORDER key, still runs on the batch operator, which reads its
row input through a ``RowsToBatchOp`` (there is no row aggregate and no
electronic row sort); its mark, and EXPLAIN's ``execution:`` tag, say
whether its input arrives as batches or as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.plan import logical
from repro.plan.compiled import is_electronic
from repro.sql import ast
from repro.sql.pretty import format_expression
from repro.sqltypes import SQLType
from repro.storage.row import Scope

#: Aggregate functions the vectorized fold implements.
_VECTOR_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass
class NodeBinding:
    """Per-node decision produced by :class:`Binder`.

    ``scope`` maps column references to batch ordinals for vectorized
    nodes (mirroring the row operator's output scope exactly, so
    expressions compile against identical name resolution).
    ``output_types`` is advisory — derived from the catalog where
    possible, ``None`` per slot otherwise; kernels trust only runtime
    cleanliness tags, never these static types.
    """

    vectorized: bool
    reason: Optional[str] = None
    scope: Optional[Scope] = None
    output_types: Optional[tuple] = None
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
        # row-only operators: still recurse so vector regions below them
        # are discovered and bound
        for child in node.children():
            self._bind(child)
        if isinstance(node, (logical.CrowdProbe, logical.CrowdJoin)):
            reason = "crowd operator"
        else:
            reason = f"row-only operator {type(node).__name__}"
        return NodeBinding(False, reason)

    # -- per-node rules -----------------------------------------------------

    def _bind_scan(self, node: logical.Scan) -> NodeBinding:
        if node.table.crowd:
            return NodeBinding(False, "crowd table (open-world scan)")
        if node.limit_hint is not None:
            return NodeBinding(False, "stop-after bound on scan")
        if not self.engine.has_table(node.table.name):
            return NodeBinding(False, "table not materialized")
        scope = Scope.for_table(node.binding, node.table.column_names)
        types = tuple(column.sql_type for column in node.table.columns)
        return NodeBinding(True, None, scope, types)

    def _bind_filter(self, node: logical.Filter) -> NodeBinding:
        from repro.engine.planner import match_index_access

        child = self._bind(node.child)
        matched = match_index_access(self.engine, node)
        if matched is not None:
            return NodeBinding(False, "index lookup", index_columns=matched[0])
        if not child.vectorized:
            return NodeBinding(False, "row-pipeline input")
        if not is_electronic(node.predicate):
            return NodeBinding(False, "crowd or subquery predicate")
        return NodeBinding(True, None, child.scope, child.output_types)

    def _bind_project(self, node: logical.Project) -> NodeBinding:
        child = self._bind(node.child)
        if not child.vectorized:
            return NodeBinding(False, "row-pipeline input")
        if not all(is_electronic(expr) for expr, _name in node.items):
            return NodeBinding(False, "crowd or subquery projection")
        scope = Scope([("", name) for _expr, name in node.items])
        types = tuple(
            self._expression_type(expr, child) for expr, _name in node.items
        )
        return NodeBinding(True, None, scope, types)

    def _bind_sort(self, node: logical.Sort) -> NodeBinding:
        child = self._bind(node.child)
        if not all(is_electronic(expr) for expr, _asc in node.keys):
            return NodeBinding(False, "crowd-ordered or subquery sort key")
        if not child.vectorized:
            return NodeBinding(False, "row-pipeline input")
        return NodeBinding(True, None, child.scope, child.output_types)

    def _bind_limit(self, node: logical.Limit) -> NodeBinding:
        child = self._bind(node.child)
        if not child.vectorized:
            return NodeBinding(False, "row-pipeline input")
        return NodeBinding(True, None, child.scope, child.output_types)

    def _bind_join(self, node: logical.Join) -> NodeBinding:
        left = self._bind(node.left)
        right = self._bind(node.right)
        if not (left.vectorized and right.vectorized):
            return NodeBinding(False, "row-pipeline input")
        if node.join_type not in ("INNER", "LEFT"):
            return NodeBinding(False, f"{node.join_type} join")
        if node.condition is None:
            return NodeBinding(False, "cross join")
        if not is_electronic(node.condition):
            return NodeBinding(False, "crowd or subquery join condition")
        from repro.engine.planner import _extract_equi_keys

        if _extract_equi_keys(node.condition, left.scope, right.scope) is None:
            return NodeBinding(False, "no extractable equi-join keys")
        scope = left.scope.concat(right.scope)
        left_types = left.output_types or (None,) * len(left.scope)
        right_types = right.output_types or (None,) * len(right.scope)
        if node.join_type == "LEFT":
            # unmatched probe rows pad the right side with NULL
            right_types = (None,) * len(right_types)
        return NodeBinding(True, None, scope, left_types + right_types)

    def _bind_aggregate(self, node: logical.Aggregate) -> NodeBinding:
        child = self._bind(node.child)
        if not child.vectorized:
            return NodeBinding(False, "row-pipeline input")
        for expr in node.group_by:
            if not is_electronic(expr):
                return NodeBinding(False, "crowd or subquery group key")
        for call in node.aggregates:
            name = call.name.upper()
            if name not in _VECTOR_AGGREGATES:
                return NodeBinding(False, f"aggregate {name} not vectorized")
            if len(call.args) != 1:
                return NodeBinding(False, f"aggregate {name} arity")
            (argument,) = call.args
            if isinstance(argument, ast.Star):
                if name != "COUNT":
                    return NodeBinding(False, f"{name}(*) not supported")
            elif not is_electronic(argument):
                return NodeBinding(False, "crowd or subquery aggregate input")
        # mirror VectorAggregateOp's output scope exactly
        entries: list[tuple[str, str]] = []
        types: list[Optional[SQLType]] = []
        for expr in node.group_by:
            if isinstance(expr, ast.ColumnRef):
                entries.append((expr.table or "", expr.name))
            else:
                entries.append(("", format_expression(expr)))
            types.append(self._expression_type(expr, child))
        for call in node.aggregates:
            entries.append(("", format_expression(call)))
            types.append(self._aggregate_type(call, child))
        return NodeBinding(True, None, Scope(entries), tuple(types))

    # -- advisory typing ----------------------------------------------------

    def _expression_type(
        self, expr: ast.Expression, child: NodeBinding
    ) -> Optional[SQLType]:
        """Best-effort static type of ``expr`` over ``child``'s output.

        ``None`` means "unknown" — never wrong, only incomplete; runtime
        tags make the actual fast-path decisions.
        """
        if isinstance(expr, ast.ColumnRef):
            if child.scope is None or child.output_types is None:
                return None
            position = child.scope.try_resolve(expr.name, expr.table)
            if position is None:
                return None
            return child.output_types[position]
        if isinstance(expr, ast.Literal):
            value = expr.value
            if type(value) is bool:
                return SQLType.BOOLEAN
            if type(value) is int:
                return SQLType.INTEGER
            if type(value) is float:
                return SQLType.FLOAT
            if type(value) is str:
                return SQLType.STRING
            return None
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE"):
                return SQLType.BOOLEAN
            if op == "||":
                return SQLType.STRING
            if op in ("+", "-", "*", "%"):
                left = self._expression_type(expr.left, child)
                right = self._expression_type(expr.right, child)
                numeric = (SQLType.INTEGER, SQLType.FLOAT)
                if left not in numeric or right not in numeric:
                    return None
                if left is SQLType.INTEGER and right is SQLType.INTEGER:
                    return SQLType.INTEGER
                return SQLType.FLOAT
            # "/" yields int for evenly-dividing ints, float otherwise —
            # not statically determinable
            return None
        if isinstance(expr, (ast.IsNull, ast.InList, ast.Between)):
            return SQLType.BOOLEAN
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "NOT":
                return SQLType.BOOLEAN
            return self._expression_type(expr.operand, child)
        return None

    def _aggregate_type(
        self, call: ast.FunctionCall, child: NodeBinding
    ) -> Optional[SQLType]:
        name = call.name.upper()
        if name == "COUNT":
            return SQLType.INTEGER
        (argument,) = call.args
        if isinstance(argument, ast.Star):
            return None
        argument_type = self._expression_type(argument, child)
        if name == "AVG":
            # int/int division may stay exact; only FLOAT inputs are sure
            return argument_type if argument_type is SQLType.FLOAT else None
        return argument_type  # SUM/MIN/MAX preserve the input type
