"""CrowdJoin rewrite.

Turns an inner join whose right side is a CROWD table into the paper's
CrowdJoin operator: an index nested-loop join that, per outer tuple,
probes the stored inner tuples and asks the crowd for matching tuples that
do not exist yet (Section 3.2.1).  The join key columns come from the
equality conjuncts of the join condition; everything else remains a
residual predicate evaluated after matching.
"""

from __future__ import annotations

from typing import Optional

from repro.optimizer.rules import OptimizerContext, split_conjuncts
from repro.plan import logical
from repro.sql import ast


class CrowdJoinRewrite:
    """Rewrite Join(outer, crowd-table) into CrowdJoin."""

    name = "crowdjoin-rewrite"

    def apply(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        return self._rewrite(plan, context)

    def _rewrite(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        children = plan.children()
        if children:
            plan = plan.with_children(
                *(self._rewrite(child, context) for child in children)
            )
        if isinstance(plan, logical.Join) and plan.join_type == "INNER":
            rewritten = self._try_rewrite(plan, context)
            if rewritten is not None:
                context.record(self.name)
                return rewritten
        return plan

    def _try_rewrite(
        self, join: logical.Join, context: OptimizerContext
    ) -> Optional[logical.LogicalPlan]:
        if join.condition is None:
            return None
        inner = self._crowd_inner(join.right)
        if inner is None:
            return None
        scan, probe = inner
        keys = self._extract_keys(join.condition, scan, join.left)
        if not keys:
            return None
        inner_key_columns = tuple(column for column, _expr in keys)
        outer_key_exprs = tuple(expr for _column, expr in keys)
        needed = probe.columns if probe is not None else ()
        return logical.CrowdJoin(
            left=join.left,
            inner_table=scan.table,
            inner_binding=scan.binding,
            condition=join.condition,
            inner_key_columns=inner_key_columns,
            outer_key_exprs=outer_key_exprs,
            needed_columns=needed,
        )

    @staticmethod
    def _crowd_inner(
        plan: logical.LogicalPlan,
    ) -> Optional[tuple[logical.Scan, Optional[logical.CrowdProbe]]]:
        """Accept ``Scan`` or ``CrowdProbe(Scan)`` of a CROWD table."""
        if isinstance(plan, logical.Scan) and plan.table.crowd:
            return plan, None
        if (
            isinstance(plan, logical.CrowdProbe)
            and plan.table.crowd
            and isinstance(plan.child, logical.Scan)
        ):
            return plan.child, plan
        return None

    @staticmethod
    def _extract_keys(
        condition: ast.Expression,
        scan: logical.Scan,
        outer: logical.LogicalPlan,
    ) -> list[tuple[str, ast.Expression]]:
        """(inner column, outer expression) pairs from equality conjuncts."""
        inner_binding = scan.binding.lower()
        inner_columns = scan.provided_columns
        outer_bindings = outer.provided_bindings
        outer_columns = outer.provided_columns
        # an unqualified name is a key column only when one side owns it
        inner_only = inner_columns - outer_columns
        outer_only = outer_columns - inner_columns

        def side_of(expr: ast.Expression) -> Optional[str]:
            facts = expr.facts
            if not (facts.bindings or facts.names):
                return None  # constant — not a join key
            sides = set()
            for table in facts.bindings:
                if table == inner_binding:
                    sides.add("inner")
                elif table in outer_bindings:
                    sides.add("outer")
                else:
                    return None
            for name in facts.names:
                if name in inner_only:
                    sides.add("inner")
                elif name in outer_only:
                    sides.add("outer")
                else:
                    return None
            if len(sides) == 1:
                return sides.pop()
            return None

        keys: list[tuple[str, ast.Expression]] = []
        for conjunct in split_conjuncts(condition):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            left_side = side_of(conjunct.left)
            right_side = side_of(conjunct.right)
            inner_expr = outer_expr = None
            if left_side == "inner" and right_side == "outer":
                inner_expr, outer_expr = conjunct.left, conjunct.right
            elif left_side == "outer" and right_side == "inner":
                inner_expr, outer_expr = conjunct.right, conjunct.left
            if inner_expr is None or outer_expr is None:
                continue
            if isinstance(inner_expr, ast.ColumnRef):
                keys.append((inner_expr.name, outer_expr))
        return keys
