"""Rule framework and shared helpers for the rule-based optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.plan import logical
from repro.plan.cardinality import CardinalityEstimator
from repro.sql import ast
from repro.storage.engine import StorageEngine


@dataclass
class OptimizerContext:
    """Shared state for one optimization run."""

    engine: StorageEngine
    estimator: CardinalityEstimator
    strict_boundedness: bool = False
    applied_rules: list[str] = field(default_factory=list)
    #: cost-based planning: the rows/cents/rounds model DP enumeration
    #: and conjunct ordering score against (None = rule-based only)
    cost_model: Optional[object] = None

    def record(self, rule_name: str) -> None:
        self.applied_rules.append(rule_name)


class Rule(Protocol):
    """One rewriting rule of the rule-based optimizer (paper §3.2.2)."""

    name: str

    def apply(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        ...


def split_conjuncts(predicate: ast.Expression) -> list[ast.Expression]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if isinstance(predicate, ast.BinaryOp) and predicate.op == "AND":
        return split_conjuncts(predicate.left) + split_conjuncts(predicate.right)
    return [predicate]


def conjoin(conjuncts: list[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild a predicate from conjuncts (None for an empty list)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, conjunct)
    return result


def plan_bindings(plan: logical.LogicalPlan) -> set[str]:
    """All scan/alias bindings provided by a subplan (lowercased)."""
    provided: set[str] = set()
    for node in plan.walk():
        if isinstance(node, logical.Scan):
            provided.add(node.binding.lower())
        elif isinstance(node, logical.SubqueryAlias):
            provided.add(node.alias.lower())
        elif isinstance(node, logical.CrowdJoin):
            provided.add(node.inner_binding.lower())
    return provided


def plan_columns(plan: logical.LogicalPlan) -> set[str]:
    """All column names (lowercased) a subplan makes visible."""
    columns: set[str] = set()
    for node in plan.walk():
        if isinstance(node, logical.Scan):
            columns.update(c.lower() for c in node.table.column_names)
        elif isinstance(node, logical.SubqueryAlias):
            from repro.plan.builder import output_names

            columns.update(n.lower() for n in output_names(node.child))
        elif isinstance(node, logical.CrowdJoin):
            columns.update(
                c.lower() for c in node.inner_table.column_names
            )
    return columns


def predicate_applies_to(expr: ast.Expression, plan: logical.LogicalPlan) -> bool:
    """True when every column reference of ``expr`` resolves inside ``plan``."""
    provided_bindings = plan_bindings(plan)
    provided_columns = plan_columns(plan)
    for ref in ast.expression_columns(expr):
        if ref.table is not None:
            if ref.table.lower() not in provided_bindings:
                return False
        elif ref.name.lower() not in provided_columns:
            return False
    return True


def references_crowd_column(expr: ast.Expression, plan: logical.LogicalPlan) -> bool:
    """True when ``expr`` touches a crowd-sourceable column of any table in
    ``plan`` — such predicates must stay above the CrowdProbe."""
    crowd_map: dict[str, set[str]] = {}
    unqualified: set[str] = set()
    for node in plan.walk():
        if isinstance(node, logical.Scan):
            names = {c.name.lower() for c in node.table.crowd_columns}
            crowd_map[node.binding.lower()] = names
            unqualified.update(names)
    for ref in ast.expression_columns(expr):
        if ref.table is not None:
            if ref.name.lower() in crowd_map.get(ref.table.lower(), set()):
                return True
        elif ref.name.lower() in unqualified:
            return True
    return False


def contains_crowd_function(expr: ast.Expression) -> bool:
    return ast.contains_crowd_builtin(expr)


def is_subquery_free(expr: ast.Expression) -> bool:
    return not any(
        isinstance(node, (ast.ExistsExpr, ast.ScalarSubquery, ast.InSubquery))
        for node in ast.walk_expression(expr)
    )
