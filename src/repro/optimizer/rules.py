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


def predicate_applies_to(expr: ast.Expression, plan: logical.LogicalPlan) -> bool:
    """True when every column reference of ``expr`` resolves inside ``plan``."""
    facts = expr.facts
    return (
        facts.bindings <= plan.provided_bindings
        and facts.names <= plan.provided_columns
    )


def references_crowd_column(expr: ast.Expression, plan: logical.LogicalPlan) -> bool:
    """True when ``expr`` touches a crowd-sourceable column of any table in
    ``plan`` — such predicates must stay above the CrowdProbe."""
    crowd_map: dict[str, set[str]] = {}
    unqualified: set[str] = set()
    for node in plan.scans:
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
