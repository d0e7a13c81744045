"""Filter conjunct ordering.

Orders each Filter's AND-ed conjuncts by selectivity-per-evaluation-cost
(the classic ``(selectivity - 1) / cost`` rank: drop the most rows per
unit of work first), with two hard classes pinned to the tail:

1. pure electronic conjuncts, cheapest-and-most-selective first;
2. conjuncts containing subqueries (expensive, possibly crowd-backed);
3. conjuncts containing CROWDEQUAL — always last, so a row must survive
   every electronic test before a single cent is spent on ballots.

The physical FilterOp evaluates the ordered conjuncts with an
electronic short-circuit prefix (see
:class:`repro.engine.filter_project.FilterOp`); because the ordering is
part of the *logical plan*, the row and columnar filters inherit
exactly the same behaviour.
"""

from __future__ import annotations

from typing import Optional

from repro.optimizer.rules import (
    OptimizerContext,
    conjoin,
    split_conjuncts,
)
from repro.plan import logical
from repro.sql import ast


class ConjunctOrdering:
    """Reorder AND-chains: cheap selective filters first, crowd last."""

    name = "conjunct-ordering"

    def apply(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        rewritten = self._rewrite(plan, context)
        if rewritten is not plan:
            context.record(self.name)
        return rewritten

    def _rewrite(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        children = plan.children()
        if children:
            new_children = tuple(
                self._rewrite(child, context) for child in children
            )
            if any(n is not c for n, c in zip(new_children, children)):
                plan = plan.with_children(*new_children)
        if isinstance(plan, logical.Filter):
            ordered = self._order_predicate(plan, context)
            if ordered is not None:
                return logical.Filter(plan.child, ordered)
        return plan

    def _order_predicate(
        self, node: logical.Filter, context: OptimizerContext
    ) -> Optional[ast.Expression]:
        conjuncts = split_conjuncts(node.predicate)
        if len(conjuncts) < 2:
            return None
        scored = []
        for index, conjunct in enumerate(conjuncts):
            selectivity = context.estimator.selectivity(conjunct, node.child)
            # evaluation cost proxy: AST size (a compiled closure's work
            # scales with it); crowd ballots dwarf any electronic cost,
            # hence the hard class split instead of a cost constant
            eval_cost = conjunct.facts.size
            rank = (selectivity - 1.0) / eval_cost
            scored.append((_conjunct_class(conjunct), rank, index, conjunct))
        scored.sort(key=lambda entry: entry[:3])
        ordered = [entry[3] for entry in scored]
        if ordered == conjuncts:
            return None
        return conjoin(ordered)


def _conjunct_class(conjunct: ast.Expression) -> int:
    """0 = pure electronic, 1 = has a subquery, 2 = asks the crowd."""
    facts = conjunct.facts
    if facts.crowd:
        return 2
    if facts.subquery:
        return 1
    return 0
