"""Predicate push-down.

The crowd-specific twist over the textbook rule: a conjunct that touches no
crowd column is pushed *below* the CrowdProbe operator, so rows are
filtered on electronically stored values before any tasks are posted —
directly reducing the number of crowd requests, which is the optimizer's
cost metric in the paper.  Conjuncts referencing crowd columns (or using
CROWDEQUAL) stay above the probe.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.optimizer.rules import (
    OptimizerContext,
    conjoin,
    predicate_applies_to,
    references_crowd_column,
    split_conjuncts,
)
from repro.plan import logical
from repro.sql import ast


class PredicatePushdown:
    """Push filter conjuncts toward the scans they constrain."""

    name = "predicate-pushdown"

    def apply(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        rewritten = self._rewrite(plan, context)
        if rewritten is not plan:
            context.record(self.name)
        return rewritten

    # -- traversal ----------------------------------------------------------

    def _rewrite(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        children = plan.children()
        if children:
            plan = plan.with_children(
                *(self._rewrite(child, context) for child in children)
            )
        if isinstance(plan, logical.Filter):
            return self._push_filter(plan, context)
        return plan

    def _push_filter(
        self, filter_node: logical.Filter, context: OptimizerContext
    ) -> logical.LogicalPlan:
        conjuncts = split_conjuncts(filter_node.predicate)
        child, remaining = self._push_into(filter_node.child, conjuncts, context)
        predicate = conjoin(remaining)
        if predicate is None:
            return child
        if child is filter_node.child and predicate is filter_node.predicate:
            return filter_node
        return logical.Filter(child, predicate)

    def _push_into(
        self,
        plan: logical.LogicalPlan,
        conjuncts: list[ast.Expression],
        context: OptimizerContext,
    ) -> tuple[logical.LogicalPlan, list[ast.Expression]]:
        """Push what we can into ``plan``; return (new plan, leftovers)."""
        if isinstance(plan, logical.Join):
            return self._push_into_join(plan, conjuncts, context)
        if isinstance(plan, logical.CrowdProbe):
            return self._push_below_probe(plan, conjuncts, context)
        if isinstance(plan, logical.Filter):
            merged = split_conjuncts(plan.predicate) + conjuncts
            child, remaining = self._push_into(plan.child, merged, context)
            predicate = conjoin(remaining)
            if predicate is None:
                return child, []
            return logical.Filter(child, predicate), []
        if isinstance(plan, logical.SubqueryAlias):
            # do not push through an alias boundary (names change)
            return plan, conjuncts
        if isinstance(plan, (logical.Scan, logical.SingleRow)):
            applicable = [
                c
                for c in conjuncts
                if predicate_applies_to(c, plan) and not c.facts.subquery
            ]
            rest = [c for c in conjuncts if c not in applicable]
            if not applicable:
                return plan, conjuncts
            return logical.Filter(plan, conjoin(applicable)), rest
        return plan, conjuncts

    def _push_into_join(
        self,
        join: logical.Join,
        conjuncts: list[ast.Expression],
        context: OptimizerContext,
    ) -> tuple[logical.LogicalPlan, list[ast.Expression]]:
        left_conjuncts: list[ast.Expression] = []
        right_conjuncts: list[ast.Expression] = []
        join_conjuncts: list[ast.Expression] = []
        remaining: list[ast.Expression] = []
        for conjunct in conjuncts:
            if not conjunct.facts.electronic:
                remaining.append(conjunct)
            elif predicate_applies_to(conjunct, join.left):
                left_conjuncts.append(conjunct)
            elif join.join_type != "LEFT" and predicate_applies_to(
                conjunct, join.right
            ):
                # pushing below the null-supplying side of a LEFT join would
                # change semantics, so only INNER/CROSS push right
                right_conjuncts.append(conjunct)
            elif join.join_type != "LEFT" and predicate_applies_to(conjunct, join):
                join_conjuncts.append(conjunct)
            else:
                remaining.append(conjunct)

        left = join.left
        right = join.right
        if left_conjuncts:
            left, leftovers = self._push_into(left, left_conjuncts, context)
            for conjunct in leftovers:
                if conjunct not in split_conjuncts_of(left):
                    left = _filter_above(left, [conjunct])
        if right_conjuncts:
            right, leftovers = self._push_into(right, right_conjuncts, context)
            for conjunct in leftovers:
                right = _filter_above(right, [conjunct])

        condition = join.condition
        join_type = join.join_type
        if join_conjuncts:
            existing = split_conjuncts(condition) if condition is not None else []
            condition = conjoin(existing + join_conjuncts)
            if join_type == "CROSS":
                join_type = "INNER"
        new_join = logical.Join(left, right, join_type, condition)
        return new_join, remaining

    def _push_below_probe(
        self,
        probe: logical.CrowdProbe,
        conjuncts: list[ast.Expression],
        context: OptimizerContext,
    ) -> tuple[logical.LogicalPlan, list[ast.Expression]]:
        subplan = probe.child
        pushable: list[ast.Expression] = []
        keep: list[ast.Expression] = []
        for conjunct in conjuncts:
            if (
                conjunct.facts.electronic
                and not references_crowd_column(conjunct, subplan)
                and predicate_applies_to(conjunct, subplan)
            ):
                pushable.append(conjunct)
            else:
                keep.append(conjunct)
        if not pushable:
            return probe, conjuncts
        child, leftovers = self._push_into(subplan, pushable, context)
        predicate = conjoin(leftovers)
        if predicate is not None:
            child = logical.Filter(child, predicate)
        return replace(probe, child=child), keep


def split_conjuncts_of(plan: logical.LogicalPlan) -> list[ast.Expression]:
    if isinstance(plan, logical.Filter):
        return split_conjuncts(plan.predicate)
    return []


def _filter_above(
    plan: logical.LogicalPlan, conjuncts: list[ast.Expression]
) -> logical.LogicalPlan:
    predicate = conjoin(conjuncts)
    if predicate is None:
        return plan
    return logical.Filter(plan, predicate)
