"""Join ordering.

Flattens chains of INNER/CROSS joins into a relation set plus equi-join
conditions, then rebuilds the join tree:

* **DPsize enumeration** (the cost-based default, up to
  ``DP_MAX_RELATIONS`` relations) — classic dynamic programming over
  relation subsets, every split of every subset costed with the unified
  rows/cents/rounds model, so crowd probes and CrowdJoins land where
  their input cardinality is minimal and electronic intermediate results
  stay small.  Memoized best-plans make the search O(3^n); above the
  relation cap the greedy fallback takes over.
* **Greedy fallback** — the paper's heuristic: crowd-related relations
  are joined *last*, so the number of outer tuples reaching a crowd
  operator — and therefore the number of crowd requests — is minimized.
  Among non-crowd relations, smaller estimated cardinality goes first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimizer.rules import (
    OptimizerContext,
    conjoin,
    predicate_applies_to,
    split_conjuncts,
)
from repro.plan import logical
from repro.sql import ast

#: DPsize enumerates up to this many relations (3^n subset splits);
#: larger join graphs fall back to the greedy heuristic
DP_MAX_RELATIONS = 8


@dataclass
class _Relation:
    plan: logical.LogicalPlan
    rows: float
    crowd: bool


class JoinOrdering:
    """Cost-based DP join enumeration with a greedy crowd-aware fallback."""

    name = "join-ordering"

    def apply(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        return self._rewrite(plan, context)

    def _rewrite(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        if isinstance(plan, logical.Join) and plan.join_type in ("INNER", "CROSS"):
            relations: list[logical.LogicalPlan] = []
            conditions: list[ast.Expression] = []
            self._flatten(plan, relations, conditions)
            relations = [self._rewrite(r, context) for r in relations]
            if len(relations) > 2 or conditions:
                context.record(self.name)
                return self._order(relations, conditions, context)
            left, right = relations
            return logical.Join(left, right, "CROSS", None)
        children = plan.children()
        if not children:
            return plan
        return plan.with_children(
            *(self._rewrite(child, context) for child in children)
        )

    def _flatten(
        self,
        plan: logical.LogicalPlan,
        relations: list[logical.LogicalPlan],
        conditions: list[ast.Expression],
    ) -> None:
        if isinstance(plan, logical.Join) and plan.join_type in ("INNER", "CROSS"):
            self._flatten(plan.left, relations, conditions)
            self._flatten(plan.right, relations, conditions)
            if plan.condition is not None:
                conditions.extend(split_conjuncts(plan.condition))
        else:
            relations.append(plan)

    def _order(
        self,
        plans: list[logical.LogicalPlan],
        conditions: list[ast.Expression],
        context: OptimizerContext,
    ) -> logical.LogicalPlan:
        if (
            context.cost_model is not None
            and 2 <= len(plans) <= DP_MAX_RELATIONS
        ):
            ordered = self._order_dp(plans, conditions, context)
            if ordered is not None:
                return ordered
        return self._order_greedy(plans, conditions, context)

    # -- DPsize enumeration -------------------------------------------------------

    def _order_dp(
        self,
        plans: list[logical.LogicalPlan],
        conditions: list[ast.Expression],
        context: OptimizerContext,
    ) -> logical.LogicalPlan | None:
        """Bottom-up dynamic programming over relation subsets.

        ``best[mask]`` holds the cheapest plan joining exactly the
        relations in ``mask`` under the rows/cents/rounds cost model.
        Each join condition is attached at the unique node where its
        referenced relations first end up on both sides, so every
        condition is applied exactly once.  Cross products are permitted
        (the cost model punishes them), which keeps disconnected join
        graphs planable.  Ties resolve to the first candidate in
        deterministic submask order — same query, same plan.
        """
        model = context.cost_model
        n = len(plans)

        bindings = [p.provided_bindings for p in plans]
        columns = [p.provided_columns for p in plans]

        def owners(key: str, provided: list[frozenset[str]]) -> int:
            """Bitmask of the relations providing ``key``."""
            mask = 0
            for i, names in enumerate(provided):
                if key in names:
                    mask |= 1 << i
            return mask

        def condition_mask(cond: ast.Expression) -> int | None:
            facts = cond.facts
            owned = [owners(b, bindings) for b in facts.bindings]
            owned += [owners(c, columns) for c in facts.names]
            if not all(owned):
                return None  # outer/correlated reference
            mask = 0
            for relations in owned:
                mask |= relations
            return mask or None

        leftovers: list[ast.Expression] = []
        local: list[tuple[ast.Expression, int]] = []
        single: dict[int, list[ast.Expression]] = {}
        for cond in conditions:
            mask = condition_mask(cond)
            if mask is None:
                leftovers.append(cond)
            elif mask & (mask - 1) == 0:
                # references one relation only (e.g. an ON-clause constant
                # restriction push-down left behind): filter the leaf
                single.setdefault(mask.bit_length() - 1, []).append(cond)
            else:
                local.append((cond, mask))

        leaves = list(plans)
        for index, conds in single.items():
            if _is_crowd_inner_leaf(plans[index]):
                # wrapping a crowd-joinable leaf in a Filter would defeat
                # CrowdJoinRewrite (it matches Scan/CrowdProbe(Scan) only)
                # and silently drop crowd sourcing; evaluate these above
                # the join tree instead, like the greedy path's residuals
                leftovers.extend(conds)
                continue
            predicate = conjoin(conds)
            if predicate is not None:
                leaves[index] = logical.Filter(leaves[index], predicate)

        # The O(3^n) split loop runs on pure float arithmetic over
        # memoized (cents, rounds, row-work, output-rows) tuples — it
        # mirrors the CostModel formulas without building a Join (or
        # walking the estimator) per candidate.  Only the *chosen*
        # decisions materialize as plan nodes afterwards.
        inf = float("inf")
        estimator = context.estimator
        batch = float(getattr(model, "batch_size", 16))
        cents_per_call = float(getattr(model, "cents_per_call", 6.0))
        # per-condition selectivity is subplan-invariant (a binding names
        # one table in this query), so compute it once against a plan
        # providing every relation
        all_relations = leaves[0]
        for leaf in leaves[1:]:
            all_relations = logical.Join(all_relations, leaf, "CROSS", None)
        selectivity = [
            estimator.selectivity(cond, all_relations) for cond, _m in local
        ]
        crowd_inner = [_is_crowd_inner_leaf(plan) for plan in plans]

        # best[mask] = (cents, rounds, row_work, out_rows, decision);
        # decision is None for a leaf or (sub, other, condition indexes)
        best: dict[int, tuple] = {}
        for i, leaf in enumerate(leaves):
            leaf_cost = model.cost(leaf)
            out_rows = estimator._estimate(leaf, {}).rows
            best[1 << i] = (
                leaf_cost.cents,
                leaf_cost.rounds,
                leaf_cost.rows,
                out_rows,
                None,
            )
        full = (1 << n) - 1
        # inside[mask]: bit i set when local condition i references only
        # relations in mask.  A condition spans the split (sub, other) of
        # mask when it lies inside mask but inside neither side.
        inside = [0] * (full + 1)
        for index, (_c, cond_mask) in enumerate(local):
            superset = cond_mask
            while True:  # every superset of cond_mask, ascending
                inside[superset] |= 1 << index
                if superset == full:
                    break
                superset = (superset + 1) | cond_mask
        # condition bitmask -> its condition indexes, ascending (the order
        # their selectivities multiply in)
        indexes: dict[int, tuple[int, ...]] = {}

        def combine(sub: int, other: int, spanning: tuple[int, ...]) -> tuple:
            left = best[sub]
            right = best[other]
            out = left[3] * right[3]
            for index in spanning:
                out *= selectivity[index]
            if (
                spanning
                and other & (other - 1) == 0
                and crowd_inner[other.bit_length() - 1]
            ):
                # anticipated CrowdJoin: the open-world right side costs
                # one sourcing call per outer tuple instead of infinity
                calls = left[3]
                cents = left[0] + calls * cents_per_call
                rounds = left[1] + (
                    calls if calls in (0.0, inf) else float(-(-calls // batch))
                )
                work = left[2] + left[3] + 2 * right[3] + out
            else:
                cents = left[0] + right[0]
                rounds = left[1] + right[1]
                work = left[2] + right[2] + left[3] + right[3] + out
            return (cents, rounds, work, out)

        for mask in range(3, full + 1):
            if mask & (mask - 1) == 0:
                continue  # singleton
            chosen = None
            within = inside[mask]
            # pass 1: splits connected by a join condition (every proper
            # submask and its complement already have a best plan)
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                span = within & ~(inside[sub] | inside[other])
                if span:
                    spanning = indexes.get(span)
                    if spanning is None:
                        spanning = indexes[span] = tuple(
                            i for i in range(len(local)) if span >> i & 1
                        )
                    cost = combine(sub, other, spanning)
                    if chosen is None or cost[:3] < chosen[0][:3]:
                        chosen = (cost, (sub, other, spanning))
                sub = (sub - 1) & mask
            if chosen is None:
                # pass 2 (disconnected subset): cheapest cross-product
                # split — only paid when the join graph forces it
                sub = (mask - 1) & mask
                while sub:
                    other = mask ^ sub
                    cost = combine(sub, other, ())
                    if chosen is None or cost[:3] < chosen[0][:3]:
                        chosen = (cost, (sub, other, ()))
                    sub = (sub - 1) & mask
            if chosen is None:
                return None  # unreachable (cross joins close the lattice)
            cost, decision = chosen
            best[mask] = cost + (decision,)

        tree = _build(full, best, leaves, local)
        leftover = conjoin(leftovers)
        if leftover is not None:
            tree = logical.Filter(tree, leftover)
        return tree

    # -- greedy fallback ----------------------------------------------------------

    def _order_greedy(
        self,
        plans: list[logical.LogicalPlan],
        conditions: list[ast.Expression],
        context: OptimizerContext,
    ) -> logical.LogicalPlan:
        relations = [
            _Relation(
                plan=plan,
                rows=context.estimator.estimate_rows(plan),
                crowd=_is_crowd_related(plan),
            )
            for plan in plans
        ]

        # seed: cheapest non-crowd relation (fall back to cheapest overall)
        non_crowd = [r for r in relations if not r.crowd]
        pool = non_crowd if non_crowd else relations
        current = min(pool, key=lambda r: r.rows)
        remaining = [r for r in relations if r is not current]
        tree: logical.LogicalPlan = current.plan
        pending = list(conditions)

        while remaining:
            best = None
            best_score = None
            for candidate in remaining:
                connected = any(
                    self._connects(cond, tree, candidate.plan)
                    for cond in pending
                )
                # score: crowd relations sort after everything else, then
                # disconnected (cartesian) relations, then by cardinality
                score = (candidate.crowd, not connected, candidate.rows)
                if best_score is None or score < best_score:
                    best_score = score
                    best = candidate
            assert best is not None
            applicable = [
                cond
                for cond in pending
                if self._connects(cond, tree, best.plan)
                or predicate_applies_to(cond, logical.Join(tree, best.plan, "CROSS"))
            ]
            usable = []
            for cond in applicable:
                joined = logical.Join(tree, best.plan, "CROSS")
                if predicate_applies_to(cond, joined):
                    usable.append(cond)
            pending = [c for c in pending if c not in usable]
            condition = conjoin(usable)
            join_type = "INNER" if condition is not None else "CROSS"
            tree = logical.Join(tree, best.plan, join_type, condition)
            remaining = [r for r in remaining if r is not best]

        leftover = conjoin(pending)
        if leftover is not None:
            tree = logical.Filter(tree, leftover)
        return tree

    @staticmethod
    def _connects(
        condition: ast.Expression,
        left: logical.LogicalPlan,
        right: logical.LogicalPlan,
    ) -> bool:
        """True when ``condition`` references columns from both sides."""
        facts = condition.facts
        return not (
            facts.bindings.isdisjoint(left.provided_bindings)
            and facts.names.isdisjoint(left.provided_columns)
        ) and not (
            facts.bindings.isdisjoint(right.provided_bindings)
            and facts.names.isdisjoint(right.provided_columns)
        )


def _build(
    mask: int,
    best: dict[int, tuple],
    leaves: list[logical.LogicalPlan],
    local: list[tuple[ast.Expression, int]],
) -> logical.LogicalPlan:
    """Materialize the DP's decision for ``mask`` as a join tree.  (A
    module function, not a closure: a closure calling itself is a
    reference cycle that would keep the whole DP memo alive until the
    cyclic garbage collector runs.)"""
    decision = best[mask][4]
    if decision is None:
        return leaves[mask.bit_length() - 1]
    sub, other, spanning = decision
    condition = conjoin([local[i][0] for i in spanning])
    join_type = "INNER" if condition is not None else "CROSS"
    return logical.Join(
        _build(sub, best, leaves, local),
        _build(other, best, leaves, local),
        join_type,
        condition,
    )


def _is_crowd_inner_leaf(plan: logical.LogicalPlan) -> bool:
    """Would this relation, as the right side of an INNER equi-join,
    become a CrowdJoin?  Mirrors ``CrowdJoinRewrite._crowd_inner``."""
    if isinstance(plan, logical.Scan) and plan.table.crowd:
        return True
    return (
        isinstance(plan, logical.CrowdProbe)
        and plan.table.crowd
        and isinstance(plan.child, logical.Scan)
    )


def _is_crowd_related(plan: logical.LogicalPlan) -> bool:
    return any(
        isinstance(node, (logical.CrowdProbe, logical.CrowdJoin))
        or (isinstance(node, logical.Scan) and node.table.crowd)
        for node in plan.walk()
    )
