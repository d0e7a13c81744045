"""The cost-based optimizer driver.

Pipeline order matters and mirrors Section 3.2.2 of the paper: first the
traditional rewrites (predicate push-down, join ordering — now DPsize
enumeration costed with the unified rows/cents/rounds model), then the
crowd-specific ones (CrowdJoin rewrite, stop-after push-down, conjunct
ordering with crowd predicates last), and finally the boundedness
analysis, which annotates plans with cardinality predictions and warns at
compile time when crowd requests cannot be bounded.  Last, the binder
marks the purely electronic region of the final plan for columnar
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.optimizer.boundedness import BoundednessAnalysis, BoundednessReport
from repro.optimizer.conjuncts import ConjunctOrdering
from repro.optimizer.cost import CostModel, PlanCost
from repro.optimizer.crowd_join import CrowdJoinRewrite
from repro.optimizer.join_ordering import JoinOrdering
from repro.optimizer.predicate_pushdown import PredicatePushdown
from repro.optimizer.rules import OptimizerContext
from repro.optimizer.stopafter import StopAfterPushdown
from repro.plan import logical
from repro.plan.binder import Binder
from repro.plan.cardinality import CardinalityEstimator, Estimate
from repro.storage.engine import StorageEngine


@dataclass
class OptimizationResult:
    """An optimized plan plus its compile-time annotations."""

    plan: logical.LogicalPlan
    boundedness: BoundednessReport
    applied_rules: list[str]
    annotations: dict[int, Estimate] = field(default_factory=dict)
    #: cumulative per-node cost under the rows/cents/rounds model
    costs: dict[int, PlanCost] = field(default_factory=dict)
    #: id(node) -> repro.plan.binder.NodeBinding for every plan node
    bindings: dict[int, Any] = field(default_factory=dict)
    #: the physical operator trees prepared for this plan, kept with it
    #: in the plan cache (see repro.engine.planner.PhysicalPlanner.plan)
    prepared: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def estimated_rows(self) -> float:
        estimate = self.annotations.get(id(self.plan))
        return estimate.rows if estimate else 0.0

    @property
    def estimated_crowd_calls(self) -> float:
        estimate = self.annotations.get(id(self.plan))
        return estimate.crowd_calls if estimate else 0.0

    @property
    def estimated_cost(self) -> Optional[PlanCost]:
        """The whole plan's cost triple (None without a cost model)."""
        return self.costs.get(id(self.plan))

    def explain(self) -> str:
        lines: list[str] = []
        self._explain_node(self.plan, 0, lines)
        lines.append(f"-- boundedness: {self.boundedness.describe()}")
        estimate = self.annotations.get(id(self.plan))
        if estimate is not None:
            lines.append(f"-- estimate: {estimate}")
        cost = self.estimated_cost
        if cost is not None:
            lines.append(f"-- cost: {cost}")
        if self.applied_rules:
            lines.append(f"-- rules: {', '.join(self.applied_rules)}")
        return "\n".join(lines)

    def _explain_node(
        self, node: logical.LogicalPlan, indent: int, lines: list[str]
    ) -> None:
        """One plan line per node with its ``~rows / ~cents / ~rounds``
        annotation (output rows; cumulative cents and latency rounds)."""
        text = "  " * indent + node.describe()
        estimate = self.annotations.get(id(node))
        cost = self.costs.get(id(node))
        if estimate is not None or cost is not None:
            rows = estimate.rows if estimate is not None else 0.0
            parts = [f"~{rows:g} rows"]
            if estimate is not None and estimate.crowd_calls:
                parts.append(f"crowd~{estimate.crowd_calls:g}")
            if cost is not None:
                parts.append(f"~{cost.cents:g}c")
                parts.append(f"~{cost.rounds:g} rounds")
            binding = self.bindings.get(id(node))
            if binding is not None and binding.vectorized:
                parts.append("execution: vectorized")
            elif binding is not None and binding.index_columns:
                columns = ", ".join(binding.index_columns)
                parts.append(f"execution: index({columns})")
            else:
                parts.append("execution: row")
            text += "  -- " + " / ".join(parts)
        lines.append(text)
        for child in node.children():
            self._explain_node(child, indent + 1, lines)


class Optimizer:
    """Applies the rule pipeline to a logical plan."""

    def __init__(
        self,
        engine: StorageEngine,
        strict_boundedness: bool = False,
        enable_rules: Optional[set[str]] = None,
        crowd_config: Optional[Any] = None,
    ) -> None:
        self.engine = engine
        self.strict_boundedness = strict_boundedness
        self.enable_rules = enable_rules
        self.crowd_config = crowd_config
        self._boundedness = BoundednessAnalysis()
        self._rules = [
            PredicatePushdown(),
            JoinOrdering(),
            CrowdJoinRewrite(),
            StopAfterPushdown(),
            ConjunctOrdering(),
            self._boundedness,
        ]

    def optimize(self, plan: logical.LogicalPlan) -> OptimizationResult:
        estimator = CardinalityEstimator(self.engine)
        cost_model = CostModel(estimator, crowd_config=self.crowd_config)
        context = OptimizerContext(
            engine=self.engine,
            estimator=estimator,
            strict_boundedness=self.strict_boundedness,
            cost_model=cost_model,
        )
        for rule in self._rules:
            if (
                self.enable_rules is not None
                and rule.name not in self.enable_rules
                and rule.name != "boundedness-analysis"
            ):
                continue
            plan = rule.apply(plan, context)
        report = self._boundedness.last_report or BoundednessReport()
        annotations = estimator.annotate(plan)
        # the binder stage: decide vectorized vs row per node of the
        # *final* plan (rules no longer move nodes after this point)
        bindings = Binder(self.engine).bind(plan)
        vectorized_ids = frozenset(
            node_id
            for node_id, binding in bindings.items()
            if binding.vectorized
        )
        # cost the final plan with a fresh model: rewrites after join
        # ordering (CrowdJoin, stop-after hints) changed node identities
        final_model = CostModel(
            estimator,
            crowd_config=self.crowd_config,
            vectorized_ids=vectorized_ids,
        )
        costs = final_model.annotate(plan)
        return OptimizationResult(
            plan=plan,
            boundedness=report,
            applied_rules=list(dict.fromkeys(context.applied_rules)),
            annotations=annotations,
            costs=costs,
            bindings=bindings,
        )
