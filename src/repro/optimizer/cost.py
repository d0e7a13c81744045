"""The unified cost model: electronic rows, crowd cents, latency rounds.

The paper's optimizer minimizes *crowd requests* — the dominant cost in a
crowd-backed query.  This module generalizes that single metric into
three ordered channels:

* ``cents``  — expected crowdsourcing spend: predicted crowd calls times
  the per-HIT reward times the expected number of paid assignments
  (fixed ``replication``, or the adaptive-replication midpoint when
  ``target_confidence`` is configured);
* ``rounds`` — marketplace latency: how many sequential settle rounds
  the plan needs, given the batch window (``batch_size``) that overlaps
  a window's task latencies;
* ``rows``   — electronic row work: how many tuples the iterators push.

Costs compare lexicographically — a cent out-ranks any amount of
electronic work, and a marketplace round out-ranks any row count — which
is exactly the paper's "crowd operators are orders of magnitude more
expensive" argument made executable.  The DP join enumeration minimizes
this triple; EXPLAIN prints it per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.plan import logical
from repro.plan.cardinality import UNBOUNDED, CardinalityEstimator, Estimate

#: fallbacks mirroring :class:`repro.crowd.task_manager.CrowdConfig`
#: (imported lazily to keep the optimizer importable without the crowd
#: stack)
_DEFAULT_REWARD_CENTS = 2
_DEFAULT_REPLICATION = 3
_DEFAULT_BATCH_SIZE = 16


@dataclass(frozen=True)
class PlanCost:
    """Cumulative cost of a (sub)plan in the three ordered channels."""

    cents: float = 0.0
    rounds: float = 0.0
    rows: float = 0.0

    def key(self) -> tuple[float, float, float]:
        """Lexicographic comparison key: cents dominate, then rounds."""
        return (self.cents, self.rounds, self.rows)

    def __lt__(self, other: "PlanCost") -> bool:
        return self.key() < other.key()

    def __add__(self, other: "PlanCost") -> "PlanCost":
        return PlanCost(
            self.cents + other.cents,
            self.rounds + other.rounds,
            self.rows + other.rows,
        )

    def __str__(self) -> str:
        return (
            f"~{_fmt(self.rows)} rows / ~{_fmt(self.cents)}c / "
            f"~{_fmt(self.rounds)} rounds"
        )


def _fmt(value: float) -> str:
    if value == UNBOUNDED:
        return "inf"
    return f"{value:g}" if value == round(value, 3) else f"{value:.3g}"


def _mul(calls: float, cents: float) -> float:
    """``calls * cents`` without inf*0 producing NaN."""
    if calls == UNBOUNDED:
        return UNBOUNDED if cents else 0.0
    return calls * cents


class CostModel:
    """Scores logical plans; shared by DP enumeration and EXPLAIN.

    One instance serves one optimization run: per-node estimates and
    costs are memoized by object identity (plans are immutable and the
    memo holds references, so ids stay valid), which keeps DPsize's
    repeated costing of shared subtrees linear.
    """

    #: per-row work discount for vectorized operators: batch kernels
    #: amortize interpreter dispatch over whole columns, so a vectorized
    #: node's electronic row channel weighs a quarter of a row pipeline's
    VECTOR_ROW_WEIGHT = 0.25

    def __init__(
        self,
        estimator: CardinalityEstimator,
        crowd_config: Optional[Any] = None,
        vectorized_ids: frozenset = frozenset(),
    ) -> None:
        self.estimator = estimator
        #: ids of logical nodes the binder marked vector-eligible
        self.vectorized_ids = vectorized_ids
        config = crowd_config
        self.reward_cents = float(
            getattr(config, "reward_cents", _DEFAULT_REWARD_CENTS)
        )
        self.batch_size = max(
            1, int(getattr(config, "batch_size", _DEFAULT_BATCH_SIZE) or 1)
        )
        self.hit_group_size = max(
            1, int(getattr(config, "hit_group_size", 1) or 1)
        )
        if getattr(config, "target_confidence", None) is not None:
            # adaptive replication: expect the midpoint of the band
            low = float(getattr(config, "min_replication", 2))
            high = float(getattr(config, "max_replication", 7))
            self.expected_assignments = (low + high) / 2.0
        else:
            self.expected_assignments = float(
                getattr(config, "replication", _DEFAULT_REPLICATION)
            )
        # memoized per-node costs; values keep the node alive so ids
        # cannot be recycled while the model is in use (estimates are
        # memoized inside the estimator itself)
        self._costs: dict[int, tuple[Any, PlanCost]] = {}

    @property
    def cents_per_call(self) -> float:
        """Expected spend for one crowd call (HIT groups amortize the
        posting overhead but every assignment is still paid)."""
        return self.reward_cents * self.expected_assignments

    # -- public API ---------------------------------------------------------------

    def cost(self, plan: logical.LogicalPlan) -> PlanCost:
        """Cumulative cost of ``plan`` (memoized)."""
        cached = self._costs.get(id(plan))
        if cached is not None:
            return cached[1]
        override = self._crowd_join_override(plan)
        if override is not None:
            # the anticipated-CrowdJoin override replaces the right
            # subtree's open-world sourcing with per-outer-tuple calls
            per_outer_calls, right = override
            total = self.cost(plan.left) + PlanCost(
                cents=_mul(per_outer_calls, self.cents_per_call),
                rounds=self._rounds_for(per_outer_calls),
                rows=self._own_rows(plan) + self._rows(right),
            )
        else:
            total = self._node_cost(plan)
            for child in plan.children():
                total = total + self.cost(child)
        self._costs[id(plan)] = (plan, total)
        return total

    def annotate(self, plan: logical.LogicalPlan) -> dict[int, PlanCost]:
        """Cumulative cost for every node; ``id(node) -> PlanCost``."""
        self.cost(plan)
        return {node_id: cost for node_id, (_n, cost) in self._costs.items()}

    # -- internals ----------------------------------------------------------------

    def _estimate(self, plan: logical.LogicalPlan) -> Estimate:
        return self.estimator._estimate(plan, {})

    def _rows(self, plan: logical.LogicalPlan) -> float:
        return self._estimate(plan).rows

    def _calls(self, plan: logical.LogicalPlan) -> float:
        return self._estimate(plan).crowd_calls

    def _crowd_join_override(
        self, plan: logical.LogicalPlan
    ) -> Optional[tuple[float, logical.LogicalPlan]]:
        """Anticipate the CrowdJoin rewrite: an INNER join with a crowd
        table (or its probe) as the right side sources per *outer*
        tuple, so its crowd calls scale with the outer cardinality, not
        with the open world."""
        if not (
            isinstance(plan, logical.Join)
            and plan.join_type == "INNER"
            and plan.condition is not None
        ):
            return None
        right = plan.right
        inner = None
        if isinstance(right, logical.Scan) and right.table.crowd:
            inner = right
        elif (
            isinstance(right, logical.CrowdProbe)
            and right.table.crowd
            and isinstance(right.child, logical.Scan)
        ):
            inner = right.child
        if inner is None:
            return None
        return self._rows(plan.left), right

    def _own_calls(self, plan: logical.LogicalPlan) -> float:
        """Crowd calls attributable to this node alone."""
        estimate = self._estimate(plan)
        child_sum = 0.0
        for child in plan.children():
            child_sum += self._calls(child)
        node_calls = estimate.crowd_calls
        if node_calls == UNBOUNDED:
            return 0.0 if child_sum == UNBOUNDED else UNBOUNDED
        if child_sum == UNBOUNDED:
            # the node bounds its children (stop-after): every remaining
            # call belongs to this node's window
            return node_calls
        own = max(0.0, node_calls - child_sum)
        if isinstance(plan, logical.Filter):
            own += self._filter_ballots(plan)
        return own

    def _filter_ballots(self, plan: logical.Filter) -> float:
        """Expected CROWDEQUAL ballots a filter issues: one per crowd
        comparison for every row that survives the *electronic* conjuncts
        (FilterOp evaluates those first and skips the crowd for rejected
        rows)."""
        from repro.optimizer.rules import split_conjuncts

        crowd_nodes = plan.predicate.facts.crowd_equals
        if not crowd_nodes:
            return 0.0
        rows = self._rows(plan.child)
        if rows == UNBOUNDED:
            return UNBOUNDED
        electronic_selectivity = 1.0
        for conjunct in split_conjuncts(plan.predicate):
            if not conjunct.facts.crowd:
                electronic_selectivity *= self.estimator.selectivity(
                    conjunct, plan.child
                )
        return rows * electronic_selectivity * crowd_nodes

    def _rounds_for(self, calls: float) -> float:
        if calls <= 0:
            return 0.0
        if calls == UNBOUNDED:
            return UNBOUNDED
        return math.ceil(calls / self.batch_size)

    def _node_cost(self, plan: logical.LogicalPlan) -> PlanCost:
        """This node's own contribution (children accounted separately)."""
        calls = self._own_calls(plan)
        cents = _mul(calls, self.cents_per_call)
        rounds = self._rounds_for(calls)
        if isinstance(plan, logical.Sort) and plan.is_crowd_sort:
            # round-batched comparison sort settles O(log n) waves, not
            # one wave per comparison
            n = self._rows(plan.child)
            if n > 1 and n != UNBOUNDED:
                rounds = math.ceil(math.log2(n)) + 1
        return PlanCost(cents=cents, rounds=rounds, rows=self._own_rows(plan))

    def _own_rows(self, plan: logical.LogicalPlan) -> float:
        """Electronic row work this node performs itself (discounted
        when the binder marked the node for columnar execution)."""
        rows = self._base_own_rows(plan)
        if id(plan) in self.vectorized_ids and rows != UNBOUNDED:
            return rows * self.VECTOR_ROW_WEIGHT
        return rows

    def _base_own_rows(self, plan: logical.LogicalPlan) -> float:
        if isinstance(plan, (logical.Scan, logical.SingleRow)):
            return self._rows(plan)
        if isinstance(plan, logical.Join):
            # the one join reads both inputs, materializes the output
            return (
                self._rows(plan.left)
                + self._rows(plan.right)
                + self._rows(plan)
            )
        if isinstance(plan, logical.CrowdJoin):
            return self._rows(plan.left) + self._rows(plan)
        if isinstance(plan, logical.SetOperation):
            return self._rows(plan.left) + self._rows(plan.right)
        if isinstance(plan, logical.Sort):
            n = self._rows(plan.child)
            return n * math.log2(n) if n > 1 else n
        if isinstance(plan, logical.Limit):
            return self._rows(plan)
        children = plan.children()
        if not children:
            return self._rows(plan)
        # filter/project/probe/distinct/alias: one pass over the input
        return sum(self._rows(child) for child in children)
