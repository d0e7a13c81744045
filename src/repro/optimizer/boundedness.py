"""Boundedness analysis.

"The last optimization deals with the open-world assumption by ensuring
that the amount of data requested from the crowd is bounded ... the
heuristic ... warns the user at compile-time if the number of requests
cannot be bounded" (paper, Section 3.2.2).

A CROWD-table scan is *bounded* when one of:

* a primary-key equality (or IN-list) predicate pins the scan to a finite
  set of keys — those keys become ``anti_probe_keys`` on the CrowdProbe,
  so missing tuples are sourced individually;
* stop-after push-down attached a ``limit_hint`` — at most that many new
  tuples may be sourced;
* the scan is the inner of a CrowdJoin — sourcing is driven (and bounded)
  by the outer tuples.

Unbounded plans compile with an :class:`UnboundedQueryWarning` (or raise
:class:`UnboundedQueryError` in strict mode) and execute closed-world: no
open-ended tuple sourcing is performed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import UnboundedQueryError, UnboundedQueryWarning
from repro.optimizer.rules import OptimizerContext, split_conjuncts
from repro.plan import logical
from repro.sql import ast


@dataclass(frozen=True)
class BoundednessEntry:
    """Verdict for one crowd-table occurrence in the plan."""

    table: str
    binding: str
    bounded: bool
    reason: str


@dataclass
class BoundednessReport:
    """Aggregated verdicts; attached to every compiled query."""

    entries: list[BoundednessEntry] = field(default_factory=list)

    @property
    def bounded(self) -> bool:
        return all(entry.bounded for entry in self.entries)

    def describe(self) -> str:
        if not self.entries:
            return "no crowd tables referenced"
        return "; ".join(
            f"{e.table} AS {e.binding}: "
            f"{'bounded' if e.bounded else 'UNBOUNDED'} ({e.reason})"
            for e in self.entries
        )


class BoundednessAnalysis:
    """Attaches anti-probe keys and produces the report."""

    name = "boundedness-analysis"

    def __init__(self) -> None:
        self.last_report: Optional[BoundednessReport] = None

    def apply(
        self, plan: logical.LogicalPlan, context: OptimizerContext
    ) -> logical.LogicalPlan:
        report = BoundednessReport()
        plan = self._rewrite(plan, report)
        self.last_report = report
        if not report.bounded:
            message = (
                "query may request an unbounded amount of data from the "
                f"crowd: {report.describe()}"
            )
            if context.strict_boundedness:
                raise UnboundedQueryError(message)
            warnings.warn(message, UnboundedQueryWarning, stacklevel=2)
        context.record(self.name)
        return plan

    # -- rewriting --------------------------------------------------------------

    def _rewrite(
        self,
        plan: logical.LogicalPlan,
        report: BoundednessReport,
    ) -> logical.LogicalPlan:
        # the builder puts a CrowdProbe over every CROWD-table scan and
        # CrowdJoin replaces its inner scan: those two account for every
        # open-world table
        if isinstance(plan, logical.CrowdProbe):
            plan = replace(plan, child=self._rewrite(plan.child, report))
            if plan.table.crowd:
                return self._analyze_crowd_probe(plan, report)
            return plan
        if isinstance(plan, logical.CrowdJoin):
            left = self._rewrite(plan.left, report)
            report.entries.append(
                BoundednessEntry(
                    table=plan.inner_table.name,
                    binding=plan.inner_binding,
                    bounded=True,
                    reason="inner of CrowdJoin, bounded by outer cardinality",
                )
            )
            return replace(plan, left=left)
        children = plan.children()
        if not children:
            return plan
        return plan.with_children(
            *(self._rewrite(child, report) for child in children)
        )

    def _analyze_crowd_probe(
        self, probe: logical.CrowdProbe, report: BoundednessReport
    ) -> logical.LogicalPlan:
        scan = _find_scan(probe.child, probe.binding)
        if scan is None:
            report.entries.append(
                BoundednessEntry(
                    table=probe.table.name,
                    binding=probe.binding,
                    bounded=True,
                    reason="no direct scan below probe",
                )
            )
            return probe
        keys = _pinned_primary_keys(probe.child, scan)
        if keys is not None:
            report.entries.append(
                BoundednessEntry(
                    table=probe.table.name,
                    binding=probe.binding,
                    bounded=True,
                    reason=f"primary key pinned to {len(keys)} value(s)",
                )
            )
            return replace(probe, anti_probe_keys=tuple(keys))
        if scan.limit_hint is not None:
            report.entries.append(
                BoundednessEntry(
                    table=probe.table.name,
                    binding=probe.binding,
                    bounded=True,
                    reason=f"stop-after bounds sourcing to {scan.limit_hint} tuple(s)",
                )
            )
            return probe
        report.entries.append(
            BoundednessEntry(
                table=probe.table.name,
                binding=probe.binding,
                bounded=False,
                reason="open-world scan with no key predicate or LIMIT",
            )
        )
        return probe


def _find_scan(
    plan: logical.LogicalPlan, binding: str
) -> Optional[logical.Scan]:
    for node in plan.scans:
        if node.binding.lower() == binding.lower():
            return node
    return None


def _pinned_primary_keys(
    plan: logical.LogicalPlan, scan: logical.Scan
) -> Optional[list[tuple]]:
    """Key tuples pinned by equality/IN predicates on the scan's primary key.

    Only single-column primary keys are analysed (matching the paper's
    examples); returns None when the key is not fully pinned.
    """
    pk = scan.table.primary_key
    if len(pk) != 1:
        return None
    pk_name = pk[0].lower()

    pinned: list[tuple] = []
    found = False
    for node in plan.walk():
        if not isinstance(node, logical.Filter):
            continue
        for conjunct in split_conjuncts(node.predicate):
            values = _equality_values(conjunct, pk_name, scan.binding)
            if values is not None:
                pinned.extend((v,) for v in values)
                found = True
    if not found:
        return None
    # de-duplicate, preserve order
    seen: set = set()
    unique: list[tuple] = []
    for key in pinned:
        if key not in seen:
            seen.add(key)
            unique.append(key)
    return unique


def _equality_values(
    conjunct: ast.Expression, column: str, binding: str
) -> Optional[list]:
    """Literal values pinned by ``col = literal`` or ``col IN (literals)``."""

    def is_target(ref: ast.Expression) -> bool:
        return (
            isinstance(ref, ast.ColumnRef)
            and ref.name.lower() == column
            and (ref.table is None or ref.table.lower() == binding.lower())
        )

    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        if is_target(conjunct.left) and isinstance(conjunct.right, ast.Literal):
            return [conjunct.right.value]
        if is_target(conjunct.right) and isinstance(conjunct.left, ast.Literal):
            return [conjunct.left.value]
    if (
        isinstance(conjunct, ast.InList)
        and not conjunct.negated
        and is_target(conjunct.operand)
        and all(isinstance(item, ast.Literal) for item in conjunct.items)
    ):
        return [item.value for item in conjunct.items]  # type: ignore[union-attr]
    return None
