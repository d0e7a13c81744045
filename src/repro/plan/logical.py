"""Logical plan nodes.

The logical plan is a tree of relational operators plus the crowd
operators of the paper (Section 3.2.1): CrowdProbe, CrowdJoin, and the
crowd-backed sort/predicate forms that use CrowdCompare.  Expressions
inside nodes are AST expressions; name resolution happens at physical
planning time via :class:`~repro.storage.row.Scope`.

What a subplan provides to the expressions above it -- its bindings,
column names and scans -- is computed once per node from its children's
and kept: nodes are immutable, and a rewrite builds new nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Optional

from repro.catalog.table import TableSchema
from repro.sql import ast


@dataclass(frozen=True)
class LogicalPlan:
    """Base class; subclasses define ``children`` via their fields."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def with_children(self, *children: "LogicalPlan") -> "LogicalPlan":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["LogicalPlan"]:
        yield self
        for child in self.children():
            yield from child.walk()

    @cached_property
    def provided_bindings(self) -> frozenset[str]:
        """Scan, alias and CrowdJoin-inner bindings anywhere in this
        subplan (lowercased)."""
        return frozenset().union(*(c.provided_bindings for c in self.children()))

    @cached_property
    def provided_columns(self) -> frozenset[str]:
        """Column names this subplan makes visible (lowercased)."""
        return frozenset().union(*(c.provided_columns for c in self.children()))

    @cached_property
    def scans(self) -> tuple["Scan", ...]:
        """The Scan nodes of this subplan, in walk order."""
        return sum((c.scans for c in self.children()), ())

    def label(self) -> str:
        return type(self).__name__.removeprefix("Logical")

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.label()


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Full scan of a stored table, bound under ``binding``.

    ``limit_hint`` is attached by stop-after push-down: for CROWD tables it
    bounds how many new tuples open-world sourcing may request.
    """

    table: TableSchema
    binding: str
    limit_hint: Optional[int] = None

    @cached_property
    def provided_bindings(self) -> frozenset[str]:
        return frozenset((self.binding.lower(),))

    @cached_property
    def provided_columns(self) -> frozenset[str]:
        return frozenset(c.lower() for c in self.table.column_names)

    @property
    def scans(self) -> tuple["Scan", ...]:
        return (self,)  # not cached: a node holding itself is a cycle

    def describe(self) -> str:
        kind = "CrowdTableScan" if self.table.crowd else "Scan"
        hint = f", stopafter={self.limit_hint}" if self.limit_hint is not None else ""
        return f"{kind}({self.table.name} AS {self.binding}{hint})"


@dataclass(frozen=True)
class Filter(LogicalPlan):
    child: LogicalPlan
    predicate: ast.Expression

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "Filter":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        from repro.sql.pretty import format_expression

        return f"Filter({format_expression(self.predicate)})"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Projection; ``items`` are (expression, output name) pairs."""

    child: LogicalPlan
    items: tuple[tuple[ast.Expression, str], ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "Project":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        names = ", ".join(name for _expr, name in self.items)
        return f"Project({names})"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Inner/left/cross join with optional condition."""

    left: LogicalPlan
    right: LogicalPlan
    join_type: str = "INNER"
    condition: Optional[ast.Expression] = None

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, *children: LogicalPlan) -> "Join":
        left, right = children
        return replace(self, left=left, right=right)

    def describe(self) -> str:
        from repro.sql.pretty import format_expression

        condition = (
            f" ON {format_expression(self.condition)}" if self.condition else ""
        )
        return f"{self.join_type.title()}Join{condition}"


@dataclass(frozen=True)
class Aggregate(LogicalPlan):
    """GROUP BY + aggregate evaluation.

    ``aggregates`` are the distinct aggregate calls appearing anywhere in
    the SELECT/HAVING/ORDER BY; their output columns are named by their
    rendered SQL (``COUNT(*)``), which upper expressions resolve.
    """

    child: LogicalPlan
    group_by: tuple[ast.Expression, ...]
    aggregates: tuple[ast.FunctionCall, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "Aggregate":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        from repro.sql.pretty import format_expression

        keys = ", ".join(format_expression(e) for e in self.group_by)
        aggs = ", ".join(format_expression(e) for e in self.aggregates)
        return f"Aggregate(keys=[{keys}], aggs=[{aggs}])"


@dataclass(frozen=True)
class Sort(LogicalPlan):
    """ORDER BY; any CrowdOrder keys make this a crowd-backed sort."""

    child: LogicalPlan
    keys: tuple[tuple[ast.Expression, bool], ...]
    top_k: Optional[int] = None

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "Sort":
        (child,) = children
        return replace(self, child=child)

    @property
    def is_crowd_sort(self) -> bool:
        return any(isinstance(expr, ast.CrowdOrder) for expr, _asc in self.keys)

    def describe(self) -> str:
        from repro.sql.pretty import format_expression

        keys = ", ".join(
            format_expression(expr) + ("" if asc else " DESC")
            for expr, asc in self.keys
        )
        prefix = "CrowdSort" if self.is_crowd_sort else "Sort"
        top = f", top-k={self.top_k}" if self.top_k is not None else ""
        return f"{prefix}({keys}{top})"


@dataclass(frozen=True)
class Limit(LogicalPlan):
    """LIMIT/OFFSET — the paper's "stop-after" operator."""

    child: LogicalPlan
    limit: Optional[int]
    offset: int = 0

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "Limit":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.offset:
            parts.append(f"offset={self.offset}")
        return f"StopAfter({', '.join(parts)})"


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    child: LogicalPlan

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "Distinct":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class SubqueryAlias(LogicalPlan):
    """Re-binds a derived table's output columns under a new alias."""

    child: LogicalPlan
    alias: str

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "SubqueryAlias":
        (child,) = children
        return replace(self, child=child)

    @cached_property
    def provided_bindings(self) -> frozenset[str]:
        return self.child.provided_bindings | {self.alias.lower()}

    @cached_property
    def provided_columns(self) -> frozenset[str]:
        from repro.plan.builder import output_names

        return self.child.provided_columns | {
            n.lower() for n in output_names(self.child)
        }

    def describe(self) -> str:
        return f"SubqueryAlias({self.alias})"


@dataclass(frozen=True)
class SingleRow(LogicalPlan):
    """Source of exactly one empty row (SELECT without FROM)."""


@dataclass(frozen=True)
class SetOperation(LogicalPlan):
    """UNION [ALL] / EXCEPT / INTERSECT over two inputs of equal arity."""

    left: LogicalPlan
    right: LogicalPlan
    op: str  # UNION | UNION ALL | EXCEPT | INTERSECT

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, *children: LogicalPlan) -> "SetOperation":
        left, right = children
        return replace(self, left=left, right=right)

    def describe(self) -> str:
        return f"SetOp({self.op})"


# -- crowd operators -----------------------------------------------------------


@dataclass(frozen=True)
class CrowdProbe(LogicalPlan):
    """Source missing CROWD column values — and, for CROWD tables, new
    tuples — from the crowd (paper §3.2.1).

    ``columns`` are the crowd columns the query actually needs (used in
    predicates or in the result), so only those are sourced.
    ``anti_probe_keys`` carries the primary-key constants a selective
    predicate pins down; when a CROWD table has no stored tuple for one of
    them, CrowdProbe asks the crowd for the whole tuple.
    """

    child: LogicalPlan
    table: TableSchema
    binding: str
    columns: tuple[str, ...]
    anti_probe_keys: tuple[tuple, ...] = ()

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, *children: LogicalPlan) -> "CrowdProbe":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        cols = ", ".join(self.columns)
        extra = (
            f", new-tuples={len(self.anti_probe_keys)}"
            if self.anti_probe_keys
            else ""
        )
        return f"CrowdProbe({self.table.name}[{cols}]{extra})"


@dataclass(frozen=True)
class CrowdJoin(LogicalPlan):
    """Index nested-loop join whose inner side is a CROWD table
    (paper §3.2.1): per outer tuple, probe the inner table and ask the
    crowd for matching tuples that are not yet stored."""

    left: LogicalPlan
    inner_table: TableSchema
    inner_binding: str
    condition: ast.Expression
    inner_key_columns: tuple[str, ...]
    outer_key_exprs: tuple[ast.Expression, ...]
    needed_columns: tuple[str, ...] = ()

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left,)

    def with_children(self, *children: LogicalPlan) -> "CrowdJoin":
        (left,) = children
        return replace(self, left=left)

    @cached_property
    def provided_bindings(self) -> frozenset[str]:
        return self.left.provided_bindings | {self.inner_binding.lower()}

    @cached_property
    def provided_columns(self) -> frozenset[str]:
        return self.left.provided_columns | {
            c.lower() for c in self.inner_table.column_names
        }

    def describe(self) -> str:
        keys = ", ".join(self.inner_key_columns)
        return f"CrowdJoin({self.inner_table.name} AS {self.inner_binding} BY [{keys}])"
