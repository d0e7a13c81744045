"""Abstract syntax tree for CrowdSQL statements and expressions.

Plain frozen dataclasses; nothing here knows about catalogs or execution.
The crowd extensions surface as:

* ``ColumnDef.crowd`` — a column declared ``CROWD <type>`` (Example 1);
* ``CreateTable.crowd`` — ``CREATE CROWD TABLE`` (Example 2);
* ``CNullLiteral`` — the CNULL value in DML;
* ``CrowdEqual`` / ``CrowdOrder`` — the two builtin functions of §2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple, Optional, Union


class Node:
    """Marker base class for all AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


_NO_NAMES: frozenset = frozenset()  # shared: most expressions lack one kind


class ExpressionFacts(NamedTuple):
    """What one walk of an expression learns; names are lowercased."""

    #: tables qualifying a column reference (``t`` of ``t.x``)
    bindings: frozenset
    #: names of unqualified column references
    names: frozenset
    #: contains CROWDEQUAL or CROWDORDER
    crowd: bool
    #: number of CROWDEQUAL nodes
    crowd_equals: int
    #: contains EXISTS, ``IN (SELECT ...)`` or a scalar subquery
    subquery: bool
    #: one more than the highest ``?`` index outside any subquery (0:
    #: none), the number of parameters evaluating it needs
    parameters: int
    #: number of expression nodes
    size: int

    @property
    def electronic(self) -> bool:
        """Can never reach the crowd or run a subquery."""
        return not (self.crowd or self.subquery)

    @property
    def static(self) -> bool:
        """Reads neither a ``?`` nor the execution context (no crowd, no
        subquery): compiled, it is the same closure in every execution."""
        return not (self.crowd or self.subquery or self.parameters)


class Expression(Node):
    __slots__ = ()

    def operands(self) -> tuple["Expression", ...]:
        """The sub-expressions a walk descends into (never a subquery's
        SELECT)."""
        return ()

    @cached_property
    def facts(self) -> ExpressionFacts:
        """Computed on first use and kept: expressions are immutable."""
        bindings: set[str] = set()
        names: set[str] = set()
        crowd = subquery = False
        crowd_equals = size = parameters = 0
        for node in walk_expression(self):
            size += 1
            if isinstance(node, ColumnRef):
                if node.table is None:
                    names.add(node.name.lower())
                else:
                    bindings.add(node.table.lower())
            elif isinstance(node, CrowdEqual):
                crowd = True
                crowd_equals += 1
            elif isinstance(node, CrowdOrder):
                crowd = True
            elif isinstance(node, (ExistsExpr, ScalarSubquery, InSubquery)):
                subquery = True
            elif isinstance(node, Parameter):
                parameters = max(parameters, node.index + 1)
        return ExpressionFacts(
            bindings=frozenset(bindings) if bindings else _NO_NAMES,
            names=frozenset(names) if names else _NO_NAMES,
            crowd=crowd,
            crowd_equals=crowd_equals,
            subquery=subquery,
            parameters=parameters,
            size=size,
        )


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: string, number, boolean, or NULL (value=None)."""

    value: Any


@dataclass(frozen=True)
class CNullLiteral(Expression):
    """The CNULL literal — crowd-sourceable unknown (paper §2.1)."""


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` parameter; ``index`` is 0-based."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT x, -x, +x."""

    op: str
    operand: Expression

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator: comparisons, arithmetic, AND/OR, LIKE, ``||``."""

    op: str
    left: Expression
    right: Expression

    def operands(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class IsNull(Expression):
    """``x IS [NOT] NULL`` and the crowd variant ``x IS [NOT] CNULL``."""

    operand: Expression
    negated: bool = False
    cnull: bool = False

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class InList(Expression):
    """``x [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class Between(Expression):
    """``x [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar or aggregate function call."""

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in {"COUNT", "SUM", "AVG", "MIN", "MAX"}

    def operands(self) -> tuple[Expression, ...]:
        return self.args


@dataclass(frozen=True)
class CaseExpr(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Optional[Expression]
    whens: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression] = None

    def operands(self) -> tuple[Expression, ...]:
        parts = [] if self.operand is None else [self.operand]
        for when, then in self.whens:
            parts += (when, then)
        if self.default is not None:
            parts.append(self.default)
        return tuple(parts)


@dataclass(frozen=True)
class CrowdEqual(Expression):
    """``CROWDEQUAL(lvalue, rvalue [, question])`` — ask the crowd whether
    two values denote the same real-world entity (paper §2.2)."""

    left: Expression
    right: Expression
    question: Optional[str] = None

    def operands(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class CrowdOrder(Expression):
    """``CROWDORDER(expr, question)`` — crowd-supplied ordering key, legal
    only inside ORDER BY (paper Example 3)."""

    operand: Expression
    question: str

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class ExistsExpr(Expression):
    """``[NOT] EXISTS (subquery)``."""

    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesised SELECT used as a scalar value."""

    query: "Select"


@dataclass(frozen=True)
class InSubquery(Expression):
    """``x [NOT] IN (subquery)``."""

    operand: Expression
    query: "Select"
    negated: bool = False

    def operands(self) -> tuple[Expression, ...]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------


class TableRef(Node):
    __slots__ = ()


@dataclass(frozen=True)
class NamedTable(TableRef):
    """``FROM name [AS alias]``."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is visible as in the query scope."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join(TableRef):
    """Explicit join: ``left [join_type] JOIN right [ON condition]``."""

    left: TableRef
    right: TableRef
    join_type: str = "INNER"  # INNER | LEFT | CROSS
    condition: Optional[Expression] = None


@dataclass(frozen=True)
class SubqueryTable(TableRef):
    """``FROM (SELECT ...) AS alias``: a SELECT or a set operation."""

    query: "Statement"
    alias: str


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    __slots__ = ()

    @cached_property
    def cache_hash(self) -> int:
        """``hash(self)``, computed on first use and kept: statements are
        immutable, and the plan cache looks one up per execution."""
        return hash(self)


@dataclass(frozen=True)
class SelectItem(Node):
    """One entry of the select list."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One entry of ORDER BY; ``expression`` may be a CrowdOrder."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT query block."""

    items: tuple[SelectItem, ...]
    from_clause: Optional[TableRef] = None
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


@dataclass(frozen=True)
class SetOp(Statement):
    """Compound query: UNION [ALL] / EXCEPT / INTERSECT.

    ORDER BY/LIMIT written after the compound apply to the whole result;
    their keys reference output column names or ordinals.
    """

    op: str  # UNION | UNION ALL | EXCEPT | INTERSECT
    left: Statement  # Select or SetOp
    right: Select
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None


@dataclass(frozen=True)
class ColumnDef(Node):
    """One column of CREATE TABLE.

    ``crowd`` marks a crowdsourced column (``abstract CROWD STRING``):
    its value defaults to CNULL and is sourced on first use.
    """

    name: str
    type_name: str
    crowd: bool = False
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    default: Optional[Expression] = None
    comment: Optional[str] = None


@dataclass(frozen=True)
class ForeignKeyDef(Node):
    """Table-level FOREIGN KEY constraint.

    The paper's Example 2 spells the referenced table clause ``REF``;
    standard SQL says ``REFERENCES``.  Both are accepted.
    """

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass(frozen=True)
class CreateTable(Statement):
    """CREATE [CROWD] TABLE."""

    name: str
    columns: tuple[ColumnDef, ...]
    crowd: bool = False
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKeyDef, ...] = ()
    if_not_exists: bool = False
    comment: Optional[str] = None


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """INSERT INTO t [(cols)] VALUES (...), (...) | SELECT ..."""

    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expression, ...], ...] = ()
    query: Optional[Select] = None


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expression], ...] = ()
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Explain(Statement):
    """EXPLAIN <select> — show the optimized plan without executing.

    ``EXPLAIN ANALYZE <select>`` additionally *runs* the query and
    reports estimated vs actual rows/cents/rounds per plan node."""

    statement: Statement
    analyze: bool = False


@dataclass(frozen=True)
class ShowTables(Statement):
    """SHOW TABLES."""


@dataclass(frozen=True)
class Analyze(Statement):
    """``ANALYZE [table]`` — rebuild histogram/MCV statistics (all tables
    when no name is given) and bump the statistics epoch the plan cache
    keys on."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Guarded(Statement):
    """``<query> WITH DEADLINE <ms> [BUDGET <cents>]`` — per-statement
    caps.  The deadline is simulated marketplace milliseconds, the budget
    crowd cents; when either trips, the statement returns the rows settled
    so far tagged ``status="partial"`` instead of raising.  The wrapper is
    transparent to planning: the plan cache keys on the inner statement."""

    statement: Statement
    deadline_ms: Optional[int] = None
    budget_cents: Optional[int] = None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expression(expr: Expression):
    """Yield ``expr`` and all of its sub-expressions, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.operands()))


def expression_columns(expr: Expression) -> set[ColumnRef]:
    """All column references appearing anywhere in ``expr``."""
    return {e for e in walk_expression(expr) if isinstance(e, ColumnRef)}
