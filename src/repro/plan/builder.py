"""Build logical plans from parsed SELECT statements.

The builder performs name resolution at the granularity needed for crowd
planning (which binding owns each referenced column), expands ``*``,
separates aggregates, and inserts :class:`~repro.plan.logical.CrowdProbe`
operators above scans of crowd-related tables — the paper's "plans with
these additional Crowd operators" (Section 3.2).
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.catalog import Catalog
from repro.catalog.table import TableSchema
from repro.errors import PlanError
from repro.plan import logical
from repro.sql import ast
from repro.sql.pretty import format_expression


class _FromScope:
    """Bindings visible in one query block."""

    def __init__(self) -> None:
        self.bindings: dict[str, TableSchema | tuple[str, ...]] = {}
        self.order: list[str] = []
        #: binding (lowercased) -> its column names, lowercased
        self.lowered: dict[str, frozenset[str]] = {}

    def add(self, binding: str, schema: TableSchema | tuple[str, ...]) -> None:
        key = binding.lower()
        if key in self.bindings:
            raise PlanError(f"duplicate table binding {binding!r}")
        self.bindings[key] = schema
        self.order.append(binding)
        self.lowered[key] = frozenset(c.lower() for c in self.columns_of(key))

    def columns_of(self, binding: str) -> tuple[str, ...]:
        entry = self.bindings[binding.lower()]
        if isinstance(entry, TableSchema):
            return entry.column_names
        return entry

    def schema_of(self, binding: str) -> Optional[TableSchema]:
        entry = self.bindings.get(binding.lower())
        return entry if isinstance(entry, TableSchema) else None

    def resolve_column(self, ref: ast.ColumnRef) -> Optional[str]:
        """The binding owning ``ref``, or None when unresolvable here."""
        name = ref.name.lower()
        if ref.table is not None:
            if name in self.lowered.get(ref.table.lower(), ()):
                return ref.table
            return None
        owners = [
            binding for binding in self.order if name in self.lowered[binding.lower()]
        ]
        if len(owners) == 1:
            return owners[0]
        if len(owners) > 1:
            raise PlanError(f"ambiguous column reference {ref.name!r}")
        return None


class PlanBuilder:
    """Translates SELECT ASTs into logical plans."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- entry points -----------------------------------------------------------

    def build_statement(self, stmt: ast.Statement) -> logical.LogicalPlan:
        """Build a SELECT or a compound (set-operation) statement."""
        if isinstance(stmt, ast.Select):
            return self.build_select(stmt)
        if isinstance(stmt, ast.SetOp):
            return self._build_setop(stmt)
        raise PlanError(f"cannot plan {type(stmt).__name__}")

    def _build_setop(self, stmt: ast.SetOp) -> logical.LogicalPlan:
        left = self.build_statement(stmt.left)
        right = self.build_select(stmt.right)
        left_names = output_names(left)
        right_names = output_names(right)
        if len(left_names) != len(right_names):
            raise PlanError(
                f"{stmt.op} branches have different arity "
                f"({len(left_names)} vs {len(right_names)})"
            )
        plan: logical.LogicalPlan = logical.SetOperation(left, right, stmt.op)

        if stmt.order_by:
            keys = []
            for item in stmt.order_by:
                expr = item.expression
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    ordinal = expr.value
                    if not 1 <= ordinal <= len(left_names):
                        raise PlanError(
                            f"ORDER BY position {ordinal} is out of range"
                        )
                    expr = ast.ColumnRef(left_names[ordinal - 1])
                elif isinstance(expr, ast.ColumnRef):
                    if expr.name.lower() not in {
                        n.lower() for n in left_names
                    }:
                        raise PlanError(
                            f"ORDER BY over a compound query must reference "
                            f"an output column, not {expr.name!r}"
                        )
                else:
                    raise PlanError(
                        "ORDER BY over a compound query must use output "
                        "column names or ordinals"
                    )
                keys.append((expr, item.ascending))
            plan = logical.Sort(plan, tuple(keys))

        limit_value = self._const_int(stmt.limit, "LIMIT")
        offset_value = self._const_int(stmt.offset, "OFFSET") or 0
        if limit_value is not None or offset_value:
            plan = logical.Limit(plan, limit_value, offset_value)
        return plan

    def build_select(self, stmt: ast.Select) -> logical.LogicalPlan:
        scope = _FromScope()
        if stmt.from_clause is None:
            plan: logical.LogicalPlan = logical.SingleRow()
        else:
            plan = self._build_from(stmt.from_clause, scope)

        plan = self._insert_crowd_probes(plan, stmt, scope)

        if stmt.where is not None:
            self._reject_crowdorder(stmt.where, "WHERE")
            plan = logical.Filter(plan, stmt.where)

        select_items = self._expand_items(stmt.items, scope)

        aggregates = self._collect_aggregates(stmt, select_items)
        if aggregates or stmt.group_by:
            plan = logical.Aggregate(plan, stmt.group_by, tuple(aggregates))
            if stmt.having is not None:
                plan = logical.Filter(plan, stmt.having)
        elif stmt.having is not None:
            raise PlanError("HAVING requires GROUP BY or aggregates")

        alias_map = {
            name.lower(): expr for expr, name in select_items
        }

        order_keys = self._rewrite_order_keys(stmt.order_by, select_items, alias_map)

        limit_value = self._const_int(stmt.limit, "LIMIT")
        offset_value = self._const_int(stmt.offset, "OFFSET") or 0

        if stmt.distinct:
            plan = logical.Project(plan, tuple(select_items))
            plan = logical.Distinct(plan)
            if order_keys:
                # above the projection, a key that is a select item reads
                # its output column (``t.s`` is no longer in scope there)
                outputs = {expr: name for expr, name in select_items}
                plan = logical.Sort(plan, tuple(
                    (ast.ColumnRef(outputs[expr]) if expr in outputs
                     else expr, ascending)
                    for expr, ascending in order_keys
                ))
            if limit_value is not None or offset_value:
                plan = logical.Limit(plan, limit_value, offset_value)
        else:
            if order_keys:
                plan = logical.Sort(plan, tuple(order_keys))
            if limit_value is not None or offset_value:
                plan = logical.Limit(plan, limit_value, offset_value)
            plan = logical.Project(plan, tuple(select_items))
        return plan

    # -- FROM ------------------------------------------------------------------

    def _build_from(self, ref: ast.TableRef, scope: _FromScope) -> logical.LogicalPlan:
        if isinstance(ref, ast.NamedTable):
            schema = self.catalog.table(ref.name)
            scope.add(ref.binding, schema)
            return logical.Scan(schema, ref.binding)
        if isinstance(ref, ast.Join):
            left = self._build_from(ref.left, scope)
            right = self._build_from(ref.right, scope)
            if ref.condition is not None:
                self._reject_crowdorder(ref.condition, "JOIN ... ON")
            return logical.Join(left, right, ref.join_type, ref.condition)
        if isinstance(ref, ast.SubqueryTable):
            inner = self.build_statement(ref.query)
            names = output_names(inner)
            scope.add(ref.alias, names)
            return logical.SubqueryAlias(inner, ref.alias)
        raise PlanError(f"unsupported FROM element {type(ref).__name__}")

    # -- select list ---------------------------------------------------------------

    def _expand_items(
        self, items: tuple[ast.SelectItem, ...], scope: _FromScope
    ) -> list[tuple[ast.Expression, str]]:
        expanded: list[tuple[ast.Expression, str]] = []
        used_names: set[str] = set()
        for item in items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                bindings = (
                    [expr.table] if expr.table is not None else scope.order
                )
                if expr.table is not None and expr.table.lower() not in scope.bindings:
                    raise PlanError(f"unknown table {expr.table!r} in {expr.table}.*")
                for binding in bindings:
                    for column in scope.columns_of(binding):
                        expanded.append(
                            (ast.ColumnRef(column, table=binding), column)
                        )
                continue
            self._reject_crowdorder(expr, "the select list")
            if item.alias:
                name = item.alias
            elif isinstance(expr, ast.ColumnRef):
                name = expr.name
            else:
                name = format_expression(expr)
            expanded.append((expr, name))
        for _expr, name in expanded:
            key = name.lower()
            if key in used_names:
                # duplicate output names are legal in SQL; keep them
                continue
            used_names.add(key)
        if not expanded:
            raise PlanError("empty select list")
        return expanded

    # -- aggregates -------------------------------------------------------------------

    def _collect_aggregates(
        self,
        stmt: ast.Select,
        select_items: list[tuple[ast.Expression, str]],
    ) -> list[ast.FunctionCall]:
        aggregates: dict[str, ast.FunctionCall] = {}

        def collect(expr: ast.Expression) -> None:
            for node in ast.walk_expression(expr):
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    aggregates.setdefault(format_expression(node), node)

        for expr, _name in select_items:
            collect(expr)
        if stmt.having is not None:
            collect(stmt.having)
        for item in stmt.order_by:
            if not isinstance(item.expression, ast.CrowdOrder):
                collect(item.expression)
        return list(aggregates.values())

    # -- ORDER BY -----------------------------------------------------------------------

    def _rewrite_order_keys(
        self,
        order_by: tuple[ast.OrderItem, ...],
        select_items: list[tuple[ast.Expression, str]],
        alias_map: dict[str, ast.Expression],
    ) -> list[tuple[ast.Expression, bool]]:
        keys: list[tuple[ast.Expression, bool]] = []
        for item in order_by:
            expr = item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value
                if not 1 <= ordinal <= len(select_items):
                    raise PlanError(
                        f"ORDER BY position {ordinal} is out of range"
                    )
                expr = select_items[ordinal - 1][0]
            elif (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name.lower() in alias_map
            ):
                expr = alias_map[expr.name.lower()]
            keys.append((expr, item.ascending))
        return keys

    # -- crowd probes -----------------------------------------------------------------------

    def _insert_crowd_probes(
        self,
        plan: logical.LogicalPlan,
        stmt: ast.Select,
        scope: _FromScope,
    ) -> logical.LogicalPlan:
        """Wrap crowd-related scans in CrowdProbe operators.

        A scan gets a probe when the statement touches crowd columns of
        its table, and *always* when the table itself is a CROWD table —
        even with no crowd column referenced, an open-world table may need
        new tuples sourced (anti-probes attach to the probe later).
        """
        needed = self._needed_crowd_columns(stmt, scope)
        return self._wrap_scans(plan, needed)

    def _wrap_scans(
        self,
        plan: logical.LogicalPlan,
        needed: dict[str, set[str]],
    ) -> logical.LogicalPlan:
        if isinstance(plan, logical.Scan):
            columns = needed.get(plan.binding.lower())
            if columns or plan.table.crowd:
                ordered = tuple(
                    column.name
                    for column in plan.table.columns
                    if column.name.lower() in (columns or set())
                )
                return logical.CrowdProbe(
                    plan, plan.table, plan.binding, ordered
                )
            return plan
        children = plan.children()
        if not children:
            return plan
        return plan.with_children(
            *(self._wrap_scans(child, needed) for child in children)
        )

    def _needed_crowd_columns(
        self, stmt: ast.Select, scope: _FromScope
    ) -> dict[str, set[str]]:
        """Map binding (lowercased) -> crowd columns the query needs."""
        refs: list[ast.ColumnRef] = []

        def collect(expr: ast.Expression) -> None:
            refs.extend(ast.expression_columns(expr))

        for item in stmt.items:
            if isinstance(item.expression, ast.Star):
                bindings = (
                    [item.expression.table]
                    if item.expression.table is not None
                    else scope.order
                )
                for binding in bindings:
                    if binding is None or binding.lower() not in scope.bindings:
                        continue
                    for column in scope.columns_of(binding):
                        refs.append(ast.ColumnRef(column, table=binding))
            else:
                collect(item.expression)
        for expr in (stmt.where, stmt.having):
            if expr is not None:
                collect(expr)
        for group in stmt.group_by:
            collect(group)
        for item in stmt.order_by:
            collect(item.expression)
        if stmt.from_clause is not None:
            for condition in _join_conditions(stmt.from_clause):
                collect(condition)

        needed: dict[str, set[str]] = {}
        for ref in refs:
            binding = scope.resolve_column(ref)
            if binding is None:
                continue
            schema = scope.schema_of(binding)
            if schema is None:
                continue
            crowd_names = {c.name.lower() for c in schema.crowd_columns}
            if ref.name.lower() in crowd_names:
                needed.setdefault(binding.lower(), set()).add(ref.name.lower())
        return needed

    # -- misc -----------------------------------------------------------------------

    @staticmethod
    def _reject_crowdorder(expr: ast.Expression, where: str) -> None:
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.CrowdOrder):
                raise PlanError(f"CROWDORDER is not allowed in {where}")

    @staticmethod
    def _const_int(expr: Optional[ast.Expression], what: str) -> Optional[int]:
        if expr is None:
            return None
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if expr.value < 0:
                raise PlanError(f"{what} must be non-negative")
            return expr.value
        raise PlanError(f"{what} must be an integer literal")


def _join_conditions(ref: ast.TableRef):
    if isinstance(ref, ast.Join):
        if ref.condition is not None:
            yield ref.condition
        yield from _join_conditions(ref.left)
        yield from _join_conditions(ref.right)


def output_names(plan: logical.LogicalPlan) -> tuple[str, ...]:
    """Column names a query's plan produces (used for derived tables):
    its top is what :meth:`PlanBuilder.build_statement` builds, a
    Project under any Sort, Limit, Distinct or SetOperation."""
    if isinstance(plan, logical.Project):
        return tuple(name for _expr, name in plan.items)
    if isinstance(plan, (logical.Limit, logical.Sort, logical.Distinct,
                         logical.Filter)):
        return output_names(plan.children()[0])
    if isinstance(plan, logical.SetOperation):
        return output_names(plan.left)
    raise PlanError(
        f"cannot determine output columns of {type(plan).__name__}"
    )
