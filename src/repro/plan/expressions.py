"""Expression evaluation over executor rows.

The executor interprets AST expressions directly (no separate IR): an
expression is evaluated against a flat value tuple plus its
:class:`~repro.storage.row.Scope`.  Crowd builtins (CROWDEQUAL) delegate to
the :class:`EvalContext`, which the physical CrowdCompare machinery
provides; evaluating a CROWDORDER outside ORDER BY is a planning bug and
raises.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional, Protocol

from repro.errors import ExecutionError, PlanError
from repro.sql import ast
from repro.sqltypes import (
    NULL,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    TriBool,
    compare_values,
    is_missing,
    tri_from,
)
from repro.storage.row import Scope


class EvalContext(Protocol):
    """Runtime services expressions may need."""

    def crowd_equal(self, left: Any, right: Any, question: Optional[str]) -> bool:
        """Ask the crowd whether two values denote the same entity."""
        ...

    def scalar_subquery(self, query: ast.Select, values: tuple, scope: Scope) -> Any:
        """Evaluate a scalar subquery (correlated references resolved
        against the outer row)."""
        ...

    def subquery_values(self, query: ast.Select, values: tuple, scope: Scope) -> list:
        """Evaluate a subquery to a list of single-column values."""
        ...


class NullEvalContext:
    """Context for plans that must not need crowd or subquery services."""

    def crowd_equal(self, left: Any, right: Any, question: Optional[str]) -> bool:
        raise ExecutionError(
            "CROWDEQUAL reached evaluation without a crowd runtime"
        )

    def scalar_subquery(self, query: ast.Select, values: tuple, scope: Scope) -> Any:
        raise ExecutionError("subquery reached evaluation without an executor")

    def subquery_values(self, query: ast.Select, values: tuple, scope: Scope) -> list:
        raise ExecutionError("subquery reached evaluation without an executor")


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex.

    Anchored with ``\\Z``, not ``$``: ``$`` also matches just before a
    final newline, which would make ``'abc\\n' LIKE 'abc'`` true."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + r"\Z", re.DOTALL)


#: Process-wide LIKE pattern cache: patterns compile once per process, not
#: once per Evaluator instance (each statement used to rebuild its own
#: cache).  Bounded so a pathological stream of distinct dynamic patterns
#: cannot grow without limit.
_LIKE_CACHE: dict[str, "re.Pattern[str]"] = {}
_LIKE_CACHE_LIMIT = 4096


def cached_like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex for a LIKE pattern, from the module-level cache."""
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        if len(_LIKE_CACHE) >= _LIKE_CACHE_LIMIT:
            _LIKE_CACHE.clear()
        regex = like_to_regex(pattern)
        _LIKE_CACHE[pattern] = regex
    return regex


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": lambda a, b: a % b,
}


class Evaluator:
    """Evaluates AST expressions against rows."""

    def __init__(self, context: Optional[EvalContext] = None, parameters: tuple = ()) -> None:
        self.context: EvalContext = context if context is not None else NullEvalContext()
        self.parameters = parameters

    # -- public API -------------------------------------------------------------

    def value(self, expr: ast.Expression, values: tuple, scope: Scope) -> Any:
        """Evaluate ``expr`` to a SQL value (NULL/CNULL pass through)."""
        return self._eval(expr, values, scope)

    def predicate(self, expr: ast.Expression, values: tuple, scope: Scope) -> TriBool:
        """Evaluate ``expr`` as a predicate under three-valued logic."""
        return self._tri(expr, values, scope)

    # -- scalar evaluation ---------------------------------------------------------

    def _eval(self, expr: ast.Expression, values: tuple, scope: Scope) -> Any:
        if isinstance(expr, ast.Literal):
            return NULL if expr.value is None else expr.value
        if isinstance(expr, ast.CNullLiteral):
            from repro.sqltypes import CNULL

            return CNULL
        if isinstance(expr, ast.Parameter):
            if expr.index >= len(self.parameters):
                raise ExecutionError(
                    f"query expects parameter #{expr.index + 1} but only "
                    f"{len(self.parameters)} were supplied"
                )
            value = self.parameters[expr.index]
            return NULL if value is None else value
        if isinstance(expr, ast.ColumnRef):
            return values[scope.resolve(expr.name, expr.table)]
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, values, scope)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, values, scope)
        if isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.ExistsExpr,
                             ast.InSubquery, ast.CrowdEqual)):
            tri = self._tri(expr, values, scope)
            return NULL if tri.value is None else tri.value
        if isinstance(expr, ast.FunctionCall):
            return self._eval_function(expr, values, scope)
        if isinstance(expr, ast.CaseExpr):
            return self._eval_case(expr, values, scope)
        if isinstance(expr, ast.ScalarSubquery):
            return self.context.scalar_subquery(expr.query, values, scope)
        if isinstance(expr, ast.CrowdOrder):
            raise PlanError(
                "CROWDORDER is only legal inside ORDER BY; the planner must "
                "compile it into a crowd-backed sort"
            )
        if isinstance(expr, ast.Star):
            raise PlanError("'*' cannot be evaluated as a scalar expression")
        raise PlanError(f"cannot evaluate expression node {type(expr).__name__}")

    def _eval_unary(self, expr: ast.UnaryOp, values: tuple, scope: Scope) -> Any:
        if expr.op == "NOT":
            tri = ~self._tri(expr.operand, values, scope)
            return NULL if tri.value is None else tri.value
        operand = self._eval(expr.operand, values, scope)
        if is_missing(operand):
            return NULL
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise ExecutionError(f"unary {expr.op} needs a numeric operand")
        return -operand if expr.op == "-" else +operand

    def _eval_binary(self, expr: ast.BinaryOp, values: tuple, scope: Scope) -> Any:
        op = expr.op
        if op in ("AND", "OR"):
            tri = self._tri(expr, values, scope)
            return NULL if tri.value is None else tri.value
        if op in ("=", "<>", "<", "<=", ">", ">=", "LIKE"):
            tri = self._tri(expr, values, scope)
            return NULL if tri.value is None else tri.value
        left = self._eval(expr.left, values, scope)
        right = self._eval(expr.right, values, scope)
        if is_missing(left) or is_missing(right):
            return NULL
        if op == "||":
            return _as_string(left) + _as_string(right)
        if op == "/":
            _require_numbers(op, left, right)
            if right == 0:
                return NULL  # SQL engines vary; we pick NULL over raising
            result = left / right
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return result
        if op in _ARITHMETIC:
            _require_numbers(op, left, right)
            return _ARITHMETIC[op](left, right)
        raise PlanError(f"unknown binary operator {op!r}")

    def _eval_function(self, expr: ast.FunctionCall, values: tuple, scope: Scope) -> Any:
        if expr.is_aggregate:
            # Aggregates are computed by the Aggregate operator; when one
            # reaches scalar evaluation the scope contains the aggregate's
            # output column, registered under the function's rendered name.
            from repro.sql.pretty import format_expression

            rendered = format_expression(expr)
            if scope.has(rendered):
                return values[scope.resolve(rendered)]
            raise PlanError(
                f"aggregate {rendered} used outside GROUP BY context"
            )
        name = expr.name.upper()
        args = [self._eval(arg, values, scope) for arg in expr.args]
        return _call_scalar_function(name, args)

    def _eval_case(self, expr: ast.CaseExpr, values: tuple, scope: Scope) -> Any:
        if expr.operand is not None:
            operand = self._eval(expr.operand, values, scope)
            for when, then in expr.whens:
                comparand = self._eval(when, values, scope)
                if compare_values(operand, comparand) == 0:
                    return self._eval(then, values, scope)
        else:
            for when, then in expr.whens:
                if self._tri(when, values, scope).value is True:
                    return self._eval(then, values, scope)
        if expr.default is not None:
            return self._eval(expr.default, values, scope)
        return NULL

    # -- predicate evaluation ---------------------------------------------------------

    def _tri(self, expr: ast.Expression, values: tuple, scope: Scope) -> TriBool:
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op == "AND":
                return self._tri(expr.left, values, scope) & self._tri(
                    expr.right, values, scope
                )
            if op == "OR":
                return self._tri(expr.left, values, scope) | self._tri(
                    expr.right, values, scope
                )
            if op in ("=", "<>", "<", "<=", ">", ">="):
                left = self._eval(expr.left, values, scope)
                right = self._eval(expr.right, values, scope)
                ordering = compare_values(left, right)
                if ordering is None:
                    return TRI_UNKNOWN
                return _tri_for_comparison(op, ordering)
            if op == "LIKE":
                left = self._eval(expr.left, values, scope)
                pattern = self._eval(expr.right, values, scope)
                if is_missing(left) or is_missing(pattern):
                    return TRI_UNKNOWN
                regex = cached_like_regex(str(pattern))
                return TRI_TRUE if regex.match(str(left)) else TRI_FALSE
            return tri_from(self._eval(expr, values, scope))
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return ~self._tri(expr.operand, values, scope)
        if isinstance(expr, ast.IsNull):
            operand = self._eval(expr.operand, values, scope)
            from repro.sqltypes import is_cnull, is_null

            if expr.cnull:
                matched = is_cnull(operand)
            else:
                matched = is_null(operand) or is_cnull(operand)
            if expr.negated:
                matched = not matched
            return TRI_TRUE if matched else TRI_FALSE
        if isinstance(expr, ast.InList):
            return self._tri_in(expr, values, scope)
        if isinstance(expr, ast.Between):
            operand = self._eval(expr.operand, values, scope)
            low = self._eval(expr.low, values, scope)
            high = self._eval(expr.high, values, scope)
            low_cmp = compare_values(operand, low)
            high_cmp = compare_values(operand, high)
            if low_cmp is None or high_cmp is None:
                return TRI_UNKNOWN
            inside = low_cmp >= 0 and high_cmp <= 0
            if expr.negated:
                inside = not inside
            return TRI_TRUE if inside else TRI_FALSE
        if isinstance(expr, ast.CrowdEqual):
            left = self._eval(expr.left, values, scope)
            right = self._eval(expr.right, values, scope)
            if is_missing(left) or is_missing(right):
                return TRI_UNKNOWN
            if left == right:
                # fast path: exact equality never needs the crowd
                return TRI_TRUE
            answer = self.context.crowd_equal(left, right, expr.question)
            return TRI_TRUE if answer else TRI_FALSE
        if isinstance(expr, ast.ExistsExpr):
            rows = self.context.subquery_values(expr.query, values, scope)
            found = bool(rows)
            if expr.negated:
                found = not found
            return TRI_TRUE if found else TRI_FALSE
        if isinstance(expr, ast.InSubquery):
            operand = self._eval(expr.operand, values, scope)
            if is_missing(operand):
                return TRI_UNKNOWN
            items = self.context.subquery_values(expr.query, values, scope)
            saw_missing = False
            for item in items:
                if is_missing(item):
                    saw_missing = True
                    continue
                if compare_values(operand, item) == 0:
                    return TRI_FALSE if expr.negated else TRI_TRUE
            if saw_missing:
                return TRI_UNKNOWN
            return TRI_TRUE if expr.negated else TRI_FALSE
        return tri_from(self._eval(expr, values, scope))

    def _tri_in(self, expr: ast.InList, values: tuple, scope: Scope) -> TriBool:
        operand = self._eval(expr.operand, values, scope)
        if is_missing(operand):
            return TRI_UNKNOWN
        saw_missing = False
        for item in expr.items:
            value = self._eval(item, values, scope)
            if is_missing(value):
                saw_missing = True
                continue
            if compare_values(operand, value) == 0:
                return TRI_FALSE if expr.negated else TRI_TRUE
        if saw_missing:
            return TRI_UNKNOWN
        return TRI_TRUE if expr.negated else TRI_FALSE


def _tri_for_comparison(op: str, ordering: int) -> TriBool:
    if op == "=":
        matched = ordering == 0
    elif op == "<>":
        matched = ordering != 0
    elif op == "<":
        matched = ordering < 0
    elif op == "<=":
        matched = ordering <= 0
    elif op == ">":
        matched = ordering > 0
    else:  # ">="
        matched = ordering >= 0
    return TRI_TRUE if matched else TRI_FALSE


def _as_string(value: Any) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


def _require_numbers(op: str, left: Any, right: Any) -> None:
    for value in (left, right):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(
                f"operator {op!r} needs numeric operands, got {value!r}"
            )


def _call_scalar_function(name: str, args: list[Any]) -> Any:
    """Dispatch the small scalar function library."""
    if name == "LOWER":
        return NULL if is_missing(args[0]) else str(args[0]).lower()
    if name == "UPPER":
        return NULL if is_missing(args[0]) else str(args[0]).upper()
    if name == "LENGTH":
        return NULL if is_missing(args[0]) else len(str(args[0]))
    if name == "TRIM":
        return NULL if is_missing(args[0]) else str(args[0]).strip()
    if name == "ABS":
        return NULL if is_missing(args[0]) else abs(args[0])
    if name == "ROUND":
        if is_missing(args[0]):
            return NULL
        digits = 0 if len(args) < 2 or is_missing(args[1]) else int(args[1])
        return round(args[0], digits)
    if name == "COALESCE":
        for arg in args:
            if not is_missing(arg):
                return arg
        return NULL
    if name == "NULLIF":
        if len(args) != 2:
            raise ExecutionError("NULLIF takes exactly two arguments")
        if is_missing(args[0]):
            return NULL
        if not is_missing(args[1]) and compare_values(args[0], args[1]) == 0:
            return NULL
        return args[0]
    if name == "SUBSTR" or name == "SUBSTRING":
        if is_missing(args[0]):
            return NULL
        text = str(args[0])
        start = max(int(args[1]) - 1, 0)
        if len(args) >= 3 and not is_missing(args[2]):
            return text[start : start + int(args[2])]
        return text[start:]
    raise ExecutionError(f"unknown function {name!r}")
