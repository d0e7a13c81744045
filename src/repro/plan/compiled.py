"""Plan-time expression compilation: the one row expression evaluator.

Every operator expression (filter and join predicates, projections, sort
keys, aggregate arguments and keys, DML values) compiles **once per
physical plan** into a tree of Python closures over a row's value tuple:

* column ordinals are resolved against the operator's scope at compile
  time, so a column reference becomes ``values[i]``;
* constant subtrees (literals, parameters, pure functions of them) are
  folded to a single captured value -- except that a closure a prepared
  plan keeps reads its parameters from the row, after the scope's
  columns (``parameters=None``), so every execution can share it;
* LIKE patterns that are constant compile their regex at plan time (and
  dynamic patterns share the process-wide pattern cache);
* three-valued logic and NULL/CNULL handling are specialized per node, so
  predicate evaluation allocates nothing but the returned TriBool
  singletons.

Crowd constructs and subqueries compile to *hybrid* closures: the operand
sides are compiled, but the decision still routes through the
:class:`EvalContext` (``crowd_equal``/``scalar_subquery``/...), so the
Task Manager's ballot batching, window prefetch, and comparison cache see
one call per row in row order.  Without a context (:class:`NullEvalContext`)
those calls raise when a row reaches them.

Semantics contract: compilation never raises; an error surfaces when a
row is evaluated, per row (``tests/golden/expr_v1.jsonl`` pins each
value, verdict and error type and message).  A node outside the
compilable subset (unresolvable column, unknown operator,
CROWDORDER outside ORDER BY, ``*``, a future AST node) compiles to a
closure raising that error, and a constant subtree whose evaluation
raises is left unfolded so the error still happens at run time.  The one
intentional divergence is *eagerness*: batch-at-a-time and columnar
operators may evaluate a chunk of rows the consumer never pulls, which
can surface a type error that tuple-at-a-time execution would have
skipped — standard vectorized-engine behaviour.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Optional, Protocol

from repro.errors import ExecutionError, PlanError
from repro.sql import ast
from repro.sql.pretty import format_expression
from repro.sqltypes import (
    CNULL,
    NULL,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    TriBool,
    compare_values,
    is_cnull,
    is_missing,
    is_null,
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


_NO_CONTEXT = NullEvalContext()


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
#: once per plan.  Bounded so a pathological stream of distinct dynamic
#: patterns cannot grow without limit.
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


#: A compiled scalar expression: full value tuple -> SQL value.
ValueFn = Callable[[tuple], Any]
#: A compiled predicate: full value tuple -> TriBool.
TriFn = Callable[[tuple], TriBool]

#: Rows processed per chunk by batch-at-a-time operator loops
#: (re-exported from the columnar exec module, where batch sizing lives).
from repro.exec.vector import BATCH_ROWS  # noqa: E402,F401

_COMPARISON_CHECKS: dict[str, Callable[[int], bool]] = {
    "=": lambda o: o == 0,
    "<>": lambda o: o != 0,
    "<": lambda o: o < 0,
    "<=": lambda o: o <= 0,
    ">": lambda o: o > 0,
    ">=": lambda o: o >= 0,
}

#: Native comparisons for the string fast path.
_PY_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Native comparisons for the numeric fast path, phrased so NaN behaves
#: exactly as the generic path: ``compare_values`` derives the ordering
#: as ``(a > b) - (a < b)``, which is 0 for NaN against anything — so
#: NaN = x is TRUE there, while native ``==`` would say False.  Each
#: entry below equals ``check((a > b) - (a < b))`` for every float.
_NUMERIC_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: not (a < b or a > b),
    "<>": lambda a, b: a < b or a > b,
    "<": operator.lt,
    "<=": lambda a, b: not (a > b),
    ">": operator.gt,
    ">=": lambda a, b: not (a < b),
}


def tuple_maker(fns: list) -> Callable[[tuple], tuple]:
    """A closure building a tuple from per-element closures, specialized
    for the small arities operators actually use (keys, projections)."""
    if len(fns) == 1:
        f0 = fns[0]
        return lambda values: (f0(values),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda values: (f0(values), f1(values))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda values: (f0(values), f1(values), f2(values))
    if len(fns) == 4:
        f0, f1, f2, f3 = fns
        return lambda values: (f0(values), f1(values), f2(values), f3(values))
    return lambda values: tuple(fn(values) for fn in fns)


def is_electronic(expr: ast.Expression) -> bool:
    """True when evaluating ``expr`` can never reach the crowd or run a
    subquery — the precondition for eager batch-at-a-time evaluation."""
    return expr.facts.electronic


def compile_value(
    expr: ast.Expression,
    scope: Scope,
    context: Optional[EvalContext] = None,
    parameters: Optional[tuple] = (),
) -> ValueFn:
    """Compile ``expr`` to a closure evaluating it as a SQL value.

    ``parameters`` are the ``?`` values, folded in as constants; with
    ``None`` the closure reads ``?`` number ``i`` from the row, at
    ``len(scope) + i``: the caller appends the parameters to each row."""
    return _Compiler(scope, context, parameters).value(expr)[0]


def compile_predicate(
    expr: ast.Expression,
    scope: Scope,
    context: Optional[EvalContext] = None,
    parameters: Optional[tuple] = (),
) -> TriFn:
    """Compile ``expr`` to a closure evaluating it under 3VL (see
    :func:`compile_value` for ``parameters``)."""
    return _Compiler(scope, context, parameters).tri(expr)[0]


_LEAVES = (ast.Literal, ast.CNullLiteral, ast.Parameter)


def rendered_position(expr: ast.Expression, scope: Scope) -> Optional[int]:
    """The position of the column ``scope`` names by ``expr``'s rendering
    -- a GROUP BY expression or an aggregate call read back above its
    Aggregate -- or None."""
    if not scope.names_expressions():
        return None
    return scope.try_resolve(format_expression(expr))


def _const_fn(value: Any) -> ValueFn:
    return lambda values: value


def _raising(error_type: type, message: str) -> ValueFn:
    def fail(values: tuple) -> Any:
        raise error_type(message)

    return fail


class _Compiler:
    """Compiles one expression tree against one scope.

    ``value``/``tri`` return ``(closure, const)`` where ``const`` marks a
    pure, row-independent subtree eligible for folding.
    """

    def __init__(
        self,
        scope: Scope,
        context: Optional[EvalContext] = None,
        parameters: Optional[tuple] = (),
    ) -> None:
        self.scope = scope
        self.context = context if context is not None else _NO_CONTEXT
        self.parameters = parameters

    def _fold(self, fn: ValueFn, const: bool) -> tuple[ValueFn, bool]:
        """Evaluate a pure constant subtree once at compile time.  If the
        evaluation raises, keep the closure so the error still surfaces
        lazily, per row."""
        if not const:
            return fn, False
        try:
            value = fn(())
        except Exception:
            return fn, False
        return _const_fn(value), True

    # -- scalar values ---------------------------------------------------------

    def value(self, expr: ast.Expression) -> tuple[ValueFn, bool]:
        kind = type(expr)
        if kind in _LEAVES:  # a literal or parameter is its own fold
            return self._value_node(expr)
        if kind is not ast.ColumnRef:
            position = rendered_position(expr, self.scope)
            if position is not None:
                return operator.itemgetter(position), False
        return self._fold(*self._value_node(expr))

    def _value_node(self, expr: ast.Expression) -> tuple[ValueFn, bool]:
        if isinstance(expr, ast.Literal):
            return _const_fn(NULL if expr.value is None else expr.value), True
        if isinstance(expr, ast.CNullLiteral):
            return _const_fn(CNULL), True
        if isinstance(expr, ast.Parameter):
            if self.parameters is None:  # appended to the row
                position = len(self.scope) + expr.index
                return operator.itemgetter(position), False
            if expr.index >= len(self.parameters):
                return (
                    _raising(
                        ExecutionError,
                        f"query expects parameter #{expr.index + 1} but only "
                        f"{len(self.parameters)} were supplied",
                    ),
                    False,
                )
            value = self.parameters[expr.index]
            return _const_fn(NULL if value is None else value), True
        if isinstance(expr, ast.ColumnRef):
            try:
                position = self.scope.resolve(expr.name, expr.table)
            except ExecutionError as error:
                return _raising(ExecutionError, str(error)), False
            # C-level tuple access: the single hottest closure in a plan
            return operator.itemgetter(position), False
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._binary_value(expr)
        if isinstance(
            expr,
            (ast.IsNull, ast.InList, ast.Between, ast.ExistsExpr,
             ast.InSubquery, ast.CrowdEqual),
        ):
            return self._tri_as_value(expr)
        if isinstance(expr, ast.FunctionCall):
            return self._function(expr)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr)
        if isinstance(expr, ast.ScalarSubquery):
            context, scope, query = self.context, self.scope, expr.query
            return (
                lambda values: context.scalar_subquery(query, values, scope),
                False,
            )
        if isinstance(expr, ast.CrowdOrder):
            message = (
                "CROWDORDER is only legal inside ORDER BY; the planner must "
                "compile it into a crowd-backed sort"
            )
        elif isinstance(expr, ast.Star):
            message = "'*' cannot be evaluated as a scalar expression"
        else:
            message = f"cannot evaluate expression node {type(expr).__name__}"
        return _raising(PlanError, message), False

    def _unary(self, expr: ast.UnaryOp) -> tuple[ValueFn, bool]:
        if expr.op == "NOT":
            operand, const = self.tri(expr.operand)

            def negate(values: tuple) -> Any:
                tri = (~operand(values)).value
                return NULL if tri is None else tri

            return negate, const
        operand_fn, const = self.value(expr.operand)
        negative = expr.op == "-"
        op = expr.op

        def run(values: tuple) -> Any:
            operand = operand_fn(values)
            if is_missing(operand):
                return NULL
            if not isinstance(operand, (int, float)) or isinstance(operand, bool):
                raise ExecutionError(f"unary {op} needs a numeric operand")
            return -operand if negative else +operand

        return run, const

    def _binary_value(self, expr: ast.BinaryOp) -> tuple[ValueFn, bool]:
        op = expr.op
        if op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE"):
            return self._tri_as_value(expr)
        left_fn, left_const = self.value(expr.left)
        right_fn, right_const = self.value(expr.right)
        const = left_const and right_const
        if op == "||":

            def concat(values: tuple) -> Any:
                left = left_fn(values)
                right = right_fn(values)
                if is_missing(left) or is_missing(right):
                    return NULL
                return _as_string(left) + _as_string(right)

            return concat, const
        if op == "/":

            def divide(values: tuple) -> Any:
                left = left_fn(values)
                right = right_fn(values)
                if is_missing(left) or is_missing(right):
                    return NULL
                _require_numbers("/", left, right)
                if right == 0:
                    return NULL  # SQL engines vary; we pick NULL over raising
                if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                    return left // right
                return left / right

            return divide, const
        arithmetic = _ARITHMETIC.get(op)
        if arithmetic is None:

            def unknown(values: tuple) -> Any:
                left = left_fn(values)
                right = right_fn(values)
                if is_missing(left) or is_missing(right):
                    return NULL
                raise PlanError(f"unknown binary operator {op!r}")

            return unknown, False

        # one-sided numeric constant (``priority * 0.05``): bake it in
        if right_const != left_const:
            constant = (right_fn if right_const else left_fn)(())
            if type(constant) in (int, float):
                row_fn = left_fn if right_const else right_fn
                flipped = left_const

                def run_const(values: tuple) -> Any:
                    row_value = row_fn(values)
                    row_type = type(row_value)
                    if row_type is int or row_type is float:
                        return (
                            arithmetic(constant, row_value)
                            if flipped
                            else arithmetic(row_value, constant)
                        )
                    if is_missing(row_value):
                        return NULL
                    left, right = (
                        (constant, row_value) if flipped else (row_value, constant)
                    )
                    _require_numbers(op, left, right)
                    return arithmetic(left, right)

                return run_const, False

        def run(values: tuple) -> Any:
            left = left_fn(values)
            right = right_fn(values)
            # fast path: exact int/float operands (type() identity skips
            # bool, which _require_numbers rejects)
            left_type = type(left)
            right_type = type(right)
            if (left_type is int or left_type is float) and (
                right_type is int or right_type is float
            ):
                return arithmetic(left, right)
            if is_missing(left) or is_missing(right):
                return NULL
            _require_numbers(op, left, right)
            return arithmetic(left, right)

        return run, const

    def _tri_as_value(self, expr: ast.Expression) -> tuple[ValueFn, bool]:
        tri_fn, const = self.tri(expr)

        def run(values: tuple) -> Any:
            tri = tri_fn(values).value
            return NULL if tri is None else tri

        return run, const

    def _function(self, expr: ast.FunctionCall) -> tuple[ValueFn, bool]:
        if expr.is_aggregate:
            # Aggregates are computed by the Aggregate operator; in scalar
            # position :meth:`value` reads its output column by the call's
            # rendered name, so reaching here means there is none.
            return (
                _raising(
                    PlanError,
                    f"aggregate {format_expression(expr)} used outside "
                    "GROUP BY context",
                ),
                False,
            )
        name = expr.name.upper()
        compiled = [self.value(arg) for arg in expr.args]
        arg_fns = [fn for fn, _const in compiled]
        const = all(c for _fn, c in compiled)

        def run(values: tuple) -> Any:
            return _call_scalar_function(
                name, [fn(values) for fn in arg_fns]
            )

        return run, const

    def _case(self, expr: ast.CaseExpr) -> tuple[ValueFn, bool]:
        const = True
        if expr.operand is not None:
            operand_fn, operand_const = self.value(expr.operand)
            const = operand_const
            whens: list[tuple[ValueFn, ValueFn]] = []
            for when, then in expr.whens:
                when_fn, when_const = self.value(when)
                then_fn, then_const = self.value(then)
                const = const and when_const and then_const
                whens.append((when_fn, then_fn))
            default_fn, default_const = self._case_default(expr)
            const = const and default_const

            def run_simple(values: tuple) -> Any:
                operand = operand_fn(values)
                for when_fn, then_fn in whens:
                    if compare_values(operand, when_fn(values)) == 0:
                        return then_fn(values)
                return default_fn(values)

            return run_simple, const
        branches: list[tuple[TriFn, ValueFn]] = []
        for when, then in expr.whens:
            when_fn, when_const = self.tri(when)
            then_fn, then_const = self.value(then)
            const = const and when_const and then_const
            branches.append((when_fn, then_fn))
        default_fn, default_const = self._case_default(expr)
        const = const and default_const

        def run_searched(values: tuple) -> Any:
            for when_fn, then_fn in branches:
                if when_fn(values).value is True:
                    return then_fn(values)
            return default_fn(values)

        return run_searched, const

    def _case_default(self, expr: ast.CaseExpr) -> tuple[ValueFn, bool]:
        if expr.default is None:
            return _const_fn(NULL), True
        return self.value(expr.default)

    # -- predicates ------------------------------------------------------------

    def tri(self, expr: ast.Expression) -> tuple[TriFn, bool]:
        kind = type(expr)
        if kind not in _LEAVES and kind is not ast.ColumnRef:
            position = rendered_position(expr, self.scope)
            if position is not None:
                read = operator.itemgetter(position)
                return (lambda values: tri_from(read(values))), False
        fn, const = self._tri_node(expr)
        if const:
            # fold through the TriBool singletons so constant predicates
            # cost one captured reference per row
            try:
                verdict = fn(())
            except Exception:
                return fn, False
            return (lambda values: verdict), True
        return fn, False

    def _tri_node(self, expr: ast.Expression) -> tuple[TriFn, bool]:
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op == "AND":
                left_fn, left_const = self.tri(expr.left)
                right_fn, right_const = self.tri(expr.right)

                # NOT short-circuiting: window prefetch relies on both
                # sides always evaluating; the TriBool connective is
                # inlined over the singletons
                def conjoin(values: tuple) -> TriBool:
                    left = left_fn(values).value
                    right = right_fn(values).value
                    if left is False or right is False:
                        return TRI_FALSE
                    if left is None or right is None:
                        return TRI_UNKNOWN
                    return TRI_TRUE

                return conjoin, left_const and right_const
            if op == "OR":
                left_fn, left_const = self.tri(expr.left)
                right_fn, right_const = self.tri(expr.right)

                def disjoin(values: tuple) -> TriBool:
                    left = left_fn(values).value
                    right = right_fn(values).value
                    if left is True or right is True:
                        return TRI_TRUE
                    if left is None or right is None:
                        return TRI_UNKNOWN
                    return TRI_FALSE

                return disjoin, left_const and right_const
            if op in _COMPARISON_CHECKS:
                return self._comparison(expr)
            if op == "LIKE":
                return self._like(expr)
            return self._value_as_tri(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            operand_fn, const = self.tri(expr.operand)
            return (lambda values: ~operand_fn(values)), const
        if isinstance(expr, ast.IsNull):
            return self._is_null(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.CrowdEqual):
            return self._crowd_equal(expr)
        if isinstance(expr, ast.ExistsExpr):
            context, scope = self.context, self.scope
            query, negated = expr.query, expr.negated

            def exists(values: tuple) -> TriBool:
                found = bool(context.subquery_values(query, values, scope))
                if negated:
                    found = not found
                return TRI_TRUE if found else TRI_FALSE

            return exists, False
        if isinstance(expr, ast.InSubquery):
            return self._in_subquery(expr)
        return self._value_as_tri(expr)

    def _value_as_tri(self, expr: ast.Expression) -> tuple[TriFn, bool]:
        fn, const = self.value(expr)
        return (lambda values: tri_from(fn(values))), const

    def _comparison(self, expr: ast.BinaryOp) -> tuple[TriFn, bool]:
        left_fn, left_const = self.value(expr.left)
        right_fn, right_const = self.value(expr.right)
        check = _COMPARISON_CHECKS[expr.op]
        str_compare = _PY_COMPARISONS[expr.op]
        num_compare = _NUMERIC_COMPARISONS[expr.op]

        # one-sided constant (``col >= 7``): bake the constant in, skip
        # its closure call and type check per row
        if right_const != left_const:
            if right_const:
                constant = right_fn(())
                flipped = False
            else:
                constant = left_fn(())
                flipped = True
            row_fn = left_fn if right_const else right_fn
            constant_type = type(constant)
            if constant_type in (int, float, str):
                numeric = constant_type is not str
                py_compare = num_compare if numeric else str_compare

                def run_const(values: tuple) -> TriBool:
                    row_value = row_fn(values)
                    row_type = type(row_value)
                    if (
                        (row_type is int or row_type is float)
                        if numeric
                        else row_type is str
                    ):
                        matched = (
                            py_compare(constant, row_value)
                            if flipped
                            else py_compare(row_value, constant)
                        )
                        return TRI_TRUE if matched else TRI_FALSE
                    ordering = (
                        compare_values(constant, row_value)
                        if flipped
                        else compare_values(row_value, constant)
                    )
                    if ordering is None:
                        return TRI_UNKNOWN
                    return TRI_TRUE if check(ordering) else TRI_FALSE

                return run_const, False

        def run(values: tuple) -> TriBool:
            left = left_fn(values)
            right = right_fn(values)
            # fast path: exact int/float/str pairs compare natively (the
            # classes exclude bool — type() identity, not isinstance);
            # everything else (missing, bools, mixed types) goes through
            # compare_values for identical semantics and errors
            left_type = type(left)
            right_type = type(right)
            if (left_type is int or left_type is float) and (
                right_type is int or right_type is float
            ):
                return TRI_TRUE if num_compare(left, right) else TRI_FALSE
            if left_type is str and right_type is str:
                return TRI_TRUE if str_compare(left, right) else TRI_FALSE
            ordering = compare_values(left, right)
            if ordering is None:
                return TRI_UNKNOWN
            return TRI_TRUE if check(ordering) else TRI_FALSE

        return run, left_const and right_const

    def _like(self, expr: ast.BinaryOp) -> tuple[TriFn, bool]:
        left_fn, left_const = self.value(expr.left)
        pattern_fn, pattern_const = self.value(expr.right)
        if pattern_const:
            pattern = pattern_fn(())
            if is_missing(pattern):

                def always_unknown(values: tuple) -> TriBool:
                    left_fn(values)  # operand errors still surface
                    return TRI_UNKNOWN

                return always_unknown, left_const
            regex = cached_like_regex(str(pattern))
            regex_match = regex.match

            def match_static(values: tuple) -> TriBool:
                left = left_fn(values)
                if type(left) is str:
                    return TRI_TRUE if regex_match(left) else TRI_FALSE
                if is_missing(left):
                    return TRI_UNKNOWN
                return TRI_TRUE if regex_match(str(left)) else TRI_FALSE

            return match_static, left_const

        def match_dynamic(values: tuple) -> TriBool:
            left = left_fn(values)
            pattern = pattern_fn(values)
            if is_missing(left) or is_missing(pattern):
                return TRI_UNKNOWN
            regex = cached_like_regex(str(pattern))
            return TRI_TRUE if regex.match(str(left)) else TRI_FALSE

        return match_dynamic, False

    def _is_null(self, expr: ast.IsNull) -> tuple[TriFn, bool]:
        operand_fn, const = self.value(expr.operand)
        negated, cnull = expr.negated, expr.cnull

        def run(values: tuple) -> TriBool:
            operand = operand_fn(values)
            if cnull:
                matched = is_cnull(operand)
            else:
                matched = is_null(operand) or is_cnull(operand)
            if negated:
                matched = not matched
            return TRI_TRUE if matched else TRI_FALSE

        return run, const

    def _in_list(self, expr: ast.InList) -> tuple[TriFn, bool]:
        operand_fn, operand_const = self.value(expr.operand)
        compiled = [self.value(item) for item in expr.items]
        item_fns = [fn for fn, _c in compiled]
        const = operand_const and all(c for _fn, c in compiled)
        negated = expr.negated

        def run(values: tuple) -> TriBool:
            operand = operand_fn(values)
            if is_missing(operand):
                return TRI_UNKNOWN
            saw_missing = False
            for item_fn in item_fns:
                item = item_fn(values)
                if is_missing(item):
                    saw_missing = True
                    continue
                if compare_values(operand, item) == 0:
                    return TRI_FALSE if negated else TRI_TRUE
            if saw_missing:
                return TRI_UNKNOWN
            return TRI_TRUE if negated else TRI_FALSE

        return run, const

    def _between(self, expr: ast.Between) -> tuple[TriFn, bool]:
        operand_fn, operand_const = self.value(expr.operand)
        low_fn, low_const = self.value(expr.low)
        high_fn, high_const = self.value(expr.high)
        negated = expr.negated

        # constant bounds (``amount BETWEEN 20 AND 450``): bake them in
        if low_const and high_const and not operand_const:
            low = low_fn(())
            high = high_fn(())
            if (
                type(low) in (int, float) and type(high) in (int, float)
            ) or (type(low) is str and type(high) is str):
                numeric = type(low) is not str

                def run_const(values: tuple) -> TriBool:
                    operand = operand_fn(values)
                    operand_type = type(operand)
                    if (
                        (operand_type is int or operand_type is float)
                        if numeric
                        else operand_type is str
                    ):
                        # phrased like compare_values' derived orderings
                        # so NaN operands match the generic path (ordering
                        # 0 against anything → inside)
                        inside = not (operand < low) and not (operand > high)
                    else:
                        low_cmp = compare_values(operand, low)
                        high_cmp = compare_values(operand, high)
                        if low_cmp is None or high_cmp is None:
                            return TRI_UNKNOWN
                        inside = low_cmp >= 0 and high_cmp <= 0
                    if negated:
                        inside = not inside
                    return TRI_TRUE if inside else TRI_FALSE

                return run_const, False

        def run(values: tuple) -> TriBool:
            operand = operand_fn(values)
            low = low_fn(values)
            high = high_fn(values)
            operand_type = type(operand)
            if (
                (operand_type is int or operand_type is float)
                and type(low) in (int, float)
                and type(high) in (int, float)
            ) or (
                operand_type is str
                and type(low) is str
                and type(high) is str
            ):
                # NaN-consistent with compare_values (see run_const)
                inside = not (operand < low) and not (operand > high)
            else:
                low_cmp = compare_values(operand, low)
                high_cmp = compare_values(operand, high)
                if low_cmp is None or high_cmp is None:
                    return TRI_UNKNOWN
                inside = low_cmp >= 0 and high_cmp <= 0
            if negated:
                inside = not inside
            return TRI_TRUE if inside else TRI_FALSE

        return run, operand_const and low_const and high_const

    def _crowd_equal(self, expr: ast.CrowdEqual) -> tuple[TriFn, bool]:
        context = self.context
        left_fn, _lc = self.value(expr.left)
        right_fn, _rc = self.value(expr.right)
        question = expr.question

        def run(values: tuple) -> TriBool:
            left = left_fn(values)
            right = right_fn(values)
            if is_missing(left) or is_missing(right):
                return TRI_UNKNOWN
            if left == right:
                # fast path: exact equality never needs the crowd
                return TRI_TRUE
            answer = context.crowd_equal(left, right, question)
            return TRI_TRUE if answer else TRI_FALSE

        return run, False

    def _in_subquery(self, expr: ast.InSubquery) -> tuple[TriFn, bool]:
        context, scope = self.context, self.scope
        operand_fn, _const = self.value(expr.operand)
        query, negated = expr.query, expr.negated

        def run(values: tuple) -> TriBool:
            operand = operand_fn(values)
            if is_missing(operand):
                return TRI_UNKNOWN
            saw_missing = False
            for item in context.subquery_values(query, values, scope):
                if is_missing(item):
                    saw_missing = True
                    continue
                if compare_values(operand, item) == 0:
                    return TRI_FALSE if negated else TRI_TRUE
            if saw_missing:
                return TRI_UNKNOWN
            return TRI_TRUE if negated else TRI_FALSE

        return run, False
