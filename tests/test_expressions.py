"""Unit tests for expression evaluation (scalar + three-valued logic),
through the plan-time compiler's closures."""

import pytest

from repro.errors import ExecutionError, PlanError
from repro.plan.compiled import compile_predicate, compile_value, like_to_regex
from repro.sql import ast
from repro.sql.parser import Parser
from repro.sqltypes import CNULL, NULL, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN
from repro.storage.row import Scope


def expr_of(sql_fragment):
    """Parse a standalone expression via a dummy SELECT."""
    stmt = Parser(f"SELECT {sql_fragment}").parse_statement()
    return stmt.items[0].expression


SCOPE = Scope([("t", "a"), ("t", "b"), ("t", "s")])


class Closures:
    """Evaluates AST expressions by compiling them against a scope."""

    def __init__(self, context=None, parameters=()):
        self.context = context
        self.parameters = parameters

    def value(self, expr, row, scope):
        return compile_value(expr, scope, self.context, self.parameters)(row)

    def predicate(self, expr, row, scope):
        return compile_predicate(
            expr, scope, self.context, self.parameters
        )(row)


@pytest.fixture
def ev():
    return Closures()


def value(ev, fragment, row=(1, 2, "abc")):
    return ev.value(expr_of(fragment), row, SCOPE)


def tri(ev, fragment, row=(1, 2, "abc")):
    return ev.predicate(expr_of(fragment), row, SCOPE)


class TestScalars:
    def test_literals(self, ev):
        assert value(ev, "42") == 42
        assert value(ev, "'x'") == "x"
        assert value(ev, "TRUE") is True
        assert value(ev, "NULL") is NULL
        assert value(ev, "CNULL") is CNULL

    def test_column_resolution(self, ev):
        assert value(ev, "a") == 1
        assert value(ev, "t.b") == 2

    def test_arithmetic(self, ev):
        assert value(ev, "a + b * 2") == 5
        assert value(ev, "b - a") == 1
        assert value(ev, "-a") == -1
        assert value(ev, "7 % 3") == 1

    def test_division(self, ev):
        assert value(ev, "6 / 2") == 3      # integer when exact
        assert value(ev, "7 / 2") == 3.5    # float otherwise
        assert value(ev, "1 / 0") is NULL   # no crash on zero

    def test_arithmetic_with_missing(self, ev):
        assert value(ev, "a + NULL") is NULL
        assert value(ev, "CNULL * 2") is NULL

    def test_concat(self, ev):
        assert value(ev, "s || '!'") == "abc!"

    def test_arithmetic_type_error(self, ev):
        with pytest.raises(ExecutionError):
            value(ev, "s + 1")

    def test_case_searched(self, ev):
        assert value(ev, "CASE WHEN a = 1 THEN 'one' ELSE 'other' END") == "one"
        assert value(ev, "CASE WHEN a = 9 THEN 'one' END") is NULL

    def test_case_simple(self, ev):
        assert value(ev, "CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END") == "one"

    def test_scalar_functions(self, ev):
        assert value(ev, "LOWER('AbC')") == "abc"
        assert value(ev, "UPPER(s)") == "ABC"
        assert value(ev, "LENGTH(s)") == 3
        assert value(ev, "TRIM('  x ')") == "x"
        assert value(ev, "ABS(-3)") == 3
        assert value(ev, "ROUND(2.567, 1)") == 2.6
        assert value(ev, "COALESCE(NULL, CNULL, 5)") == 5
        assert value(ev, "NULLIF(1, 1)") is NULL
        assert value(ev, "SUBSTR('hello', 2, 3)") == "ell"

    def test_unknown_function(self, ev):
        with pytest.raises(ExecutionError, match="unknown function"):
            value(ev, "FROBNICATE(1)")

    def test_parameters(self):
        ev = Closures(parameters=(10, "x"))
        assert ev.value(ast.Parameter(0), (), Scope([])) == 10
        assert ev.value(ast.Parameter(1), (), Scope([])) == "x"

    def test_missing_parameter(self):
        ev = Closures(parameters=())
        with pytest.raises(ExecutionError, match="parameter"):
            ev.value(ast.Parameter(0), (), Scope([]))

    def test_crowdorder_outside_order_by_raises(self, ev):
        with pytest.raises(PlanError, match="CROWDORDER"):
            ev.value(
                ast.CrowdOrder(ast.ColumnRef("a"), "q"), (1, 2, "abc"), SCOPE
            )


class TestPredicates:
    def test_comparisons(self, ev):
        assert tri(ev, "a = 1") is TRI_TRUE
        assert tri(ev, "a <> 1") is TRI_FALSE
        assert tri(ev, "b > a") is TRI_TRUE
        assert tri(ev, "b <= 1") is TRI_FALSE

    def test_comparison_with_missing_is_unknown(self, ev):
        assert tri(ev, "a = NULL") is TRI_UNKNOWN
        assert tri(ev, "CNULL < 1") is TRI_UNKNOWN

    def test_and_or_short_circuit_semantics(self, ev):
        assert tri(ev, "a = 1 AND b = 2") is TRI_TRUE
        assert tri(ev, "a = 1 AND b = 9") is TRI_FALSE
        assert tri(ev, "a = 9 OR b = 2") is TRI_TRUE
        assert tri(ev, "a = 1 AND NULL") is TRI_UNKNOWN
        assert tri(ev, "a = 9 AND NULL") is TRI_FALSE
        assert tri(ev, "a = 1 OR NULL") is TRI_TRUE

    def test_not(self, ev):
        assert tri(ev, "NOT a = 1") is TRI_FALSE
        assert tri(ev, "NOT a = NULL") is TRI_UNKNOWN

    def test_is_null_family(self, ev):
        row = (NULL, CNULL, "x")
        assert ev.predicate(expr_of("a IS NULL"), row, SCOPE) is TRI_TRUE
        # IS NULL also matches CNULL (both are "missing")
        assert ev.predicate(expr_of("b IS NULL"), row, SCOPE) is TRI_TRUE
        # IS CNULL matches only CNULL
        assert ev.predicate(expr_of("a IS CNULL"), row, SCOPE) is TRI_FALSE
        assert ev.predicate(expr_of("b IS CNULL"), row, SCOPE) is TRI_TRUE
        assert ev.predicate(expr_of("s IS NOT NULL"), row, SCOPE) is TRI_TRUE

    def test_in_list(self, ev):
        assert tri(ev, "a IN (1, 2)") is TRI_TRUE
        assert tri(ev, "a IN (5, 6)") is TRI_FALSE
        assert tri(ev, "a NOT IN (5)") is TRI_TRUE
        # unknown propagation: no match but a NULL in the list
        assert tri(ev, "a IN (5, NULL)") is TRI_UNKNOWN
        assert tri(ev, "NULL IN (1)") is TRI_UNKNOWN

    def test_between(self, ev):
        assert tri(ev, "a BETWEEN 0 AND 5") is TRI_TRUE
        assert tri(ev, "a BETWEEN 2 AND 5") is TRI_FALSE
        assert tri(ev, "a NOT BETWEEN 2 AND 5") is TRI_TRUE
        assert tri(ev, "a BETWEEN NULL AND 5") is TRI_UNKNOWN

    def test_like(self, ev):
        assert tri(ev, "s LIKE 'a%'") is TRI_TRUE
        assert tri(ev, "s LIKE '%b%'") is TRI_TRUE
        assert tri(ev, "s LIKE 'a_c'") is TRI_TRUE
        assert tri(ev, "s LIKE 'z%'") is TRI_FALSE
        assert tri(ev, "NULL LIKE 'a%'") is TRI_UNKNOWN

    def test_crowdequal_fast_path_without_context(self, ev):
        # identical values never reach the crowd
        assert tri(ev, "CROWDEQUAL(s, 'abc')") is TRI_TRUE

    def test_crowdequal_missing_is_unknown(self, ev):
        assert ev.predicate(
            expr_of("CROWDEQUAL(a, 'x')"), (NULL, 2, "s"), SCOPE
        ) is TRI_UNKNOWN

    def test_crowdequal_without_runtime_raises(self, ev):
        with pytest.raises(ExecutionError, match="crowd runtime"):
            tri(ev, "CROWDEQUAL(s, 'different')")

    def test_crowdequal_uses_context(self):
        class FakeContext:
            def crowd_equal(self, left, right, question):
                return {("I.B.M.", "IBM"): True}.get((left, right), False)

            def scalar_subquery(self, *args):  # pragma: no cover
                raise AssertionError

            def subquery_values(self, *args):  # pragma: no cover
                raise AssertionError

        ev = Closures(context=FakeContext())
        scope = Scope([("c", "name")])
        assert ev.predicate(
            expr_of("CROWDEQUAL(name, 'IBM')"), ("I.B.M.",), scope
        ) is TRI_TRUE
        assert ev.predicate(
            expr_of("CROWDEQUAL(name, 'IBM')"), ("Oracle",), scope
        ) is TRI_FALSE


class TestLikeRegex:
    def test_escaping(self):
        regex = like_to_regex("100%.txt")
        assert regex.match("100XYZ.txt")
        assert not regex.match("100XYZ_txt")

    def test_anchoring(self):
        regex = like_to_regex("abc")
        assert regex.match("abc") and not regex.match("xabc")
