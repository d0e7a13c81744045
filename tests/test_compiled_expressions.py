"""Differential tests: compiled expressions vs the AST interpreter.

Every expression of the corpus runs through both the interpreted
:class:`Evaluator` and the plan-time compiler over the same rows, and the
results must be identical — value identity for the NULL/CNULL singletons,
TriBool verdicts for predicates, error type and message for failures, and
the exact sequence of crowd calls for CROWDEQUAL hybrids.  Whole
statements compare the default path with the ``interpreted`` seam of
``tests/conftest.py``.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import connect
from repro.errors import ExecutionError, PlanError, TypeError_
from repro.plan.compiled import (
    compile_predicate,
    compile_value,
    is_electronic,
)
from repro.plan.expressions import Evaluator, cached_like_regex
from repro.sql import ast
from repro.sql.parser import Parser
from repro.sqltypes import CNULL, NULL
from repro.storage.row import LayeredScope, Scope


def expr_of(sql_fragment):
    """Parse a standalone expression via a dummy SELECT."""
    stmt = Parser(f"SELECT {sql_fragment}").parse_statement()
    return stmt.items[0].expression


SCOPE = Scope([("t", "a"), ("t", "b"), ("t", "s"), ("t", "flag")])

ROWS = [
    (1, 2, "abc", True),
    (0, -3, "zebra", False),
    (NULL, 2, "abc", True),
    (1, CNULL, NULL, False),
    (7, 7, "a%c", NULL),
    (2, 4, "", CNULL),
]

#: (fragment, parameters) — the differential corpus.  Mixed-type rows,
#: NULL vs CNULL, 3VL connectives, LIKE, CASE, parameters, functions.
CORPUS = [
    ("42", ()),
    ("a", ()),
    ("t.b", ()),
    ("-a", ()),
    ("+b", ()),
    ("a + b * 2", ()),
    ("a - b", ()),
    ("b % 2", ()),
    ("a / b", ()),
    ("a / 0", ()),
    ("s || '!'", ()),
    ("a = 1", ()),
    ("a <> b", ()),
    ("a < b", ()),
    ("a <= 1", ()),
    ("a > b", ()),
    ("a >= 7", ()),
    ("a = 1 AND b = 2", ()),
    ("a = 1 OR b = 2", ()),
    ("NOT a = 1", ()),
    ("a = 1 AND (b > 0 OR s = 'abc')", ()),
    ("s LIKE 'ab%'", ()),
    ("s LIKE '%b%'", ()),
    ("s LIKE 'a_c'", ()),
    ("s LIKE s", ()),
    ("s LIKE NULL", ()),
    ("a IS NULL", ()),
    ("a IS NOT NULL", ()),
    ("b IS CNULL", ()),
    ("b IS NOT CNULL", ()),
    ("s IS NULL", ()),
    ("a IN (1, 2, 3)", ()),
    ("a NOT IN (1, 2)", ()),
    ("a IN (1, NULL)", ()),
    ("a BETWEEN 0 AND 5", ()),
    ("a NOT BETWEEN 2 AND 3", ()),
    ("b BETWEEN a AND 10", ()),
    ("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END", ()),
    ("CASE WHEN b > 1 THEN b END", ()),
    ("CASE a WHEN 1 THEN 'one' WHEN 7 THEN 'seven' ELSE '?' END", ()),
    ("LOWER(s)", ()),
    ("UPPER(s)", ()),
    ("LENGTH(s)", ()),
    ("TRIM(s)", ()),
    ("ABS(b)", ()),
    ("ROUND(a / 3.0, 1)", ()),
    ("COALESCE(a, b, 99)", ()),
    ("NULLIF(a, 1)", ()),
    ("SUBSTR(s, 2)", ()),
    ("SUBSTR(s, 1, 2)", ()),
    ("? + a", (10,)),
    ("? || s", ("p-",)),
    ("?", (None,)),
    ("1 + 2 * 3", ()),
    ("'x' || 'y'", ()),
    ("flag", ()),
    ("flag AND a = 1", ()),
    ("NOT flag", ()),
]


def both_value(fragment, row, parameters=()):
    expr = expr_of(fragment)
    interpreted = Evaluator(parameters=parameters)
    compiled = compile_value(expr, SCOPE, parameters=parameters)

    def run(fn):
        try:
            return ("ok", fn())
        except (ExecutionError, PlanError, TypeError_) as error:
            return ("error", type(error).__name__, str(error))

    return (
        run(lambda: interpreted.value(expr, row, SCOPE)),
        run(lambda: compiled(row)),
    )


def both_tri(fragment, row, parameters=()):
    expr = expr_of(fragment)
    interpreted = Evaluator(parameters=parameters)
    compiled = compile_predicate(expr, SCOPE, parameters=parameters)

    def run(fn):
        try:
            return ("ok", fn())
        except (ExecutionError, PlanError, TypeError_) as error:
            return ("error", type(error).__name__, str(error))

    return (
        run(lambda: interpreted.predicate(expr, row, SCOPE)),
        run(lambda: compiled(row)),
    )


class TestDifferentialCorpus:
    @pytest.mark.parametrize("fragment,parameters", CORPUS)
    def test_values_identical(self, fragment, parameters):
        for row in ROWS:
            expected, actual = both_value(fragment, row, parameters)
            assert actual == expected, f"{fragment!r} over {row!r}"
            if expected[0] == "ok" and expected[1] in (NULL, CNULL):
                # the missing-value singletons must survive by identity
                assert actual[1] is expected[1]

    @pytest.mark.parametrize("fragment,parameters", CORPUS)
    def test_verdicts_identical(self, fragment, parameters):
        for row in ROWS:
            expected, actual = both_tri(fragment, row, parameters)
            assert actual == expected, f"{fragment!r} over {row!r}"


class TestNaNParity:
    """compare_values derives ordering 0 for NaN against anything; the
    compiled native fast paths must reproduce that, not IEEE semantics."""

    NAN = float("nan")

    @pytest.mark.parametrize(
        "fragment",
        ["a = ?", "a <> ?", "a < ?", "a <= ?", "a > ?", "a >= ?",
         "? = 1.5", "a BETWEEN ? AND ?", "? BETWEEN 1 AND 2",
         "a = b", "a <= b"],
    )
    def test_nan_verdicts_identical(self, fragment):
        parameters = (self.NAN, self.NAN)
        rows = [
            (1.5, 2.5, "x", True),
            (self.NAN, 2.5, "x", True),
            (self.NAN, self.NAN, "x", True),
        ]
        for row in rows:
            expected, actual = both_tri(fragment, row, parameters)
            assert actual == expected, f"{fragment!r} over {row!r}"

    def test_nan_sort_matches_interpreted(self, interpreted):
        def rows():
            db = connect(with_crowd=False)
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT)")
            for i, x in enumerate([2.5, self.NAN, 1.5, self.NAN, 3.5]):
                db.engine.insert("t", [i, x])
            return db.execute("SELECT i FROM t ORDER BY x").rows

        compiled = rows()
        with interpreted():
            assert repr(compiled) == repr(rows())


class TestErrorParity:
    """Compilation must not surface errors earlier than interpretation."""

    def test_unknown_column_raises_at_evaluation_not_compile(self):
        expr = expr_of("nope")
        fn = compile_value(expr, SCOPE)  # must not raise here
        with pytest.raises(ExecutionError, match="not found in scope"):
            fn(ROWS[0])

    def test_missing_parameter_raises_at_evaluation(self):
        expr = expr_of("?")
        fn = compile_value(expr, SCOPE, parameters=())
        with pytest.raises(ExecutionError, match="parameter"):
            fn(ROWS[0])

    def test_unknown_function_raises_at_evaluation(self):
        expr = expr_of("FROBNICATE(a)")
        fn = compile_value(expr, SCOPE)
        with pytest.raises(ExecutionError, match="unknown function"):
            fn(ROWS[0])

    def test_constant_fold_defers_type_errors(self):
        # 'x' + 1 is a constant subtree whose evaluation raises; folding
        # must keep the error lazy, exactly like the interpreter
        expr = expr_of("'x' + 1")
        fn = compile_value(expr, SCOPE)
        with pytest.raises(ExecutionError, match="numeric operands"):
            fn(ROWS[0])

    def test_star_falls_back_to_interpreted_error(self):
        fn = compile_value(ast.Star(), SCOPE)
        with pytest.raises(PlanError):
            fn(ROWS[0])


class TestCrowdHybrid:
    """CROWDEQUAL compiles to a hybrid that routes through the context."""

    class _RecordingContext:
        def __init__(self):
            self.calls = []

        def crowd_equal(self, left, right, question):
            self.calls.append((left, right, question))
            return str(left).lower() == str(right).lower()

        def scalar_subquery(self, query, values, scope):
            raise AssertionError("not used")

        def subquery_values(self, query, values, scope):
            raise AssertionError("not used")

    def test_same_verdicts_and_same_crowd_calls(self):
        fragment = "CROWDEQUAL(s, 'ABC')"
        expr = expr_of(fragment)
        rows = [("abc",), ("x",), ("ABC",), (NULL,), (CNULL,)]
        scope = Scope([("t", "s")])

        interpreted_context = self._RecordingContext()
        interpreted = Evaluator(context=interpreted_context)
        expected = [interpreted.predicate(expr, row, scope) for row in rows]

        compiled_context = self._RecordingContext()
        fn = compile_predicate(expr, scope, context=compiled_context)
        actual = [fn(row) for row in rows]

        assert actual == expected
        # identical call sequence: the exact-equality fast path and the
        # missing-operand short cut must both survive compilation
        assert compiled_context.calls == interpreted_context.calls
        assert compiled_context.calls == [("abc", "ABC", None), ("x", "ABC", None)]

    def test_is_electronic_classification(self):
        assert is_electronic(expr_of("a = 1 AND s LIKE 'x%'"))
        assert not is_electronic(expr_of("CROWDEQUAL(s, 'IBM')"))
        assert not is_electronic(
            expr_of("a = 1 AND CROWDEQUAL(s, 'IBM')")
        )

    def test_join_with_crowd_condition_blocks_eager_chunking(self):
        # a join whose condition asks the crowd per emitted row must not
        # be buffered ahead of its consumer (stop-after cost guarantee)
        from repro.engine.context import ExecutionContext
        from repro.engine.joins import HashJoinOp, NestedLoopJoinOp
        from repro.engine.scans import SingleRowOp
        from repro.storage.engine import StorageEngine

        context = ExecutionContext(StorageEngine())
        left, right = SingleRowOp(context), SingleRowOp(context)
        crowd_condition = expr_of("CROWDEQUAL('a', 'b')")
        electronic_condition = expr_of("1 = 1")
        assert NestedLoopJoinOp(
            context, left, right, condition=crowd_condition
        ).sources_crowd_on_pull()
        assert not NestedLoopJoinOp(
            context, left, right, condition=electronic_condition
        ).sources_crowd_on_pull()
        assert HashJoinOp(
            context, left, right, (), (), condition=crowd_condition
        ).sources_crowd_on_pull()


class TestCorrelatedReferences:
    def test_layered_scope_resolution_matches(self):
        inner = Scope([("i", "x")])
        outer = Scope([("o", "y")])
        layered = LayeredScope(inner, outer)
        expr = expr_of("x + y")
        interpreted = Evaluator()
        fn = compile_value(expr, layered)
        for row in [(3, 4), (10, -2)]:
            assert fn(row) == interpreted.value(expr, row, layered)

    def test_inner_shadows_outer(self):
        inner = Scope([("i", "x")])
        outer = Scope([("o", "x")])
        layered = LayeredScope(inner, outer)
        expr = expr_of("x")
        fn = compile_value(expr, layered)
        assert fn((1, 2)) == 1


class TestLikeCache:
    def test_patterns_cached_at_module_level(self):
        first = cached_like_regex("co%mp_le")
        again = cached_like_regex("co%mp_le")
        assert first is again

    def test_constant_pattern_precompiled_once(self):
        # a fresh pattern lands in the module cache after compilation,
        # before any row is evaluated
        pattern = "precompile-%-marker"
        expr = expr_of(f"s LIKE '{pattern}'")
        compile_predicate(expr, SCOPE)
        from repro.plan.expressions import _LIKE_CACHE

        assert pattern in _LIKE_CACHE


class TestEndToEndEquivalence:
    """Full statements return identical ResultSets on the default path
    and on the interpreter."""

    SCRIPT = """
        CREATE TABLE emp (
            id INTEGER PRIMARY KEY,
            name STRING,
            dept STRING,
            salary FLOAT
        );
        CREATE TABLE dept (name STRING PRIMARY KEY, region STRING);
        INSERT INTO dept VALUES ('eng', 'west'), ('ops', 'east'),
            ('sales', 'west');
        INSERT INTO emp VALUES
            (1, 'ada', 'eng', 120.0), (2, 'bob', 'ops', 80.0),
            (3, 'cyd', 'eng', 95.5), (4, 'dee', 'sales', 70.0),
            (5, 'eli', 'ops', NULL), (6, 'fay', 'sales', 88.25);
    """

    QUERIES = [
        "SELECT name FROM emp WHERE salary > 75 AND dept LIKE '%s'",
        "SELECT e.name, d.region FROM emp e JOIN dept d ON e.dept = d.name "
        "WHERE d.region = 'west' ORDER BY e.name",
        "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept "
        "ORDER BY SUM(salary) DESC",
        "SELECT name, CASE WHEN salary >= 90 THEN 'high' ELSE 'low' END "
        "FROM emp ORDER BY salary DESC, name",
        "SELECT DISTINCT dept FROM emp WHERE salary IS NOT NULL",
        "SELECT name FROM emp WHERE dept IN "
        "(SELECT name FROM dept WHERE region = 'east')",
        "SELECT name FROM emp e WHERE EXISTS "
        "(SELECT 1 FROM dept d WHERE d.name = e.dept AND d.region = 'west')",
        "SELECT name, salary FROM emp ORDER BY salary LIMIT 3",
        "SELECT UPPER(name) || '-' || dept FROM emp WHERE id % 2 = 0",
    ]

    def _run_all(self):
        db = connect(with_crowd=False)
        db.executescript(self.SCRIPT)
        return [
            (result.columns, result.rows)
            for result in (db.execute(q) for q in self.QUERIES)
        ]

    def test_compiled_matches_interpreted(self, interpreted):
        compiled = self._run_all()
        with interpreted():
            assert compiled == self._run_all()

    def test_order_book_pipeline_matches_interpreted(
        self, order_book, interpreted, row_engine
    ):
        """5,000 rows through every electronic operator at once, on the
        default path (compiled, and vectorized where the binder allows)
        and on the compiled row closures alone, against the interpreter.
        ``repr`` equality catches type drift (1 vs 1.0 vs True) that
        plain ``==`` would wave through."""
        load, query = order_book
        runs = []
        for engine in (interpreted, row_engine, contextlib.nullcontext):
            with engine():
                db = connect(with_crowd=False)
                load(db)
                runs.append((db.execute(query), db.explain(query)))
        (reference, reference_plan), *compiled_runs = runs
        assert len(reference.rows) == 5  # one group per region
        assert "execution: vectorized" not in reference_plan
        for compiled, _plan in compiled_runs:
            assert compiled.columns == reference.columns
            assert compiled.rows == reference.rows
            assert repr(compiled.rows) == repr(reference.rows)
        assert "execution: vectorized" in compiled_runs[-1][1]
