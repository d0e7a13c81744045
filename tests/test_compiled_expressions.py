"""Compiled expressions against what the AST interpreter returned.

``tests/golden/expr_v1.jsonl`` records the interpreter's output on the
corpus below (and its NaN rows): the value or 3VL verdict, or the error
type and message, per row.  It also records the CROWDEQUAL call sequence
of a recording context, and the rows and crowd counters of every
whole-statement comparison that ran under the interpreter (here, in
``tests/test_cost_optimizer.py``, ``tests/test_adaptive_quality.py`` and
``tests/test_vectorized.py``).  Every expression runs through the
plan-time compiler and must match: value identity for the NULL/CNULL
singletons, ``repr`` for everything else (1 vs 1.0 vs True).
``python tests/test_compiled_expressions.py`` rewrites the golden --
only at the parent of a change meant to alter expression results.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

from repro import connect
from repro.errors import ExecutionError, PlanError, TypeError_
from repro.plan.compiled import (
    _LIKE_CACHE,
    cached_like_regex,
    compile_predicate,
    compile_value,
    is_electronic,
)
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


def outcome(fn) -> list:
    """``fn()``'s value as ``["ok", type, repr]``, or the error it raised
    as ``["error", type, message]``."""
    try:
        value = fn()
    except (ExecutionError, PlanError, TypeError_) as error:
        return ["error", type(error).__name__, str(error)]
    return ["ok", type(value).__name__, repr(value)]


def check_outcomes(fn, rows, expected, label) -> None:
    assert len(expected) == len(rows)
    for row, want in zip(rows, expected):
        assert outcome(lambda: fn(row)) == want, f"{label!r} over {row!r}"
        if want[0] == "ok" and want[2] in ("NULL", "CNULL"):
            # the missing-value singletons must survive by identity
            assert fn(row) is (NULL if want[2] == "NULL" else CNULL)


class TestDifferentialCorpus:
    @pytest.mark.parametrize("fragment,parameters", CORPUS)
    def test_values_identical(self, fragment, parameters, expr_golden):
        fn = compile_value(expr_of(fragment), SCOPE, parameters=parameters)
        expected = expr_golden[f"value {fragment} {parameters!r}"]
        check_outcomes(fn, ROWS, expected["outcomes"], fragment)

    @pytest.mark.parametrize("fragment,parameters", CORPUS)
    def test_verdicts_identical(self, fragment, parameters, expr_golden):
        fn = compile_predicate(
            expr_of(fragment), SCOPE, parameters=parameters
        )
        expected = expr_golden[f"tri {fragment} {parameters!r}"]
        check_outcomes(fn, ROWS, expected["outcomes"], fragment)

    @pytest.mark.parametrize(
        "fragment,parameters", [entry for entry in CORPUS if entry[1]]
    )
    def test_parameters_read_from_the_row_identical(
        self, fragment, parameters, expr_golden
    ):
        # a prepared plan compiles ``?`` as a read of the parameters each
        # execution appends to the row (None appended as NULL)
        appended = tuple(NULL if p is None else p for p in parameters)
        for compile, kind in ((compile_value, "value"),
                              (compile_predicate, "tri")):
            fn = compile(expr_of(fragment), SCOPE, parameters=None)
            expected = expr_golden[f"{kind} {fragment} {parameters!r}"]
            check_outcomes(
                lambda row: fn(row + appended), ROWS,
                expected["outcomes"], fragment,
            )


#: fragments whose ``?`` a prepared plan reads from the row, checked
#: against the closure that folds the same values in (every combination
#: of ``PARAMETER_VALUES``)
PARAMETER_FRAGMENTS = [
    "a = ?", "? = a", "a < ?", "s LIKE ?", "? LIKE s", "a IN (?, ?)",
    "? IN (a, b)", "a BETWEEN ? AND ?", "? BETWEEN a AND b", "a + ?",
    "? / a", "a / ?", "s || ?", "-?", "NOT ?", "? AND flag", "? IS NULL",
    "? IS CNULL", "CASE WHEN ? THEN a ELSE b END",
    "CASE a WHEN ? THEN 'hit' END", "COALESCE(?, a)", "NULLIF(a, ?)",
    "LOWER(?)", "ABS(?)", "SUBSTR(s, ?)", "(? + ?) * a",
]
PARAMETER_VALUES = [1, 2.5, float("nan"), "a%", None, True]


def any_outcome(fn) -> list:
    """:func:`outcome`, for any exception (a raw ``TypeError`` too)."""
    try:
        value = fn()
    except Exception as error:
        return ["error", type(error).__name__, str(error)]
    return ["ok", type(value).__name__, repr(value)]


@pytest.mark.parametrize("fragment", PARAMETER_FRAGMENTS)
def test_parameters_read_from_the_row_fold_alike(fragment):
    expr = expr_of(fragment)
    for parameters in itertools.product(
        PARAMETER_VALUES, repeat=expr.facts.parameters
    ):
        appended = tuple(NULL if p is None else p for p in parameters)
        for compile in (compile_value, compile_predicate):
            folded = compile(expr, SCOPE, parameters=parameters)
            read = compile(expr, SCOPE, parameters=None)
            for row in ROWS:
                assert any_outcome(lambda: read(row + appended)) == (
                    any_outcome(lambda: folded(row))
                ), (fragment, parameters, row)


class TestNaNParity:
    """compare_values derives ordering 0 for NaN against anything; the
    compiled native fast paths must reproduce that, not IEEE semantics."""

    NAN = float("nan")
    FRAGMENTS = ["a = ?", "a <> ?", "a < ?", "a <= ?", "a > ?", "a >= ?",
                 "? = 1.5", "a BETWEEN ? AND ?", "? BETWEEN 1 AND 2",
                 "a = b", "a <= b"]
    ROWS = [
        (1.5, 2.5, "x", True),
        (NAN, 2.5, "x", True),
        (NAN, NAN, "x", True),
    ]

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_nan_verdicts_identical(self, fragment, expr_golden):
        fn = compile_predicate(
            expr_of(fragment), SCOPE, parameters=(self.NAN, self.NAN)
        )
        expected = expr_golden[f"nan {fragment}"]
        check_outcomes(fn, self.ROWS, expected["outcomes"], fragment)
        appended = compile_predicate(expr_of(fragment), SCOPE, parameters=None)
        check_outcomes(
            lambda row: appended(row + (self.NAN, self.NAN)), self.ROWS,
            expected["outcomes"], fragment,
        )

    @classmethod
    def sort_rows(cls) -> str:
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT)")
        for i, x in enumerate([2.5, cls.NAN, 1.5, cls.NAN, 3.5]):
            db.engine.insert("t", [i, x])
        return repr(db.execute("SELECT i FROM t ORDER BY x").rows)

    def test_nan_sort_matches_interpreted(self, expr_golden):
        assert self.sort_rows() == expr_golden["statement nan_sort"]["result"]


class TestErrorParity:
    """Compilation never raises: an error surfaces when a row is
    evaluated, with the type and message the interpreter raised."""

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
        with pytest.raises(PlanError, match="'\\*' cannot be evaluated"):
            fn(ROWS[0])

    def test_unknown_operator_raises_at_evaluation(self):
        # missing operands still yield NULL before the operator is looked at
        expr = ast.BinaryOp("^", expr_of("a"), expr_of("b"))
        fn = compile_value(expr, SCOPE)
        assert fn(ROWS[2]) is NULL
        with pytest.raises(PlanError, match="unknown binary operator '\\^'"):
            fn(ROWS[0])
        with pytest.raises(PlanError, match="unknown binary operator"):
            compile_predicate(expr, SCOPE)(ROWS[0])

    def test_subquery_without_executor_raises_at_evaluation(self):
        stmt = Parser("SELECT (SELECT 1)").parse_statement()
        fn = compile_value(stmt.items[0].expression, SCOPE)
        with pytest.raises(ExecutionError, match="without an executor"):
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

    ROWS = [("abc",), ("x",), ("ABC",), (NULL,), (CNULL,)]

    def test_same_verdicts_and_same_crowd_calls(self, expr_golden):
        expr = expr_of("CROWDEQUAL(s, 'ABC')")
        context = self._RecordingContext()
        fn = compile_predicate(expr, Scope([("t", "s")]), context=context)
        verdicts = [repr(fn(row)) for row in self.ROWS]
        # identical call sequence: the exact-equality fast path and the
        # missing-operand short cut must both survive compilation
        expected = expr_golden["crowd_equal"]
        assert verdicts == expected["verdicts"]
        assert [list(call) for call in context.calls] == expected["calls"]
        assert context.calls == [("abc", "ABC", None), ("x", "ABC", None)]

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
        from repro.engine.scans import SingleRowOp
        from repro.exec.vectorized import RowsToBatchOp, VectorHashJoinOp
        from repro.storage.engine import StorageEngine

        context = ExecutionContext(StorageEngine())
        left, right = (
            RowsToBatchOp(context, SingleRowOp(context)) for _ in range(2)
        )
        crowd_condition = expr_of("CROWDEQUAL('a', 'b')")
        electronic_condition = expr_of("1 = 1")
        key = (expr_of("1"),)
        assert VectorHashJoinOp(
            context, left, right, (), (), condition=crowd_condition
        ).sources_crowd_on_pull()
        assert not VectorHashJoinOp(
            context, left, right, (), (), condition=electronic_condition
        ).sources_crowd_on_pull()
        assert VectorHashJoinOp(
            context, left, right, key, key, condition=crowd_condition
        ).sources_crowd_on_pull()

    def test_transitions_relay_sources_crowd_on_pull(self):
        # a row operator that sources crowd work on pull stays visible
        # through a round trip to batches and back
        from repro.engine.context import ExecutionContext
        from repro.engine.scans import SingleRowOp
        from repro.exec.vectorized import BatchToRowsOp, RowsToBatchOp
        from repro.storage.engine import StorageEngine

        class Sourcing(SingleRowOp):
            def sources_crowd_on_pull(self) -> bool:
                return True

        context = ExecutionContext(StorageEngine())
        for rows, sources in ((Sourcing(context), True),
                              (SingleRowOp(context), False)):
            pair = BatchToRowsOp(context, RowsToBatchOp(context, rows))
            assert pair.sources_crowd_on_pull() is sources


class TestCorrelatedReferences:
    LAYERED = LayeredScope(Scope([("i", "x")]), Scope([("o", "y")]))
    LAYERED_ROWS = [(3, 4), (10, -2)]

    def test_layered_scope_resolution_matches(self, expr_golden):
        fn = compile_value(expr_of("x + y"), self.LAYERED)
        expected = expr_golden["layered x + y"]["outcomes"]
        check_outcomes(fn, self.LAYERED_ROWS, expected, "x + y")

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
        assert pattern in _LIKE_CACHE


class TestEndToEndEquivalence:
    """Full statements return the ResultSets the interpreter returned, on
    the default path and on the row operators."""

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

    @classmethod
    def run_all(cls) -> str:
        db = connect(with_crowd=False)
        db.executescript(cls.SCRIPT)
        return repr([
            (result.columns, result.rows)
            for result in (db.execute(q) for q in cls.QUERIES)
        ])

    @staticmethod
    def order_book_run(load, query) -> tuple[str, str]:
        """The order book statement's result ``repr`` and its EXPLAIN."""
        db = connect(with_crowd=False)
        load(db)
        result = db.execute(query)
        return repr((result.columns, result.rows)), db.explain(query)

    def test_compiled_matches_interpreted(self, expr_golden, row_engine):
        expected = expr_golden["statement end_to_end"]["result"]
        assert self.run_all() == expected
        with row_engine():
            assert self.run_all() == expected

    def test_order_book_pipeline_matches_interpreted(
        self, order_book, expr_golden, row_engine
    ):
        """5,000 rows through every electronic operator at once, on the
        default path (compiled, and vectorized where the binder allows)
        and on the compiled row closures alone.  ``repr`` equality
        catches type drift (1 vs 1.0 vs True) that plain ``==`` would
        wave through."""
        load, query = order_book
        expected = expr_golden["statement order_book"]["result"]
        with row_engine():
            assert self.order_book_run(load, query)[0] == expected
        result, plan = self.order_book_run(load, query)
        assert result == expected
        assert "execution: vectorized" in plan


# -- the golden writer ------------------------------------------------------------


def _statement_records() -> dict:
    """Whole-statement results, by record name."""
    import test_adaptive_quality
    import test_cost_optimizer
    import test_vectorized
    from conftest import ORDER_BOOK_QUERY, load_order_book

    like = test_vectorized.TestLikeTrailingNewline
    records = {
        "statement nan_sort": TestNaNParity.sort_rows(),
        "statement end_to_end": TestEndToEndEquivalence.run_all(),
        "statement order_book": TestEndToEndEquivalence.order_book_run(
            load_order_book, ORDER_BOOK_QUERY
        )[0],
        "statement crowdequal": test_cost_optimizer.crowdequal_record(),
        "statement adaptive_reissue": (
            test_adaptive_quality.TestCompiledExpressionInterplay().record()
        ),
    }
    for pattern in like.PATTERNS:
        records[f"statement like {pattern!r}"] = like.digest(
            like()._ids(pattern)
        )
    return records


def expr_records() -> list[dict]:
    """Every golden record, in a fixed order.  The committed file was
    written by the AST interpreter; this writes what the compiled
    closures return."""

    def values(expr, rows, scope, parameters=()):
        fn = compile_value(expr, scope, parameters=parameters)
        return [outcome(lambda: fn(row)) for row in rows]

    def verdicts(expr, rows, scope, parameters=()):
        fn = compile_predicate(expr, scope, parameters=parameters)
        return [outcome(lambda: fn(row)) for row in rows]

    records = []
    for fragment, parameters in CORPUS:
        expr = expr_of(fragment)
        records.append({
            "name": f"value {fragment} {parameters!r}",
            "outcomes": values(expr, ROWS, SCOPE, parameters),
        })
        records.append({
            "name": f"tri {fragment} {parameters!r}",
            "outcomes": verdicts(expr, ROWS, SCOPE, parameters),
        })
    nan = TestNaNParity
    for fragment in nan.FRAGMENTS:
        records.append({
            "name": f"nan {fragment}",
            "outcomes": verdicts(
                expr_of(fragment), nan.ROWS, SCOPE, (nan.NAN, nan.NAN)
            ),
        })
    records.append({
        "name": "layered x + y",
        "outcomes": values(
            expr_of("x + y"),
            TestCorrelatedReferences.LAYERED_ROWS,
            TestCorrelatedReferences.LAYERED,
        ),
    })
    context = TestCrowdHybrid._RecordingContext()
    fn = compile_predicate(
        expr_of("CROWDEQUAL(s, 'ABC')"), Scope([("t", "s")]), context
    )
    records.append({
        "name": "crowd_equal",
        "verdicts": [repr(fn(row)) for row in TestCrowdHybrid.ROWS],
        "calls": [list(call) for call in context.calls],
    })
    for name, result in _statement_records().items():
        records.append({"name": name, "result": result})
    return records


if __name__ == "__main__":
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    with open(Path(__file__).parent / "golden" / "expr_v1.jsonl", "w",
              encoding="utf-8") as handle:
        for record in expr_records():
            handle.write(json.dumps(record) + "\n")
