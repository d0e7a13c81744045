"""Differential tests: columnar vectorized execution vs the row engine.

Every statement of the corpus runs on the default path and inside the
``row_engine`` seam (row operators, compiled closures — see
``tests/conftest.py``) over identical data, and the ResultSets must be
``repr``-identical: value *types* matter (1 vs 1.0 vs True, leaked
ndarray scalars), not just equality.  Crowd-touching plans must issue
the exact same HIT sequence, because vector regions are pure-electronic
by construction and the batch→row cap must leave crowd batching windows
untouched.  Joins, DISTINCT, set operations and derived tables have no
row operator (the seam runs them on the batch operators over row input),
so each such statement is also compared with what the row operators
returned: ``tests/golden/rowjoin_v1.jsonl`` and ``rowset_v1.jsonl`` (the
``row_joins`` and ``row_sets`` fixtures).

``exec/kernels.py`` and ``exec/vectorized.py`` take ndarray lanes when
``numpy`` imports and list lanes when it does not.  With numpy present,
``TestDifferentialStatementsWithoutNumpy`` repeats the differential
suite with the import undone, so both sides meet the row engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from repro import connect
from repro.crowd.model import reset_id_counters
from repro.crowd.sim.traces import GroundTruthOracle
from repro.exec import kernels, sort, vector, vectorized as vectorized_ops
from repro.exec.vector import ColumnBatch
from repro.exec.vectorized import (
    _pivot_columns,
    referenced_positions,
)
from repro.sql.parser import Parser
from repro.sqltypes import NULL
from repro.storage.row import Scope


def expr_of(sql_fragment):
    stmt = Parser(f"SELECT {sql_fragment}").parse_statement()
    return stmt.items[0].expression


SCRIPT = """
    CREATE TABLE emp (
        id INTEGER PRIMARY KEY,
        name STRING,
        dept STRING,
        salary FLOAT,
        bonus FLOAT,
        level INTEGER
    );
    CREATE TABLE dept (name STRING PRIMARY KEY, region STRING, floor INTEGER);
    INSERT INTO dept VALUES ('eng', 'west', 3), ('ops', 'east', 1),
        ('sales', 'west', 2), ('legal', 'north', NULL);
    INSERT INTO emp VALUES
        (1, 'ada', 'eng', 120.0, 10.0, 3),
        (2, 'bob', 'ops', 80.0, NULL, 1),
        (3, 'cyd', 'eng', 95.5, 2.5, 2),
        (4, 'dee', 'sales', 70.0, 0.0, 1),
        (5, 'eli', 'ops', NULL, 1.0, 2),
        (6, 'fay', 'sales', 88.25, NULL, NULL),
        (7, 'gus', 'ghost', 55.0, 3.0, 1),
        (8, 'hal', NULL, 60.0, 4.0, 2);
"""

#: Statements chosen to drive every vectorized operator and its unclean
#: fallbacks: tagged/untagged filters, prefix/contains/exact LIKE,
#: BETWEEN/IN/arith conjuncts, inner/LEFT/multi-key/residual joins,
#: duplicate build keys, global and grouped aggregates over NULLs,
#: DISTINCT aggregates, NULL group keys, and pruning-heavy projections.
QUERIES = [
    "SELECT * FROM emp",
    "SELECT name FROM emp WHERE salary > 75",
    "SELECT name FROM emp WHERE salary BETWEEN 60 AND 100",
    "SELECT name FROM emp WHERE dept LIKE 'e%'",
    "SELECT name FROM emp WHERE dept LIKE '%al%'",
    "SELECT name FROM emp WHERE dept LIKE 'ops'",
    "SELECT name FROM emp WHERE dept LIKE '%s'",
    "SELECT name FROM emp WHERE dept IN ('eng', 'sales')",
    "SELECT name FROM emp WHERE salary * 1.1 < 100 AND level >= 1",
    "SELECT name FROM emp WHERE NOT salary > 80",
    "SELECT name FROM emp WHERE salary IS NULL OR bonus IS NULL",
    "SELECT name, salary + bonus FROM emp",
    "SELECT name, salary * 2, -salary, salary / 3 FROM emp",
    "SELECT e.name, d.region FROM emp e JOIN dept d ON e.dept = d.name",
    "SELECT e.name, d.region FROM emp e LEFT JOIN dept d ON e.dept = d.name",
    "SELECT e.name, d.region FROM emp e JOIN dept d ON e.dept = d.name "
    "AND e.level > d.floor",
    "SELECT e.name, d.name FROM emp e JOIN dept d "
    "ON e.dept = d.name AND e.level = d.floor",
    "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name "
    "WHERE d.region = 'west' AND e.salary > 70",
    "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) "
    "FROM emp",
    "SELECT COUNT(salary), COUNT(bonus) FROM emp",
    "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept",
    "SELECT dept, AVG(salary * (1 + level * 0.1)) FROM emp GROUP BY dept",
    "SELECT dept, COUNT(DISTINCT level) FROM emp GROUP BY dept",
    "SELECT level, COUNT(*) FROM emp GROUP BY level",
    "SELECT d.region, COUNT(*), SUM(e.salary) FROM emp e "
    "JOIN dept d ON e.dept = d.name GROUP BY d.region "
    "ORDER BY SUM(e.salary) DESC",
    "SELECT d.region, MAX(e.salary - e.level * 2.5) FROM emp e "
    "JOIN dept d ON e.dept = d.name "
    "WHERE e.salary BETWEEN 20 AND 450 AND e.dept LIKE '%s' "
    "GROUP BY d.region",
    "SELECT name, salary FROM emp ORDER BY salary LIMIT 3",
    "SELECT DISTINCT dept FROM emp WHERE salary IS NOT NULL",
    "SELECT name FROM emp WHERE dept IN "
    "(SELECT name FROM dept WHERE region = 'west')",
]

#: Statements over :data:`SCRIPT` outside the lanes golden's corpus:
#: derived tables whose consumer reads one of the columns the DISTINCT
#: compares, and the value kernels no other statement reaches.
DERIVED_QUERIES = [
    "SELECT d.dept FROM (SELECT DISTINCT dept, level FROM emp) d",
    "SELECT d.level FROM (SELECT DISTINCT dept, level FROM emp "
    "WHERE salary > 60) d WHERE d.level > 1",
    # division by a column, by a constant on either side, and by zero
    "SELECT name, salary / level, 100 / level, level / 0, id / 2, "
    "salary / 2.5 FROM emp",
    # a float column over an int constant and over a float one
    "SELECT id, id * 1.5 / 2, id / 2.5 FROM emp",
    # NOT as a value, over a clean and a nullable comparison
    "SELECT name, NOT id > 3, NOT salary > 80 FROM emp",
    # unary sign and concatenation over typed and nullable columns
    "SELECT -id, +level, -bonus, name || name, name || id FROM emp",
]


#: Statements over the 5,000-row order book (``conftest.load_order_book``),
#: large enough for every per-version lane: ndarray lanes of the numeric
#: columns, the dictionary lane of ``status`` (five distinct values) under
#: LIKE / comparison / IN, unfiltered build keys (unique and duplicate),
#: and index gathers of numeric and string columns.
ORDER_BOOK_QUERIES = [
    "SELECT id FROM orders WHERE status LIKE 'ship%'",
    "SELECT id FROM orders WHERE status LIKE '%ing'",
    "SELECT id FROM orders WHERE status LIKE 'pending'",
    "SELECT id FROM orders WHERE status LIKE '%ance%'",
    "SELECT id FROM orders WHERE status LIKE 'sh_pped'",
    "SELECT id FROM orders WHERE NOT status LIKE '%e_'",
    "SELECT id, status FROM orders WHERE status = 'pending' AND priority > 2",
    "SELECT COUNT(*) FROM orders WHERE status <> 'returned'",
    "SELECT COUNT(*) FROM orders WHERE 'p' > status",
    "SELECT id FROM orders WHERE status IN ('pending', 'returned') "
    "AND amount < 60",
    "SELECT COUNT(*) FROM orders WHERE status NOT IN ('shipped')",
    "SELECT COUNT(*) FROM orders WHERE status IN ('shipped', NULL)",
    "SELECT COUNT(*) FROM orders WHERE status NOT IN ('shipped', NULL)",
    "SELECT id, amount, status FROM orders WHERE amount > 250.5 "
    "AND status LIKE '%d'",
    "SELECT id, customer_id, amount, status, priority FROM orders "
    "WHERE amount > 480",
    "SELECT priority, COUNT(*), SUM(amount) FROM orders "
    "WHERE priority IN (1, 3) GROUP BY priority",
    "SELECT status, COUNT(*), MIN(amount) FROM orders GROUP BY status",
    "SELECT c.id, COUNT(o.id), SUM(o.amount) FROM customers c "
    "LEFT JOIN orders o ON o.customer_id = c.id "
    "WHERE c.region = 'east' GROUP BY c.id ORDER BY c.id",
    "SELECT c.region, COUNT(*), MAX(o.amount) FROM orders o "
    "JOIN customers c ON o.customer_id = c.id "
    "WHERE o.status LIKE 'ship%' GROUP BY c.region",
    "SELECT COUNT(*), SUM(b.amount) FROM orders a "
    "JOIN orders b ON a.id = b.id WHERE a.priority = 2",
    "SELECT COUNT(*) FROM orders a JOIN orders b ON a.amount = b.amount",
    "SELECT COUNT(*) FROM orders a JOIN orders b "
    "ON a.customer_id = b.customer_id WHERE a.id < 40",
]


EMPTY_SCRIPT = """
    CREATE TABLE a (x INTEGER PRIMARY KEY);
    CREATE TABLE b (y INTEGER PRIMARY KEY);
"""

EMPTY_QUERIES = [
    "SELECT * FROM a",
    "SELECT * FROM a JOIN b ON a.x = b.y",
    "SELECT COUNT(*), SUM(x) FROM a",
    "SELECT x, COUNT(*) FROM a GROUP BY x",
]


def assert_frozen(frozen: dict, queries: list, results: list) -> None:
    """``results`` (one per statement of ``queries``) equal what the row
    operators returned for each statement ``frozen`` holds (sql -> the
    ``repr`` the golden holds)."""
    assert frozen and set(frozen) <= set(queries)
    for query, got in zip(queries, results):
        if query in frozen:
            assert repr(got) == frozen[query], query


def run_all(script=SCRIPT, queries=QUERIES):
    db = connect(with_crowd=False)
    db.executescript(script)
    return [
        (result.columns, result.rows)
        for result in (db.execute(q) for q in queries)
    ]


def run_order_book(load, queries=ORDER_BOOK_QUERIES):
    db = connect(with_crowd=False)
    load(db)
    return [
        (result.columns, result.rows)
        for result in (db.execute(q) for q in queries)
    ]


class TestDifferentialStatements:
    def test_vectorized_matches_row_engine(
        self, row_engine, row_joins, row_sets
    ):
        queries = QUERIES + DERIVED_QUERIES
        vector = run_all(queries=queries)
        assert_frozen(row_joins["QUERIES"], queries, vector)
        assert_frozen(row_sets["QUERIES"], queries, vector)
        with row_engine():
            row = run_all(queries=queries)
        for query, got, want in zip(queries, vector, row):
            assert got == want, query
            assert repr(got) == repr(want), query

    def test_order_book_statements_match_row_engine(
        self, order_book, row_engine, row_joins
    ):
        load, _query = order_book
        vector = run_order_book(load)
        assert_frozen(
            row_joins["ORDER_BOOK_QUERIES"], ORDER_BOOK_QUERIES, vector
        )
        with row_engine():
            row = run_order_book(load)
        for query, got, want in zip(ORDER_BOOK_QUERIES, vector, row):
            assert repr(got) == repr(want), query

    def test_order_book_pipeline_matches_row_engine(
        self, order_book, row_engine, row_joins
    ):
        """5,000 rows through scan, filter, hash join, aggregate and sort
        at once.  ``repr`` equality catches type drift (1 vs 1.0 vs True,
        leaked ndarray scalars) that plain ``==`` would wave through."""
        load, query = order_book
        runs = []
        for engine in (contextlib.nullcontext, row_engine):
            with engine():
                db = connect(with_crowd=False)
                load(db)
                runs.append((db.execute(query), db.explain(query)))
        (vector, vector_plan), (row, row_plan) = runs
        assert len(vector.rows) == 5  # one group per region
        assert_frozen(
            row_joins["pipeline"], [query], [(vector.columns, vector.rows)]
        )
        assert vector.columns == row.columns
        assert vector.rows == row.rows
        assert repr(vector.rows) == repr(row.rows)
        assert "execution: vectorized" in vector_plan
        assert "execution: vectorized" not in row_plan
        # warm, every kernel takes its ndarray lane: the list lanes it
        # never runs are never compiled
        evals = []

        def counting_eval(*args):
            evals.append(args[0])
            return eval(*args)

        db = connect(with_crowd=False)
        load(db)
        db.execute(query)
        with mock.patch.object(kernels, "eval", counting_eval, create=True):
            assert repr(db.execute(query).rows) == repr(vector.rows)
        if kernels._np is not None:
            assert evals == []

    def test_nan_parity(self, row_engine, row_sets):
        # NaN breaks min/max and comparison fast paths unless the
        # kernels reproduce compare_values semantics exactly
        script = """
            CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT);
        """
        queries = [
            "SELECT i FROM t WHERE x > 2",
            "SELECT i FROM t WHERE x BETWEEN 1 AND 3",
            "SELECT MIN(x), MAX(x), SUM(x), COUNT(x) FROM t",
            "SELECT i FROM t ORDER BY x",
            # float overflow and inf - inf: inf and nan, never a warning
            # (an error under -W error), as Python's floats give them
            "SELECT i, x * 1e308 * 10, x * 1e308 - x * 1e308, "
            "x / 1e-308 FROM t",
            "SELECT i, SUM(x * 1e308 * 10), "
            "MAX(x * 1e308 - x * 1e308) FROM t GROUP BY i",
            "SELECT SUM(x * 1e308 * 10), MIN(x / 1e-308) FROM t",
            # NaN equals only itself: the two NaNs inserted stay two rows
            "SELECT DISTINCT x FROM t",
        ]

        def run():
            db = connect(with_crowd=False)
            db.executescript(script)
            for i, x in enumerate([2.5, float("nan"), 1.5, float("nan")]):
                db.engine.insert("t", [i, x])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return [db.execute(q).rows for q in queries]

        vector = run()
        assert_frozen(row_sets["nan"], queries, vector)
        with row_engine():
            assert repr(vector) == repr(run())

    def test_empty_tables(self, row_engine, row_joins):
        vector = run_all(EMPTY_SCRIPT, EMPTY_QUERIES)
        assert_frozen(row_joins["empty"], EMPTY_QUERIES, vector)
        with row_engine():
            assert vector == run_all(EMPTY_SCRIPT, EMPTY_QUERIES)

    def test_result_value_types_are_plain_python(self):
        # ndarray lanes must never leak np scalars into results
        db = connect(with_crowd=False)
        db.executescript(SCRIPT)
        rows = db.execute(
            "SELECT dept, SUM(salary), AVG(salary * 1.1) FROM emp "
            "WHERE salary > 10 GROUP BY dept"
        ).rows
        for row in rows:
            for value in row:
                assert value is NULL or type(value) in (
                    str, int, float
                ), repr(value)


class TestDifferentialStatementsWithoutNumpy(TestDifferentialStatements):
    """The suite above over the list lanes, as on a box without numpy."""

    @pytest.fixture(autouse=True)
    def _list_lanes(self, monkeypatch):
        if kernels._np is None:
            pytest.skip("numpy is not installed: the suite above ran these")
        monkeypatch.setattr(kernels, "_np", None)
        monkeypatch.setattr(vectorized_ops, "_np", None)
        monkeypatch.setattr(vector, "_np", None)
        monkeypatch.setattr(sort, "_np", None)


class TestMultiBatchScans(TestDifferentialStatements):
    """The suite above with scans cut into 300-row batches: the slicing
    path of ``VectorScanOp`` (lanes sliced with their batch) and the
    multi-batch join build, which no table in the suite is large enough
    to reach at the real ``VECTOR_ROWS``."""

    @pytest.fixture(autouse=True)
    def _small_batches(self, monkeypatch):
        monkeypatch.setattr(vectorized_ops, "VECTOR_ROWS", 300)

    def test_scans_yield_several_batches(self, order_book):
        load, _query = order_book
        db = connect(with_crowd=False)
        load(db)
        scan = vectorized_ops.VectorScanOp(
            db.executor._make_context(()),
            db.catalog.table("orders"),
            "o",
        )
        batches = list(scan)
        assert [batch.num_rows for batch in batches] == [300] * 16 + [200]
        status = batches[1].columns[3]
        if vector._np is not None:
            codes, values = batches[1].lanes.dictionary(status)
            assert [values[code] for code in codes.tolist()] == status
            amount = batches[1].columns[2]
            assert batches[1].lanes.array(amount).tolist() == amount


class TestLikeTrailingNewline:
    """A LIKE pattern matches the whole string: ``'abc\\n' LIKE 'abc'``
    is false, as in sqlite3 (a regex ``$`` would match before the final
    newline).  Checked on the default path -- with the ``status``-style
    dictionary lane, since 5,000 rows hold five distinct values -- and on
    the row engine; sqlite3's ids must also be what the AST interpreter
    matched (their digest in ``expr_v1``)."""

    VALUES = ["abc", "abc\n", "xyz\n", "ab\nc", "a\nc"]
    PATTERNS = ["abc", "%c", "a_c", "ab%", "%b%", "%", "a%c", "%\n"]

    def _ids(self, pattern):
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s STRING)")
        for i in range(5000):
            db.engine.insert("t", [i, self.VALUES[i % len(self.VALUES)]])
        rows = db.query(
            "SELECT id FROM t WHERE s LIKE ? ORDER BY id", (pattern,)
        )
        return [row[0] for row in rows]

    @staticmethod
    def digest(ids) -> str:
        return hashlib.sha256(repr(ids).encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_sqlite(self, pattern, row_engine, expr_golden):
        import sqlite3

        twin = sqlite3.connect(":memory:")
        twin.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        twin.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, self.VALUES[i % len(self.VALUES)]) for i in range(5000)],
        )
        expected = [
            row[0]
            for row in twin.execute(
                "SELECT id FROM t WHERE s LIKE ? ORDER BY id", (pattern,)
            )
        ]
        twin.close()
        assert self._ids(pattern) == expected
        with row_engine():
            assert self._ids(pattern) == expected
        # what the AST interpreter matched
        assert self.digest(expected) == expr_golden[
            f"statement like {pattern!r}"
        ]["result"]


class TestCrowdParity:
    """Vector regions stop at the crowd boundary: crowd plans must make
    bit-identical progress (same rows, same HITs) under both engines."""

    def _run(self):
        reset_id_counters()
        oracle = GroundTruthOracle()
        for i in range(8):
            oracle.load_fill(
                "City", (f"city{i}",), {"population": 1000 + i}
            )
        db = connect(oracle=oracle, seed=11)
        db.execute(
            "CREATE TABLE City (name STRING PRIMARY KEY, "
            "population CROWD INTEGER)"
        )
        for i in range(8):
            db.execute("INSERT INTO City (name) VALUES (?)", (f"city{i}",))
        result = db.execute(
            "SELECT name, population FROM City WHERE population > 1003 "
            "ORDER BY population"
        )
        return result.rows, dict(db.crowd_stats)

    def test_same_rows_and_same_crowd_work(self, row_engine):
        vector_rows, vector_stats = self._run()
        with row_engine():
            row_rows, row_stats = self._run()
        assert repr(vector_rows) == repr(row_rows)
        assert vector_stats["hits_posted"] == row_stats["hits_posted"]
        assert (
            vector_stats["assignments_received"]
            == row_stats["assignments_received"]
        )
        assert vector_stats["cost_cents"] == row_stats["cost_cents"]


class TestScanSnapshotConsistency:
    """``HeapTable.scan_columns`` hands out immutable snapshots keyed by
    table version — writes must never mutate a batch already emitted."""

    def test_handed_out_columns_survive_writes(self):
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY, y STRING)")
        db.engine.insert("t", [1, "a"])
        db.engine.insert("t", [2, "b"])
        heap = db.engine.table("t")
        columns, count = heap.scan_columns()
        snapshot = [list(column) for column in columns]
        assert count == 2
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.execute("UPDATE t SET y = 'z' WHERE x = 1")
        db.execute("DELETE FROM t WHERE x = 2")
        # the lists handed out before the writes are frozen
        assert [list(column) for column in columns] == snapshot
        # and a fresh scan sees the new version, not the stale cache
        fresh, fresh_count = heap.scan_columns()
        assert fresh_count == 2
        assert sorted(fresh[0]) == [1, 3]
        assert "z" in fresh[1] and "b" not in fresh[1]

    def test_cache_reused_between_writes(self):
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        db.engine.insert("t", [1])
        heap = db.engine.table("t")
        first, _ = heap.scan_columns()
        again, _ = heap.scan_columns()
        assert first is again  # read-only scans share the pivot

    def test_query_results_stable_across_interleaved_writes(self, row_engine):
        def run():
            db = connect(with_crowd=False)
            db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY, y FLOAT)")
            out = []
            for i in range(5):
                db.engine.insert("t", [i, float(i) * 1.5])
                out.append(db.execute("SELECT SUM(y) FROM t WHERE x >= 1").rows)
            return out

        vector = run()
        with row_engine():
            assert repr(vector) == repr(run())


    # -- per-version lanes ------------------------------------------------

    LANE_READS = [
        "SELECT COUNT(*), SUM(amount) FROM orders WHERE status LIKE 'ship%'",
        "SELECT id FROM orders WHERE amount > 480",
        "SELECT c.id, COUNT(o.id), SUM(o.amount) FROM customers c "
        "LEFT JOIN orders o ON o.customer_id = c.id "
        "WHERE c.region = 'east' GROUP BY c.id ORDER BY c.id",
    ]
    LANE_WRITES = [
        "UPDATE orders SET status = 'shipwrecked' WHERE id < 300",
        "UPDATE orders SET amount = amount + 250.0 WHERE priority = 0",
        "UPDATE orders SET customer_id = 5 WHERE id >= 4000",
    ]

    def test_lanes_follow_writes(self, order_book, row_engine):
        """After an UPDATE of a string, a float and a join-key column,
        the next LIKE filter, ``>`` filter and join see the new values."""
        load, _query = order_book

        def run():
            db = connect(with_crowd=False)
            load(db)
            out = []
            for write in self.LANE_WRITES + [None]:
                out.append([db.query(sql) for sql in self.LANE_READS])
                if write is not None:
                    db.execute(write)
            return out

        vector = run()
        with row_engine():
            assert repr(vector) == repr(run())
        for before, after, read in zip(vector, vector[1:], range(3)):
            assert before[read] != after[read]  # each write moved a read

    def test_lanes_handed_out_survive_writes(self, order_book):
        load, _query = order_book
        db = connect(with_crowd=False)
        load(db)
        for sql in self.LANE_READS:
            db.query(sql)
        heap = db.engine.table("orders")
        lanes = heap.column_lanes()
        assert "join" in {kind for _ordinal, kind in lanes}
        snapshot = {key: repr(_plain(lane)) for key, lane in lanes.items()}
        for write in self.LANE_WRITES:
            db.execute(write)
        for sql in self.LANE_READS:
            db.query(sql)
        assert heap.column_lanes() is not lanes
        assert set(heap.column_lanes()) == set(lanes)
        assert {key: repr(_plain(lane)) for key, lane in lanes.items()} == (
            snapshot
        )

    def test_lanes_do_not_grow_with_statements(self, order_book):
        """Derived columns (kernel outputs, gathers) carry their typed
        form themselves: the table keeps at most one lane per (column,
        kind)."""
        load, _query = order_book
        db = connect(with_crowd=False)
        load(db)
        sql = (
            "SELECT c.region, COUNT(*), SUM(o.amount * ?) FROM orders o "
            "JOIN customers c ON o.customer_id = c.id "
            "WHERE o.amount * ? < 400 AND o.status LIKE ? "
            "AND o.priority + ? > 1 GROUP BY c.region"
        )
        heap = db.engine.table("orders")
        for i in range(200):
            pattern = "%p%" if i % 2 else "s%"
            db.execute(sql, (i * 0.5, 1 + i / 100, pattern, i % 3))
            if i == 9:
                early = set(heap.column_lanes())
        lanes = heap.column_lanes()
        assert set(lanes) == early
        width = len(heap.schema.columns)
        assert all(
            0 <= ordinal < width and kind in ("array", "dictionary", "join")
            for ordinal, kind in lanes
        )


def _plain(lane):
    """A lane as plain Python values, for comparing snapshots."""
    if isinstance(lane, tuple):
        return tuple(_plain(part) for part in lane)
    if hasattr(lane, "tolist"):
        return lane.tolist()
    return lane


class TestColumnPruning:
    """Runtime liveness propagation: dead columns are never gathered,
    and pruned plans stay byte-identical to unpruned row execution."""

    def test_referenced_positions_walks_expressions(self):
        scope = Scope([("t", "a"), ("t", "b"), ("t", "c")])
        refs = referenced_positions(
            (expr_of("a + 1"), expr_of("c BETWEEN 0 AND b")), scope
        )
        assert refs == frozenset({0, 1, 2})
        assert referenced_positions((expr_of("42"),), scope) == frozenset()

    def test_referenced_positions_poisons_on_unknown_constructs(self):
        # anything the walker cannot see through must force all-live
        scope = Scope([("t", "a")])
        subquery = expr_of("a IN (SELECT 1)")
        assert referenced_positions((subquery,), scope) is None

    def test_pivot_tolerates_pruned_columns(self):
        rows = _pivot_columns([[1, 2], None, ["x", "y"]], 2)
        assert rows == [(1, NULL, "x"), (2, NULL, "y")]
        assert _pivot_columns([], 3) == [(), (), ()]

    def test_pruned_wide_join_aggregate_identical(
        self, row_engine, monkeypatch
    ):
        # only 1 of 9 combined columns survives to the aggregate; the
        # join/filter must prune the rest without changing results
        script = SCRIPT + """
            CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER);
            INSERT INTO t VALUES (1, 1), (2, 2), (3, 1), (4, 3), (5, 2),
                (6, 1), (7, NULL), (8, NULL);
        """
        queries = [
            "SELECT d.region, COUNT(*) FROM emp e "
            "JOIN dept d ON e.dept = d.name "
            "WHERE e.salary > 50 AND e.name LIKE '%a%' GROUP BY d.region",
            "SELECT COUNT(*) FROM emp e LEFT JOIN dept d ON e.dept = d.name",
            "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name "
            "AND e.salary > d.floor * 10",
            # the HAVING, ORDER BY and projection read the Aggregate's
            # output columns by their rendered names, inside the kernels
            "SELECT k + 1, COUNT(*) FROM t GROUP BY k + 1 "
            "HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC",
        ]
        fallbacks = []

        def spy(compile_kernel):
            def compile(expr, *args):
                try:
                    return compile_kernel(expr, *args)
                except kernels.CannotVectorize:
                    fallbacks.append(expr)
                    raise

            return compile

        for name in ("compile_column_kernel", "compile_mask_kernel"):
            monkeypatch.setattr(
                vectorized_ops, name, spy(getattr(vectorized_ops, name))
            )
        vector = run_all(script, queries)
        assert fallbacks == []
        assert vector[-1][1] == [(2, 3), (3, 2), (NULL, 2)]
        with row_engine():
            assert repr(vector) == repr(run_all(script, queries))

    def test_batch_to_rows_sees_full_batches(self):
        # no narrowing consumer → everything live end to end
        db = connect(with_crowd=False)
        db.executescript(SCRIPT)
        rows = db.execute("SELECT * FROM emp WHERE salary > 75").rows
        assert all(len(row) == 6 for row in rows)
        assert all(NULL not in (row[0], row[1]) for row in rows)


class TestExplainAndToggle:
    def test_explain_marks_vector_region(self):
        db = connect(with_crowd=False)
        db.executescript(SCRIPT)
        plan = db.explain(
            "SELECT dept, COUNT(*) FROM emp WHERE salary > 70 GROUP BY dept"
        )
        assert "execution: vectorized" in plan

    def test_vectorized_false_restores_row_engine(self, row_engine):
        # the row_engine seam reaches the row operators the differential
        # tests compare against
        with row_engine():
            db = connect(with_crowd=False)
            db.executescript(SCRIPT)
            plan = db.explain("SELECT name FROM emp WHERE salary > 70")
        assert "execution: vectorized" not in plan
        assert "execution: row" in plan

    def test_explain_analyze_counts_rows_not_batches(self):
        # batch-aware accounting: a vectorized scan over N rows reports
        # N actual rows (so misestimate flags stay meaningful) plus the
        # batch count
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        for i in range(100):
            db.engine.insert("t", [i])
        db.execute("ANALYZE")
        report = db.explain_analyze("SELECT x FROM t WHERE x >= 0")
        scan_line = next(
            line for line in report.splitlines() if "Scan(" in line
        )
        assert "rows ~100/100" in scan_line
        assert "batch(es)" in scan_line
        assert "misestimate" not in scan_line

    def test_explain_analyze_flags_vectorized_misestimates(self):
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        db.engine.insert("t", [0])
        for i in range(1, 400):
            db.engine.insert("t", [i])
        # an arithmetic equality defeats the histograms, so the
        # estimate falls back to a default selectivity guess while the
        # vectorized filter actually passes every row — the batch-aware
        # row accounting must still surface the gap
        report = db.explain_analyze("SELECT x FROM t WHERE x * 0 = 0")
        assert "!! rows misestimate" in report


class TestBatchFormat:
    def test_from_rows_round_trip(self):
        batch = ColumnBatch.from_rows([(1, "a"), (2, "b")], 2)
        assert batch.num_rows == 2
        assert batch.columns == [[1, 2], ["a", "b"]]
        assert batch.rows() == [(1, "a"), (2, "b")]
        assert len(ColumnBatch.from_rows([], 3).columns) == 3

    def test_large_table_spans_multiple_batches(self):
        from repro.exec.vector import VECTOR_ROWS

        assert VECTOR_ROWS >= 4096  # windows stay batch-scale, not row-scale
        db = connect(with_crowd=False)
        db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        for i in range(5000):
            db.engine.insert("t", [i])
        result = db.execute("SELECT COUNT(*), SUM(x) FROM t")
        assert result.rows == [(5000, sum(range(5000)))]


# -- the lanes golden ----------------------------------------------------------
#
# ``tests/golden/lanes_v1.jsonl`` pins the ``repr`` of every result above
# (both corpora, the NaN and empty-table statements) plus the four
# ``olap_scan`` shapes over a few parameter sets on the 5,000-row order
# book.  It was written by the row engine (the reference) before the
# per-version lanes existed; a change to a lane (a dictionary gather, an
# ndarray gather, a cached join build) that alters any result fails it.
# ``python tests/test_vectorized.py`` rewrites it -- only at the parent of
# a change meant to alter results.

LANES_GOLDEN = Path(__file__).parent / "golden" / "lanes_v1.jsonl"

#: Results whose repr is longer than this are pinned by its sha256.
_GOLDEN_INLINE = 2000


def olap_scan_statements() -> list[tuple[str, tuple]]:
    """The four ``olap_scan`` shapes, bound to order-book-sized parameters
    (100 customers of about 50 orders each)."""
    from perf.workloads.olap_scan import (
        AGGREGATE, LEFT_JOIN_HAVING, PROJECTION, TOP_K,
    )

    return [
        (AGGREGATE, (20, 450, 1)),
        (AGGREGATE, (18, 446, 2)),
        (AGGREGATE, (22, 449, 1)),
        (PROJECTION, (195.0,)),
        (PROJECTION, (205.0,)),
        (TOP_K.format(k=10), (0,)),
        (TOP_K.format(k=50), (3,)),
        (LEFT_JOIN_HAVING, ("west", 45)),
        (LEFT_JOIN_HAVING, ("north", 38)),
        (LEFT_JOIN_HAVING, ("central", 50)),
    ]


def _golden_record(sql: str, params: tuple, result) -> dict:
    text = repr((result.columns, result.rows))
    if len(text) > _GOLDEN_INLINE:
        text = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"sql": sql, "params": list(params), "rows": len(result.rows),
            "repr": text}


def lanes_records(load) -> list[dict]:
    """Every golden record, in a fixed order."""
    records = []
    db = connect(with_crowd=False)
    db.executescript(SCRIPT)
    for sql in QUERIES:
        records.append(_golden_record(sql, (), db.execute(sql)))
    db = connect(with_crowd=False)
    db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT)")
    for i, x in enumerate([2.5, float("nan"), 1.5, float("nan")]):
        db.engine.insert("t", [i, x])
    for sql in (
        "SELECT i FROM t WHERE x > 2",
        "SELECT i FROM t WHERE x BETWEEN 1 AND 3",
        "SELECT MIN(x), MAX(x), SUM(x), COUNT(x) FROM t",
        "SELECT i FROM t ORDER BY x",
    ):
        records.append(_golden_record(sql, (), db.execute(sql)))
    db = connect(with_crowd=False)
    load(db)
    for sql in ORDER_BOOK_QUERIES:
        records.append(_golden_record(sql, (), db.execute(sql)))
    for sql, params in olap_scan_statements():
        records.append(_golden_record(sql, params, db.execute(sql, params)))
    return records


def test_lanes_golden(order_book):
    load, _query = order_book
    with open(LANES_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = lanes_records(load)
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


def test_row_fallback_is_counted_where_prepare_decides_it():
    """An expression outside the kernel subset (here ``LOWER``) runs as
    the row closure over the batch; the operator counts that fallback,
    by site, where it compiles the kernel -- once per prepared tree (the
    first execution's and the one the plan-cache entry keeps for every
    later execution), not once per execution."""
    db = connect(with_crowd=False)
    db.execute("CREATE TABLE t (a INTEGER, s STRING)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'Y')")
    total = db.metrics.counter("kernel_fallbacks_total")
    for _ in range(5):
        assert db.query("SELECT LOWER(s) FROM t") == [("x",), ("y",)]
        assert db.query("SELECT a FROM t WHERE LOWER(s) = 'y'") == [(2,)]
    assert total.value == 4
    assert db.metrics.counter("kernel_fallbacks.VectorProjectOp").value == 2
    assert db.metrics.counter("kernel_fallbacks.VectorFilterOp").value == 2


if __name__ == "__main__":
    # the repo root (for ``perf``) after this directory (for ``conftest``)
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent))
    from conftest import _row_engine, load_order_book

    with _row_engine():
        records = lanes_records(load_order_book)
    with open(LANES_GOLDEN, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
