"""Tests for UNION / UNION ALL / EXCEPT / INTERSECT."""

import pytest

from repro.errors import ParseError, PlanError
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.pretty import format_statement


#: Statements over the ``db`` fixture's rows whose answers the row set
#: operators gave (``tests/golden/rowset_v1.jsonl``, suite
#: ``set_operations``): first-seen order without ORDER BY, an int column
#: against a float one, NULLs on both sides, and a derived table.
STATEMENTS = [
    "SELECT x FROM a UNION SELECT x FROM b ORDER BY x",
    "SELECT x FROM a UNION SELECT x FROM b",
    "SELECT x FROM a UNION SELECT x FROM b LIMIT 3",
    "SELECT x FROM a UNION ALL SELECT x FROM b",
    "SELECT x, tag FROM a UNION ALL SELECT x, tag FROM b LIMIT 4 OFFSET 2",
    "SELECT x FROM a EXCEPT SELECT x FROM b ORDER BY x",
    "SELECT x FROM b EXCEPT SELECT x FROM a",
    "SELECT x FROM a INTERSECT SELECT x FROM b ORDER BY x",
    "SELECT tag FROM b INTERSECT SELECT tag FROM a LIMIT 1",
    "SELECT tag FROM a UNION SELECT tag FROM b",
    "SELECT x, tag FROM a UNION SELECT x, tag FROM b ORDER BY 1 DESC LIMIT 2",
    "SELECT x, tag FROM a INTERSECT SELECT x, tag FROM b",
    "SELECT x FROM a UNION SELECT x FROM b EXCEPT SELECT 4 ORDER BY x",
    "SELECT x AS left_name FROM a UNION SELECT x FROM b",
    "SELECT 1 UNION SELECT 1 UNION SELECT 2",
    "SELECT x * 1.0 FROM b UNION SELECT x FROM a",
    "SELECT x FROM a INTERSECT SELECT x / 1.0 FROM b",
    "SELECT NULL UNION SELECT x FROM a UNION SELECT NULL",
    "SELECT NULL INTERSECT SELECT NULL",
    "SELECT DISTINCT tag FROM a",
    "SELECT d.x, b.tag FROM (SELECT x, tag FROM a WHERE x > 1) d "
    "JOIN b ON b.x = d.x",
]


@pytest.fixture
def db(plain_db):
    plain_db.executescript(
        """
        CREATE TABLE a (x INTEGER PRIMARY KEY, tag STRING);
        CREATE TABLE b (x INTEGER PRIMARY KEY, tag STRING);
        INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three');
        INSERT INTO b VALUES (2, 'two'), (3, 'three'), (4, 'four');
        """
    )
    return plain_db


class TestParsing:
    def test_union_parses(self):
        stmt = parse("SELECT 1 UNION SELECT 2")
        assert isinstance(stmt, ast.SetOp) and stmt.op == "UNION"

    def test_union_all(self):
        stmt = parse("SELECT 1 UNION ALL SELECT 2")
        assert stmt.op == "UNION ALL"

    def test_chained_left_associative(self):
        stmt = parse("SELECT 1 UNION SELECT 2 EXCEPT SELECT 3")
        assert stmt.op == "EXCEPT"
        assert isinstance(stmt.left, ast.SetOp) and stmt.left.op == "UNION"

    def test_tail_attaches_to_compound(self):
        stmt = parse("SELECT x FROM a UNION SELECT x FROM b ORDER BY x LIMIT 2")
        assert isinstance(stmt, ast.SetOp)
        assert stmt.order_by and stmt.limit == ast.Literal(2)
        # branches carry no tail of their own
        assert stmt.left.order_by == () and stmt.right.order_by == ()

    def test_round_trip(self):
        sql = "SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY x DESC LIMIT 3"
        assert parse(format_statement(parse(sql))) == parse(sql)

    def test_plain_select_unchanged(self):
        stmt = parse("SELECT x FROM a ORDER BY x LIMIT 1")
        assert isinstance(stmt, ast.Select)
        assert stmt.limit == ast.Literal(1)


class TestExecution:
    def test_statements_match_row_operators(self, db, row_sets):
        frozen = row_sets["set_operations"]
        assert set(frozen) == set(STATEMENTS)
        for sql in STATEMENTS:
            result = db.execute(sql)
            assert repr((result.columns, result.rows)) == frozen[sql], sql

    def test_distinct_orders_by_qualified_columns(self, db):
        # the keys read the DISTINCT's output columns, where ``a.tag``
        # has no table
        for order in ("a.tag DESC", "2 DESC"):
            rows = db.query(
                f"SELECT DISTINCT a.x * 2, a.tag FROM a ORDER BY {order}"
            )
            assert rows == [(4, "two"), (6, "three"), (2, "one")]

    def test_union_removes_duplicates(self, db):
        rows = db.query("SELECT x FROM a UNION SELECT x FROM b ORDER BY x")
        assert rows == [(1,), (2,), (3,), (4,)]

    def test_union_all_keeps_duplicates(self, db):
        rows = db.query("SELECT x FROM a UNION ALL SELECT x FROM b")
        assert len(rows) == 6

    def test_except(self, db):
        rows = db.query("SELECT x FROM a EXCEPT SELECT x FROM b ORDER BY x")
        assert rows == [(1,)]

    def test_intersect(self, db):
        rows = db.query("SELECT x FROM a INTERSECT SELECT x FROM b ORDER BY x")
        assert rows == [(2,), (3,)]

    def test_union_deduplicates_within_one_side(self, db):
        db.execute("INSERT INTO a VALUES (10, 'one')")
        rows = db.query("SELECT tag FROM a UNION SELECT tag FROM b")
        tags = [r[0] for r in rows]
        assert sorted(tags) == ["four", "one", "three", "two"]

    def test_order_by_ordinal_and_limit(self, db):
        rows = db.query(
            "SELECT x, tag FROM a UNION SELECT x, tag FROM b "
            "ORDER BY 1 DESC LIMIT 2"
        )
        assert rows == [(4, "four"), (3, "three")]

    def test_multi_column_rows(self, db):
        rows = db.query(
            "SELECT x, tag FROM a INTERSECT SELECT x, tag FROM b"
        )
        assert sorted(rows) == [(2, "two"), (3, "three")]

    def test_chained_three_way(self, db):
        rows = db.query(
            "SELECT x FROM a UNION SELECT x FROM b EXCEPT SELECT 4 ORDER BY x"
        )
        assert rows == [(1,), (2,), (3,)]

    def test_output_columns_from_left(self, db):
        result = db.execute("SELECT x AS left_name FROM a UNION SELECT x FROM b")
        assert result.columns == ["left_name"]

    def test_explain_shows_setop(self, db):
        text = db.explain("SELECT x FROM a UNION SELECT x FROM b")
        assert "SetOp(UNION)" in text

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(PlanError, match="arity"):
            db.query("SELECT x FROM a UNION SELECT x, tag FROM b")

    def test_order_key_must_be_output_column(self, db):
        with pytest.raises(PlanError, match="output column"):
            db.query("SELECT x FROM a UNION SELECT x FROM b ORDER BY tag")

    def test_union_with_literals(self, db):
        rows = db.query("SELECT 1 UNION SELECT 1 UNION SELECT 2")
        assert sorted(rows) == [(1,), (2,)]


class TestWithCrowd:
    def test_union_over_crowd_columns(self, demo_db):
        rows = demo_db.query(
            "SELECT abstract FROM Talk WHERE title = 'CrowdDB' "
            "UNION SELECT abstract FROM Talk WHERE title = 'Qurk'"
        )
        assert len(rows) == 2
        assert any("crowdsourcing" in str(r[0]).lower() for r in rows)
