"""Integration tests: traditional SQL semantics through the full stack.

These use a crowd-less connection — CrowdDB must remain a complete SQL
engine for electronically stored data (Physical Data Independence: the
same queries run with or without the crowd).
"""

import pytest

from repro.errors import CatalogError, ConstraintError, ExecutionError
from repro.sqltypes import NULL


@pytest.fixture
def db(plain_db):
    plain_db.executescript(
        """
        CREATE TABLE dept (dname STRING PRIMARY KEY, budget INTEGER);
        CREATE TABLE emp (
            name STRING PRIMARY KEY,
            dname STRING,
            salary INTEGER,
            FOREIGN KEY (dname) REFERENCES dept(dname)
        );
        INSERT INTO dept VALUES ('eng', 100), ('sales', 50), ('hr', 20);
        INSERT INTO emp VALUES
            ('ann', 'eng', 90), ('bob', 'eng', 80),
            ('cat', 'sales', 70), ('dan', 'sales', 60),
            ('eve', 'hr', 50);
        """
    )
    return plain_db


class TestSelectBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM dept")
        assert result.columns == ["dname", "budget"]
        assert len(result.rows) == 3

    def test_projection_and_alias(self, db):
        result = db.execute("SELECT name AS who, salary * 2 AS double FROM emp")
        assert result.columns == ["who", "double"]
        assert ("ann", 180) in result.rows

    def test_where(self, db):
        rows = db.query("SELECT name FROM emp WHERE salary >= 70")
        assert sorted(rows) == [("ann",), ("bob",), ("cat",)]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 1") == [(2,)]

    def test_parameters(self, db):
        rows = db.query("SELECT name FROM emp WHERE dname = ?", ("hr",))
        assert rows == [("eve",)]

    def test_like(self, db):
        rows = db.query("SELECT name FROM emp WHERE name LIKE '%a%'")
        assert sorted(rows) == [("ann",), ("cat",), ("dan",)]

    def test_in(self, db):
        rows = db.query("SELECT name FROM emp WHERE dname IN ('hr', 'sales')")
        assert len(rows) == 3

    def test_between(self, db):
        rows = db.query("SELECT name FROM emp WHERE salary BETWEEN 60 AND 80")
        assert sorted(rows) == [("bob",), ("cat",), ("dan",)]


class TestOrderingAndLimits:
    def test_order_by(self, db):
        rows = db.query("SELECT name FROM emp ORDER BY salary DESC")
        assert rows[0] == ("ann",) and rows[-1] == ("eve",)

    def test_order_by_two_keys(self, db):
        rows = db.query("SELECT name FROM emp ORDER BY dname, salary DESC")
        assert rows == [("ann",), ("bob",), ("eve",), ("cat",), ("dan",)]

    def test_limit_offset(self, db):
        rows = db.query(
            "SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1"
        )
        assert rows == [("bob",), ("cat",)]

    def test_nulls_sort_last(self, db):
        db.execute("INSERT INTO emp (name) VALUES ('zed')")
        rows = db.query("SELECT name FROM emp ORDER BY salary")
        assert rows[-1] == ("zed",)

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT dname FROM emp")
        assert sorted(rows) == [("eng",), ("hr",), ("sales",)]

    def test_distinct_with_order_limit(self, db):
        rows = db.query(
            "SELECT DISTINCT dname FROM emp ORDER BY dname LIMIT 2"
        )
        assert rows == [("eng",), ("hr",)]


class TestJoins:
    def test_inner_join(self, db):
        rows = db.query(
            "SELECT e.name, d.budget FROM emp e JOIN dept d "
            "ON e.dname = d.dname WHERE d.budget > 40"
        )
        assert len(rows) == 4

    def test_implicit_join(self, db):
        rows = db.query(
            "SELECT e.name FROM emp e, dept d "
            "WHERE e.dname = d.dname AND d.dname = 'hr'"
        )
        assert rows == [("eve",)]

    def test_cross_join(self, db):
        rows = db.query("SELECT 1 FROM dept a CROSS JOIN dept b")
        assert len(rows) == 9

    def test_left_join(self, db):
        db.execute("INSERT INTO emp (name, salary) VALUES ('zed', 10)")
        rows = db.query(
            "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d "
            "ON e.dname = d.dname"
        )
        assert ("zed", NULL) in rows
        assert len(rows) == 6

    def test_self_join(self, db):
        rows = db.query(
            "SELECT a.name, b.name FROM emp a JOIN emp b "
            "ON a.dname = b.dname WHERE a.name < b.name"
        )
        assert sorted(rows) == [("ann", "bob"), ("cat", "dan")]

    def test_three_way_join(self, db):
        rows = db.query(
            "SELECT e.name FROM emp e, dept d, dept d2 "
            "WHERE e.dname = d.dname AND d.dname = d2.dname "
            "AND d2.budget = 100"
        )
        assert sorted(rows) == [("ann",), ("bob",)]


class TestAggregation:
    def test_global_aggregates(self, db):
        result = db.execute(
            "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), "
            "MAX(salary) FROM emp"
        )
        assert result.rows == [(5, 350, 70.0, 50, 90)]

    def test_group_by(self, db):
        rows = db.query(
            "SELECT dname, COUNT(*), AVG(salary) FROM emp GROUP BY dname"
        )
        assert ("eng", 2, 85.0) in rows
        assert len(rows) == 3

    def test_having(self, db):
        rows = db.query(
            "SELECT dname FROM emp GROUP BY dname HAVING COUNT(*) > 1"
        )
        assert sorted(rows) == [("eng",), ("sales",)]

    def test_group_by_with_order(self, db):
        rows = db.query(
            "SELECT dname, SUM(salary) AS total FROM emp "
            "GROUP BY dname ORDER BY total DESC"
        )
        assert rows[0] == ("eng", 170)

    def test_count_ignores_missing(self, db):
        db.execute("INSERT INTO emp (name, dname) VALUES ('zed', 'hr')")
        result = db.execute("SELECT COUNT(*), COUNT(salary) FROM emp")
        assert result.rows == [(6, 5)]

    def test_count_distinct(self, db):
        assert db.query("SELECT COUNT(DISTINCT dname) FROM emp") == [(3,)]

    def test_empty_group_aggregate(self, db):
        result = db.execute("SELECT COUNT(*), SUM(salary) FROM emp WHERE salary > 999")
        assert result.rows == [(0, NULL)]

    def test_group_by_empty_input(self, db):
        rows = db.query(
            "SELECT dname, COUNT(*) FROM emp WHERE salary > 999 GROUP BY dname"
        )
        assert rows == []


class TestSubqueries:
    def test_scalar_subquery(self, db):
        rows = db.query(
            "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"
        )
        assert rows == [("ann",)]

    def test_in_subquery(self, db):
        rows = db.query(
            "SELECT name FROM emp WHERE dname IN "
            "(SELECT dname FROM dept WHERE budget >= 50)"
        )
        assert len(rows) == 4

    def test_correlated_exists(self, db):
        rows = db.query(
            "SELECT d.dname FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dname = d.dname AND e.salary > 80)"
        )
        assert rows == [("eng",)]

    def test_not_exists(self, db):
        db.execute("INSERT INTO dept VALUES ('empty', 5)")
        rows = db.query(
            "SELECT d.dname FROM dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dname = d.dname)"
        )
        assert rows == [("empty",)]

    def test_derived_table(self, db):
        rows = db.query(
            "SELECT s.dname FROM (SELECT dname, AVG(salary) AS avg_sal "
            "FROM emp GROUP BY dname) AS s WHERE s.avg_sal > 60"
        )
        assert sorted(rows) == [("eng",), ("sales",)]

    @pytest.mark.parametrize(
        "sql, parameters",
        [
            (
                "SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM emp e "
                "WHERE e.dname = d.dname AND e.salary = ?) ORDER BY d.dname",
                (80,),
            ),
            (
                "SELECT name FROM emp WHERE dname IN "
                "(SELECT dname FROM dept WHERE budget = ?) ORDER BY name",
                (50,),
            ),
            (
                "SELECT name, (SELECT budget FROM dept WHERE dept.dname = ?) "
                "FROM emp ORDER BY name",
                ("hr",),
            ),
            (
                "UPDATE emp SET salary = 7 WHERE dname IN "
                "(SELECT dname FROM dept WHERE budget = ?)",
                (50,),
            ),
        ],
        ids=["exists", "in", "scalar", "update-in"],
    )
    def test_subqueries_see_the_statement_parameters(self, db, sql, parameters):
        import sqlite3

        twin = sqlite3.connect(":memory:")
        twin.execute("CREATE TABLE dept (dname TEXT PRIMARY KEY, budget INTEGER)")
        twin.execute(
            "CREATE TABLE emp (name TEXT PRIMARY KEY, dname TEXT, salary INTEGER)"
        )
        for table in ("dept", "emp"):
            rows = db.query(f"SELECT * FROM {table}")
            marks = ", ".join("?" * len(rows[0]))
            twin.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        result = db.execute(sql, parameters)
        expected = twin.execute(sql, parameters)
        assert result.rows == expected.fetchall()
        if result.statement == "UPDATE":
            assert result.rowcount == expected.rowcount == 2
        state = "SELECT * FROM emp ORDER BY name"
        assert db.query(state) == twin.execute(state).fetchall()


class TestDML:
    def test_insert_partial_columns(self, db):
        db.execute("INSERT INTO emp (name) VALUES ('new')")
        rows = db.query("SELECT dname, salary FROM emp WHERE name = 'new'")
        assert rows == [(NULL, NULL)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE names (name STRING)")
        result = db.execute("INSERT INTO names SELECT name FROM emp")
        assert result.rowcount == 5

    def test_update(self, db):
        result = db.execute(
            "UPDATE emp SET salary = salary + 5 WHERE dname = 'eng'"
        )
        assert result.rowcount == 2
        assert db.query("SELECT salary FROM emp WHERE name = 'ann'") == [(95,)]

    def test_update_all(self, db):
        assert db.execute("UPDATE emp SET salary = 1").rowcount == 5

    def test_delete(self, db):
        result = db.execute("DELETE FROM emp WHERE salary < 60")
        assert result.rowcount == 1
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 4

    def test_delete_all(self, db):
        db.execute("DELETE FROM emp")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 0

    def test_pk_violation(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO dept VALUES ('eng', 1)")

    def test_fk_violation(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO emp VALUES ('x', 'nowhere', 1)")

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM missing")


class TestStatementAtomicity:
    """A DML statement that fails part-way leaves its table as it found
    it, as ``sqlite3`` does -- in memory, and after a durable reopen."""

    SETUP = (
        "CREATE TABLE p (id INTEGER PRIMARY KEY)",
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT, p INTEGER, "
        "FOREIGN KEY (p) REFERENCES p(id))",
        "INSERT INTO p VALUES (1), (2)",
        "INSERT INTO t VALUES (1, 1.0, 1), (2, 2.0, 2), (12, 3.0, 1)",
    )

    @pytest.mark.parametrize(
        "durable", [False, True], ids=["memory", "durable"]
    )
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (3, 1.0, 1), (4, 2.0, 2), (1, 3.0, 1)",
            "INSERT INTO t VALUES (3, 1.0, 1), (4, 2.0, 9)",
            "INSERT INTO t SELECT id + 10, v, p FROM t ORDER BY id",
            "UPDATE t SET id = id + 10",
            "UPDATE t SET v = 0, p = id",
        ],
        ids=["insert-pk", "insert-fk", "insert-select", "update-pk",
             "update-fk"],
    )
    def test_failed_statement_leaves_no_rows(self, tmp_path, sql, durable):
        import sqlite3

        from repro import connect

        twin = sqlite3.connect(":memory:")
        twin.execute("PRAGMA foreign_keys = ON")
        path = str(tmp_path) if durable else None
        db = connect(with_crowd=False, path=path)
        for statement in self.SETUP:
            twin.execute(statement.replace("INTEGER PRIMARY", "INT PRIMARY"))
            db.execute(statement)
        with pytest.raises(sqlite3.IntegrityError):
            twin.execute(sql)
        with pytest.raises(ConstraintError):
            db.execute(sql)
        state = "SELECT * FROM t ORDER BY id"
        expected = twin.execute(state).fetchall()
        assert db.query(state) == expected
        if durable:
            db.close()
            db = connect(with_crowd=False, path=path)
            assert db.query(state) == expected
        # the statement's rows are gone from every index as well
        db.execute("INSERT INTO t VALUES (3, 0.5, 2)")
        assert db.query("SELECT id FROM t WHERE id = 3") == [(3,)]
        db.close()

    def test_failed_delete_restores_the_rows(self, db, monkeypatch):
        from repro.errors import StorageError

        heap = db.engine.table("emp")
        delete = heap.delete
        calls = []

        def failing_delete(rowid):
            calls.append(rowid)
            if len(calls) == 3:
                raise StorageError("disk on fire")
            return delete(rowid)

        monkeypatch.setattr(heap, "delete", failing_delete)
        before = db.query("SELECT * FROM emp ORDER BY name")
        with pytest.raises(StorageError, match="disk on fire"):
            db.execute("DELETE FROM emp WHERE salary > 55")
        assert db.query("SELECT * FROM emp ORDER BY name") == before
        ann = db.query("SELECT name FROM emp WHERE name = 'ann'")
        assert ann == [("ann",)]


class TestUtilityStatements:
    def test_show_tables(self, db):
        result = db.execute("SHOW TABLES")
        assert ("dept",) in result.rows and ("emp",) in result.rows

    def test_explain(self, db):
        result = db.execute("EXPLAIN SELECT name FROM emp WHERE salary > 1")
        text = "\n".join(row[0] for row in result.rows)
        assert "Scan(emp" in text and "Filter" in text

    def test_create_index(self, db):
        db.execute("CREATE INDEX by_dname ON emp (dname)")
        assert db.engine.table("emp").index_on(("dname",)) is not None

    def test_result_pretty(self, db):
        text = db.execute("SELECT name FROM emp ORDER BY name LIMIT 1").pretty()
        assert "ann" in text and "row(s)" in text

    def test_scalar_helper_errors(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT name FROM emp").scalar()

    def test_drop_table(self, db):
        db.execute("DELETE FROM emp")
        db.execute("DROP TABLE emp")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM emp")


class TestCursor:
    def test_fetch_interface(self, db):
        cursor = db.cursor()
        cursor.execute("SELECT name FROM emp ORDER BY name")
        assert cursor.fetchone() == ("ann",)
        assert cursor.fetchmany(2) == [("bob",), ("cat",)]
        assert cursor.fetchall() == [("dan",), ("eve",)]
        assert cursor.fetchone() is None

    def test_description(self, db):
        cursor = db.cursor().execute("SELECT name, salary FROM emp")
        assert [d[0] for d in cursor.description] == ["name", "salary"]

    def test_iteration(self, db):
        cursor = db.cursor().execute("SELECT name FROM emp")
        assert len(list(cursor)) == 5
