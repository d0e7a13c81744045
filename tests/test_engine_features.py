"""Tests for engine features beyond the core paper path: index-scan
access-path selection, WRM-gated worker eligibility, and failure modes."""

import json
import warnings
from pathlib import Path

import pytest

from repro import CrowdConfig, connect
from repro.crowd.model import HIT, FillTask, reset_id_counters
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.amt import SimulatedAMT
from repro.crowd.sim.traces import GroundTruthOracle
from repro.crowd.wrm import WorkerRelationshipManager
from repro.engine.scans import IndexLookup
from repro.errors import UnboundedQueryWarning


class TestIndexScanSelection:
    @pytest.fixture
    def db(self, plain_db):
        plain_db.executescript(
            """
            CREATE TABLE t (k STRING PRIMARY KEY, v INTEGER);
            INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3), ('d', 4);
            """
        )
        return plain_db

    def test_pk_equality_uses_index(self, db):
        result = db.execute("SELECT v FROM t WHERE k = 'c'")
        assert result.rows == [(3,)]
        # an index lookup touches exactly one row, a scan touches four
        assert result.crowd_stats["rows_scanned"] == 1

    def test_residual_predicate_still_applied(self, db):
        result = db.execute("SELECT v FROM t WHERE k = 'c' AND v > 5")
        assert result.rows == []

    def test_reversed_orientation(self, db):
        result = db.execute("SELECT v FROM t WHERE 'b' = k")
        assert result.rows == [(2,)]
        assert result.crowd_stats["rows_scanned"] == 1

    def test_non_indexed_column_scans(self, db):
        result = db.execute("SELECT k FROM t WHERE v = 2")
        assert result.rows == [("b",)]
        assert result.crowd_stats["rows_scanned"] == 4

    def test_secondary_index_used_after_create(self, db):
        db.execute("CREATE INDEX by_v ON t (v)")
        result = db.execute("SELECT k FROM t WHERE v = 2")
        assert result.rows == [("b",)]
        assert result.crowd_stats["rows_scanned"] == 1

    def test_null_equality_returns_nothing(self, db):
        result = db.execute("SELECT k FROM t WHERE k = NULL")
        assert result.rows == []

    def test_composite_index_matched_by_conjunct_set(self, plain_db):
        plain_db.executescript(
            """
            CREATE TABLE pair (a INTEGER, b INTEGER, v STRING);
            INSERT INTO pair VALUES (1, 1, 'x'), (1, 2, 'y'), (2, 1, 'z'),
                (2, 2, 'w');
            CREATE INDEX pair_ab ON pair (a, b);
            """
        )
        result = plain_db.execute(
            "SELECT v FROM pair WHERE a = 2 AND b = 1"
        )
        assert result.rows == [("z",)]
        # the composite index serves both conjuncts: one row touched
        assert result.crowd_stats["rows_scanned"] == 1

    def test_composite_index_matches_reordered_conjuncts(self, plain_db):
        plain_db.executescript(
            """
            CREATE TABLE pair (a INTEGER, b INTEGER, v STRING);
            INSERT INTO pair VALUES (1, 1, 'x'), (1, 2, 'y');
            CREATE INDEX pair_ab ON pair (a, b);
            """
        )
        result = plain_db.execute(
            "SELECT v FROM pair WHERE b = 2 AND a = 1"
        )
        assert result.rows == [("y",)]
        assert result.crowd_stats["rows_scanned"] == 1

    def test_ordered_index_prefix_serves_partial_equality(self, plain_db):
        plain_db.execute(
            "CREATE TABLE pair (a INTEGER, b INTEGER, v STRING)"
        )
        for a in range(4):
            for b in range(4):
                plain_db.execute(
                    f"INSERT INTO pair VALUES ({a}, {b}, 'v{a}{b}')"
                )
        heap = plain_db.engine.table("pair")
        heap.create_index("pair_ab_ordered", ("a", "b"), ordered=True)
        result = plain_db.execute("SELECT v FROM pair WHERE a = 2")
        assert sorted(result.rows) == [("v20",), ("v21",), ("v22",), ("v23",)]
        # the ordered index's (a) prefix bounds the touched rows to 4 of 16
        assert result.crowd_stats["rows_scanned"] == 4

    def test_partial_match_on_hash_index_still_scans(self, plain_db):
        plain_db.executescript(
            """
            CREATE TABLE pair (a INTEGER, b INTEGER, v STRING);
            INSERT INTO pair VALUES (1, 1, 'x'), (1, 2, 'y'), (2, 1, 'z');
            CREATE INDEX pair_ab ON pair (a, b);
            """
        )
        # hash indexes need the whole key; a = 1 alone cannot use pair_ab
        result = plain_db.execute("SELECT v FROM pair WHERE a = 1")
        assert sorted(result.rows) == [("x",), ("y",)]
        assert result.crowd_stats["rows_scanned"] == 3

    @pytest.fixture
    def fifty(self, plain_db):
        """50 rows under an INTEGER PK, a STRING secondary hash index, and
        an ordered index whose leading column ``g`` is a 10-row prefix."""
        plain_db.execute(
            "CREATE TABLE f (id INTEGER PRIMARY KEY, s STRING, g INTEGER, "
            "h INTEGER, v STRING)"
        )
        plain_db.execute("CREATE INDEX f_s ON f (s)")
        for i in range(50):
            plain_db.execute(
                "INSERT INTO f VALUES (?, ?, ?, ?, ?)",
                (i, str(i % 25), i % 5, i, f"v{i}"),
            )
        plain_db.engine.table("f").create_index(
            "f_gh", ("g", "h"), ordered=True
        )
        return plain_db

    @pytest.mark.parametrize("column", ["id", "s"])
    @pytest.mark.parametrize(
        "text, value",
        [("5", 5), ("5.0", 5.0), ("5.5", 5.5), ("'5'", "5"), ("NULL", None),
         ("TRUE", True)],
    )
    def test_parameter_key_reads_like_the_literal(
        self, fifty, column, text, value
    ):
        def run(sql, parameters=()):
            try:
                result = fifty.execute(sql, parameters)
            except Exception as error:
                return type(error)
            return result.rows, result.crowd_stats["rows_scanned"]

        literal = run(f"SELECT id FROM f WHERE {column} = {text} ORDER BY id")
        parameter = run(f"SELECT id FROM f WHERE {column} = ? ORDER BY id", (value,))
        assert parameter == literal

    @pytest.mark.parametrize(
        "column, key, candidates",
        [("id", 7, 1), ("s", "7", 2), ("g", 2, 10)],
        ids=["pk", "hash-index", "ordered-prefix"],
    )
    def test_point_statements_by_parameter_read_only_candidates(
        self, fifty, row_engine, column, key, candidates
    ):
        import sqlite3

        statements = [
            (f"SELECT id, v FROM f WHERE {column} = ? ORDER BY id", (key,)),
            (f"UPDATE f SET v = ? WHERE {column} = ? AND id > ?",
             ("new", key, 10)),
            (f"DELETE FROM f WHERE {column} = ? AND id < ?", (key, 40)),
        ]
        state = "SELECT * FROM f ORDER BY id"
        twin = sqlite3.connect(":memory:")
        twin.execute(
            "CREATE TABLE f (id INTEGER PRIMARY KEY, s TEXT, g INTEGER, "
            "h INTEGER, v TEXT)"
        )
        twin.executemany(
            "INSERT INTO f VALUES (?, ?, ?, ?, ?)", fifty.query(state)
        )
        # the row-engine reference has only the PK: it finds rows by scan
        with row_engine():
            reference = connect(with_crowd=False)
            reference.execute(
                "CREATE TABLE f (id INTEGER PRIMARY KEY, s STRING, "
                "g INTEGER, h INTEGER, v STRING)"
            )
            for row in fifty.query(state):
                reference.execute("INSERT INTO f VALUES (?, ?, ?, ?, ?)", row)
            for sql, parameters in statements:
                reference.execute(sql, parameters)
        for sql, parameters in statements:
            result = fifty.execute(sql, parameters)
            expected = twin.execute(sql, parameters)
            if result.statement == "SELECT":
                assert result.rows == expected.fetchall()
            else:
                assert result.rowcount == expected.rowcount
            assert result.crowd_stats["rows_scanned"] == candidates
        assert fifty.query(state) == twin.execute(state).fetchall()
        assert fifty.query(state) == reference.query(state)

    def test_update_rewrites_the_key_it_found_the_row_by(self, fifty):
        result = fifty.execute("UPDATE f SET id = ? WHERE id = ?", (100, 3))
        assert result.rowcount == 1
        assert fifty.query("SELECT v FROM f WHERE id = ?", (100,)) == [("v3",)]
        assert fifty.query("SELECT v FROM f WHERE id = ?", (3,)) == []
        # every target is collected before the first write moves a key
        result = fifty.execute("UPDATE f SET s = ? WHERE s = ?", ("9", "4"))
        assert result.rowcount == 2
        assert fifty.execute("SELECT id FROM f WHERE s = '9'").rowcount == 4

    def test_update_where_on_crowd_column_buys_nothing(self, demo_db):
        # abstract is CNULL: the WHERE stays not-true and posts no HIT,
        # through the PK lookup and through the scan alike
        posted = demo_db.task_manager.stats.hits_posted
        for sql, parameters in [
            ("UPDATE Talk SET nb_attendees = 5 WHERE title = ? "
             "AND abstract = ?", ("CrowdDB", "x")),
            ("UPDATE Talk SET nb_attendees = 5 WHERE abstract = ?", ("x",)),
        ]:
            assert demo_db.execute(sql, parameters).rowcount == 0
        assert demo_db.task_manager.stats.hits_posted == posted

    def test_parameter_key_compiles_once(self, fifty):
        misses = fifty.executor.plan_cache.stats["misses"]
        for key in range(50):
            assert fifty.query("SELECT v FROM f WHERE id = ?", (key,)) == [
                (f"v{key}",)
            ]
        assert fifty.executor.plan_cache.stats["misses"] == misses + 1

    def test_cached_point_read_builds_its_operators_once(self, fifty):
        """A plan-cache hit binds the entry's prepared operator tree.  The
        statement's first run, the miss, builds the tree it runs, as
        planning always did; its next 50 runs, all hits, build one tree,
        which the entry keeps, and read what a connection without a plan
        cache (which prepares a tree for every execution) reads."""
        sql = "SELECT v, g FROM f WHERE id = ?"
        fifty.query(sql, (0,))

        def built(db):
            return {
                name: value
                for name, value in db.metrics.snapshot().items()
                if name.startswith("operators_built.")
                or name == "physical_plans_prepared_total"
            }

        before = built(fifty)
        rows = [fifty.query(sql, (key,)) for key in range(50)]
        after = built(fifty)
        assert {
            name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)
        } == {
            "physical_plans_prepared_total": 1,
            "operators_built.IndexLookup": 1,
            "operators_built.FilterOp": 1,
            "operators_built.ProjectOp": 1,
        }
        fresh = connect(with_crowd=False, plan_cache_size=0)
        fresh.execute(
            "CREATE TABLE f (id INTEGER PRIMARY KEY, s STRING, g INTEGER, "
            "h INTEGER, v STRING)"
        )
        for row in fifty.query("SELECT * FROM f"):
            fresh.execute("INSERT INTO f VALUES (?, ?, ?, ?, ?)", row)
        assert rows == [fresh.query(sql, (key,)) for key in range(50)]
        assert rows[7] == [("v7", 2)]
        assert built(fresh)["physical_plans_prepared_total"] == 50

    def test_explain_names_the_index(self, fifty):
        for predicate in ("id = 4", "id = ?", "g = ?"):
            plan = fifty.explain(f"SELECT v FROM f WHERE {predicate}")
            column = predicate.split()[0]
            assert f"execution: index({column})" in plan

    def test_crowd_scan_with_limit_hint_not_indexed(self, plain_db):
        # open-world sourcing must keep the TableScan path
        plain_db.execute(
            "CREATE CROWD TABLE c (k STRING PRIMARY KEY, v STRING)"
        )
        result = plain_db.execute("SELECT k FROM c LIMIT 2")
        assert result.rows == []  # no crowd attached: closed world


class TestWRMEligibility:
    def make_platform(self):
        oracle = GroundTruthOracle()
        oracle.load_fill("t", ("k",), {"v": "answer"})
        wrm = WorkerRelationshipManager()
        platform = SimulatedAMT(oracle, population=20, seed=6, wrm=wrm)
        return platform, wrm

    def test_blocked_workers_are_ineligible(self):
        platform, wrm = self.make_platform()
        for worker in platform.workers:
            wrm.block(worker.worker_id)
        hit = HIT(
            task=FillTask("t", ("k",), ("v",), {}),
            reward_cents=2,
            assignments_requested=1,
        )
        platform.post_hit(hit)
        done = platform.wait_for_hits([hit.hit_id], timeout=6 * 3600)
        assert not done and len(hit.assignments) == 0

    def test_unblocked_workers_still_work(self):
        platform, wrm = self.make_platform()
        wrm.block(platform.workers[0].worker_id)  # block just one
        hit = HIT(
            task=FillTask("t", ("k",), ("v",), {}),
            reward_cents=2,
            assignments_requested=2,
        )
        platform.post_hit(hit)
        assert platform.wait_for_hits([hit.hit_id], timeout=48 * 3600)
        workers = {a.worker_id for a in hit.assignments}
        assert platform.workers[0].worker_id not in workers

    def test_qualification_gate(self):
        platform, wrm = self.make_platform()
        platform.min_approval_rate = 0.9
        bad = platform.workers[0]
        account = wrm.account(bad.worker_id)
        account.submitted = 10
        account.approved = 1
        account.rejected = 9
        hit = HIT(
            task=FillTask("t", ("k",), ("v",), {}),
            reward_cents=2,
            assignments_requested=1,
        )
        platform.post_hit(hit)
        assert not platform.eligible(bad, hit)
        good = platform.workers[1]
        assert platform.eligible(good, hit)

    def test_connect_wires_wrm_into_platforms(self, demo_oracle):
        db = connect(oracle=demo_oracle, seed=4)
        assert db.platforms.get("amt").wrm is db.wrm
        assert db.platforms.get("mobile").wrm is db.wrm


class TestFailureModes:
    def test_timeout_returns_null_and_counts(self, demo_oracle):
        from repro.crowd.scripted import ScriptedPlatform
        from repro.sqltypes import NULL

        silent = ScriptedPlatform(lambda task, replica: None)
        db = connect(
            oracle=demo_oracle,
            platforms=(silent,),
            default_platform="scripted",
            crowd_config=CrowdConfig(timeout_seconds=10.0),
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('X')")
        result = db.execute("SELECT abstract FROM Talk WHERE title = 'X'")
        assert result.rows == [(NULL,)]
        assert db.crowd_stats["timeouts"] == 1

    def test_partial_worker_participation(self, demo_oracle):
        from repro.crowd.scripted import ScriptedPlatform

        # only the first replica answers; majority vote still works on 1
        def sometimes(task, replica):
            if replica > 0:
                return None
            return {"abstract": "only one answer"}

        db = connect(
            oracle=demo_oracle,
            platforms=(ScriptedPlatform(sometimes),),
            default_platform="scripted",
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('X')")
        result = db.execute("SELECT abstract FROM Talk WHERE title = 'X'")
        assert result.rows == [("only one answer",)]

    def test_budget_error_propagates_from_query(self, demo_oracle):
        from repro.errors import BudgetExceededError

        db = connect(
            oracle=demo_oracle,
            seed=8,
            crowd_config=CrowdConfig(budget_cents=0),
        )
        db.execute(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)"
        )
        db.execute("INSERT INTO Talk (title) VALUES ('X')")
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT abstract FROM Talk WHERE title = 'X'")


# -- the prepared-statement pin --------------------------------------------------
#
# ``tests/golden/prepared_v1.jsonl`` holds, per execution, the result (or
# the error type and message), ``ResultSet.crowd_stats`` and the tasks
# posted, for parameterised statements that one connection runs again and
# again with different parameters: primary-key, composite-index and
# ordered-prefix reads with a good, a mistyped, a NULL and a float key;
# ``LIKE ?``, ``IN (?, ?)``, ``BETWEEN ? AND ?``; ``?`` in a projection
# and in ORDER BY; correlated subqueries reading a ``?``; and a CrowdProbe
# and a CROWDEQUAL filter over a scripted crowd.  Between the rounds the
# connection inserts and updates rows, creates an index, analyzes, and
# drops a table to create it again with other columns.  So a cached plan
# that kept one execution's parameters, correlation row or access path
# for the next fails here.  ``python tests/test_engine_features.py``
# rewrites it -- only at the parent of a change meant to alter results.

PREPARED_GOLDEN = Path(__file__).parent / "golden" / "prepared_v1.jsonl"

PREPARED_SETUP = """
CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b STRING, c FLOAT);
CREATE TABLE p (x INTEGER, y INTEGER, v STRING);
CREATE INDEX p_xy ON p (x, y);
CREATE TABLE q (g INTEGER, h INTEGER, w STRING);
CREATE TABLE City (name STRING PRIMARY KEY, region STRING,
    population CROWD INTEGER);
CREATE TABLE Office (id INTEGER PRIMARY KEY, city STRING);
INSERT INTO t VALUES (1, 1, 'apple', 0.5), (2, 2, 'banana', 1.5),
    (3, 1, 'cherry', 2.5), (4, 3, NULL, NULL), (5, 2, 'apricot', 4.0);
INSERT INTO p VALUES (1, 1, 'p11'), (1, 2, 'p12'), (2, 1, 'p21'),
    (2, 2, 'p22'), (3, 3, 'p33'), (1, 2, 'p12b');
INSERT INTO q VALUES (1, 1, 'q11'), (1, 2, 'q12'), (2, 1, 'q21'),
    (2, 3, 'q23'), (2, 2, 'q22'), (3, 1, 'q31');
INSERT INTO City (name, region) VALUES ('city0', 'north'),
    ('city1', 'south'), ('city2', 'north');
INSERT INTO Office VALUES (1, 'BER'), (2, 'Berlin'), (3, 'PAR'),
    (4, 'Rome');
"""

#: (statement, parameter tuples); every round runs each tuple in order
PREPARED_STATEMENTS = [
    ("SELECT id, a, b FROM t WHERE id = ?",
     [(3,), ("x",), (None,), (2.0,), (2.5,), (5,)]),
    ("SELECT v FROM p WHERE x = ? AND y = ?",
     [(1, 2), ("x", 2), (None, 1), (2.0, 1.0), (1.5, 2), (3, 3)]),
    ("SELECT h, w FROM q WHERE g = ? ORDER BY h DESC",
     [(2,), ("x",), (None,), (1.0,), (3,)]),
    ("SELECT id FROM t WHERE a = ? ORDER BY id",
     [(1,), ("x",), (None,), (2.0,), (3,)]),
    ("SELECT id, b FROM t WHERE b LIKE ? ORDER BY id",
     [("a%",), ("%an%",), (None,), ("_herry",)]),
    ("SELECT id FROM t WHERE a IN (?, ?) ORDER BY id",
     [(1, 3), (2, None), ("x", 2)]),
    ("SELECT id, c FROM t WHERE c BETWEEN ? AND ? ORDER BY id",
     [(0.0, 2.0), (1.5, 10), (None, 3)]),
    ("SELECT id, a * ?, ? FROM t ORDER BY a * ?, id",
     [(10, "tag", -1), (1, None, 1), (0.5, 7, 0)]),
    ("SELECT id, (SELECT COUNT(*) FROM p WHERE p.x = t.a AND p.y > ?) "
     "FROM t WHERE id < ? ORDER BY id",
     [(0, 4), (1, 6), (5, 3)]),
    ("SELECT id FROM t WHERE EXISTS (SELECT v FROM p "
     "WHERE p.x = t.a AND p.v LIKE ?) ORDER BY id",
     [("p1%",), ("%2",), ("none",)]),
    ("SELECT name, population FROM City WHERE region = ? ORDER BY name",
     [("north",), ("south",), ("east",)]),
    ("SELECT name, population FROM City WHERE name = ?",
     [("city1",), ("city9",)]),
    ("SELECT id FROM Office WHERE CROWDEQUAL(city, ?) ORDER BY id",
     [("Berlin",), ("Paris",)]),
]

#: what runs after each round but the last
PREPARED_BETWEEN = [
    [("INSERT INTO t VALUES (?, ?, ?, ?)", (6, 3, "avocado", 3.0)),
     ("UPDATE t SET a = ? WHERE id = ?", (3, 1)),
     ("INSERT INTO p VALUES (?, ?, ?)", (3, 4, "p34")),
     ("INSERT INTO City (name, region) VALUES (?, ?)", ("city3", "north")),
     ("INSERT INTO Office VALUES (?, ?)", (5, "Paris"))],
    [("CREATE INDEX t_a ON t (a)", ()),
     ("INSERT INTO Office VALUES (?, ?)", (6, "Munich")),
     ("INSERT INTO q VALUES (?, ?, ?)", (2, 4, "q24"))],
    [("ANALYZE", ()),
     ("UPDATE t SET b = ? WHERE id = ?", ("blueberry", 4))],
    [("DROP TABLE t", ()),
     ("CREATE TABLE t (id INTEGER PRIMARY KEY, b INTEGER, a STRING, "
      "c STRING)", ()),
     ("INSERT INTO t VALUES (1, 10, 'x', 'c1'), (2, 20, '1', 'c2'), "
      "(3, 30, 'y', NULL), (5, 50, '3', 'c5')", ()),
     ("INSERT INTO City (name, region) VALUES (?, ?)", ("city4", "south"))],
]


def prepared_db():
    reset_id_counters()
    oracle = GroundTruthOracle()
    for i in range(5):
        oracle.load_fill("City", (f"city{i}",), {"population": 100 + i})
    oracle.declare_same_entity("Berlin", "BER")
    oracle.declare_same_entity("Paris", "PAR")
    platform = ScriptedPlatform(oracle_answer_fn(oracle))
    db = connect(
        oracle=oracle,
        platforms=(platform,),
        default_platform="scripted",
        crowd_config=CrowdConfig(batch_size=2),
    )
    db.executescript(PREPARED_SETUP)
    db.engine.table("q").create_index("q_gh", ("g", "h"), ordered=True)
    return db, platform


def prepared_records() -> list[dict]:
    records = []
    db, platform = prepared_db()
    posted = 0

    def run(sql: str, parameters: tuple, phase: int) -> None:
        nonlocal posted
        try:
            result = db.execute(sql, parameters)
            outcome = {
                "repr": repr((result.columns, result.rows)),
                "stats": dict(sorted(result.crowd_stats.items())),
            }
        except Exception as error:  # the error is part of the contract
            outcome = {"error": f"{type(error).__name__}: {error}"}
        tasks = [repr(task) for task in platform.posted_tasks[posted:]]
        posted = len(platform.posted_tasks)
        records.append({
            "phase": phase, "sql": sql, "params": repr(parameters),
            **outcome, "tasks": tasks,
        })

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnboundedQueryWarning)
        for phase, between in enumerate([*PREPARED_BETWEEN, []]):
            for sql, parameter_sets in PREPARED_STATEMENTS:
                for parameters in parameter_sets:
                    run(sql, parameters, phase)
            for sql, parameters in between:
                run(sql, parameters, phase)
    db.close()
    return records


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@pytest.mark.parametrize("sql, parameter_sets", [
    ("SELECT id, b FROM t WHERE id = ? AND b LIKE ?",
     [(1, "a%"), (2, "%an%"), (1, None), (3, "_herry"), (1, 5)]),
    ("SELECT id FROM t WHERE id = ? AND a IN (?, ?)",
     [(1, 1, 3), (2, None, 2), (4, 1, None), (1, "x", 1)]),
    ("SELECT id, c FROM t WHERE id = ? AND c BETWEEN ? AND ?",
     [(1, 0.0, 2.0), (3, 2.5, 2.5), (4, 0, 9), (2, "a", 9)]),
    ("SELECT id, a * ?, ?, b || ? FROM t WHERE id = ?",
     [(10, "tag", "!", 1), (0.5, None, None, 2), ("x", 1, 2, 3),
      (2, 2.5, "", 4)]),
    ("SELECT id FROM t WHERE id = ? AND a + ? > ? AND NOT b = ?",
     [(1, 1, 1, "x"), (2, 0.5, 2, "banana"), (4, 1, 0, "y"),
      (3, None, 0, "z")]),
])
def test_row_closures_read_parameters_like_literals(sql, parameter_sets):
    """A prepared row closure reads each ``?`` from the row (the
    execution appends its parameters); the same statement with the
    values written in as literals compiles them as constants.  Both
    must return the same rows, or raise the same error."""
    db = connect(with_crowd=False)
    db.executescript(PREPARED_SETUP.split("CREATE TABLE p")[0] + """
        INSERT INTO t VALUES (1, 1, 'apple', 0.5), (2, 2, 'banana', 1.5),
            (3, 1, 'cherry', 2.5), (4, 3, NULL, NULL);
    """)

    def run(text, parameters=()):
        try:
            result = db.execute(text, parameters)
        except Exception as error:
            return f"{type(error).__name__}: {error}"
        return repr(result.rows)

    for parameters in parameter_sets * 2:  # the second round binds a copy
        literal = sql
        for value in parameters:
            literal = literal.replace("?", _literal(value), 1)
        assert run(sql, parameters) == run(literal), (sql, parameters)


def test_prepared_golden():
    with open(PREPARED_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = prepared_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']} {want['params']}"


if __name__ == "__main__":
    with open(PREPARED_GOLDEN, "w", encoding="utf-8") as handle:
        for record in prepared_records():
            handle.write(json.dumps(record) + "\n")
