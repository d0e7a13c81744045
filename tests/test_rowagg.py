"""The row-input aggregate golden: GROUP BY and ORDER BY over row operators.

``tests/golden/rowagg_v1.jsonl`` pins what an Aggregate or an electronic
Sort returns when its input came from row operators when it was
written: an index lookup, a keyless join, a correlated
subquery, a CrowdProbe, and aggregate arguments, group keys or sort keys
that hold CROWDEQUAL or a scalar subquery.  Each record holds the
``repr`` of the result (or the error) and, for crowd statements, the
``repr`` of every task posted, in posting order -- so a change that
moves when a crowd-valued input is evaluated, relative to the rows
pulled from below, fails here even when the answers agree.

It was written while those statements ran on the row aggregate
operator and the row sort's electronic branch; it is the reference the
columnar operators over row input (``RowsToBatchOp``) must equal.
``python tests/test_rowagg.py`` rewrites it -- only at the parent of a
change meant to alter results or crowd traffic.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro import CrowdConfig, connect
from repro.crowd.model import reset_id_counters
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.traces import GroundTruthOracle
from repro.errors import UnboundedQueryWarning
from repro.exec import vectorized as vectorized_ops
from repro.exec.vectorized import VectorHashJoinOp

ROWAGG_GOLDEN = Path(__file__).parent / "golden" / "rowagg_v1.jsonl"

NAN = float("nan")

ELECTRONIC_DDL = (
    "CREATE TABLE a (id INTEGER PRIMARY KEY, g STRING, v FLOAT, "
    "k INTEGER, n INTEGER, s STRING)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, w INTEGER, s STRING)",
    "CREATE INDEX a_k ON a (k)",
)

SPECIAL = [1.5, None, -0.0, 0.0, NAN, 2.25, 1e16, 0.1, -1e16, 3.0]


def a_row(i: int) -> list:
    return [
        i,
        ["x", "y", None, "Z"][i % 4],
        SPECIAL[(i * 7) % len(SPECIAL)],
        i % 4,
        2**62 + i if i % 9 == 0 else (i * 13) % 7 - 3,
        ["alpha", "Beta", "", "zeta\n", None][(i * 3) % 5],
    ]


#: Statements over electronic row input: index lookups (``k`` has a
#: non-unique index, ``id`` the primary key), keyless joins, and
#: correlated subqueries whose aggregate arguments, group keys and sort
#: keys read the outer row.
ELECTRONIC_QUERIES = [
    # index lookup
    "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), SUM(n), "
    "MIN(s), MAX(s) FROM a WHERE k = 1",
    "SELECT g, COUNT(*), SUM(n), AVG(n), MIN(v), MAX(v) FROM a "
    "WHERE k = 2 GROUP BY g ORDER BY g",
    "SELECT COUNT(DISTINCT g), COUNT(DISTINCT v), SUM(DISTINCT n), "
    "AVG(DISTINCT k) FROM a WHERE k = 3",
    "SELECT id, v, s FROM a WHERE k = 0 ORDER BY v DESC, id",
    "SELECT id, v FROM a WHERE k = 0 ORDER BY v, s DESC LIMIT 3",
    "SELECT id, s FROM a WHERE k = 3 ORDER BY s, id DESC LIMIT 4",
    "SELECT DISTINCT g FROM a WHERE k = 1 ORDER BY g",
    "SELECT COUNT(*), SUM(v), MAX(s) FROM a WHERE id = 7",
    "SELECT COUNT(*), SUM(v) FROM a WHERE id = 999",
    "SELECT g, COUNT(*) FROM a WHERE id = 999 GROUP BY g",
    "SELECT g, SUM(n) FROM a WHERE k = 1 GROUP BY g "
    "HAVING COUNT(*) > 1 ORDER BY SUM(n) DESC",
    "SELECT k, g, COUNT(*), MIN(n) FROM a WHERE k = 2 GROUP BY k, g "
    "ORDER BY COUNT(*) DESC, g",
    "SELECT SUM(s) FROM a WHERE k = 1",
    "SELECT g, AVG(s) FROM a WHERE k = 2 GROUP BY g",
    # keyless joins
    "SELECT a.g, b.s, COUNT(*), SUM(a.v * b.w), MAX(a.n) FROM a, b "
    "GROUP BY a.g, b.s ORDER BY a.g, b.s",
    "SELECT a.id, b.w FROM a, b WHERE a.id < 4 "
    "ORDER BY b.w DESC, a.v, a.id LIMIT 7",
    "SELECT COUNT(*), AVG(a.k + b.w), MIN(a.s || b.s) FROM a, b",
    "SELECT a.g, COUNT(DISTINCT b.s) FROM a, b WHERE b.w > a.k "
    "GROUP BY a.g ORDER BY COUNT(DISTINCT b.s) DESC, a.g",
    "SELECT a.id, COUNT(b.id), SUM(b.w) FROM a LEFT JOIN b ON b.w > a.n "
    "GROUP BY a.id ORDER BY a.id",
    "SELECT a.k * 10 + b.w, COUNT(*) FROM a, b WHERE a.id < 9 "
    "GROUP BY a.k * 10 + b.w ORDER BY 1 DESC",
    "SELECT COUNT(*), MIN(a.id) FROM a, b WHERE a.id < 9 "
    "GROUP BY a.k * 10 + b.w ORDER BY COUNT(*) DESC, MIN(a.id)",
    # correlated subqueries
    "SELECT id FROM a x WHERE v > (SELECT AVG(v) FROM a y "
    "WHERE y.g = x.g) ORDER BY id",
    "SELECT id, (SELECT MAX(w + x.k) FROM b) FROM a x ORDER BY id",
    "SELECT id, (SELECT SUM(w * x.n) FROM b WHERE b.w > x.k) FROM a x "
    "ORDER BY id",
    "SELECT id, (SELECT s FROM b ORDER BY ABS(w - x.k * 3), s DESC "
    "LIMIT 1) FROM a x ORDER BY id",
    "SELECT id, (SELECT COUNT(*) FROM b WHERE b.w >= x.k) FROM a x "
    "ORDER BY id DESC",
    "SELECT id FROM a x WHERE EXISTS (SELECT w % 3 FROM b "
    "WHERE b.w > x.k GROUP BY w % 3 HAVING COUNT(*) > 1) ORDER BY id",
    "SELECT id FROM a x WHERE EXISTS (SELECT COUNT(*) FROM b "
    "WHERE b.w > x.k GROUP BY w % 3 HAVING COUNT(*) > 1) ORDER BY id",
    "SELECT id FROM a x WHERE 2 < (SELECT COUNT(*) FROM b "
    "GROUP BY w + x.k HAVING MIN(w) > x.k ORDER BY COUNT(*) LIMIT 1) "
    "ORDER BY id",
    # scalar subqueries as aggregate arguments and sort keys
    "SELECT g, SUM((SELECT MAX(w) FROM b WHERE b.w <= x.k * 2)) FROM a x "
    "GROUP BY g ORDER BY g",
    "SELECT COUNT((SELECT MIN(w) FROM b WHERE b.w > x.n)), "
    "MAX((SELECT COUNT(*) FROM b WHERE b.w < x.k)) FROM a x",
    "SELECT id FROM a x ORDER BY (SELECT COUNT(*) FROM b "
    "WHERE b.w > x.k), id DESC LIMIT 5",
]


def electronic_db():
    db = connect(with_crowd=False)
    for ddl in ELECTRONIC_DDL:
        db.execute(ddl)
    for i in range(40):
        db.engine.insert("a", a_row(i))
    for i in range(6):
        db.engine.insert("b", [i, (i * 5) % 7, ["p", "q", None][i % 3]])
    return db


# -- crowd input ------------------------------------------------------------

CITIES = 10
REGIONS = ["north", "south", "east"]
COMPANIES = ["I.B.M.", "ibm corp", "IBM", "Oracle", "HP", "S.A.P.", "SAP"]


def crowd_oracle() -> GroundTruthOracle:
    oracle = GroundTruthOracle()
    for i in range(CITIES):
        oracle.load_fill(
            "City",
            (f"city{i:02d}",),
            {"population": 1000 + 37 * (i % 6), "elevation": 7 * (i % 4)},
        )
    oracle.declare_same_entity("IBM", "I.B.M.", "ibm corp")
    oracle.declare_same_entity("SAP", "S.A.P.")
    oracle.declare_same_entity("city03", "City Three")
    for name, manager in [("b0", "Mia"), ("b1", "Noa"), ("b2", "Oli"),
                          ("b3", "Pat"), ("b4", "Ray")]:
        oracle.load_fill("Branch", (name,), {"manager": manager})
    oracle.load_new_tuples(
        "Branch",
        [{"name": "b2", "city": "city06"}, {"name": "b3", "city": "city06"},
         {"name": "b4", "city": "city09"}],
        fixed_columns=("city",),
    )
    return oracle


CROWD_SCRIPT = [
    "CREATE TABLE City (name STRING PRIMARY KEY, region STRING, "
    "population CROWD INTEGER, elevation CROWD INTEGER)",
    "CREATE TABLE Company (name STRING PRIMARY KEY, region STRING)",
    "CREATE TABLE Office (id INTEGER PRIMARY KEY, city STRING, "
    "region STRING)",
]


#: Statements whose Aggregate or electronic Sort reads CrowdProbe output,
#: or evaluates CROWDEQUAL or a crowd-sourcing scalar subquery per row.
CROWD_QUERIES = [
    # CrowdProbe below
    "SELECT COUNT(*), SUM(population), AVG(population), MIN(elevation), "
    "MAX(elevation), COUNT(DISTINCT elevation) FROM City",
    "SELECT region, COUNT(*), SUM(population), MAX(elevation) FROM City "
    "GROUP BY region ORDER BY region",
    "SELECT region, SUM(population) FROM City GROUP BY region "
    "ORDER BY SUM(population) DESC LIMIT 2",
    "SELECT name, population FROM City ORDER BY population DESC, name "
    "LIMIT 3",
    "SELECT name, elevation FROM City ORDER BY elevation, name DESC",
    "SELECT DISTINCT elevation FROM City ORDER BY elevation",
    # CROWDEQUAL in aggregate arguments, group keys and sort keys
    "SELECT region, SUM(CASE WHEN CROWDEQUAL(name, 'IBM') THEN 1 ELSE 0 "
    "END), COUNT(*) FROM Company GROUP BY region ORDER BY region",
    "SELECT COUNT(*), MAX(CASE WHEN CROWDEQUAL(name, 'SAP') THEN name END), "
    "MIN(CASE WHEN CROWDEQUAL(name, 'IBM') THEN name END) FROM Company",
    "SELECT CROWDEQUAL(name, 'IBM'), COUNT(*) FROM Company "
    "GROUP BY CROWDEQUAL(name, 'IBM')",
    "SELECT COUNT(*), SUM(CASE WHEN CROWDEQUAL(name, 'SAP') THEN 1 "
    "ELSE 0 END) FROM Company GROUP BY CROWDEQUAL(name, 'IBM') "
    "ORDER BY COUNT(*)",
    "SELECT name FROM Company ORDER BY CROWDEQUAL(name, 'SAP') DESC, name",
    "SELECT region, SUM(CASE WHEN CROWDEQUAL(name, 'City Three') "
    "THEN population ELSE 0 END) FROM City GROUP BY region ORDER BY region",
    # crowd-sourcing scalar subqueries per row
    "SELECT o.region, SUM((SELECT population FROM City c "
    "WHERE c.name = o.city)), MAX((SELECT elevation FROM City c "
    "WHERE c.name = o.city)) FROM Office o GROUP BY o.region "
    "ORDER BY o.region",
    "SELECT o.id FROM Office o ORDER BY (SELECT population FROM City c "
    "WHERE c.name = o.city) DESC, o.id LIMIT 4",
]


def crowd_db(batch_size: int):
    reset_id_counters()
    oracle = crowd_oracle()
    platform = ScriptedPlatform(oracle_answer_fn(oracle))
    db = connect(
        oracle=oracle,
        platforms=(platform,),
        default_platform="scripted",
        crowd_config=CrowdConfig(batch_size=batch_size),
    )
    for ddl in CROWD_SCRIPT:
        db.execute(ddl)
    for i in range(CITIES):
        db.execute(
            f"INSERT INTO City (name, region) VALUES "
            f"('city{i:02d}', '{REGIONS[i % 3]}')"
        )
    for i, name in enumerate(COMPANIES):
        db.execute(
            f"INSERT INTO Company VALUES ('{name}', '{REGIONS[i % 2]}')"
        )
    for i in range(8):
        db.execute(
            f"INSERT INTO Office VALUES ({i}, 'city{(i * 3) % CITIES:02d}', "
            f"'{REGIONS[i % 3]}')"
        )
    return db, platform


def _outcome(db, sql: str) -> dict:
    try:
        result = db.execute(sql)
    except Exception as error:  # the error is part of the contract
        return {"error": f"{type(error).__name__}: {error}"}
    return {"repr": repr((result.columns, result.rows))}


def rowagg_records() -> list[dict]:
    """Every golden record, in a fixed order."""
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnboundedQueryWarning)
        db = electronic_db()
        for sql in ELECTRONIC_QUERIES:
            records.append({"sql": sql, **_outcome(db, sql)})
        db.close()
        for batch_size in (1, 16):
            for sql in CROWD_QUERIES:
                # a fresh instance per statement: nothing memorized, so
                # every statement posts its own crowd work
                db, platform = crowd_db(batch_size)
                record = {"sql": sql, "batch": batch_size,
                          **_outcome(db, sql)}
                record["tasks"] = [repr(task) for task in platform.posted_tasks]
                records.append(record)
                db.close()
    return records


def test_rowagg_golden(row_joins, row_sets):
    with open(ROWAGG_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = rowagg_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"
    # the join and DISTINCT statements also equal what the row operators
    # returned
    for frozen in (row_joins["rowagg"], row_sets["rowagg"]):
        assert frozen and set(frozen) <= set(ELECTRONIC_QUERIES)
        for record in actual[:len(ELECTRONIC_QUERIES)]:
            if record["sql"] in frozen:
                assert record["repr"] == frozen[record["sql"]], record["sql"]


# -- the row-join golden ------------------------------------------------------
#
# ``tests/golden/rowjoin_v1.jsonl`` pins what a join returns when an input
# comes from row operators (an index lookup, a CrowdProbe, a CrowdJoin, a
# correlated subquery), when it has no equi key (CROSS and theta joins),
# and when its condition asks the crowd.  It was written while those
# joins ran on the row join operators, which read their probe side one
# row at a time and asked a crowd condition once per candidate, yielding
# each match as it was decided.  Two parts:
#
# * records with a ``suite`` are the row operators' answers to every join
#   statement the differential suites of ``tests/test_vectorized.py`` (and
#   this file's ``ELECTRONIC_QUERIES``) compare against the ``row_engine``
#   seam; those suites assert the default path against them, since the
#   seam no longer reaches a row join.  No engine left can recompute
#   them, so they are frozen: nothing rewrites them;
# * the others are :data:`JOIN_QUERIES` at ``batch_size`` 1 and 16 over
#   the scripted crowd, with every task posted in order, and
#   :data:`ELECTRONIC_JOIN_QUERIES` over :func:`electronic_db`.
#
# ``python tests/test_rowagg.py`` rewrites the records without a
# ``suite`` (and ``rowagg_v1``) and keeps the others as they are -- only
# at the parent of a change meant to alter join results or crowd traffic.

ROWJOIN_GOLDEN = Path(__file__).parent / "golden" / "rowjoin_v1.jsonl"

#: A CROWD table for CrowdJoins: the crowd knows b2 and b3 in city06 and
#: b4 in city09, and every branch's manager.
BRANCH_SCRIPT = (
    "CREATE CROWD TABLE Branch (name STRING PRIMARY KEY, city STRING, "
    "manager CROWD STRING)",
    "INSERT INTO Branch (name, city) VALUES ('b0', 'city00'), "
    "('b1', 'city03')",
)

#: Joins over crowd input, each with and without a LIMIT: a CrowdProbe
#: (``population``/``elevation``) or a CrowdJoin (``Branch``) as the
#: build or the probe side, index lookups, CROSS and theta joins, a crowd
#: condition with and without equi keys, and joins inside correlated
#: subqueries.
JOIN_QUERIES = [
    # CrowdProbe as the build side, then as the probe side
    "SELECT c.name, c.population, o.id FROM City c "
    "JOIN Office o ON o.city = c.name",
    "SELECT c.name, c.population, o.id FROM City c "
    "JOIN Office o ON o.city = c.name LIMIT 1",
    "SELECT o.id, c.name, c.population FROM Office o "
    "JOIN City c ON c.region = o.region",
    "SELECT o.id, c.name, c.population FROM Office o "
    "JOIN City c ON c.region = o.region LIMIT 3",
    # index lookups
    "SELECT o.id, c.name, c.population FROM Office o "
    "JOIN City c ON c.name = o.city WHERE o.id = 3",
    "SELECT o.id, co.name FROM Office o JOIN Company co "
    "ON co.region = o.region WHERE o.id = 3 LIMIT 1",
    # CrowdJoin as the build side, then as the (LEFT) probe side
    "SELECT o.id, b.name, b.manager, co.name FROM Office o "
    "JOIN Branch b ON b.city = o.city JOIN Company co ON co.region = o.region",
    "SELECT o.id, b.name, b.manager, co.name FROM Office o "
    "JOIN Branch b ON b.city = o.city JOIN Company co ON co.region = o.region "
    "LIMIT 3",
    "SELECT o.id, b.name, c.name FROM Office o JOIN Branch b "
    "ON b.city = o.city LEFT JOIN City c ON c.region = o.region",
    "SELECT o.id, b.name, c.name FROM Office o JOIN Branch b "
    "ON b.city = o.city LEFT JOIN City c ON c.region = o.region LIMIT 1",
    # CROSS, theta INNER and theta LEFT
    "SELECT c.name, c.elevation, co.name FROM City c CROSS JOIN Company co",
    "SELECT c.name, c.elevation, co.name FROM City c "
    "CROSS JOIN Company co LIMIT 3",
    "SELECT c.name, o.id FROM City c JOIN Office o "
    "ON o.id * 200 > c.population",
    "SELECT c.name, o.id FROM City c JOIN Office o "
    "ON o.id * 200 > c.population LIMIT 3",
    "SELECT c.name, o.id FROM City c LEFT JOIN Office o "
    "ON o.id > c.elevation",
    "SELECT c.name, o.id FROM City c LEFT JOIN Office o "
    "ON o.id > c.elevation LIMIT 5",
    # a crowd condition
    "SELECT a.name, b.name FROM Company a JOIN Company b "
    "ON CROWDEQUAL(a.name, b.name) AND a.name <> b.name LIMIT 2",
    "SELECT a.name, b.name FROM Company a LEFT JOIN Company b "
    "ON CROWDEQUAL(a.name, b.name) AND a.name < b.name LIMIT 4",
    "SELECT a.name, b.name FROM Company a LEFT JOIN Company b "
    "ON CROWDEQUAL(a.name, b.name) AND a.name < b.name",
    "SELECT c.name, co.name FROM City c JOIN Company co "
    "ON CROWDEQUAL(c.name, co.name) AND c.population > 1000 LIMIT 1",
    "SELECT a.name, b.name FROM Company a JOIN Company b "
    "ON a.region = b.region AND CROWDEQUAL(a.name, b.name) "
    "AND a.name <> b.name LIMIT 1",
    # joins inside correlated subqueries
    "SELECT o.id FROM Office o WHERE EXISTS (SELECT 1 FROM City c "
    "JOIN Company co ON co.region = c.region "
    "WHERE c.name = o.city AND c.population > 1050)",
    "SELECT o.id, (SELECT COUNT(*) FROM City c JOIN Company co "
    "ON co.region = c.region WHERE c.region = o.region) FROM Office o",
    "SELECT o.id, (SELECT MAX(c.population) FROM City c JOIN Office x "
    "ON x.id > o.id WHERE c.name = x.city) FROM Office o",
]

#: Electronic joins whose input is an index lookup (``k`` has a
#: non-unique index, ``id`` the primary key), and keyless ones.
ELECTRONIC_JOIN_QUERIES = [
    "SELECT a.id, b.id, b.w FROM a JOIN b ON b.w = a.n WHERE a.k = 1",
    "SELECT a.id, b.s FROM a JOIN b ON b.w = a.n WHERE a.k = 1 LIMIT 2",
    "SELECT a.id, b.id FROM a JOIN b ON b.w > a.k WHERE a.id = 5",
    "SELECT a.id, b.id FROM a LEFT JOIN b ON b.w < a.n WHERE a.k = 2",
    "SELECT a.id, b.id FROM b, a WHERE a.k = 3 LIMIT 5",
    "SELECT x.id, y.id FROM a x JOIN a y ON y.n = x.n "
    "WHERE x.k = 1 AND y.k = 2",
    "SELECT a.id, b.id, a.v FROM a LEFT JOIN b ON b.w = a.k "
    "AND a.v > b.w WHERE a.k = 0",
]


def rowjoin_db(batch_size: int):
    """:func:`crowd_db` with the ``Branch`` CROWD table."""
    db, platform = crowd_db(batch_size)
    for statement in BRANCH_SCRIPT:
        db.execute(statement)
    return db, platform


def rowjoin_records() -> list[dict]:
    """The golden's records without a ``suite``, in a fixed order."""
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnboundedQueryWarning)
        db = electronic_db()
        for sql in ELECTRONIC_JOIN_QUERIES:
            records.append({"sql": sql, **_outcome(db, sql)})
        db.close()
        for batch_size in (1, 16):
            for sql in JOIN_QUERIES:
                db, platform = rowjoin_db(batch_size)
                record = {"sql": sql, "batch": batch_size,
                          **_outcome(db, sql)}
                record["tasks"] = [repr(task) for task in platform.posted_tasks]
                records.append(record)
                db.close()
    return records


def test_rowjoin_golden():
    with open(ROWJOIN_GOLDEN, encoding="utf-8") as handle:
        expected = [
            record for record in map(json.loads, handle)
            if "suite" not in record
        ]
    actual = rowjoin_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


def test_index_served_join_builds_one_vector_join():
    """A join over an index lookup runs on the vector join, the lookup's
    rows entering through one ``RowsToBatchOp``; no row join is built."""
    db = electronic_db()
    db.execute("SELECT a.id, b.w FROM a JOIN b ON b.w = a.n WHERE a.k = 1")

    def built(kind: str) -> int:
        return db.metrics.counter(f"operators_built.{kind}").value

    assert built("IndexLookup") == 1
    assert built("VectorHashJoinOp") == 1
    assert built("RowsToBatchOp") == 1
    assert built("HashJoinOp") == built("NestedLoopJoinOp") == 0
    db.close()


@pytest.mark.parametrize("sql", [
    "SELECT DISTINCT g, k FROM a",
    "SELECT g FROM a UNION SELECT s FROM b",
    "SELECT g FROM a UNION ALL SELECT s FROM b",
    "SELECT s FROM a EXCEPT SELECT s FROM b",
    "SELECT s FROM a INTERSECT SELECT s FROM b",
    "SELECT d.g, b.w FROM (SELECT g, n FROM a WHERE v > 0) d "
    "JOIN b ON b.w = d.n",
])
def test_set_operations_build_only_vector_operators(sql):
    """DISTINCT, set operations and a derived table over electronic
    tables run on batch operators, capped once by ``BatchToRowsOp``."""
    db = electronic_db()
    db.execute(sql)
    built = {
        name.split(".", 1)[1]: count
        for name, count in db.metrics.snapshot().items()
        if name.startswith("operators_built.")
    }
    assert built.pop("BatchToRowsOp") == 1
    assert built and all(name.startswith("Vector") for name in built), built
    db.close()


#: Rows of each side of :func:`keyless_db`: far more candidate pairs
#: than one (patched) ``VECTOR_ROWS`` window.
KEYLESS_ROWS = 2000


def keyless_db():
    db = connect(with_crowd=False)
    db.execute("CREATE TABLE l (id INTEGER PRIMARY KEY, x INTEGER)")
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, y INTEGER)")
    for i in range(KEYLESS_ROWS):
        db.engine.insert("l", [i, i])
        db.engine.insert("r", [i, i])
    return db


@pytest.mark.parametrize("sql, expected", [
    ("SELECT l.id, r.id FROM l JOIN r ON r.y > l.x AND r.y < l.x + 3 "
     "LIMIT 1",
     [(0, 1)]),
    ("SELECT l.id, r.id FROM l LEFT JOIN r ON r.y > l.x AND r.y < l.x + 3 "
     "LIMIT 5",
     [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
])
def test_keyless_condition_is_checked_a_window_at_a_time(
    monkeypatch, sql, expected
):
    """A theta join under a LIMIT checks its condition on about one
    ``VECTOR_ROWS`` window of candidate pairs, not on every pair of the
    probe batch, before its first rows come out."""
    monkeypatch.setattr(vectorized_ops, "VECTOR_ROWS", 1024)
    checks = [0]
    compile_predicate = VectorHashJoinOp.compile_predicate

    def counted(self, expr, scope):
        predicate = compile_predicate(self, expr, scope)

        def check(row):
            checks[0] += 1
            return predicate(row)
        return check

    monkeypatch.setattr(VectorHashJoinOp, "compile_predicate", counted)
    db = keyless_db()
    assert db.execute(sql).rows == expected
    # one probe row's candidates per window (build rows > VECTOR_ROWS),
    # and a few probe rows fill the LIMIT; a whole 1024-row probe batch
    # would check 1024 * 2000 pairs
    assert 0 < checks[0] <= 5 * KEYLESS_ROWS
    db.close()


def test_cross_join_pairs_a_window_at_a_time(monkeypatch):
    """A CROSS join under a LIMIT gathers about one ``VECTOR_ROWS``
    window of pairs per batch, not probe batch x build side."""
    monkeypatch.setattr(vectorized_ops, "VECTOR_ROWS", 1024)
    sizes = []
    join = VectorHashJoinOp.__iter__

    def counted(self):
        for batch in join(self):
            sizes.append(batch.num_rows)
            yield batch

    monkeypatch.setattr(VectorHashJoinOp, "__iter__", counted)
    db = keyless_db()
    rows = db.execute("SELECT l.id, r.id FROM l CROSS JOIN r LIMIT 5").rows
    assert rows == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
    assert sizes == [KEYLESS_ROWS]
    db.close()


# -- the row set-operation golden ---------------------------------------------
#
# ``tests/golden/rowset_v1.jsonl`` pins what DISTINCT, UNION, UNION ALL,
# EXCEPT, INTERSECT and derived tables return when an input comes from
# row operators (an index lookup, a CrowdProbe, a CrowdJoin, a crowd
# filter), with and without a LIMIT above.  It was written while they ran
# on the row operators, which pulled their input one row at a time,
# yielded each row as soon as it was first seen, and read the right side
# of EXCEPT and INTERSECT whole before the first left row.  Two parts, as
# in ``rowjoin_v1``:
#
# * records with a ``suite`` are the row operators' answers to every
#   DISTINCT, set operation and derived-table statement of the
#   differential suites (``QUERIES`` and ``test_nan_parity`` of
#   ``tests/test_vectorized.py``, ``STATEMENTS`` of
#   ``tests/test_set_operations.py``, this file's ``ELECTRONIC_QUERIES``);
#   they are frozen: nothing rewrites them;
# * the others are :data:`SET_QUERIES` at ``batch_size`` 1 and 16 over the
#   scripted crowd, with every task posted in order, and
#   :data:`ELECTRONIC_SET_QUERIES` over :func:`electronic_db`.

ROWSET_GOLDEN = Path(__file__).parent / "golden" / "rowset_v1.jsonl"

#: DISTINCT, set operations and derived tables over crowd input, each with
#: and without a LIMIT: CrowdProbe output (``population``/``elevation``),
#: CrowdJoin output (``Branch``), a CROWDEQUAL filter and index lookups.
SET_QUERIES = [
    # DISTINCT
    "SELECT DISTINCT elevation FROM City",
    "SELECT DISTINCT elevation FROM City LIMIT 2",
    "SELECT DISTINCT o.region, b.manager FROM Office o "
    "JOIN Branch b ON b.city = o.city",
    "SELECT DISTINCT o.region, b.manager FROM Office o "
    "JOIN Branch b ON b.city = o.city LIMIT 2",
    "SELECT DISTINCT region FROM Company WHERE CROWDEQUAL(name, 'IBM')",
    "SELECT DISTINCT region FROM Company WHERE CROWDEQUAL(name, 'IBM') "
    "LIMIT 1",
    # UNION and UNION ALL
    "SELECT elevation FROM City WHERE region = 'north' "
    "UNION SELECT elevation FROM City WHERE region = 'east'",
    "SELECT elevation FROM City WHERE region = 'north' "
    "UNION SELECT elevation FROM City WHERE region = 'east' LIMIT 2",
    "SELECT population FROM City WHERE region = 'south' "
    "UNION ALL SELECT population FROM City WHERE region = 'east'",
    "SELECT population FROM City WHERE region = 'south' "
    "UNION ALL SELECT population FROM City WHERE region = 'east' LIMIT 5",
    "SELECT b.manager FROM Office o JOIN Branch b ON b.city = o.city "
    "UNION SELECT region FROM Office WHERE id = 3",
    "SELECT b.manager FROM Office o JOIN Branch b ON b.city = o.city "
    "UNION SELECT region FROM Office WHERE id = 3 LIMIT 1",
    # EXCEPT and INTERSECT: the right side is read first
    "SELECT population FROM City WHERE region = 'north' "
    "EXCEPT SELECT population FROM City WHERE region = 'south'",
    "SELECT population FROM City WHERE region = 'north' "
    "EXCEPT SELECT population FROM City WHERE region = 'south' LIMIT 1",
    "SELECT elevation FROM City WHERE region = 'north' "
    "INTERSECT SELECT elevation FROM City WHERE region = 'east'",
    "SELECT elevation FROM City WHERE region = 'north' "
    "INTERSECT SELECT elevation FROM City WHERE region = 'east' LIMIT 1",
    "SELECT c.name FROM City c WHERE c.population > 1050 "
    "EXCEPT SELECT o.city FROM Office o JOIN Branch b ON b.city = o.city",
    "SELECT c.name FROM City c WHERE c.population > 1050 "
    "EXCEPT SELECT o.city FROM Office o JOIN Branch b ON b.city = o.city "
    "LIMIT 2",
    "SELECT region FROM City WHERE name = 'city03' "
    "INTERSECT SELECT region FROM City WHERE elevation > 0",
    "SELECT region FROM City WHERE name = 'city03' "
    "INTERSECT SELECT region FROM City WHERE elevation > 0 LIMIT 1",
    # derived tables
    "SELECT d.name, d.population FROM (SELECT name, population FROM City) d "
    "WHERE d.population > 1050",
    "SELECT d.name, d.population FROM (SELECT name, population FROM City) d "
    "WHERE d.population > 1050 LIMIT 2",
    "SELECT d.manager FROM (SELECT b.name, b.manager FROM Office o "
    "JOIN Branch b ON b.city = o.city) d",
    "SELECT d.manager FROM (SELECT b.name, b.manager FROM Office o "
    "JOIN Branch b ON b.city = o.city) d LIMIT 1",
    "SELECT d.name, o.id FROM (SELECT name, elevation FROM City "
    "WHERE region = 'north') d JOIN Office o ON o.city = d.name",
    "SELECT d.name, o.id FROM (SELECT name, elevation FROM City "
    "WHERE region = 'north') d JOIN Office o ON o.city = d.name LIMIT 1",
    "SELECT d.region FROM (SELECT DISTINCT region, elevation FROM City) d",
    "SELECT d.region FROM (SELECT DISTINCT region, elevation FROM City) d "
    "LIMIT 2",
]

#: DISTINCT, set operations and derived tables over index lookups
#: (``k`` has a non-unique index, ``id`` the primary key).
ELECTRONIC_SET_QUERIES = [
    "SELECT DISTINCT g, s FROM a WHERE k = 1",
    "SELECT DISTINCT v FROM a WHERE k = 2 LIMIT 2",
    "SELECT g FROM a WHERE k = 1 UNION SELECT s FROM a WHERE k = 2",
    "SELECT v FROM a WHERE k = 1 UNION ALL SELECT v FROM a WHERE k = 3 "
    "LIMIT 12",
    "SELECT n FROM a WHERE k = 1 UNION SELECT w FROM b",
    "SELECT g FROM a WHERE k = 1 EXCEPT SELECT g FROM a WHERE k = 2",
    "SELECT v FROM a WHERE k = 0 INTERSECT SELECT v FROM a WHERE k = 2",
    "SELECT s FROM b EXCEPT SELECT s FROM a WHERE id = 7",
    "SELECT d.g, d.v FROM (SELECT g, v, n FROM a WHERE k = 3) d "
    "WHERE d.n > 0",
    "SELECT d.id, b.s FROM (SELECT id, n FROM a WHERE k = 2) d "
    "JOIN b ON b.w = d.n LIMIT 3",
    "SELECT d.g FROM (SELECT DISTINCT g, k FROM a WHERE k = 1) d",
]


def rowset_records() -> list[dict]:
    """The golden's records without a ``suite``, in a fixed order."""
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnboundedQueryWarning)
        db = electronic_db()
        for sql in ELECTRONIC_SET_QUERIES:
            records.append({"sql": sql, **_outcome(db, sql)})
        db.close()
        for batch_size in (1, 16):
            for sql in SET_QUERIES:
                db, platform = rowjoin_db(batch_size)
                record = {"sql": sql, "batch": batch_size,
                          **_outcome(db, sql)}
                record["tasks"] = [repr(task) for task in platform.posted_tasks]
                records.append(record)
                db.close()
    return records


def test_rowset_golden():
    with open(ROWSET_GOLDEN, encoding="utf-8") as handle:
        expected = [
            record for record in map(json.loads, handle)
            if "suite" not in record
        ]
    actual = rowset_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


def _rewrite(path: Path, records: list[dict]) -> None:
    """Write ``records`` to ``path`` after its records with a ``suite``:
    the row operators' answers, which no engine since can compute, are
    kept as they are."""
    with open(path, encoding="utf-8") as handle:
        kept = [line for line in handle if "suite" in json.loads(line)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)
        for record in records:
            handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    with open(ROWAGG_GOLDEN, "w", encoding="utf-8") as handle:
        for record in rowagg_records():
            handle.write(json.dumps(record) + "\n")
    _rewrite(ROWJOIN_GOLDEN, rowjoin_records())
    _rewrite(ROWSET_GOLDEN, rowset_records())
