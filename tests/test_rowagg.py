"""The row-input aggregate golden: GROUP BY and ORDER BY over row operators.

``tests/golden/rowagg_v1.jsonl`` pins what an Aggregate or an electronic
Sort returns when its input comes from row operators the vector region
does not reach: an index lookup, a cross (nested-loop) join, a correlated
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

from repro import CrowdConfig, connect
from repro.crowd.model import reset_id_counters
from repro.crowd.scripted import ScriptedPlatform, oracle_answer_fn
from repro.crowd.sim.traces import GroundTruthOracle
from repro.errors import UnboundedQueryWarning

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
#: non-unique index, ``id`` the primary key), nested-loop joins, and
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
    # nested-loop joins
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


def test_rowagg_golden():
    with open(ROWAGG_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = rowagg_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


if __name__ == "__main__":
    with open(ROWAGG_GOLDEN, "w", encoding="utf-8") as handle:
        for record in rowagg_records():
            handle.write(json.dumps(record) + "\n")
