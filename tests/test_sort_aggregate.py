"""The sort and aggregate golden: ORDER BY, top-k and GROUP BY results pinned.

``tests/golden/sortagg_v1.jsonl`` holds the ``repr`` of every statement
below (or its error) over tables of 300 and 5,000 rows.  It was written by
the row engine (the ``row_engine`` seam of ``tests/conftest.py``) before
electronic sorts, limits and projections joined the vector region and
before grouped folds read ndarrays, so it is the reference those paths
must equal to the bit: tie order on every key, the placement of NULL,
CNULL, NaN and signed zeros, the value types (``1`` vs ``1.0``), float
sums added one by one in row order (``1e16 + 0.1 - 1e16`` is ``0.0``, a
group of ``-0.0`` sums to ``-0.0``), integer sums past ``2**63``, and
MIN/MAX with a NaN first or later in the group or a zero of either sign
first in each of hundreds of groups.

The default path is checked twice: as configured, and with scans cut
into 128-row batches (every fold and sort then sees several batches).
CI's leg without numpy runs both over the list lanes.
``python tests/test_sort_aggregate.py`` rewrites the golden -- only at
the parent of a change meant to alter results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro import connect
from repro.exec import vectorized as vectorized_ops

SORTAGG_GOLDEN = Path(__file__).parent / "golden" / "sortagg_v1.jsonl"

#: Table sizes: under and over ``LANE_ROWS`` (the numpy threshold).
SIZES = (300, 5000)

#: Results whose repr is longer than this are pinned by its sha256.
_GOLDEN_INLINE = 2000

NAN = float("nan")

STRINGS = ["alpha", "Beta", "émile", "zeta\n", "zeta", "", "Ωmega",
           "a b", "Zeta"]
SPECIAL_FLOATS = [1.5, NAN, -0.0, 0.0, None, -2.25, 1e16, 0.1, -1e16,
                  3.0, 1.5]
GROUPS = ["x", "y", "z", "w"]

DDL = (
    # sort keys: ties on every column, signed zeros, NULL, NaN, strings
    "CREATE TABLE s (id INTEGER PRIMARY KEY, a INTEGER, b FLOAT, "
    "c STRING, d INTEGER, e FLOAT, g STRING, big INTEGER)",
    # fold inputs: one value pattern per group, in row order
    "CREATE TABLE f (id INTEGER PRIMARY KEY, grp INTEGER, v FLOAT, "
    "w FLOAT, n INTEGER, x FLOAT)",
    # LEFT JOIN probe side: ten keys, some without a match
    "CREATE TABLE k (id INTEGER PRIMARY KEY, name STRING)",
)


def s_row(i: int) -> list:
    b = ((i * 31) % 9) * 0.25 - 1.0
    if b == 0.0 and i % 2:
        b = -0.0
    return [
        i,
        (i * 7919) % 5,
        b,
        STRINGS[(i * 13) % len(STRINGS)],
        None if i % 6 == 0 else (i * 17) % 11 - 5,
        SPECIAL_FLOATS[(i * 3) % len(SPECIAL_FLOATS)],
        None if i % 7 == 3 else GROUPS[i % 4],
        2**62 + i if i % 50 == 0 else i,
    ]


def _fold_value(group: int, position: int) -> float:
    if group == 0:
        return (1e16, 0.1, -1e16)[position % 3]  # cancellation
    if group == 1:
        return -0.0  # a group of negative zeros sums to -0.0
    if group == 2:
        return NAN if position == 0 else position * 0.1  # NaN first
    if group == 3:
        return NAN if position == 5 else -position * 0.3  # NaN later
    if group == 4:
        return position * 0.1  # rounding accumulates in row order
    if group == 5:
        return 0.0 if position else -0.0  # MIN/MAX keep the first zero
    if group == 6:
        return (1e308, 1e308, -1e308)[position % 3]  # overflow to inf
    return 0.0 if position % 2 else 2.5


def f_row(i: int) -> list:
    group, position = i % 8, i // 8
    v = _fold_value(group, position)
    return [
        i,
        group,
        v,
        1.0 if v != v else v,  # the NaN-free twin of v
        2**62 if group == 0 else position * (group + 1) - 50,
        None if position % 4 == 1 else v,
    ]


def k_row(i: int) -> list:
    return [i, f"k{i}"]


def queries(n: int) -> list[str]:
    """Every statement, for a table of ``n`` rows."""
    return [
        # -- ORDER BY: 1-3 keys, ASC/DESC, ties on every key --------------
        "SELECT id, a FROM s ORDER BY a",
        "SELECT id, a FROM s ORDER BY a DESC",
        "SELECT id, a, b FROM s ORDER BY a DESC, b",
        "SELECT id, a, b, c FROM s ORDER BY c, a DESC, b DESC",
        "SELECT id, b FROM s ORDER BY b",
        "SELECT id, b FROM s ORDER BY b DESC",
        "SELECT id, c FROM s ORDER BY c",
        "SELECT id, c FROM s ORDER BY c DESC, a",
        "SELECT id, b * -1.5 FROM s ORDER BY b * -1.5, a DESC",
        "SELECT id, big FROM s ORDER BY big DESC, a",
        # NULL, CNULL, NaN, signed zeros, mixed int/float
        "SELECT id, d FROM s ORDER BY d",
        "SELECT id, d FROM s ORDER BY d DESC, a",
        "SELECT id, e FROM s ORDER BY e",
        "SELECT id, e FROM s ORDER BY e DESC, id",
        "SELECT id, a / 2 FROM s ORDER BY a / 2, c",
        "SELECT id, big / 3 FROM s ORDER BY big / 3 DESC",
        "SELECT id FROM s ORDER BY "
        "CASE WHEN a = 1 THEN CNULL WHEN a = 2 THEN NULL ELSE d END DESC, b",
        "SELECT id FROM s ORDER BY CASE WHEN a = 0 THEN c ELSE b END",
        "SELECT id, g FROM s ORDER BY g DESC, b, a",
        # LIMIT k: 1, n, past n, with OFFSET
        "SELECT id, b FROM s ORDER BY b DESC, id LIMIT 1",
        "SELECT id, a, b FROM s ORDER BY a, b LIMIT 7",
        f"SELECT id, c FROM s ORDER BY c DESC, a LIMIT {n}",
        f"SELECT id, e FROM s ORDER BY e LIMIT {n + 5}",
        "SELECT id, b FROM s ORDER BY b, c DESC LIMIT 10 OFFSET 5",
        f"SELECT id, a FROM s ORDER BY a DESC LIMIT 3 OFFSET {n - 2}",
        "SELECT id, e FROM s ORDER BY e DESC LIMIT 12 OFFSET 3",
        "SELECT id, b FROM s WHERE a = 2 ORDER BY b DESC, id LIMIT 9",
        "SELECT id, d FROM s WHERE d > 0 ORDER BY d, b DESC LIMIT 20",
        "SELECT id, a FROM s LIMIT 5",
        "SELECT id, a FROM s LIMIT 4 OFFSET 3",
        # -- GROUP BY: the five aggregates and DISTINCT -------------------
        "SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) "
        "FROM f GROUP BY grp",
        "SELECT grp, SUM(w), AVG(w), MIN(w), MAX(w) FROM f GROUP BY grp",
        "SELECT grp, SUM(n), AVG(n), MIN(n), MAX(n) FROM f GROUP BY grp",
        "SELECT grp, COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) "
        "FROM f GROUP BY grp",
        "SELECT grp, COUNT(DISTINCT v), SUM(DISTINCT n), COUNT(DISTINCT w) "
        "FROM f GROUP BY grp",
        "SELECT SUM(w * 1.5), SUM(n * 2), MIN(w - 1), MAX(n + 1) "
        "FROM f GROUP BY grp % 3",
        "SELECT grp, SUM(w) FROM f WHERE id % 5 <> 1 GROUP BY grp",
        "SELECT SUM(v), SUM(w), AVG(w), MIN(w), MAX(n), COUNT(*) FROM f",
        "SELECT MIN(v), MAX(v), SUM(x), COUNT(x) FROM f",
        "SELECT g, COUNT(*), SUM(b), MIN(c), MAX(c) FROM s GROUP BY g",
        "SELECT a, g, COUNT(d), SUM(d), AVG(e), MIN(e), MAX(e) "
        "FROM s GROUP BY a, g",
        "SELECT a, SUM(big), AVG(big), SUM(big * 4), MAX(big) "
        "FROM s GROUP BY a",
        "SELECT a, SUM(b), SUM(a / 2), MIN(b), MAX(b) FROM s GROUP BY a",
        "SELECT a, COUNT(*) FROM s WHERE id < 0 GROUP BY a",
        "SELECT COUNT(*), SUM(b), MIN(b) FROM s WHERE id < 0",
        "SELECT a, COUNT(*), SUM(b) FROM s GROUP BY a HAVING SUM(b) > 0 "
        "ORDER BY a",
        "SELECT g, SUM(b) FROM s GROUP BY g ORDER BY SUM(b) DESC, g",
        # many groups whose MIN/MAX is a zero, of either sign in row order
        "SELECT MIN(b * 0.0), MAX(b * 0.0), MAX(b * 0.0 - a) "
        "FROM s GROUP BY id % 400",
        # -- LEFT JOIN ... GROUP BY, unmatched probe rows ------------------
        # unique build (s.id is the key)
        "SELECT k.id, COUNT(s.id), SUM(s.b), MIN(s.e), MAX(s.d), AVG(s.b) "
        "FROM k LEFT JOIN s ON s.id = k.id * 37 GROUP BY k.id ORDER BY k.id",
        # duplicate build (five values of s.a)
        "SELECT k.id, COUNT(s.id), SUM(s.b), AVG(s.big), MIN(s.b), "
        "MAX(s.c) FROM k LEFT JOIN s ON s.a = k.id GROUP BY k.id "
        "ORDER BY k.id",
        "SELECT k.id, COUNT(*), COUNT(f.v), SUM(f.w), MAX(f.n) "
        "FROM k LEFT JOIN f ON f.grp = k.id WHERE k.id <> 3 "
        "GROUP BY k.id HAVING COUNT(f.v) >= 0 ORDER BY k.id DESC",
        "SELECT k.name, SUM(f.v), MIN(f.w) FROM k LEFT JOIN f "
        "ON f.grp = k.id GROUP BY k.name",
    ]


def load(db, n: int) -> None:
    for statement in DDL:
        db.execute(statement)
    insert = db.engine.insert
    for i in range(n):
        insert("s", s_row(i))
        insert("f", f_row(i))
    for i in range(10):
        insert("k", k_row(i))


def _record(n: int, sql: str, db) -> dict:
    try:
        result = db.execute(sql)
    except Exception as error:  # the error is part of the contract
        return {"size": n, "sql": sql,
                "error": f"{type(error).__name__}: {error}"}
    text = repr((result.columns, result.rows))
    if len(text) > _GOLDEN_INLINE:
        text = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"size": n, "sql": sql, "rows": len(result.rows), "repr": text}


def sortagg_records() -> list[dict]:
    """Every golden record, in a fixed order."""
    records = []
    for n in SIZES:
        db = connect(with_crowd=False)
        load(db, n)
        for sql in queries(n):
            records.append(_record(n, sql, db))
        db.close()
    return records


def _check_golden() -> None:
    with open(SORTAGG_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = sortagg_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']} (n={want['size']})"


def test_sortagg_golden():
    _check_golden()


def test_sortagg_golden_in_small_batches(monkeypatch):
    monkeypatch.setattr(vectorized_ops, "VECTOR_ROWS", 128)
    _check_golden()


if __name__ == "__main__":
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from conftest import _row_engine

    with _row_engine():
        records = sortagg_records()
    with open(SORTAGG_GOLDEN, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
