"""The typed-columns golden: joins, GROUP BY keys and folds pinned.

``tests/golden/typed_v1.jsonl`` holds the ``repr`` of every statement
below (or its error) over tables of 4,500 to 5,000 rows, where build
keys are sorted, probe keys searched, string columns dictionary-coded
and folds run in numpy.  It was written by the row engine (the
``row_engine`` seam of ``tests/conftest.py``), with the default path
checked equal to it, before batch columns stayed ndarrays and coded
columns between operators, so it is the reference those forms must
equal to the bit:

* inner and LEFT equi-joins on INTEGER build keys whose range is under
  256, under 65,536, exactly 65,535 and exactly 65,536, with a negative
  minimum, spanning -2**62 to 2**62, with duplicate keys, and with NULL
  probe keys -- output order is probe order, then build row order;
* GROUP BY over a string gathered through a join from a 1,000-row side
  (no dictionary lane), over a dictionary-lane string read directly and
  through a LEFT join that pads it, over an integer, over two keys and
  over NULL keys -- groups in first-appearance order;
* SUM/AVG/MIN/MAX/COUNT over arithmetic of joined columns, grouped and
  global.

The default path is checked twice: as configured, and with scans cut
into 300-row batches.  Below the golden, the join build's radix sort
(``_SortedKeys``) is checked against the stable int64 argsort directly,
over key spans from 0 to the whole int64 range.  ``python tests/test_typed_columns.py`` rewrites
the golden -- only at the parent of a change meant to alter results.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import connect
from repro.exec import vectorized as vectorized_ops

try:
    import numpy as np
except ImportError:  # the standard-library-only leg
    np = None

TYPED_GOLDEN = Path(__file__).parent / "golden" / "typed_v1.jsonl"

#: Results whose repr is longer than this are pinned by its sha256.
_GOLDEN_INLINE = 2000

PROBE_ROWS = 5000
BUILD_ROWS = 4500
SIDE_ROWS = 1000

GROUPS = ["north", "south", "east", "west", "up", "down", "in"]

#: Key columns with their build-key range: (name, low, span)
SPANS = (("s65535", -7, 65535), ("s65536", 100, 65536))

DDL = (
    "CREATE TABLE p (id INTEGER PRIMARY KEY, r8 INTEGER, r16 INTEGER, "
    "s65535 INTEGER, s65536 INTEGER, neg INTEGER, wide INTEGER, "
    "dup INTEGER, nk INTEGER, sid INTEGER, grp STRING, f FLOAT, "
    "a INTEGER)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, r8 INTEGER, r16 INTEGER, "
    "s65535 INTEGER, s65536 INTEGER, neg INTEGER, wide INTEGER, "
    "dup INTEGER, nk INTEGER, sid INTEGER, grp STRING, f FLOAT, "
    "a INTEGER)",
    "CREATE TABLE side (id INTEGER PRIMARY KEY, label STRING, w FLOAT)",
)


def key_rows(count: int, seed: int) -> list[list]:
    """The rows of ``p`` (seed 0) or ``b`` (seed 1): the same key ranges
    drawn by another generator, so the two sides share some keys; rows 0
    and 1 hold each spanned column's ends."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        row = [i, rng.randrange(250), rng.randrange(60000)]
        for _name, low, span in SPANS:
            row.append(low + span * i if i < 2 else low + rng.randrange(span))
        wide = 2**62 if i % 97 == 0 else -(2**62) if i % 97 == 1 else (
            rng.randrange(3000)
        )
        row += [
            rng.randrange(2000) - 5000,
            wide,
            rng.randrange(1200),
            None if i % 11 == 0 else rng.randrange(900),
            rng.randrange(SIDE_ROWS),
            GROUPS[rng.randrange(len(GROUPS))],
            round(rng.uniform(1, 400), 2),
            rng.randrange(9),
        ]
        rows.append(row)
    return rows


def side_row(i: int) -> list:
    return [i, f"label{(i * 7) % 37:02d}", (i % 13) * 0.5]


KEYS = ("r8", "r16", "s65535", "s65536", "neg", "wide", "dup", "nk")

#: arithmetic of joined columns, folded by every aggregate
GROWTH = "p.f * (1 + b.a * 0.05)"
SPREAD = "p.f - b.a * 2.5"


def queries() -> list[str]:
    out = []
    for key in KEYS:
        # the larger side builds an inner join: ``p``, sorted unless the
        # key holds NULLs; the filter on ``b`` keeps the output small
        out.append(
            f"SELECT p.id, b.id, p.{key} FROM p JOIN b ON p.{key} = b.{key} "
            "WHERE b.id % 7 = 3"
        )
        # a LEFT join builds its right side, ``b``
        out.append(
            f"SELECT p.id, b.id, b.{key}, b.grp FROM p LEFT JOIN b "
            f"ON p.{key} = b.{key} WHERE p.id % 5 = 1"
        )
        out.append(
            f"SELECT COUNT(*), COUNT(b.id), SUM(b.f), MIN(b.{key}), "
            f"MAX(b.{key}) FROM p LEFT JOIN b ON p.{key} = b.{key} "
            "WHERE p.id % 2 = 0"
        )
    out += [
        # NULL probe keys against a sorted build key
        "SELECT p.id, b.id, b.nk FROM p JOIN b ON b.nk = p.dup "
        "WHERE b.id % 7 = 3",
        "SELECT p.id, b.id, b.dup FROM p LEFT JOIN b ON p.nk = b.dup "
        "WHERE p.id % 5 = 1",
    ]
    out += [
        # a string gathered through a join from the 1,000-row side
        "SELECT side.label, COUNT(*), SUM(p.f), MIN(p.a), MAX(side.w) "
        "FROM p JOIN side ON p.sid = side.id GROUP BY side.label",
        # ... and from a filtered build of 4,096+ rows, which sorts
        "SELECT side.label, COUNT(*), AVG(p.f * (1 + side.w * 0.05)) "
        "FROM p JOIN side ON p.sid = side.id WHERE p.f BETWEEN 2 AND 399 "
        "AND p.grp <> 'in' AND p.f * 1.08 < 430 GROUP BY side.label",
        # a dictionary-lane string, directly and through LEFT padding
        "SELECT grp, COUNT(*), SUM(f), MIN(f), MAX(a) FROM p GROUP BY grp",
        "SELECT grp, COUNT(*), SUM(f) FROM p WHERE a > 2 AND f < 300 "
        "GROUP BY grp",
        "SELECT b.grp, COUNT(*), COUNT(b.id), SUM(b.f) FROM p "
        "LEFT JOIN b ON p.nk = b.id GROUP BY b.grp",
        "SELECT b.grp, COUNT(*), MAX(p.f) FROM p LEFT JOIN b "
        "ON p.r16 = b.r16 WHERE p.id % 3 = 0 GROUP BY b.grp",
        # integer keys, direct and joined
        "SELECT dup, COUNT(*), SUM(f) FROM p WHERE f > 50 GROUP BY dup",
        "SELECT b.r8, COUNT(*), SUM(p.f), MAX(b.f) FROM p JOIN b "
        "ON p.s65536 = b.s65536 GROUP BY b.r8",
        "SELECT p.neg, COUNT(*), MIN(b.f) FROM p JOIN b ON p.dup = b.dup "
        "WHERE p.id % 13 = 0 GROUP BY p.neg",
        # two keys
        "SELECT p.grp, side.label, COUNT(*), SUM(p.f) FROM p "
        "JOIN side ON p.sid = side.id GROUP BY p.grp, side.label",
        "SELECT b.a, p.grp, COUNT(*), MIN(b.f) FROM p JOIN b "
        "ON p.r16 = b.r16 GROUP BY b.a, p.grp",
        # NULL keys: a nullable column, and padding
        "SELECT nk, COUNT(*), SUM(f) FROM p WHERE id % 4 = 0 GROUP BY nk",
        "SELECT b.nk, COUNT(*), COUNT(b.id) FROM p LEFT JOIN b "
        "ON p.nk = b.id GROUP BY b.nk",
        "SELECT b.wide, COUNT(*) FROM p LEFT JOIN b ON p.wide = b.wide "
        "WHERE p.id % 50 < 3 GROUP BY b.wide",
        # folds over arithmetic of joined columns
        f"SELECT b.grp, COUNT(*), SUM({GROWTH}), AVG({GROWTH}), "
        f"MIN({GROWTH}), MAX({GROWTH}), SUM({SPREAD}), AVG({SPREAD}), "
        f"MIN({SPREAD}), MAX({SPREAD}) FROM p JOIN b ON p.r16 = b.r16 "
        "GROUP BY b.grp",
        f"SELECT p.a, SUM({GROWTH}), MAX({SPREAD}), COUNT(b.id) FROM p "
        "JOIN b ON p.dup = b.dup WHERE p.f < 200 GROUP BY p.a",
        f"SELECT side.label, SUM(p.f * (1 + side.w * 0.05)), "
        "MIN(p.f - side.w * 2.5) FROM p JOIN side ON p.sid = side.id "
        "GROUP BY side.label",
        f"SELECT COUNT(*), SUM({GROWTH}), AVG({GROWTH}), MIN({GROWTH}), "
        f"MAX({GROWTH}), SUM({SPREAD}), AVG({SPREAD}), MIN({SPREAD}), "
        f"MAX({SPREAD}) FROM p JOIN b ON p.r16 = b.r16",
        f"SELECT COUNT(*), SUM({GROWTH}), MIN({SPREAD}) FROM p "
        "JOIN b ON p.dup = b.dup WHERE p.grp LIKE '%o%'",
        # the olap_scan aggregate shape over these tables
        "SELECT side.label, COUNT(*), SUM(p.f), "
        "AVG(p.f * (1 + p.a * 0.05)), MAX(p.f - p.a * 2.5) "
        "FROM p JOIN side ON p.sid = side.id "
        "WHERE p.f BETWEEN 20 AND 300 AND p.grp LIKE '%th' "
        "AND p.a >= 2 AND p.f * 1.08 < 250 "
        "GROUP BY side.label ORDER BY side.label",
    ]
    return out


def load(db) -> None:
    for statement in DDL:
        db.execute(statement)
    insert = db.engine.insert
    for row in key_rows(PROBE_ROWS, 0):
        insert("p", row)
    for row in key_rows(BUILD_ROWS, 1):
        insert("b", row)
    for i in range(SIDE_ROWS):
        insert("side", side_row(i))


def _record(sql: str, db) -> dict:
    try:
        result = db.execute(sql)
    except Exception as error:  # the error is part of the contract
        return {"sql": sql, "error": f"{type(error).__name__}: {error}"}
    text = repr((result.columns, result.rows))
    if len(text) > _GOLDEN_INLINE:
        text = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"sql": sql, "rows": len(result.rows), "repr": text}


def typed_records() -> list[dict]:
    """Every golden record, in a fixed order."""
    db = connect(with_crowd=False)
    load(db)
    records = [_record(sql, db) for sql in queries()]
    db.close()
    return records


def _check_golden() -> None:
    with open(TYPED_GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    actual = typed_records()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index}: {want['sql']}"


def test_typed_golden():
    _check_golden()


def test_typed_golden_in_small_batches(monkeypatch):
    monkeypatch.setattr(vectorized_ops, "VECTOR_ROWS", 300)
    _check_golden()


#: Build key lanes ``(lowest key, span, rows)``: the join build's radix
#: sort must order each exactly as the stable int64 argsort does.
SORT_KEYS = {
    "span-0": (0, 0, 5000),
    "span-2**16-1": (-7, 2**16 - 1, 5000),
    "span-2**16": (100, 2**16, 5000),
    "span-2**32-1": (2**40, 2**32 - 1, 5000),
    "span-2**32": (-(2**31), 2**32, 5000),
    "span-2**48": (-(2**50), 2**48, 5000),
    "int64-min-max": (-(2**63), 2**64 - 1, 5000),
    "negative-min": (-1000, 1000, 5000),
    "all-equal": (-3, 0, 5000),
    "one-row": (42, 0, 1),
}


@pytest.mark.skipif(np is None, reason="numpy is not installed")
@pytest.mark.parametrize("low, span, rows", SORT_KEYS.values(), ids=SORT_KEYS)
def test_sorted_keys_match_the_stable_argsort(low, span, rows):
    rng = random.Random(span)
    # both ends of the span, and few enough distinct keys that most repeat
    pool = [low, low + span]
    pool += [low + rng.randrange(span + 1) for _ in range(rows // 8)]
    arr = np.array([rng.choice(pool) for _ in range(rows)], dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    keys = arr[order]
    built = vectorized_ops._SortedKeys(arr)
    assert built.order.tolist() == order.tolist()
    assert built.keys.tolist() == keys.tolist()
    assert built.unique == (not (keys[1:] == keys[:-1]).any())


if __name__ == "__main__":
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from conftest import _row_engine

    default = typed_records()
    with _row_engine():
        records = typed_records()
    assert default == records, "the default path and the row engine differ"
    with open(TYPED_GOLDEN, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
