"""Unit tests for the storage substrate: heaps, indexes, engine, log."""

import json
from pathlib import Path

import pytest

from repro import connect
from repro.api import Connection
from repro.catalog.ddl import build_table_schema
from repro.errors import ConstraintError, StorageError
from repro.sql.parser import parse
from repro.sqltypes import CNULL, NULL
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapTable
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.recovery import DurableStorage
from repro.storage.row import Scope


def schema_of(sql):
    return build_table_schema(parse(sql))


@pytest.fixture
def talk_engine():
    engine = StorageEngine()
    engine.create_table(
        schema_of(
            "CREATE TABLE Talk (title STRING PRIMARY KEY, "
            "abstract CROWD STRING, nb_attendees CROWD INTEGER)"
        )
    )
    return engine


class TestHashIndex:
    def test_insert_lookup_delete(self):
        index = HashIndex("i", ("a",))
        index.insert(("x",), 1)
        index.insert(("x",), 2)
        assert index.lookup(("x",)) == {1, 2}
        index.delete(("x",), 1)
        assert index.lookup(("x",)) == {2}

    def test_unique_violation(self):
        index = HashIndex("i", ("a",), unique=True)
        index.insert(("x",), 1)
        with pytest.raises(ConstraintError):
            index.insert(("x",), 2)

    def test_missing_values_never_match(self):
        index = HashIndex("i", ("a",), unique=True)
        index.insert((NULL,), 1)
        index.insert((NULL,), 2)  # two NULL keys do not collide
        assert index.lookup((NULL,)) == frozenset()
        index.delete((NULL,), 1)

    def test_delete_unknown_entry(self):
        index = HashIndex("i", ("a",))
        with pytest.raises(StorageError):
            index.delete(("x",), 1)


class TestOrderedIndex:
    def test_range_scan(self):
        index = OrderedIndex("i", ("a",))
        for i, value in enumerate([5, 1, 3, 9, 7]):
            index.insert((value,), i)
        assert list(index.range(low=(3,), high=(7,))) == [2, 0, 4]

    def test_range_exclusive(self):
        index = OrderedIndex("i", ("a",))
        for i, value in enumerate([1, 2, 3]):
            index.insert((value,), i)
        assert list(index.range(low=(1,), low_inclusive=False)) == [1, 2]
        assert list(index.range(high=(3,), high_inclusive=False)) == [0, 1]

    def test_unique(self):
        index = OrderedIndex("i", ("a",), unique=True)
        index.insert((1,), 0)
        with pytest.raises(ConstraintError):
            index.insert((1,), 1)

    def test_missing_kept_aside(self):
        index = OrderedIndex("i", ("a",))
        index.insert((CNULL,), 0)
        index.insert((1,), 1)
        assert list(index.range()) == [1]
        assert list(index.ordered_rowids()) == [1, 0]
        index.delete((CNULL,), 0)
        assert len(index) == 1

    def test_lookup(self):
        index = OrderedIndex("i", ("a",))
        index.insert((1,), 0)
        index.insert((1,), 1)
        assert index.lookup((1,)) == {0, 1}
        assert index.contains_key((1,))

    def test_prefix_lookup(self):
        index = OrderedIndex("i", ("a", "b"))
        index.insert((1, "x"), 0)
        index.insert((1, "y"), 1)
        index.insert((2, "x"), 2)
        assert index.prefix_lookup((1,)) == {0, 1}
        assert index.prefix_lookup((2,)) == {2}
        assert index.prefix_lookup((3,)) == frozenset()
        assert index.prefix_lookup((1, "y")) == {1}
        assert index.prefix_lookup((CNULL,)) == frozenset()


class TestHeapTable:
    def test_insert_scan(self, talk_engine):
        heap = talk_engine.table("Talk")
        heap.insert(heap.prepare_values(["CrowdDB"], ("title",)))
        rows = list(heap.scan())
        assert len(rows) == 1
        assert rows[0].values == ("CrowdDB", CNULL, CNULL)

    def test_crowd_columns_default_to_cnull(self, talk_engine):
        heap = talk_engine.table("Talk")
        values = heap.prepare_values(["Qurk"], ("title",))
        assert values == ("Qurk", CNULL, CNULL)

    def test_full_tuple_insert(self, talk_engine):
        heap = talk_engine.table("Talk")
        values = heap.prepare_values(["T", "Abs", 10])
        assert values == ("T", "Abs", 10)

    def test_storage_form_tuple_is_kept(self, talk_engine):
        heap = talk_engine.table("Talk")
        values = ("T", "Abs", 10)
        assert heap.prepare_values(values) is values
        assert heap.insert(values).values is values

    def test_wrong_arity(self, talk_engine):
        heap = talk_engine.table("Talk")
        with pytest.raises(StorageError, match="expects 3 values"):
            heap.prepare_values(["a", "b"])

    def test_duplicate_insert_column(self, talk_engine):
        heap = talk_engine.table("Talk")
        with pytest.raises(StorageError, match="duplicate column"):
            heap.prepare_values(["a", "b"], ("title", "TITLE"))

    def test_type_coercion_on_insert(self, talk_engine):
        heap = talk_engine.table("Talk")
        values = heap.prepare_values(
            ["T", "Abs", "42"], ("title", "abstract", "nb_attendees")
        )
        assert values[2] == 42

    def test_primary_key_enforced(self, talk_engine):
        heap = talk_engine.table("Talk")
        heap.insert(heap.prepare_values(["X"], ("title",)))
        with pytest.raises(ConstraintError):
            heap.insert(heap.prepare_values(["X"], ("title",)))
        assert len(heap) == 1  # failed insert left nothing behind

    def test_not_null_enforced(self, talk_engine):
        heap = talk_engine.table("Talk")
        with pytest.raises(ConstraintError, match="NOT NULL"):
            heap.insert(heap.prepare_values([NULL, "a", 1]))

    def test_lookup_primary_key(self, talk_engine):
        heap = talk_engine.table("Talk")
        heap.insert(heap.prepare_values(["X"], ("title",)))
        assert heap.lookup_primary_key(("X",)) is not None
        assert heap.lookup_primary_key(("Y",)) is None

    def test_delete_maintains_indexes(self, talk_engine):
        heap = talk_engine.table("Talk")
        row = heap.insert(heap.prepare_values(["X"], ("title",)))
        heap.delete(row.rowid)
        assert heap.lookup_primary_key(("X",)) is None
        heap.insert(heap.prepare_values(["X"], ("title",)))  # key reusable

    def test_update_changes_indexes(self, talk_engine):
        heap = talk_engine.table("Talk")
        row = heap.insert(heap.prepare_values(["X"], ("title",)))
        heap.update(row.rowid, ("Y", CNULL, CNULL))
        assert heap.lookup_primary_key(("X",)) is None
        assert heap.lookup_primary_key(("Y",)).rowid == row.rowid

    def test_update_unique_violation_leaves_state(self, talk_engine):
        heap = talk_engine.table("Talk")
        heap.insert(heap.prepare_values(["X"], ("title",)))
        row = heap.insert(heap.prepare_values(["Y"], ("title",)))
        with pytest.raises(ConstraintError):
            heap.update(row.rowid, ("X", CNULL, CNULL))
        assert heap.lookup_primary_key(("Y",)) is not None

    def test_set_value(self, talk_engine):
        heap = talk_engine.table("Talk")
        row = heap.insert(heap.prepare_values(["X"], ("title",)))
        heap.set_value(row.rowid, "nb_attendees", 55)
        assert heap.get(row.rowid).values[2] == 55

    def test_get_unknown_rowid(self, talk_engine):
        with pytest.raises(StorageError):
            talk_engine.table("Talk").get(99)

    def test_secondary_index_backfill(self, talk_engine):
        heap = talk_engine.table("Talk")
        heap.insert(heap.prepare_values(["X", "a", 1]))
        heap.insert(heap.prepare_values(["Y", "a", 2]))
        index = heap.create_index("by_abstract", ("abstract",))
        assert len(index.lookup(("a",))) == 2

    def test_index_on(self, talk_engine):
        heap = talk_engine.table("Talk")
        assert heap.index_on(("title",)) is not None
        assert heap.index_on(("abstract",)) is None


class TestStatistics:
    def test_row_count_and_cnull_fraction(self, talk_engine):
        heap = talk_engine.table("Talk")
        heap.insert(heap.prepare_values(["X"], ("title",)))
        heap.insert(heap.prepare_values(["Y", "abs", 5]))
        stats = heap.statistics
        assert stats.row_count == 2
        assert stats.cnull_fraction("abstract") == 0.5
        assert stats.column("title").distinct_count == 2

    def test_stats_follow_updates(self, talk_engine):
        heap = talk_engine.table("Talk")
        row = heap.insert(heap.prepare_values(["X"], ("title",)))
        heap.set_value(row.rowid, "abstract", "filled")
        assert heap.statistics.cnull_fraction("abstract") == 0.0
        heap.delete(row.rowid)
        assert heap.statistics.row_count == 0

    def test_selectivity(self, talk_engine):
        heap = talk_engine.table("Talk")
        for i in range(10):
            heap.insert(heap.prepare_values([f"T{i}", "same", i]))
        title_sel = heap.statistics.column("title").selectivity_equals()
        abstract_sel = heap.statistics.column("abstract").selectivity_equals()
        assert title_sel == pytest.approx(0.1)
        assert abstract_sel > title_sel  # fewer distinct values

    def test_unhashable_values_mark_ndv_as_lower_bound(self):
        from repro.storage.statistics import ColumnStatistics

        stats = ColumnStatistics("c")
        stats.add("hashable")
        assert not stats.distinct_is_lower_bound
        stats.add(["un", "hashable"])
        stats.add(["un", "hashable"])  # same repr: collapses
        assert stats.distinct_is_lower_bound
        assert stats.distinct_count == 2  # a lower bound, not exact


class TestStorageEngine:
    def test_foreign_key_enforced(self):
        engine = StorageEngine()
        engine.create_table(schema_of("CREATE TABLE Talk (title STRING PRIMARY KEY)"))
        engine.create_table(
            schema_of(
                "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, "
                "FOREIGN KEY (title) REF Talk(title))"
            )
        )
        engine.insert("Talk", ["CrowdDB"])
        engine.insert("n", ["Mike", "CrowdDB"])
        with pytest.raises(ConstraintError, match="foreign key"):
            engine.insert("n", ["Eve", "Unknown"])

    def test_missing_fk_value_not_checked(self):
        engine = StorageEngine()
        engine.create_table(schema_of("CREATE TABLE Talk (title STRING PRIMARY KEY)"))
        engine.create_table(
            schema_of(
                "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, "
                "FOREIGN KEY (title) REF Talk(title))"
            )
        )
        engine.insert("n", ["Mike", NULL])  # SQL semantics: not checked

    def test_create_drop(self):
        engine = StorageEngine()
        engine.create_table(schema_of("CREATE TABLE t (a INT)"))
        assert engine.has_table("T")
        engine.drop_table("t")
        assert not engine.has_table("t")
        assert engine.drop_table("t", if_exists=True) is False

    def test_if_not_exists(self):
        engine = StorageEngine()
        engine.create_table(schema_of("CREATE TABLE t (a INT)"))
        created = engine.create_table(
            schema_of("CREATE TABLE t (a INT)"), if_not_exists=True
        )
        assert created is False


class _RecordingWal:
    """Stands in for the attached WAL: keeps the records it is handed."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


class TestWalWriteThrough:
    @pytest.fixture
    def wal(self, talk_engine):
        talk_engine.wal = _RecordingWal()
        return talk_engine.wal

    def test_operations_logged(self, talk_engine, wal):
        talk_engine.insert("Talk", ["X"], ("title",))
        row = talk_engine.insert("Talk", ["Y"], ("title",))
        talk_engine.set_value("Talk", row.rowid, "abstract", "abs", origin="crowd")
        talk_engine.delete("Talk", row.rowid)
        assert [record["op"] for record in wal.records] == [
            "insert", "insert", "update", "delete",
        ]

    def test_crowd_entries_tracked(self, talk_engine, wal):
        row = talk_engine.insert("Talk", ["X"], ("title",))
        talk_engine.set_value("Talk", row.rowid, "abstract", "a", origin="crowd")
        crowd = [r for r in wal.records if r.get("origin") == "crowd"]
        assert len(crowd) == 1 and crowd[0]["op"] == "update"

    def test_in_memory_engine_retains_no_history(self, talk_engine):
        for i in range(100):
            talk_engine.insert("Talk", [f"T{i}"], ("title",))
        # no WAL attached, and nothing beyond the catalog, the heaps and
        # the statistics knobs: no attribute where history could pile up
        assert talk_engine.wal is None
        assert set(vars(talk_engine)) == {
            "catalog", "wal", "_tables",
            "auto_analyze_floor", "auto_analyze_fraction",
        }


class TestScope:
    def test_resolve_qualified(self):
        scope = Scope([("t", "a"), ("u", "a"), ("t", "b")])
        assert scope.resolve("a", "t") == 0
        assert scope.resolve("a", "u") == 1
        assert scope.resolve("b") == 2

    def test_ambiguous_unqualified(self):
        from repro.errors import ExecutionError

        scope = Scope([("t", "a"), ("u", "a")])
        with pytest.raises(ExecutionError, match="ambiguous"):
            scope.resolve("a")

    def test_same_binding_duplicate_is_not_ambiguous(self):
        scope = Scope([("t", "a"), ("t", "a")])
        assert scope.resolve("a") == 0

    def test_missing_column(self):
        from repro.errors import ExecutionError

        scope = Scope([("t", "a")])
        with pytest.raises(ExecutionError, match="not found"):
            scope.resolve("zz")

    def test_concat_and_rename(self):
        left = Scope([("t", "a")])
        right = Scope([("u", "b")])
        combined = left.concat(right)
        assert combined.resolve("b", "u") == 1
        renamed = combined.rename("s")
        assert renamed.resolve("a", "s") == 0

    def test_positions_for_binding(self):
        scope = Scope([("t", "a"), ("u", "b"), ("t", "c")])
        assert scope.positions_for_binding("t") == [0, 2]


# -- the write-path golden -----------------------------------------------------
#
# ``tests/golden/writes_v1.jsonl`` pins what every write leaves behind: a
# deterministic DML run over tables with every SQL type, NULL and CNULL, a
# primary key, UNIQUE columns, a user hash index and ordered indexes, and
# foreign keys to a parent's primary key, to a UNIQUE column and to an
# unindexed column.  The values exercise every coercion (``1`` -> FLOAT,
# ``'2.5'`` -> FLOAT, ``'yes'``/``0`` -> BOOLEAN, ``3.0`` -> INTEGER), the
# load crosses several auto-analyze thresholds, and each single-row failure
# records its error type and message.  After every phase the record holds
# the rows under their rowids, every index's contents, every column's
# counters, MCVs and histogram, the table's staleness counters and epoch,
# and the normalized primary keys.  The same script run durably -- a
# checkpoint midway, then a reopen from checkpoint plus WAL, and another
# from the closing checkpoint alone -- must reproduce the last record.
# ``python tests/test_storage.py`` rewrites the golden: only at the parent
# of a change meant to alter what a write stores.

WRITES_GOLDEN = Path(__file__).parent / "golden" / "writes_v1.jsonl"

WRITES_DDL = (
    "CREATE TABLE dept (id INTEGER PRIMARY KEY, code STRING UNIQUE, "
    "name STRING, budget FLOAT)",
    "CREATE TABLE emp (id INTEGER PRIMARY KEY, email STRING UNIQUE, "
    "name STRING NOT NULL, dept_id INTEGER, dept_code STRING, "
    "dept_name STRING, salary FLOAT, active BOOLEAN, level INTEGER, "
    "note CROWD STRING, rating CROWD INTEGER, "
    "FOREIGN KEY (dept_id) REFERENCES dept(id), "
    "FOREIGN KEY (dept_code) REFERENCES dept(code), "
    "FOREIGN KEY (dept_name) REFERENCES dept(name))",
    "CREATE TABLE pair (a INTEGER, b STRING, w FLOAT DEFAULT 1, "
    "PRIMARY KEY (a, b))",
    "CREATE TABLE bag (k STRING, v INTEGER)",
    "CREATE INDEX emp_level ON emp (level)",
)

_ACTIVE = ("yes", 0, True, "f", 1, False, None, "TRUE")


def _emp_values(i: int) -> tuple:
    """One raw ``emp`` row: every coercion the write path performs shows
    up at a fixed stride."""
    identifier = float(i) if i % 17 == 0 else (f" {i} " if i % 19 == 0 else i)
    salary = (
        None if i % 41 == 0
        else 1000 + i if i % 3 == 0
        else f"{i}.5" if i % 3 == 1
        else i * 10.25
    )
    return (
        identifier,
        NULL if i % 23 == 0 else f"e{i}@x",
        f"N{i % 37}",
        None if i % 29 == 0 else i % 8,
        NULL if i % 31 == 0 else f"D{i % 8}",
        f"Dept {i % 8}",
        salary,
        _ACTIVE[i % len(_ACTIVE)],
        float(i % 5) if i % 4 == 0 else i % 5,
        f"n{i % 6}",
        str(i % 4),
    )


#: the mixed-case INSERT column list of the odd ``emp`` rows (no CROWD
#: columns: they stay CNULL)
_EMP_PARTIAL = (
    "ID", "Email", "name", "DEPT_ID", "dept_code", "Dept_Name", "salary",
    "active", "LEVEL",
)


def _load_emp(engine, rows: range) -> None:
    for i in rows:
        values = _emp_values(i)
        if i % 2:
            engine.insert("emp", values[:9], _EMP_PARTIAL)
        else:
            engine.insert("emp", values)


#: single-row inserts that must fail: case, table, values, column list
_FAILING_INSERTS = (
    ("not null", "emp", (900, "z@x", NULL) + (None,) * 8, None),
    ("duplicate pk", "emp", (5, "z@x", "Z"), ("id", "email", "name")),
    ("duplicate unique", "emp", (901, "e7@x", "Z"), ("id", "email", "name")),
    ("fk to pk", "emp", (902, "Z", 99), ("id", "name", "dept_id")),
    ("fk to unique", "emp", (903, "Z", "D99"), ("id", "name", "dept_code")),
    ("fk to unindexed", "emp", (904, "Z", "Nope"),
     ("id", "name", "dept_name")),
    ("integer from text", "emp", ("abc", "Z"), ("id", "name")),
    ("integer from fraction", "emp", (905, "Z", 1.5), ("id", "name", "level")),
    ("integer from bool", "emp", (True, "Z"), ("id", "name")),
    ("boolean from text", "emp", (906, "Z", "maybe"),
     ("id", "name", "active")),
    ("boolean from 2", "emp", (907, "Z", 2), ("id", "name", "active")),
    ("string from int", "emp", (908, 5), ("id", "name")),
    ("float from text", "emp", (909, "Z", "x"), ("id", "name", "salary")),
    ("float from bool", "dept", (50, "D50", "X", True), None),
    ("arity", "emp", (1, 2), None),
    ("column list arity", "emp", (1, 2), ("id",)),
    ("unknown column", "emp", (910,), ("nope",)),
    ("duplicate column", "emp", (911, 912), ("id", "ID")),
    ("duplicate composite pk", "pair", (1, "a"), ("a", "b")),
)

#: single-row statements that must fail: case, SQL
_FAILING_STATEMENTS = (
    ("sql duplicate pk", "INSERT INTO emp (id, name) VALUES (5, 'x')"),
    ("sql update unique", "UPDATE emp SET email = 'e7@x' WHERE id = 8"),
    ("sql update not null", "UPDATE emp SET name = NULL WHERE id = 8"),
    ("sql update fk", "UPDATE emp SET dept_id = 99 WHERE id = 8"),
    ("sql update coercion", "UPDATE emp SET level = 'high' WHERE id = 8"),
)


def _failures(db) -> list[dict]:
    """Every single-row failure, each with its error type and message."""
    engine = db.engine
    cases = [
        (case, lambda t=table, v=values, c=columns: engine.insert(t, v, c))
        for case, table, values, columns in _FAILING_INSERTS
    ] + [
        (case, lambda sql=sql: db.execute(sql))
        for case, sql in _FAILING_STATEMENTS
    ] + [
        ("set_value coercion",
         lambda: engine.set_value("emp", 2, "rating", "many", origin="crowd")),
        ("set_value unknown column",
         lambda: engine.set_value("emp", 2, "nope", 1)),
        ("delete unknown rowid", lambda: engine.delete("emp", 99_999)),
        ("update unknown rowid", lambda: engine.update("emp", 99_999, ())),
    ]
    failures = []
    for case, call in cases:
        try:
            call()
        except Exception as error:  # every case must fail
            failures.append(
                {"case": case, "error": type(error).__name__,
                 "message": str(error)}
            )
        else:
            raise AssertionError(f"write-path case {case!r} did not fail")
    return failures


def _phases(db):
    """The golden's DML script, one phase at a time: yields each phase's
    name and the failures it recorded."""
    engine = db.engine
    for statement in WRITES_DDL:
        db.execute(statement)
    engine.create_index("emp", "emp_salary_ord", ("salary",), ordered=True)
    yield "ddl", []

    db.execute(
        "INSERT INTO dept VALUES " + ", ".join(
            f"({d}, 'D{d}', 'Dept {d}', {1000 * d})" for d in range(8)
        )
    )
    db.execute("INSERT INTO dept (id, code, name, budget) "
               "VALUES (8, 'D8', 'Dept 8', '2.5')")
    _load_emp(engine, range(260))
    for a, b in ((1, "a"), (1.0, "b"), (2, "a"), ("3", "c")):
        engine.insert("pair", (a, b), ("A", "b"))
    engine.insert("pair", (4, "d", 0.25))
    db.execute("INSERT INTO bag VALUES ('x', 1), ('x', 1), (NULL, 2)")
    db.execute("INSERT INTO bag SELECT name, level FROM emp WHERE level = 1")
    yield "load", []

    yield "failures", _failures(db)

    for statement in (
        "UPDATE emp SET salary = salary * 2 WHERE level = 2",
        "UPDATE emp SET id = id + 1000 WHERE id < 20",
        "UPDATE emp SET email = NULL WHERE id = 1005",
        "UPDATE emp SET level = 3.0, active = 'no' WHERE name = 'N3'",
        "UPDATE emp SET dept_code = 'D1', dept_name = 'Dept 1' "
        "WHERE dept_id = 1",
        "UPDATE dept SET budget = 7 WHERE id = 3",
        "UPDATE pair SET b = 'z' WHERE a = 2",
        "UPDATE bag SET v = v + 1",
    ):
        db.execute(statement)
    engine.update("emp", 30, tuple(engine.table("emp").get(30).values))
    yield "update", []

    for rowid in range(20, 80, 2):
        column, value = (
            ("note", f"crowd {rowid % 5}") if rowid % 4
            else ("rating", "3" if rowid % 8 else 4.0)
        )
        engine.set_value("emp", rowid, column, value, origin="crowd")
    engine.set_value("emp", 81, "note", NULL, origin="crowd")
    engine.set_value("emp", 83, "salary", 7)
    yield "set_value", []

    db.execute("DELETE FROM emp WHERE level = 0")
    db.execute("DELETE FROM bag WHERE v > 2")
    db.execute("DELETE FROM pair WHERE a = 1")
    engine.delete("emp", 99)
    yield "delete", []

    engine.create_index("emp", "emp_name_dept", ("Name", "dept_id"),
                        ordered=True)
    db.execute("CREATE INDEX emp_dept_code ON emp (dept_code)")
    engine.create_index("bag", "bag_kv", ("k", "v"), ordered=True)
    failures = []
    try:
        db.execute("CREATE UNIQUE INDEX emp_name_u ON emp (name)")
    except Exception as error:
        failures.append({"case": "unique index over duplicates",
                         "error": type(error).__name__,
                         "message": str(error)})
    _load_emp(engine, range(300, 340))
    db.execute("UPDATE emp SET dept_code = 'D2', name = 'N0' WHERE id = 300")
    yield "index", failures

    db.execute("ANALYZE emp")
    db.execute("ANALYZE")
    _load_emp(engine, range(400, 470))
    yield "analyze", []


def _index_dump(index) -> dict:
    if isinstance(index, OrderedIndex):
        contents = {
            "entries": [[repr(key), rowid] for key, rowid in index._entries],
            "missing": sorted(index._missing),
        }
    else:
        contents = {
            "buckets": sorted(
                [repr(key), sorted(rowids)]
                for key, rowids in index._buckets.items()
            ),
        }
    return {"columns": list(index.columns), "unique": index.unique,
            **contents}


def _column_stats_dump(column) -> dict:
    histogram = column.histogram
    return {
        "null": column.null_count,
        "cnull": column.cnull_count,
        "values": sorted(
            [repr(value), count]
            for value, count in column._value_counts.items()
        ),
        "distinct_is_lower_bound": column.distinct_is_lower_bound,
        "mcv": [[repr(value), count] for value, count in column.mcv.items()],
        "histogram": None if histogram is None else {
            "total": histogram.total,
            "buckets": [
                [repr(b.low), repr(b.high), b.count, b.distinct]
                for b in histogram.buckets
            ],
        },
    }


def writes_dump(engine) -> dict:
    """Everything a write can change, in a JSON-ready, order-stable form."""
    tables = {}
    for name in engine.table_names():
        heap = engine.table(name)
        stats = heap.statistics
        tables[heap.name] = {
            "next_rowid": heap._next_rowid,
            "rows": [[row.rowid, [repr(v) for v in row.values]]
                     for row in heap.scan()],
            "indexes": {
                index_name: _index_dump(index)
                for index_name, index in sorted(heap.indexes.items())
            },
            "row_count": stats.row_count,
            "epoch": stats.epoch,
            "analyzed": stats.analyzed,
            "mutations_since_analyze": stats.mutations_since_analyze,
            "rows_at_analyze": stats._rows_at_analyze,
            "columns": {
                column_name: _column_stats_dump(column)
                for column_name, column in stats.columns.items()
            },
            "normalized_pks": None if heap._normalized_pks is None else sorted(
                [repr(key), count]
                for key, count in heap._normalized_pks.items()
            ),
        }
    return tables


def writes_records() -> list[dict]:
    """The in-memory run's records: one per phase."""
    db = connect(with_crowd=False)
    try:
        return [
            {"phase": phase, "failures": failures,
             "tables": writes_dump(db.engine)}
            for phase, failures in _phases(db)
        ]
    finally:
        db.close()


def durable_dumps(directory: str) -> tuple[dict, DurableStorage]:
    """The durable run in ``directory``: a checkpoint after the failures
    phase, the rest in the WAL, then a crash.  Returns the live engine's
    last dump and the instance reopened from checkpoint + WAL."""
    storage = DurableStorage(
        directory, wal_sync="off", checkpoint_interval=None
    )
    db = Connection(engine=storage.engine)
    for phase, _failures in _phases(db):
        if phase == "failures":
            storage.checkpoint()
    live = writes_dump(storage.engine)
    storage.wal.close()  # a crash: no closing checkpoint
    return live, DurableStorage(directory, wal_sync="off")


def reopened_record(replayed: DurableStorage) -> dict:
    """The golden's last record: the durable run, reopened from checkpoint
    + WAL, closed (which publishes a checkpoint covering everything) and
    reopened from that checkpoint alone."""
    replayed.close()
    reopened = DurableStorage(replayed.directory, wal_sync="off")
    try:
        return {"phase": "reopened", "failures": [],
                "tables": writes_dump(reopened.engine)}
    finally:
        reopened.close()


def _read_golden() -> list[dict]:
    with open(WRITES_GOLDEN, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _assert_record(got: dict, want: dict) -> None:
    assert got["failures"] == want["failures"], got["phase"]
    for table, dump in want["tables"].items():
        for key, value in dump.items():
            assert got["tables"][table][key] == value, (
                got["phase"], table, key
            )
    assert got == want


def test_writes_golden():
    expected = _read_golden()[:-1]
    actual = writes_records()
    assert [r["phase"] for r in actual] == [r["phase"] for r in expected]
    for got, want in zip(actual, expected):
        _assert_record(got, want)


def test_writes_golden_survives_checkpoint_and_replay(tmp_path):
    """Reopening the durable run from checkpoint + WAL reproduces the
    in-memory run's last phase exactly.  Reopening from the closing
    checkpoint alone reproduces the golden's ``reopened`` record: a
    checkpoint keeps the counters but not the analyzed summaries, so that
    reopen rebuilds MCVs and histograms from the counters it restored,
    which have moved since the last analyze, with ties in rowid order."""
    *phases, reopened = _read_golden()
    final = phases[-1]["tables"]
    live, replayed = durable_dumps(str(tmp_path))
    assert live == final
    assert replayed.report.checkpoint_loaded
    assert replayed.report.records_replayed > 0
    assert writes_dump(replayed.engine) == final
    _assert_record(reopened_record(replayed), reopened)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        _live, replayed = durable_dumps(directory)
        records = writes_records() + [reopened_record(replayed)]
    with open(WRITES_GOLDEN, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {WRITES_GOLDEN}")
