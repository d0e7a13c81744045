"""Unit tests for the storage substrate: heaps, indexes, engine, log."""

import pytest

from repro.catalog.ddl import build_table_schema
from repro.errors import ConstraintError, StorageError
from repro.sql.parser import parse
from repro.sqltypes import CNULL, NULL
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapTable
from repro.storage.index import HashIndex, OrderedIndex
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
