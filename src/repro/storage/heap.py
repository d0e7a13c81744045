"""Heap table: the primary store for one table's rows.

Rows live in an insertion-ordered dict keyed by row id.  The heap owns its
indexes (a primary-key hash index, per-UNIQUE-column indexes, and any user
indexes) and its incremental statistics, and keeps all of them consistent
across insert/update/delete.  Every write runs from one :class:`WritePlan`:
what depends only on the schema and the index set is resolved once, not
per row.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, KeysView, Optional

from repro.catalog.table import TableSchema
from repro.crowd.quality import normalize_answer
from repro.errors import ConstraintError, StorageError
from repro.sqltypes import CNULL, NULL, STORAGE_TYPES, coerce
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.row import Row
from repro.storage.statistics import TableStatistics

KeyFn = Callable[[tuple], tuple]


def key_getter(ordinals: tuple[int, ...]) -> KeyFn:
    """A function from a stored tuple to its key over ``ordinals``."""
    if len(ordinals) == 1:
        (ordinal,) = ordinals
        return lambda values: (values[ordinal],)
    return itemgetter(*ordinals)


class WritePlan:
    """What a write needs from one heap's schema and index set.

    Built on the heap's first write and again after ``create_index``:
    per-column storage types and SQL types (the exact-type lane), the
    values of unlisted columns, the NOT NULL ordinals, each index with its
    key function, the foreign keys with theirs, and the normalized
    primary key.
    """

    def __init__(self, heap: "HeapTable") -> None:
        schema = heap.schema
        columns = schema.columns
        self.storage_types = tuple(STORAGE_TYPES[c.sql_type] for c in columns)
        self.sql_types = tuple(c.sql_type for c in columns)
        self.missing = tuple(c.missing_value for c in columns)
        self.not_null = tuple(
            (c.ordinal, f"column {schema.name}.{c.name} is NOT NULL")
            for c in columns
            if c.not_null
        )
        self.indexes = tuple(
            (index, key_getter(tuple(
                schema.column_index(c) for c in index.columns
            )))
            for index in heap.indexes.values()
        )
        self.unique = tuple(
            (index, key) for index, key in self.indexes if index.unique
        )
        self.foreign_keys = tuple(
            (key_getter(tuple(schema.column_index(c) for c in fk.columns)),
             fk, tuple(c.lower() for c in fk.ref_columns))
            for fk in schema.foreign_keys
        )
        self.pk_key = key_getter(
            tuple(schema.column_index(c) for c in schema.primary_key)
        ) if schema.primary_key else None
        # parent side of foreign keys: lowered referenced columns -> probe
        self.references: dict[tuple[str, ...], Callable[[tuple], bool]] = {}

    def coerce_row(self, values: tuple) -> tuple:
        """A full client tuple in storage form.  A value whose type is
        exactly its column's storage type passes through; any other goes
        to :func:`coerce`.  An all-exact tuple is kept as it is."""
        if tuple(map(type, values)) == self.storage_types:
            return values
        return tuple([
            value if type(value) is storage_type else coerce(value, sql_type)
            for value, storage_type, sql_type in zip(
                values, self.storage_types, self.sql_types
            )
        ])

    def check_not_null(self, values: tuple) -> None:
        for ordinal, message in self.not_null:
            value = values[ordinal]
            if value is NULL or value is None or value is CNULL:
                raise ConstraintError(message)

    def coerce_value(self, ordinal: int, value: Any) -> Any:
        if type(value) is self.storage_types[ordinal]:
            return value
        return coerce(value, self.sql_types[ordinal])

    def normalized_pk(self, values: tuple) -> tuple:
        key = self.pk_key(values)
        for part in key:
            if isinstance(part, str):
                return tuple(map(normalize_answer, key))
        return key


class HeapTable:
    """In-memory heap with index and statistics maintenance."""

    def __init__(
        self,
        schema: TableSchema,
        auto_analyze_floor: Optional[int] = None,
        auto_analyze_fraction: Optional[float] = None,
    ) -> None:
        self.schema = schema
        self._rows: dict[int, tuple[Any, ...]] = {}
        self._next_rowid = 0
        # bumped on every mutation; keys the scan_columns() pivot cache:
        # (version, columns, rows, lanes of that version)
        self._version = 0
        self._column_cache: Optional[tuple[int, list, int, dict]] = None
        stats_kwargs = {}
        if auto_analyze_floor is not None:
            stats_kwargs["auto_analyze_floor"] = auto_analyze_floor
        if auto_analyze_fraction is not None:
            stats_kwargs["auto_analyze_fraction"] = auto_analyze_fraction
        self.statistics = TableStatistics(schema.column_names, **stats_kwargs)
        self.indexes: dict[str, HashIndex | OrderedIndex] = {}
        if schema.primary_key:
            self._pk_index: Optional[HashIndex] = HashIndex(
                f"{schema.name}_pk", tuple(schema.primary_key), unique=True
            )
            self.indexes[self._pk_index.name] = self._pk_index
        else:
            self._pk_index = None
        for column in schema.columns:
            if column.unique and not column.primary_key:
                index = HashIndex(
                    f"{schema.name}_{column.name}_unique",
                    (column.name,),
                    unique=True,
                )
                self.indexes[index.name] = index
        # normalized primary keys, maintained incrementally for open-world
        # crowd sourcing dedup (a Counter because distinct raw keys may
        # normalize to the same spelling)
        self._normalized_pks: Optional[Counter] = (
            Counter() if schema.primary_key else None
        )
        self._plan: Optional[WritePlan] = None

    @property
    def write_plan(self) -> WritePlan:
        plan = self._plan
        if plan is None:
            plan = self._plan = WritePlan(self)
        return plan
    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def name(self) -> str:
        return self.schema.name

    def scan(self, snapshot: bool = False) -> Iterator[Row]:
        """Yield all rows in insertion order.

        ``snapshot`` materializes the row dict first so the iteration
        survives inserts/deletes that interleave with it (crowd
        memorization while a cooperative session is suspended); the
        default iterates the live dict — the cheap path for read-only
        electronic execution.
        """
        items = list(self._rows.items()) if snapshot else self._rows.items()
        for rowid, values in items:
            yield Row(rowid, values)

    def scan_values(self, snapshot: bool = False) -> Iterator[tuple]:
        """Yield raw value tuples in insertion order.

        The executor's hot scan path: skips the per-row :class:`Row`
        wrapper allocation that :meth:`scan` pays (callers that need row
        ids keep using :meth:`scan`).
        """
        if snapshot:
            return iter(list(self._rows.values()))
        return iter(self._rows.values())

    def scan_columns(self) -> tuple[list[list], int]:
        """Column-major snapshot of the heap for the vectorized scan.

        Returns ``(columns, num_rows)``: one list per schema column, rows
        in insertion order.  The pivot is cached per table version, so
        repeated scans between writes hand back the same lists without
        copying (callers must treat them as immutable); any
        insert/update/delete bumps the version and invalidates the cache,
        and the returned lists are never the live storage — crowd writes
        that interleave with a suspended scan cannot mutate a batch
        already handed out, preserving snapshot-scan semantics.
        """
        cache = self._column_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        rows = list(self._rows.values())
        if rows:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in self.schema.columns]
        self._column_cache = (self._version, columns, len(rows), {})
        return columns, len(rows)

    def column_lanes(self) -> dict:
        """The lane dict of the pivot :meth:`scan_columns` hands out.

        The execution layer keeps typed forms of the pivot's columns here
        (ndarrays, dictionary encodings, hash-join build tables), keyed
        ``(ordinal, kind)`` and built on first use, so statements over an
        unchanged table share them.  A write starts a new pivot with an
        empty dict; a scan that read the old version keeps the old one.
        """
        cache = self._column_cache
        if cache is None or cache[0] != self._version:
            self.scan_columns()
            cache = self._column_cache
        return cache[3]

    def get(self, rowid: int) -> Row:
        try:
            return Row(rowid, self._rows[rowid])
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no row id {rowid}"
            ) from None

    def analyze(self) -> TableStatistics:
        """Rebuild histograms/MCVs for every column (``ANALYZE`` path)."""
        self.statistics.analyze()
        return self.statistics

    # -- keys -------------------------------------------------------------------

    def lookup_primary_key(self, key: tuple[Any, ...]) -> Optional[Row]:
        """Find the row with the given primary-key tuple, if present."""
        if self._pk_index is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        rowids = self._pk_index.lookup(key)
        if not rowids:
            return None
        return self.get(next(iter(rowids)))

    def normalized_primary_keys(self) -> KeysView:
        """Normalized PK tuples currently stored (open-world dedup).

        Maintained incrementally on insert/update/delete, so sourcing
        calls never rescan the heap.  The returned view is live — copy it
        before mutating the table if a stable set is needed.
        """
        if self._normalized_pks is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        return self._normalized_pks.keys()

    def _track_pk(self, plan: WritePlan, values: tuple, delta: int) -> None:
        counts = self._normalized_pks
        if counts is None:
            return
        key = plan.normalized_pk(values)
        count = counts.get(key, 0) + delta
        if count <= 0:
            counts.pop(key, None)
        else:
            counts[key] = count

    def references(self, lowered: tuple[str, ...], key: tuple) -> bool:
        """Does some row hold ``key`` in the columns named ``lowered``
        (lowercase)?  The parent side of a foreign-key check: the primary
        key when those are exactly its columns, else an index over exactly
        them, else a scan."""
        probes = self.write_plan.references
        probe = probes.get(lowered)
        if probe is None:
            probe = probes[lowered] = self._reference_probe(lowered)
        return probe(key)

    def _reference_probe(
        self, wanted: tuple[str, ...]
    ) -> Callable[[tuple], bool]:
        schema = self.schema
        if wanted == tuple(c.lower() for c in schema.primary_key):
            return self._pk_index.contains_key
        index = self.index_on(wanted)
        if index is not None:
            return index.contains_key
        key_of = key_getter(tuple(schema.column_index(c) for c in wanted))
        rows = self._rows
        return lambda key: any(
            key_of(values) == key for values in rows.values()
        )

    # -- mutations ---------------------------------------------------------------

    def prepare_values(
        self,
        values: Iterable[Any],
        column_names: Optional[tuple[str, ...]] = None,
    ) -> tuple[Any, ...]:
        """Coerce client values into a full storage tuple.

        ``column_names`` restricts to a subset (INSERT column list); any
        unlisted column takes its missing value — CNULL for CROWD columns,
        NULL (or the declared default) otherwise.
        """
        plan = self.write_plan
        if type(values) is not tuple:
            values = tuple(values)
        if column_names is None:
            if len(values) != len(plan.sql_types):
                raise StorageError(
                    f"table {self.name!r} expects {len(plan.sql_types)} "
                    f"values, got {len(values)}"
                )
            return plan.coerce_row(values)
        if len(values) != len(column_names):
            raise StorageError(
                f"INSERT lists {len(column_names)} columns but "
                f"{len(values)} values"
            )
        ordinals = [self.schema.column_index(name) for name in column_names]
        if len(set(ordinals)) != len(ordinals):
            raise StorageError("duplicate column in INSERT column list")
        full = list(plan.missing)
        for ordinal, value in sorted(zip(ordinals, values), key=itemgetter(0)):
            full[ordinal] = plan.coerce_value(ordinal, value)
        return tuple(full)

    def insert(self, values: tuple[Any, ...]) -> Row:
        """Insert a fully prepared storage tuple.  Returns the stored row."""
        plan = self.write_plan
        plan.check_not_null(values)
        # Probe all unique indexes before touching any of them, so a
        # violation leaves the heap unchanged.
        for index, key_of in plan.unique:
            key = key_of(values)
            if index.contains_key(key):
                raise ConstraintError(
                    f"duplicate key {key!r} for index {index.name!r}"
                )
        return self._store(plan, self._next_rowid, values)

    def restore_row(self, rowid: int, values: tuple[Any, ...]) -> Row:
        """Re-insert a committed row under its original rowid.

        The checkpoint-restore path: constraint probes are skipped (the
        data was valid when it committed) but indexes, statistics, and the
        normalized-PK counter are maintained exactly as on a live insert,
        so a restored heap is structurally identical to one that never
        went down.
        """
        if rowid in self._rows:
            raise StorageError(
                f"table {self.name!r} already has row id {rowid}"
            )
        return self._store(self.write_plan, rowid, values)

    def _store(self, plan: WritePlan, rowid: int, values: tuple) -> Row:
        for index, key_of in plan.indexes:
            index.insert(key_of(values), rowid)
        self._rows[rowid] = values
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1
        self._version += 1
        self.statistics.on_insert(values)
        self._track_pk(plan, values, +1)
        return Row(rowid, values)

    def delete(self, rowid: int) -> Row:
        plan = self.write_plan
        row = self.get(rowid)
        values = row.values
        for index, key_of in plan.indexes:
            index.delete(key_of(values), rowid)
        del self._rows[rowid]
        self._version += 1
        self.statistics.on_delete(values)
        self._track_pk(plan, values, -1)
        return row

    def update(self, rowid: int, values: tuple[Any, ...]) -> Row:
        """Replace the values of ``rowid`` (indexes and stats maintained)."""
        plan = self.write_plan
        old = self.get(rowid).values
        plan.check_not_null(values)
        moves = []
        for index, key_of in plan.indexes:
            old_key = key_of(old)
            new_key = key_of(values)
            if old_key == new_key:
                continue
            if index.unique and index.contains_key(new_key):
                raise ConstraintError(
                    f"duplicate key {new_key!r} for index {index.name!r}"
                )
            moves.append((index, old_key, new_key))
        for index, old_key, new_key in moves:
            index.delete(old_key, rowid)
            index.insert(new_key, rowid)
        self._rows[rowid] = values
        self._version += 1
        self.statistics.on_delete(old)
        self.statistics.on_insert(values)
        if self._normalized_pks is not None:
            if plan.normalized_pk(old) != plan.normalized_pk(values):
                self._track_pk(plan, old, -1)
                self._track_pk(plan, values, +1)
        return Row(rowid, values)

    def set_value(self, rowid: int, column_name: str, value: Any) -> Row:
        """Update a single column in place (used when memorizing crowd answers)."""
        ordinal = self.schema.column_index(column_name)
        new_values = list(self.get(rowid).values)
        new_values[ordinal] = self.write_plan.coerce_value(ordinal, value)
        return self.update(rowid, tuple(new_values))

    # -- secondary indexes ----------------------------------------------------------

    def create_index(
        self,
        name: str,
        columns: tuple[str, ...],
        unique: bool = False,
        ordered: bool = False,
    ) -> HashIndex | OrderedIndex:
        """Build a secondary index over existing rows."""
        if name in self.indexes:
            raise StorageError(f"index {name!r} already exists")
        key_of = key_getter(
            tuple(self.schema.column_index(c) for c in columns)
        )
        index: HashIndex | OrderedIndex
        if ordered:
            index = OrderedIndex(name, columns, unique=unique)
        else:
            index = HashIndex(name, columns, unique=unique)
        for rowid, values in self._rows.items():
            index.insert(key_of(values), rowid)
        self.indexes[name] = index
        self._plan = None
        return index

    def index_on(self, columns: tuple[str, ...]) -> Optional[HashIndex | OrderedIndex]:
        """An index whose key is exactly ``columns`` (case-insensitive)."""
        wanted = tuple(c.lower() for c in columns)
        for index in self.indexes.values():
            if tuple(c.lower() for c in index.columns) == wanted:
                return index
        return None

    def ordered_index_with_prefix(
        self, columns: tuple[str, ...]
    ) -> Optional[OrderedIndex]:
        """An ordered index whose leading key columns are exactly
        ``columns`` (case-insensitive) — usable for prefix lookups."""
        wanted = tuple(c.lower() for c in columns)
        for index in self.indexes.values():
            if not isinstance(index, OrderedIndex):
                continue
            if tuple(c.lower() for c in index.columns[: len(wanted)]) == wanted:
                return index
        return None
