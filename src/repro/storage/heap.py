"""Heap table: the primary store for one table's rows.

Rows live in an insertion-ordered dict keyed by row id.  The heap owns its
indexes (a primary-key hash index, per-UNIQUE-column indexes, and any user
indexes) and its incremental statistics, and keeps all of them consistent
across insert/update/delete.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Iterator, KeysView, Optional

from repro.catalog.table import TableSchema
from repro.errors import ConstraintError, StorageError
from repro.sqltypes import coerce, is_missing
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.row import Row
from repro.storage.statistics import TableStatistics


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
        self._pk_positions = tuple(
            schema.column_index(c) for c in schema.primary_key
        )
        self._normalized_pks: Optional[Counter] = (
            Counter() if schema.primary_key else None
        )

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

    # -- key helpers ------------------------------------------------------------

    def _key_for(self, values: tuple[Any, ...], columns: tuple[str, ...]) -> tuple:
        return tuple(values[self.schema.column_index(c)] for c in columns)

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

    def _normalized_pk(self, values: tuple[Any, ...]) -> tuple:
        from repro.crowd.quality import normalize_answer

        return tuple(
            normalize_answer(values[p]) for p in self._pk_positions
        )

    def _track_pk(self, values: tuple[Any, ...], delta: int) -> None:
        if self._normalized_pks is None:
            return
        key = self._normalized_pk(values)
        self._normalized_pks[key] += delta
        if self._normalized_pks[key] <= 0:
            del self._normalized_pks[key]

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
        values = list(values)
        if column_names is None:
            if len(values) != len(self.schema.columns):
                raise StorageError(
                    f"table {self.name!r} expects {len(self.schema.columns)} "
                    f"values, got {len(values)}"
                )
            pairs = dict(zip(self.schema.column_names, values))
        else:
            if len(values) != len(column_names):
                raise StorageError(
                    f"INSERT lists {len(column_names)} columns but "
                    f"{len(values)} values"
                )
            for name in column_names:
                self.schema.column(name)  # validates existence
            pairs = dict(zip(column_names, values))
            lowered = {name.lower() for name in column_names}
            if len(lowered) != len(column_names):
                raise StorageError("duplicate column in INSERT column list")

        full: list[Any] = []
        provided = {name.lower(): value for name, value in pairs.items()}
        for column in self.schema.columns:
            if column.name.lower() in provided:
                value = coerce(provided[column.name.lower()], column.sql_type)
            else:
                value = column.missing_value
            full.append(value)
        return tuple(full)

    def _check_not_null(self, values: tuple[Any, ...]) -> None:
        for column in self.schema.columns:
            value = values[column.ordinal]
            if column.not_null and is_missing(value):
                raise ConstraintError(
                    f"column {self.name}.{column.name} is NOT NULL"
                )

    def insert(self, values: tuple[Any, ...]) -> Row:
        """Insert a fully prepared storage tuple.  Returns the stored row."""
        self._check_not_null(values)
        rowid = self._next_rowid
        # Probe all unique indexes before touching any of them, so a
        # violation leaves the heap unchanged.
        for index in self.indexes.values():
            key = self._key_for(values, index.columns)
            if index.unique and index.contains_key(key):
                raise ConstraintError(
                    f"duplicate key {key!r} for index {index.name!r}"
                )
        for index in self.indexes.values():
            index.insert(self._key_for(values, index.columns), rowid)
        self._rows[rowid] = values
        self._next_rowid += 1
        self._version += 1
        self.statistics.on_insert(values, self.schema.column_names)
        self._track_pk(values, +1)
        return Row(rowid, values)

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
        for index in self.indexes.values():
            index.insert(self._key_for(values, index.columns), rowid)
        self._rows[rowid] = values
        self._next_rowid = max(self._next_rowid, rowid + 1)
        self._version += 1
        self.statistics.on_insert(values, self.schema.column_names)
        self._track_pk(values, +1)
        return Row(rowid, values)

    def delete(self, rowid: int) -> Row:
        row = self.get(rowid)
        for index in self.indexes.values():
            index.delete(self._key_for(row.values, index.columns), rowid)
        del self._rows[rowid]
        self._version += 1
        self.statistics.on_delete(row.values, self.schema.column_names)
        self._track_pk(row.values, -1)
        return row

    def update(self, rowid: int, values: tuple[Any, ...]) -> Row:
        """Replace the values of ``rowid`` (indexes and stats maintained)."""
        old = self.get(rowid)
        self._check_not_null(values)
        for index in self.indexes.values():
            old_key = self._key_for(old.values, index.columns)
            new_key = self._key_for(values, index.columns)
            if old_key == new_key:
                continue
            if index.unique and index.contains_key(new_key):
                raise ConstraintError(
                    f"duplicate key {new_key!r} for index {index.name!r}"
                )
        for index in self.indexes.values():
            old_key = self._key_for(old.values, index.columns)
            new_key = self._key_for(values, index.columns)
            if old_key != new_key:
                index.delete(old_key, rowid)
                index.insert(new_key, rowid)
        self._rows[rowid] = values
        self._version += 1
        self.statistics.on_delete(old.values, self.schema.column_names)
        self.statistics.on_insert(values, self.schema.column_names)
        if self._normalized_pks is not None:
            old_key = self._normalized_pk(old.values)
            new_key = self._normalized_pk(values)
            if old_key != new_key:
                self._track_pk(old.values, -1)
                self._track_pk(values, +1)
        return Row(rowid, values)

    def set_value(self, rowid: int, column_name: str, value: Any) -> Row:
        """Update a single column in place (used when memorizing crowd answers)."""
        column = self.schema.column(column_name)
        row = self.get(rowid)
        new_values = list(row.values)
        new_values[column.ordinal] = coerce(value, column.sql_type)
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
        for column in columns:
            self.schema.column(column)
        index: HashIndex | OrderedIndex
        if ordered:
            index = OrderedIndex(name, columns, unique=unique)
        else:
            index = HashIndex(name, columns, unique=unique)
        for rowid, values in self._rows.items():
            index.insert(self._key_for(values, columns), rowid)
        self.indexes[name] = index
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
