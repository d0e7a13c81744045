"""The storage engine: catalog + heap tables + WAL + FK enforcement.

This is the substrate the paper built on H2; everything above it (planner,
optimizer, executor, crowd subsystem) only talks to this interface.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional

from repro.catalog.catalog import Catalog
from repro.catalog.table import TableSchema
from repro.errors import ConstraintError, StorageError, WALError
from repro.sqltypes import has_missing
from repro.storage.heap import HeapTable
from repro.storage.row import Row
from repro.storage.wal import LogEntry, LogOp, WriteAheadLog, wal_record_for


class StorageEngine:
    """Owns all table data for one CrowdDB instance."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        auto_analyze_floor: Optional[int] = None,
        auto_analyze_fraction: Optional[float] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        # attached by DurableStorage; an in-memory engine logs nothing
        self.wal: Optional[WriteAheadLog] = None
        self._tables: dict[str, HeapTable] = {}
        # staleness-guard knobs forwarded to every table's statistics
        # (None = the TableStatistics defaults)
        self.auto_analyze_floor = auto_analyze_floor
        self.auto_analyze_fraction = auto_analyze_fraction

    def _log(
        self,
        op: LogOp,
        table: str,
        payload: tuple[Any, ...] = (),
        origin: str = "client",
    ) -> None:
        """Write one mutation ahead: durable (per the sync policy) before
        the mutation is acknowledged to the caller."""
        if self.wal is None:
            return
        self.wal.append(wal_record_for(LogEntry(op, table, payload, origin)))

    # -- DDL -------------------------------------------------------------------

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> bool:
        """Register a schema and allocate its heap.  Returns False when the
        table already existed and ``if_not_exists`` was set."""
        if schema.name.lower() in self._tables:
            if if_not_exists:
                return False
            raise StorageError(f"table {schema.name!r} already exists")
        self.catalog.register(schema)
        self._tables[schema.name.lower()] = HeapTable(
            schema,
            auto_analyze_floor=self.auto_analyze_floor,
            auto_analyze_fraction=self.auto_analyze_fraction,
        )
        self._log(LogOp.CREATE_TABLE, schema.name, (schema,))
        return True

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        if name.lower() not in self._tables:
            if if_exists:
                return False
            raise StorageError(f"no such table: {name!r}")
        self.catalog.drop(name)
        del self._tables[name.lower()]
        self._log(LogOp.DROP_TABLE, name)
        return True

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise StorageError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def create_index(
        self,
        table_name: str,
        name: str,
        columns: tuple[str, ...],
        unique: bool = False,
        ordered: bool = False,
    ):
        """Build a secondary index — the *logged* path (``CREATE INDEX``).

        Operator-built runtime index caches call ``HeapTable.create_index``
        directly and are deliberately unlogged: they are self-healing
        on demand and carry no client-visible contract.
        """
        heap = self.table(table_name)
        index = heap.create_index(
            name, tuple(columns), unique=unique, ordered=ordered
        )
        self._log(
            LogOp.CREATE_INDEX,
            heap.name,
            (name, tuple(columns), unique, ordered),
        )
        return index

    # -- statistics --------------------------------------------------------------

    def analyze(self, name: Optional[str] = None) -> list[tuple[str, Any]]:
        """Rebuild analyzed statistics for one table (or all of them).

        Returns ``(table name, TableStatistics)`` pairs in catalog order,
        the payload of the ``ANALYZE`` statement's result set.
        """
        names = [name] if name is not None else self.table_names()
        results = [(self.table(n).name, self.table(n).analyze()) for n in names]
        # logged so replay/recovery reproduces the statistics epoch (the
        # plan cache keys on it); "*" marks an all-tables ANALYZE
        self._log(LogOp.ANALYZE, name if name is not None else "*")
        return results

    def stats_epoch(self) -> int:
        """Sum of per-table statistics epochs (bumped by every ANALYZE)."""
        return sum(t.statistics.epoch for t in self._tables.values())

    def plan_epoch(self) -> tuple[int, int, int]:
        """Cheap fingerprint of everything a cached plan depends on:
        DDL version, analyzed-statistics epoch, and index population."""
        return (
            self.catalog.version,
            self.stats_epoch(),
            sum(len(t.indexes) for t in self._tables.values()),
        )

    # -- foreign keys ---------------------------------------------------------------

    def _check_foreign_keys(self, heap: HeapTable, values: tuple) -> None:
        for key_of, fk, ref_columns in heap.write_plan.foreign_keys:
            key = key_of(values)
            if has_missing(key):
                continue  # SQL: missing FK values are not checked
            if not self.table(fk.ref_table).references(ref_columns, key):
                raise ConstraintError(
                    f"foreign key violation: {heap.name}{fk.columns} -> "
                    f"{fk.ref_table}{fk.ref_columns} value {key!r}"
                )

    # -- DML -------------------------------------------------------------------

    def insert(
        self,
        table_name: str,
        values: Iterable[Any],
        column_names: Optional[tuple[str, ...]] = None,
        origin: str = "client",
    ) -> Row:
        """Insert one row (partial column lists allowed)."""
        heap = self.table(table_name)
        prepared = heap.prepare_values(values, column_names)
        self._check_foreign_keys(heap, prepared)
        row = heap.insert(prepared)
        self._log(LogOp.INSERT, heap.name, (row.rowid, prepared), origin)
        return row

    def delete(self, table_name: str, rowid: int, origin: str = "client") -> Row:
        heap = self.table(table_name)
        row = heap.delete(rowid)
        self._log(LogOp.DELETE, heap.name, (rowid, row.values), origin)
        return row

    def update(
        self,
        table_name: str,
        rowid: int,
        values: tuple[Any, ...],
        origin: str = "client",
    ) -> Row:
        heap = self.table(table_name)
        old = heap.get(rowid)
        self._check_foreign_keys(heap, values)
        row = heap.update(rowid, values)
        self._log(
            LogOp.UPDATE, heap.name, (rowid, old.values, values), origin
        )
        return row

    def set_value(
        self,
        table_name: str,
        rowid: int,
        column_name: str,
        value: Any,
        origin: str = "client",
    ) -> Row:
        """Single-column update; the crowd subsystem's memorization path."""
        heap = self.table(table_name)
        old = heap.get(rowid)
        row = heap.set_value(rowid, column_name, value)
        self._log(
            LogOp.UPDATE, heap.name, (rowid, old.values, row.values), origin
        )
        return row

    # -- statement atomicity ------------------------------------------------------

    @contextmanager
    def atomic(self, table_name: str) -> Iterator[list]:
        """One DML statement's client writes to ``table_name``, all or none.

        The statement appends ``(rowid, before, after)`` for every row it
        writes (``before`` is None for an insert, ``after`` for a delete).
        When it fails, the applied writes are undone newest first and
        logged like any write, so a reopened instance holds no part of the
        statement either; a deleted row comes back under its rowid, at the
        end of the scan order.  A write-ahead-log failure is left as it
        is: the instance stops there, and recovery restores the committed
        prefix.
        """
        applied: list = []
        try:
            yield applied
        except WALError:
            raise
        except Exception:
            if applied:
                self._undo(self.table(table_name), applied)
            raise

    def _undo(self, heap: HeapTable, applied: list) -> None:
        for rowid, before, after in reversed(applied):
            if before is None:
                self.delete(heap.name, rowid)
            elif after is None:
                heap.restore_row(rowid, before)
                self._log(LogOp.INSERT, heap.name, (rowid, before))
            else:
                heap.update(rowid, before)
                self._log(LogOp.UPDATE, heap.name, (rowid, after, before))

    # -- replay / recovery -------------------------------------------------------

    def apply_entry(self, entry) -> None:
        """Re-apply one committed log entry (the recovery path).

        Rows land under their *original* rowids and constraint probes are
        skipped (the data was valid when it committed) — so a recovered
        engine is byte-for-byte the engine that wrote the log, including
        rowids, indexes, and the statistics epoch.

        ``UPDATE`` payloads may be either the full in-memory shape
        ``(rowid, old_values, new_values)`` or the redo-only WAL shape
        ``(rowid, new_values)``; the new values are always last.
        """
        if entry.op is LogOp.CREATE_TABLE:
            self.create_table(entry.payload[0])
        elif entry.op is LogOp.DROP_TABLE:
            self.drop_table(entry.table)
        elif entry.op is LogOp.INSERT:
            rowid, values = entry.payload
            self.table(entry.table).restore_row(rowid, values)
        elif entry.op is LogOp.DELETE:
            self.delete(entry.table, entry.payload[0], origin=entry.origin)
        elif entry.op is LogOp.UPDATE:
            rowid, new = entry.payload[0], entry.payload[-1]
            self.table(entry.table).update(rowid, new)
        elif entry.op is LogOp.CREATE_INDEX:
            name, columns, unique, ordered = entry.payload
            self.create_index(
                entry.table, name, tuple(columns), unique=unique, ordered=ordered
            )
        elif entry.op is LogOp.ANALYZE:
            self.analyze(None if entry.table == "*" else entry.table)
