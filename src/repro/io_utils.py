"""Bulk data I/O: CSV import/export and whole-database snapshots.

The demo "pre-load[s] different tables, such as VLDB talks, restaurants
or companies near the VLDB conference location, into CrowdDB" (paper §4)
— these helpers are that loading path.  Snapshots serialize catalog +
data (including CNULL markers) to JSON so a crowd-enriched database —
every memorized answer included — can be saved and reopened.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Optional

from repro.codec import decode_value, encode_value
from repro.errors import StorageError
from repro.sqltypes import CNULL, NULL, SQLType, parse_literal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Connection


# -- CSV -----------------------------------------------------------------------


def load_csv(
    connection: "Connection",
    table: str,
    source: str | io.TextIOBase,
    delimiter: str = ",",
    header: bool = True,
) -> int:
    """Load rows from a CSV file (path or file object) into ``table``.

    With a header row, columns are matched by name (extra CSV columns are
    an error; missing table columns take their defaults — CNULL for CROWD
    columns).  Cells are parsed with the same rules as crowd form input:
    empty/`NULL` cells store NULL, ``CNULL`` stores the sourceable marker.
    Returns the number of rows inserted.
    """
    schema = connection.catalog.table(table)

    def parse_row(names: list[str], cells: list[str]) -> tuple[list[Any], tuple]:
        values = []
        for name, cell in zip(names, cells):
            column = schema.column(name)
            text = cell.strip()
            if text.upper() == "CNULL":
                values.append(CNULL)
            else:
                values.append(parse_literal(text, column.sql_type))
        return values, tuple(names)

    handle: io.TextIOBase
    own = False
    if isinstance(source, str):
        handle = open(source, newline="")
        own = True
    else:
        handle = source
    try:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = iter(reader)
        if header:
            names = [name.strip() for name in next(rows)]
            for name in names:
                schema.column(name)  # validate against the schema
        else:
            names = list(schema.column_names)
        count = 0
        for cells in rows:
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) > len(names):
                raise StorageError(
                    f"CSV row {count + 1} has {len(cells)} cells but only "
                    f"{len(names)} columns are mapped"
                )
            padded = cells + [""] * (len(names) - len(cells))
            values, columns = parse_row(names, padded)
            connection.engine.insert(table, values, columns)
            count += 1
        return count
    finally:
        if own:
            handle.close()


def dump_csv(
    connection: "Connection",
    table: str,
    target: str | io.TextIOBase,
    delimiter: str = ",",
) -> int:
    """Write a table (header + rows) to CSV.  NULL cells are empty,
    CNULL cells are the literal ``CNULL`` (round-trips with load_csv)."""
    schema = connection.catalog.table(table)
    heap = connection.engine.table(table)

    handle: io.TextIOBase
    own = False
    if isinstance(target, str):
        handle = open(target, "w", newline="")
        own = True
    else:
        handle = target
    try:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(schema.column_names)
        count = 0
        for row in heap.scan():
            writer.writerow([_cell(value) for value in row.values])
            count += 1
        return count
    finally:
        if own:
            handle.close()


def _cell(value: Any) -> str:
    if value is NULL:
        return ""
    if value is CNULL:
        return "CNULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


# -- JSON snapshots -------------------------------------------------------------


_SNAPSHOT_VERSION = 1


def save_snapshot(connection: "Connection", target: str | io.TextIOBase) -> None:
    """Serialize catalog + all rows (crowd answers included) to JSON."""
    tables = []
    for schema in connection.catalog:
        heap = connection.engine.table(schema.name)
        tables.append(
            {
                "ddl": _schema_to_ddl(schema),
                "name": schema.name,
                "columns": list(schema.column_names),
                "rows": [
                    [encode_value(value) for value in row.values]
                    for row in heap.scan()
                ],
            }
        )
    payload = {"version": _SNAPSHOT_VERSION, "tables": tables}
    if isinstance(target, str):
        with open(target, "w") as handle:
            json.dump(payload, handle, indent=1)
    else:
        json.dump(payload, target, indent=1)


def load_snapshot(connection: "Connection", source: str | io.TextIOBase) -> list[str]:
    """Recreate every table of a snapshot in ``connection``.

    Returns the created table names.  Fails if any table already exists.
    """
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    if payload.get("version") != _SNAPSHOT_VERSION:
        raise StorageError(
            f"unsupported snapshot version {payload.get('version')!r}"
        )
    created = []
    for table in payload["tables"]:
        connection.execute(table["ddl"])
        for row in table["rows"]:
            connection.engine.insert(
                table["name"],
                [decode_value(value, StorageError) for value in row],
                tuple(table["columns"]),
            )
        created.append(table["name"])
    return created


def _schema_to_ddl(schema) -> str:
    """Render a TableSchema back to CREATE [CROWD] TABLE source."""
    parts = []
    for column in schema.columns:
        bits = [column.name]
        if column.crowd:
            bits.append("CROWD")
        bits.append(str(column.sql_type))
        if column.not_null and not column.primary_key:
            bits.append("NOT NULL")
        if column.unique and not column.primary_key:
            bits.append("UNIQUE")
        parts.append(" ".join(bits))
    if schema.primary_key:
        parts.append("PRIMARY KEY (" + ", ".join(schema.primary_key) + ")")
    for fk in schema.foreign_keys:
        parts.append(
            "FOREIGN KEY ("
            + ", ".join(fk.columns)
            + f") REFERENCES {fk.ref_table}("
            + ", ".join(fk.ref_columns)
            + ")"
        )
    crowd = "CROWD " if schema.crowd else ""
    return f"CREATE {crowd}TABLE {schema.name} ({', '.join(parts)})"
