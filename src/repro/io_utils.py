"""Bulk data I/O: CSV import and export.

The demo "pre-load[s] different tables, such as VLDB talks, restaurants
or companies near the VLDB conference location, into CrowdDB" (paper §4)
— these helpers are that loading path.  A whole database, every paid
crowd answer included, is saved and reopened as a checkpoint directory
(:func:`repro.storage.recovery.save_image`, ``connect(path=...)``).
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Any

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
