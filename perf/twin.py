"""A stdlib ``sqlite3`` twin of a workload's database.

The twin is loaded from the same generated rows and asked the same
statements; its answers are the reference the engine's are compared with,
outside the timed phase.  It is an independent implementation, so a bug the
engine's row, compiled and vectorized paths share still shows.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, Sequence

from repro.sqltypes import is_missing

FLOAT_RELATIVE_TOLERANCE = 1e-9


def open_twin(
    ddl: Iterable[str], tables: dict[str, Sequence[Sequence[Any]]]
) -> sqlite3.Connection:
    """An in-memory sqlite database with ``ddl`` run and ``tables`` loaded."""
    twin = sqlite3.connect(":memory:")
    for statement in ddl:
        twin.execute(statement)
    for name, rows in tables.items():
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            twin.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    twin.commit()
    return twin


def _plain(value: Any) -> Any:
    """NULL/CNULL singletons read as sqlite's None."""
    return None if is_missing(value) else value


def _sort_key(row: Sequence[Any]) -> tuple:
    return tuple((value is None, 0 if value is None else value) for value in row)


def same_rows(
    ours: Sequence[Sequence[Any]],
    theirs: Sequence[Sequence[Any]],
    ordered: bool = True,
) -> bool:
    """Row-by-row equality; floats to :data:`FLOAT_RELATIVE_TOLERANCE`."""
    if len(ours) != len(theirs):
        return False
    ours = [tuple(_plain(value) for value in row) for row in ours]
    theirs = [tuple(row) for row in theirs]
    if not ordered:
        ours.sort(key=_sort_key)
        theirs.sort(key=_sort_key)
    for left, right in zip(ours, theirs):
        if left == right:
            continue
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if a == b:
                continue
            if isinstance(a, bool) or isinstance(b, bool):
                return False
            if (
                isinstance(a, (int, float))
                and isinstance(b, (int, float))
                and math.isclose(
                    a, b, rel_tol=FLOAT_RELATIVE_TOLERANCE, abs_tol=0.0
                )
            ):
                continue
            return False
    return True
