"""Row representation for the storage substrate and the executor.

Storage rows are immutable value tuples tagged with a row id.  The executor
works with :class:`RowView` objects that pair values with a *scope* (the
ordered list of ``binding.column`` names visible at that point of the plan),
which is how qualified references like ``t.title`` resolve after joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import ExecutionError


@dataclass(frozen=True)
class Row:
    """One stored tuple: a row id unique within its table plus values."""

    rowid: int
    values: tuple[Any, ...]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]


class Scope:
    """Name resolution for a flat tuple of values.

    A scope is an ordered list of ``(binding, column)`` pairs.  ``binding``
    is the table alias (or name) the column is visible under; the executor
    concatenates scopes when joining.
    """

    __slots__ = ("entries", "_exact", "_by_column", "_rendered")

    def __init__(self, entries: list[tuple[str, str]]) -> None:
        self.entries = entries
        self._rendered: bool | None = None
        self._exact: dict[tuple[str, str], int] = {}
        self._by_column: dict[str, list[int]] = {}
        for position, (binding, column) in enumerate(entries):
            key = (binding.lower(), column.lower())
            if key not in self._exact:
                self._exact[key] = position
            self._by_column.setdefault(column.lower(), []).append(position)

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, column: str, table: str | None = None) -> int:
        """Position of ``[table.]column`` in the value tuple.

        Unqualified names must be unambiguous across bindings; ambiguous
        references raise :class:`ExecutionError` like any SQL engine would.
        """
        if table is not None:
            try:
                return self._exact[(table.lower(), column.lower())]
            except KeyError:
                raise ExecutionError(
                    f"column {table}.{column} not found in scope"
                ) from None
        positions = self._by_column.get(column.lower(), [])
        if not positions:
            raise ExecutionError(f"column {column!r} not found in scope")
        if len(positions) > 1:
            distinct_bindings = {
                self.entries[p][0].lower() for p in positions
            }
            if len(distinct_bindings) > 1:
                raise ExecutionError(f"ambiguous column reference {column!r}")
        return positions[0]

    def try_resolve(self, column: str, table: str | None = None) -> int | None:
        """Position of ``[table.]column``, or ``None`` when the name is
        absent or ambiguous.

        The exception-free twin of :meth:`resolve`: plan-time expression
        compilation and operators that probe many optional columns
        (CrowdProbe) use it so a miss costs a dict lookup, not a raised
        and swallowed :class:`ExecutionError`.
        """
        if table is not None:
            return self._exact.get((table.lower(), column.lower()))
        positions = self._by_column.get(column.lower())
        if not positions:
            return None
        if len(positions) > 1:
            distinct_bindings = {
                self.entries[p][0].lower() for p in positions
            }
            if len(distinct_bindings) > 1:
                return None
        return positions[0]

    def names_expressions(self) -> bool:
        """True when a column is named by a rendered expression, as an
        Aggregate names its keys and calls (``(k + 1)``, ``COUNT(*)``):
        only such a scope can resolve an expression by its rendering."""
        if self._rendered is None:
            self._rendered = any("(" in column for _b, column in self.entries)
        return self._rendered

    def has(self, column: str, table: str | None = None) -> bool:
        return self.try_resolve(column, table) is not None

    def positions_for_binding(self, binding: str) -> list[int]:
        """All value positions belonging to one table binding."""
        lowered = binding.lower()
        return [
            position
            for position, (b, _c) in enumerate(self.entries)
            if b.lower() == lowered
        ]

    def concat(self, other: "Scope") -> "Scope":
        return Scope(self.entries + other.entries)

    @staticmethod
    def for_table(binding: str, column_names: tuple[str, ...]) -> "Scope":
        return Scope([(binding, column) for column in column_names])

    def rename(self, binding: str) -> "Scope":
        """A copy of this scope with every entry re-bound to ``binding``."""
        return Scope([(binding, column) for _b, column in self.entries])


class LayeredScope(Scope):
    """SQL correlation scoping: the inner scope shadows the outer one.

    A name is resolved against ``inner`` first; only names the inner query
    does not provide fall through to the outer (correlated) scope, whose
    positions are offset by the inner width.  This is what lets
    ``WHERE e.dname = d.dname`` inside a subquery reference the outer row
    while an unqualified ``dname`` keeps meaning the inner column.
    """

    def __init__(self, inner: Scope, outer: Scope) -> None:
        super().__init__(inner.entries + outer.entries)
        self.inner = inner
        self.outer = outer

    def resolve(self, column: str, table: str | None = None) -> int:
        try:
            return self.inner.resolve(column, table)
        except ExecutionError as inner_error:
            if "ambiguous" in str(inner_error):
                raise
            try:
                return len(self.inner) + self.outer.resolve(column, table)
            except ExecutionError:
                raise inner_error from None

    def try_resolve(self, column: str, table: str | None = None) -> int | None:
        try:
            return self.resolve(column, table)
        except ExecutionError:
            return None
