"""Table schema metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.catalog.column import Column
from repro.errors import CatalogError


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``columns`` reference ``ref_table(ref_columns)``.

    For crowd tables, foreign keys double as join paths the CrowdJoin
    operator can exploit (the inner crowd table is probed per outer tuple
    keyed by the FK value).
    """

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table.

    ``crowd`` marks a crowdsourced table (paper §2.1, Example 2): the
    database captures none or only a subset of its tuples and CrowdDB may
    source more tuples from the crowd when a query requires them
    (open-world assumption).
    """

    name: str
    columns: tuple[Column, ...]
    crowd: bool = False
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    comment: Optional[str] = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(lowered)
        for key in self.primary_key:
            if key.lower() not in seen:
                raise CatalogError(
                    f"primary key column {key!r} not defined in table {self.name!r}"
                )

    # -- lookups -------------------------------------------------------------

    @cached_property
    def _by_name(self) -> dict[str, Column]:
        """Lowercased name -> column (names are unique, see above)."""
        return {column.name.lower(): column for column in self.columns}

    def column(self, name: str) -> Column:
        """Look up a column by case-insensitive name."""
        column = self._by_name.get(name.lower())
        if column is None:
            raise CatalogError(f"no column {name!r} in table {self.name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column_index(self, name: str) -> int:
        """Ordinal position of a column (0-based)."""
        return self.column(name).ordinal

    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    # -- crowd metadata --------------------------------------------------------

    @property
    def crowd_columns(self) -> tuple[Column, ...]:
        """Columns whose values may need to be crowdsourced.

        In a CROWD TABLE every non-primary-key column is crowd-sourceable
        (new tuples arrive entirely from workers); in a regular table only
        the columns declared CROWD are.
        """
        if self.crowd:
            pk = {name.lower() for name in self.primary_key}
            return tuple(c for c in self.columns if c.name.lower() not in pk)
        return tuple(column for column in self.columns if column.crowd)

    @property
    def is_crowd_related(self) -> bool:
        """True when any crowdsourcing can ever be needed for this table."""
        return self.crowd or any(column.crowd for column in self.columns)

    @property
    def known_columns(self) -> tuple[Column, ...]:
        """Columns whose values are always electronically stored."""
        crowd = {c.name.lower() for c in self.crowd_columns}
        return tuple(c for c in self.columns if c.name.lower() not in crowd)

    def foreign_key_to(self, ref_table: str) -> Optional[ForeignKey]:
        """The FK of this table referencing ``ref_table``, if any."""
        lowered = ref_table.lower()
        for fk in self.foreign_keys:
            if fk.ref_table.lower() == lowered:
                return fk
        return None

    def __str__(self) -> str:
        kind = "CROWD TABLE" if self.crowd else "TABLE"
        cols = ", ".join(str(column) for column in self.columns)
        return f"{kind} {self.name}({cols})"
