"""Access methods: hash and ordered indexes over heap tables.

Keys are tuples of column values.  NULL/CNULL never participate in index
lookups (SQL semantics: unknown never equals anything), but rows containing
them are still indexed under a reserved bucket so deletes stay O(1).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.errors import ConstraintError, StorageError
from repro.sqltypes import has_missing


class _MissingKey:
    """Reserved marker bucketing rows whose key contains NULL/CNULL."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing-key>"


_MISSING = _MissingKey()


def _normalize_key(values: tuple[Any, ...]) -> Any:
    return _MISSING if has_missing(values) else values


class HashIndex:
    """Equality index: key tuple -> set of row ids."""

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False) -> None:
        self.name = name
        self.columns = columns
        self.unique = unique
        self._buckets: dict[Any, set[int]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def insert(self, key: tuple[Any, ...], rowid: int) -> None:
        normalized = _normalize_key(key)
        bucket = self._buckets.setdefault(normalized, set())
        if self.unique and normalized is not _MISSING and bucket:
            raise ConstraintError(
                f"unique index {self.name!r} violated for key {key!r}"
            )
        bucket.add(rowid)

    def delete(self, key: tuple[Any, ...], rowid: int) -> None:
        normalized = _normalize_key(key)
        bucket = self._buckets.get(normalized)
        if bucket is None or rowid not in bucket:
            raise StorageError(
                f"index {self.name!r} has no entry {key!r} -> {rowid}"
            )
        bucket.discard(rowid)
        if not bucket:
            del self._buckets[normalized]

    def lookup(self, key: tuple[Any, ...]) -> frozenset[int]:
        """Row ids whose key equals ``key``; empty for missing-valued keys."""
        normalized = _normalize_key(key)
        if normalized is _MISSING:
            return frozenset()
        return frozenset(self._buckets.get(normalized, ()))

    def contains_key(self, key: tuple[Any, ...]) -> bool:
        """Does some row hold ``key``?  Tests the bucket, copying nothing."""
        normalized = _normalize_key(key)
        return normalized is not _MISSING and bool(
            self._buckets.get(normalized)
        )


class OrderedIndex:
    """Sorted index supporting range scans.

    Maintains a sorted list of ``(key, rowid)`` pairs; rows with missing
    key values are kept aside and never returned from range lookups.
    """

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False) -> None:
        self.name = name
        self.columns = columns
        self.unique = unique
        self._entries: list[tuple[Any, int]] = []
        self._missing: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries) + len(self._missing)

    def insert(self, key: tuple[Any, ...], rowid: int) -> None:
        if _normalize_key(key) is _MISSING:
            self._missing.add(rowid)
            return
        position = bisect.bisect_left(self._entries, (key, rowid))
        if self.unique:
            left = bisect.bisect_left(self._entries, (key,))
            if left < len(self._entries) and self._entries[left][0] == key:
                raise ConstraintError(
                    f"unique index {self.name!r} violated for key {key!r}"
                )
        self._entries.insert(position, (key, rowid))

    def delete(self, key: tuple[Any, ...], rowid: int) -> None:
        if _normalize_key(key) is _MISSING:
            if rowid not in self._missing:
                raise StorageError(
                    f"index {self.name!r} has no entry {key!r} -> {rowid}"
                )
            self._missing.discard(rowid)
            return
        position = bisect.bisect_left(self._entries, (key, rowid))
        if (
            position >= len(self._entries)
            or self._entries[position] != (key, rowid)
        ):
            raise StorageError(
                f"index {self.name!r} has no entry {key!r} -> {rowid}"
            )
        del self._entries[position]

    def lookup(self, key: tuple[Any, ...]) -> frozenset[int]:
        if _normalize_key(key) is _MISSING:
            return frozenset()
        left = bisect.bisect_left(self._entries, (key,))
        result = set()
        for stored_key, rowid in self._entries[left:]:
            if stored_key != key:
                break
            result.add(rowid)
        return frozenset(result)

    def contains_key(self, key: tuple[Any, ...]) -> bool:
        if _normalize_key(key) is _MISSING:
            return False
        left = bisect.bisect_left(self._entries, (key,))
        return left < len(self._entries) and self._entries[left][0] == key

    def prefix_lookup(self, prefix: tuple[Any, ...]) -> frozenset[int]:
        """Row ids whose key starts with ``prefix`` (a leading subset of
        the index columns) — the composite-prefix access path hash
        indexes cannot serve."""
        if _normalize_key(prefix) is _MISSING:
            return frozenset()
        left = bisect.bisect_left(self._entries, (prefix,))
        width = len(prefix)
        result = set()
        for stored_key, rowid in self._entries[left:]:
            if stored_key[:width] != prefix:
                break
            result.add(rowid)
        return frozenset(result)

    def range(
        self,
        low: Optional[tuple[Any, ...]] = None,
        high: Optional[tuple[Any, ...]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Yield row ids with ``low <= key <= high`` in key order."""
        if low is None:
            start = 0
        else:
            start = bisect.bisect_left(self._entries, (low,))
            if not low_inclusive:
                while (
                    start < len(self._entries)
                    and self._entries[start][0] == low
                ):
                    start += 1
        for stored_key, rowid in self._entries[start:]:
            if high is not None:
                if high_inclusive:
                    if stored_key > high:
                        break
                elif stored_key >= high:
                    break
            yield rowid

    def ordered_rowids(self) -> Iterator[int]:
        """All indexed row ids in ascending key order (missing last)."""
        for _key, rowid in self._entries:
            yield rowid
        yield from sorted(self._missing)
