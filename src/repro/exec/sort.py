"""Electronic ORDER BY: the row order of a sort over its key columns.

Its one caller is :class:`~repro.exec.vectorized.VectorSortOp`, every
sort with no CROWDORDER key, over batch or row input alike; it hands
over key columns computed by column kernels or, for keys outside the
kernel subset, by row closures.

SQL order puts missing values (NULL/CNULL) last and lets DESC flip the
whole order, so DESC puts them first; NaN derives ordering 0 against
anything (``compare_values``), and ties keep input order.  A key column
whose values are all of one comparison class -- ints, floats and ints,
strings, bools -- with no missing value and no NaN collates exactly
as :func:`missing_aware_compare` orders it under raw Python
comparison, so such keys sort by value: numpy ``lexsort`` over
int64/float64 lanes at ``LANE_ROWS`` rows and more, one stable index
sort per key (last key first) otherwise.  A key with a missing value,
a NaN or mixed classes sorts every key through
:func:`missing_aware_compare`, which raises ``compare_values``' errors
for incomparable values.
"""

from __future__ import annotations

import functools
from typing import Any, Optional, Sequence

from repro.exec.vector import (
    LANE_ROWS,
    TAG_FLOAT,
    TAG_INT,
    TAG_NUM,
    TAG_STR,
    Coded,
    ColumnBatch,
    as_list,
    typed_array,
)
from repro.sqltypes import compare_values, is_missing

try:  # the lexsort lane is optional, like the kernel lanes
    import numpy as _np
except ImportError:  # pragma: no cover - image without numpy
    _np = None

#: Key-column tag for an untagged column, by the set of its value types;
#: a set not listed here (missing values, mixed classes) is unclean.
_TAG_OF_TYPES = {
    frozenset((int,)): TAG_INT,
    frozenset((float,)): TAG_FLOAT,
    frozenset((int, float)): TAG_NUM,
    frozenset((str,)): TAG_STR,
    frozenset((bool,)): "bool",
}

_INT64_MIN = -(1 << 63)


def sort_order(
    columns: Sequence,
    tags: Sequence[Optional[str]],
    ascending: Sequence[bool],
    top_k: Optional[int],
    batch: ColumnBatch,
) -> list[int]:
    """Row indices in ORDER BY order over the non-empty key ``columns``
    (batch columns of any form, their tags as column kernels report
    them, None when unknown); only the first ``top_k`` when given.
    ``batch``, the columns' source, lends its lanes."""
    count = len(columns[0])
    arrays = _Arrays(batch, count)
    # a coded key (a string) sorts by value, as a list
    columns = [
        column.tolist() if type(column) is Coded else column
        for column in columns
    ]
    tags = [arrays.clean_tag(column, tag) for column, tag in zip(columns, tags)]
    if None in tags:
        order = _compared_order(
            [as_list(column) for column in columns], ascending, count
        )
    else:
        order = None
        if _np is not None and count >= LANE_ROWS:
            order = _lexsort_order(arrays, columns, tags, ascending, top_k)
        if order is None:
            order = list(range(count))
            for values, up in reversed(tuple(zip(columns, ascending))):
                order.sort(key=as_list(values).__getitem__, reverse=not up)
    return order if top_k is None or top_k >= len(order) else order[:top_k]


class _Arrays:
    """Key columns classified, and their int64/float64 forms converted at
    most once."""

    __slots__ = ("batch", "count", "_converted")

    def __init__(self, batch: ColumnBatch, count: int) -> None:
        self.batch = batch
        self.count = count
        self._converted: dict = {}

    def get(self, column, tag: str):
        if type(column) is not list:  # an ndarray key is its own lane
            return column
        if _np is None or self.count < LANE_ROWS:
            return None
        lanes = self.batch.lanes
        if lanes is not None:
            arr = lanes.array(column)
            if arr is not None:
                return arr
        key = id(column)
        if key not in self._converted:
            self._converted[key] = typed_array(column, tag)
        return self._converted[key]

    def clean_tag(self, column, tag: Optional[str]) -> Optional[str]:
        """The column's tag (or the tag its value types show) when it
        sorts by raw comparison; None when it needs
        :func:`missing_aware_compare` (missing values, NaN, mixed
        comparison classes)."""
        if tag is None:
            tag = _TAG_OF_TYPES.get(frozenset(map(type, column)))
            if tag is None:
                return None
        if tag == TAG_FLOAT or tag == TAG_NUM:
            arr = self.get(column, tag) if tag == TAG_FLOAT else None
            if arr is not None:
                if _np.isnan(arr).any():
                    return None
            elif any(value != value for value in column):
                return None
        return tag


def _compared_order(
    columns: Sequence[list], ascending: Sequence[bool], count: int
) -> list[int]:
    """The order by :func:`missing_aware_compare` over the keys in turn,
    each compared once per pair of rows; DESC negates a key's order."""
    keyed = tuple(zip(columns, ascending))

    def compare(left: int, right: int) -> int:
        for column, up in keyed:
            ordering = missing_aware_compare(column[left], column[right])
            if ordering:
                return ordering if up else -ordering
        return 0

    return sorted(range(count), key=functools.cmp_to_key(compare))


def _lexsort_order(
    arrays: _Arrays,
    columns: Sequence[list],
    tags: Sequence[str],
    ascending: Sequence[bool],
    top_k: Optional[int],
) -> Optional[list[int]]:
    """The order from numpy: one ascending lane per key (negated for DESC),
    a stable ``lexsort``; a top-k sorts only the rows whose first key can
    still place.  None when a key has no exact lane (strings, mixed
    int/float, bools, ints past int64)."""
    lanes = []
    for column, tag, up in zip(columns, tags, ascending):
        if tag != TAG_INT and tag != TAG_FLOAT:
            return None
        arr = arrays.get(column, tag)
        if arr is None:
            return None
        if not up and tag == TAG_INT and arr.min() == _INT64_MIN:
            return None  # its negation wraps
        lanes.append(arr if up else -arr)
    first = lanes[0]
    if top_k is not None and top_k < len(first):
        if top_k <= 0:
            return []
        # every row of the top k has a first key at most the k-th smallest
        kth = _np.partition(first, top_k - 1)[top_k - 1]
        rows = _np.flatnonzero(first <= kth)
        ranked = _np.lexsort([lane[rows] for lane in reversed(lanes)])
        return rows[ranked[:top_k]].tolist()
    return _np.lexsort(lanes[::-1]).tolist()


def missing_aware_compare(left: Any, right: Any) -> int:
    """SQL sort order: missing values (NULL/CNULL) sort last."""
    left_missing = is_missing(left)
    right_missing = is_missing(right)
    if left_missing or right_missing:
        return left_missing - right_missing
    ordering = compare_values(left, right)
    return 0 if ordering is None else ordering
