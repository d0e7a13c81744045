"""The columnar batch format for vectorized execution.

A :class:`ColumnBatch` carries one column per output position for a
window of rows.  Operators that the binder marked vector-eligible
exchange batches instead of row tuples, so predicates, join keys, and
aggregate inputs run as whole-column kernels instead of one closure call
per row.

Column forms
------------

A batch column is one of three things:

* a Python ``list`` -- what a scan hands out (the stored column itself),
  and every column when numpy is absent;
* an int64/float64 ``ndarray`` -- a clean INTEGER or FLOAT column after
  a gather, or a float result computed in numpy (its tag is ``TAG_INT``
  or ``TAG_FLOAT``, matching the dtype);
* a :class:`Coded` column -- intp ``codes`` into a ``values`` list: a
  dictionary lane after a gather, or any list gathered by an index
  vector (``values`` is then the list itself, never copied).

Gathers (:func:`take`) keep the form, so a filter selection or a join
output costs index arithmetic, not a Python pass per value.  Lists are
built only at the row boundary (:func:`as_list`): the batch-to-row
pivot, the row-compiled fallbacks, and the kernels and folds that have
no typed lane for what they compute.

Cleanliness tags
----------------

Each column carries an optional *tag* describing what the values are
known to be **at runtime** (derived from live table statistics when the
scan materializes the batch — never baked into cached plans, because the
plan cache key does not fold row counts):

* ``TAG_INT`` — every value is exactly ``int`` (never bool, never
  NULL/CNULL/None)
* ``TAG_FLOAT`` — every value is exactly ``float`` (the storage layer
  coerces everything written to a FLOAT column through ``float()``, so
  scans of FLOAT columns can promise this — it is what licenses the
  bit-exact float64 ndarray lanes in :mod:`repro.exec.kernels`)
* ``TAG_NUM`` — every value is exactly ``int`` or ``float``
* ``TAG_STR`` — every value is exactly ``str``
* ``None`` — no guarantee (may contain NULL, CNULL, bools, mixed types)

Kernels use tags to choose between a native fast path over the whole
column and an element-wise slow path that mirrors the row engine's
compiled closures branch for branch.  Validity (NULL) and CNULL are not
separate bitmaps: missing values stay in-band (the ``NULL``/``CNULL``
singletons), and a ``None`` tag is the signal that a column may contain
them — the same representation the row engine uses, which is what makes
batch→row transitions free.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

try:  # lanes are ndarrays; without numpy there are none
    import numpy as _np
except ImportError:  # pragma: no cover - image without numpy
    _np = None

#: Rows processed per chunk by the row engine's batch-at-a-time operator
#: loops (lifted here from ``engine/filter_project.py`` so row-chunk and
#: columnar batch sizes are tuned in one place).
BATCH_ROWS = 256

#: Rows per ColumnBatch on the vectorized path.  Much larger than
#: BATCH_ROWS: columnar kernels amortize per-batch setup (kernel
#: dispatch, selection bookkeeping) across the whole window, and vector
#: regions are eager by construction, so small windows buy no latency.
#: Scans at or under this size hand out their cached column lists
#: zero-copy — and single-batch inputs let joins adopt build columns
#: zero-copy too — so the window is sized to keep whole benchmark-scale
#: tables in one batch (256k rows x 8 columns is ~16 MB of pointers).
VECTOR_ROWS = 262144

#: Stored columns shorter than this get no dictionary lane, and hash-join
#: builds under it stay a dict probe per row: numpy's fixed per-call cost
#: pays off only over thousands of rows.
LANE_ROWS = 4096

#: A clean string column gets a dictionary lane when its statistics show
#: at most one distinct value per this many rows.
DICTIONARY_ROWS_PER_VALUE = 8

#: Column cleanliness tags (see module docstring).
TAG_INT = "int"
TAG_FLOAT = "float"
TAG_NUM = "num"
TAG_STR = "str"

#: Tags under which every value is a real (non-bool) int or float, so
#: native arithmetic/comparison fast paths apply.
NUMERIC_TAGS = frozenset((TAG_INT, TAG_FLOAT, TAG_NUM))


def chunked(rows: Iterable, size: int = BATCH_ROWS) -> Iterator[list]:
    """Yield ``rows`` in lists of at most ``size`` (shared by the row
    engine's chunked loops and test helpers)."""
    iterator = iter(rows)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


class Coded:
    """A column as codes into values: row ``i`` is ``values[codes[i]]``.

    ``codes`` is an intp ndarray; ``values`` is a list, either the
    distinct values of a dictionary lane or the whole list a gather took
    rows of (unreferenced values included)."""

    __slots__ = ("codes", "values")

    def __init__(self, codes, values: list) -> None:
        self.codes = codes
        self.values = values

    def __len__(self) -> int:
        return len(self.codes)

    def tolist(self) -> list:
        """The rows as a list: one object-array gather when ``values`` is
        short next to the rows, else a lookup per row."""
        values = self.values
        if len(values) <= 2 * len(self.codes):
            return _np.array(values, dtype=object)[self.codes].tolist()
        return list(map(values.__getitem__, self.codes.tolist()))


def as_list(column) -> list:
    """A batch column as a list of plain Python values: a list itself, an
    ndarray's ``tolist`` (ints and floats), a coded column's rows."""
    return column if type(column) is list else column.tolist()


def take(column, rows, lanes: Optional["ColumnLanes"] = None):
    """``column`` at the row indices ``rows``, in its typed form.

    An index list (a sort order, a dict-probe's matches) gathers a list
    column into a list.  An index ndarray gathers a list column through
    its lane, when ``lanes`` has one -- an ndarray of a numeric column,
    the codes of a dictionary -- and into a :class:`Coded` column over
    the list otherwise.  An ndarray or coded column takes in numpy."""
    kind = type(column)
    if kind is list:
        if type(rows) is list:
            return list(map(column.__getitem__, rows))
        if lanes is not None:
            arr = lanes.array(column)
            if arr is not None:
                return arr[rows]
            lane = lanes.dictionary(column)
            if lane is not None:
                return Coded(lane[0][rows], lane[1])
        return Coded(rows, column)
    if kind is Coded:
        return Coded(column.codes[rows], column.values)
    return column[rows]


class ColumnBatch:
    """A window of rows stored column-major.

    ``columns`` holds one column per output position, all of length
    ``num_rows``: a list, an ndarray or a :class:`Coded` column (see the
    module docstring), or ``None`` where pruned.  ``tags`` is a parallel
    tuple/list of cleanliness tags (``TAG_INT``/``TAG_NUM``/``TAG_STR``/
    ``None``), defaulting to all-unknown when omitted.  ``pad_tags``,
    when set, marks columns a LEFT join padded: per column, the tag its
    values other than the padding NULLs carry (the padding rows are then
    exactly its NULLs, and the column is a list).  It sits beside
    ``tags``, never in them: every kernel reads a tag as NULL-free.
    """

    __slots__ = ("columns", "num_rows", "tags", "lanes", "pad_tags")

    def __init__(
        self,
        columns: Sequence[list],
        num_rows: int,
        tags: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        self.columns = list(columns)
        self.num_rows = num_rows
        self.tags = (
            list(tags) if tags is not None else [None] * len(self.columns)
        )
        # the per-version lanes of the stored columns among ``columns``
        # (set by the scan, relayed with columns passed through as-is)
        self.lanes: Optional[ColumnLanes] = None
        self.pad_tags: Optional[list] = None

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple],
        width: int,
        tags: Optional[Sequence[Optional[str]]] = None,
    ) -> "ColumnBatch":
        """Pivot row tuples into a batch (``width`` disambiguates the
        zero-row case, where the tuples can't tell us the arity)."""
        if not rows:
            return cls([[] for _ in range(width)], 0, tags)
        columns = [list(col) for col in zip(*rows)]
        return cls(columns, len(rows), tags)

    def rows(self) -> list[tuple]:
        """Materialize the batch back into row tuples."""
        if not self.columns:
            return [()] * self.num_rows
        return list(zip(*map(as_list, self.columns)))

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnBatch({len(self.columns)} cols x {self.num_rows} rows, "
            f"tags={self.tags!r})"
        )


class ColumnLanes:
    """Per-version lanes of a scanned table, seen through one batch.

    A lane is a typed form of one stored column, built on first use and
    kept in ``store`` -- the heap's lane dict for the version the scan
    read (:meth:`HeapTable.column_lanes`), keyed ``(ordinal, kind)`` --
    so every statement over that version shares it, and the heap's next
    write drops it.  Kinds:

    * ``"array"``: the int64/float64 ndarray of a clean INTEGER or FLOAT
      column (None when a value does not fit int64);
    * ``"dictionary"``: ``(codes, values)`` for a clean STRING column
      whose statistics show few distinct values (``dictionary`` names
      those ordinals): the distinct values in first-appearance order and
      an intp ndarray of each row's index into them;
    * ``"join"``: the hash-join build table over the column, built by the
      join (see :meth:`join_table`).

    ``stored`` are the version's column lists and ``columns`` the batch's:
    the same lists, or their ``[start:start + rows]`` slices, ``None``
    where pruned.  Lanes are found by column identity, so a column that is
    not one of ``columns`` -- a kernel output, a filter or join gather --
    has none (a gather carries its typed form itself); a sliced batch gets
    sliced lanes (ndarray views).
    """

    __slots__ = ("_store", "_stored", "_tags", "_dictionary", "_columns",
                 "_start", "_stop")

    def __init__(
        self,
        store: dict,
        stored: Sequence[list],
        tags: Sequence[Optional[str]],
        dictionary: frozenset,
        columns: Sequence[Optional[list]],
        start: int,
        rows: int,
    ) -> None:
        self._store = store
        self._stored = stored
        self._tags = tags
        self._dictionary = dictionary
        self._columns = columns
        self._start = start
        self._stop = start + rows

    def _ordinal(self, col: list) -> int:
        for ordinal, column in enumerate(self._columns):
            if column is col:
                return ordinal
        return -1

    def _lane(self, ordinal: int, kind: str, build: Callable[[list], Any]):
        key = (ordinal, kind)
        store = self._store
        if key in store:
            return store[key]
        lane = store[key] = build(self._stored[ordinal])
        return lane

    def _whole(self, ordinal: int) -> bool:
        return self._start == 0 and self._stop == len(self._stored[ordinal])

    def array(self, col: list):
        """``col`` as an int64/float64 ndarray when it is a clean numeric
        stored column of this batch, else None.  Exact for the reason
        :func:`typed_array` gives."""
        ordinal = self._ordinal(col)
        if ordinal < 0 or _np is None:
            return None
        tag = self._tags[ordinal]
        if tag != TAG_INT and tag != TAG_FLOAT:
            return None
        arr = self._lane(
            ordinal, "array", lambda stored: typed_array(stored, tag)
        )
        if arr is None or self._whole(ordinal):
            return arr
        return arr[self._start:self._stop]

    def dictionary(self, col: list):
        """``(codes, values)`` when ``col`` is a stored column with a
        dictionary lane, else None; ``values[codes[i]] == col[i]``."""
        ordinal = self._ordinal(col)
        if ordinal < 0 or ordinal not in self._dictionary:
            return None
        codes, values = self._lane(ordinal, "dictionary", _encode)
        if not self._whole(ordinal):
            codes = codes[self._start:self._stop]
        return codes, values

    def join_table(self, col: list, build: Callable[[list], Any]):
        """``build(col)``, kept for the version, when ``col`` is a whole
        stored column of this batch (an unfiltered build key); None
        otherwise.  The caller must not mutate the result."""
        ordinal = self._ordinal(col)
        if ordinal < 0 or not self._whole(ordinal):
            return None
        return self._lane(ordinal, "join", build)


def typed_array(column: list, tag: Optional[str]):
    """``column`` as an int64 (``TAG_INT``) or float64 (``TAG_FLOAT``)
    ndarray; None without numpy, under another tag, or when an int does
    not fit int64 (``fromiter`` raises rather than wrap).

    Exact by construction: a ``TAG_FLOAT`` column holds only Python
    floats (bit-identical in float64), a ``TAG_INT`` column only ints.
    ``TAG_NUM`` (mixed int/float) gets none -- silently rounding a big
    int into float64 could flip a comparison the row engine decides
    exactly."""
    if _np is None or (tag != TAG_INT and tag != TAG_FLOAT):
        return None
    dtype = _np.int64 if tag == TAG_INT else _np.float64
    try:
        return _np.fromiter(column, dtype, len(column))
    except (TypeError, ValueError, OverflowError):
        return None


def _encode(column: list) -> tuple:
    """Dictionary-encode a string column: codes in first-appearance order,
    so neither set iteration order nor string hashes can reorder them."""
    values = list(dict.fromkeys(column))
    index = {value: code for code, value in enumerate(values)}
    codes = _np.fromiter(map(index.__getitem__, column), _np.intp, len(column))
    return codes, values
