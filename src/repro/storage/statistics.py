"""Table statistics for the cost-based optimizer.

The paper's optimizer annotates plans with cardinality predictions before
re-ordering operators (Section 3.2.2).  Two tiers of statistics feed those
predictions:

* **incremental counters** — row counts, per-column value counters and
  NULL/CNULL tallies, maintained on every insert/delete/update, so they
  are always fresh;
* **analyzed statistics** — equi-depth histograms and most-common-value
  (MCV) lists, built by ``ANALYZE`` (or automatically once enough
  mutations accumulate) and versioned by a per-table ``epoch`` that the
  plan cache keys on.

Everything is deterministic: same data, same statistics, same plans.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Optional

from repro.sqltypes import CNULL, NULL

#: number of equi-depth buckets an ANALYZE aims for
HISTOGRAM_BUCKETS = 32
#: number of most-common values tracked per analyzed column
MCV_TARGET = 10
#: auto-analyze triggers once mutations exceed
#: ``max(floor, fraction * rows_at_last_analyze)``
AUTO_ANALYZE_FLOOR = 50
AUTO_ANALYZE_FRACTION = 0.2


@dataclass(frozen=True)
class HistogramBucket:
    """One equi-depth bucket: ``low <= value <= high`` (both inclusive)."""

    low: Any
    high: Any
    count: int
    distinct: int


class EquiDepthHistogram:
    """Equi-depth histogram over one column's non-missing values.

    Built from the column's exact value counter at ANALYZE time; each
    bucket holds roughly ``total / buckets`` rows.  Numeric bounds are
    interpolated linearly inside a bucket; other orderable types fall
    back to the half-bucket convention.
    """

    def __init__(self, buckets: list[HistogramBucket], total: int) -> None:
        self.buckets = buckets
        self.total = total

    def __len__(self) -> int:
        return len(self.buckets)

    @property
    def low(self) -> Any:
        return self.buckets[0].low

    @property
    def high(self) -> Any:
        return self.buckets[-1].high

    @classmethod
    def build(
        cls, value_counts: Counter, buckets: int = HISTOGRAM_BUCKETS
    ) -> Optional["EquiDepthHistogram"]:
        """Build from a value counter; None when values are not orderable
        (mixed types) or there is nothing to summarize."""
        if not value_counts:
            return None
        try:
            values = sorted(value_counts)
        except TypeError:
            return None  # heterogeneous values: no ordering, no histogram
        # cumulative[i]: rows holding the first i + 1 values (strictly
        # increasing: every counted value occurs at least once)
        cumulative = list(accumulate(map(value_counts.__getitem__, values)))
        total = cumulative[-1]
        depth = max(1, -(-total // buckets))  # ceil division
        built: list[HistogramBucket] = []
        last = len(values) - 1
        start = 0
        below = 0  # rows in the buckets already built
        while start <= last:
            # a bucket closes on the first value that fills it to depth
            end = min(bisect_left(cumulative, below + depth, start), last)
            built.append(HistogramBucket(
                values[start], values[end], cumulative[end] - below,
                end - start + 1,
            ))
            below = cumulative[end]
            start = end + 1
        return cls(built, total)

    # -- estimation -------------------------------------------------------------

    def fraction_below(self, value: Any, inclusive: bool) -> Optional[float]:
        """Estimated fraction of rows with ``v < value`` (or ``<=``)."""
        try:
            if value < self.low:
                return 0.0
            if value > self.high:
                return 1.0
        except TypeError:
            return None  # probe value not comparable to the column
        below = 0.0
        for bucket in self.buckets:
            if value > bucket.high:
                below += bucket.count
                continue
            if value < bucket.low:
                break
            below += bucket.count * self._position(bucket, value, inclusive)
            break
        return min(1.0, below / self.total)

    @staticmethod
    def _position(
        bucket: HistogramBucket, value: Any, inclusive: bool
    ) -> float:
        """Where ``value`` falls inside ``bucket`` as a fraction of its
        rows (linear interpolation for numeric bounds)."""
        if bucket.low == bucket.high:
            return 1.0 if inclusive else 0.0
        if isinstance(value, (int, float)) and isinstance(
            bucket.low, (int, float)
        ) and isinstance(bucket.high, (int, float)):
            span = float(bucket.high) - float(bucket.low)
            if span <= 0:
                return 1.0 if inclusive else 0.0
            fraction = (float(value) - float(bucket.low)) / span
            if inclusive and bucket.distinct:
                fraction += 1.0 / bucket.distinct
            return max(0.0, min(1.0, fraction))
        # orderable but non-numeric (strings, dates-as-strings): assume
        # the value sits midway through the bucket
        return 0.5

    def range_selectivity(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Optional[float]:
        """Estimated fraction of rows in ``[low, high]`` (open-ended when
        a bound is None)."""
        upper = (
            self.fraction_below(high, high_inclusive)
            if high is not None
            else 1.0
        )
        lower = (
            self.fraction_below(low, not low_inclusive)
            if low is not None
            else 0.0
        )
        if upper is None or lower is None:
            return None
        return max(0.0, min(1.0, upper - lower))


class ColumnStatistics:
    """Incremental statistics for one column, plus analyzed summaries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.null_count = 0
        self.cnull_count = 0
        self._value_counts: Counter[Any] = Counter()
        #: set once an unhashable value had to be counted under its repr:
        #: distinct reprs can collapse distinct values, so from then on
        #: ``distinct_count`` is only a *lower bound* on the true NDV and
        #: consumers (cardinality estimation) must not treat it as exact
        self.distinct_is_lower_bound = False
        # analyzed statistics (rebuilt by ANALYZE / auto-analyze)
        self.histogram: Optional[EquiDepthHistogram] = None
        self.mcv: dict[Any, int] = {}

    @property
    def distinct_count(self) -> int:
        return len(self._value_counts)

    @property
    def known_count(self) -> int:
        return sum(self._value_counts.values())

    @property
    def total_count(self) -> int:
        return self.known_count + self.null_count + self.cnull_count

    def add(self, value: Any) -> None:
        if value is NULL or value is None:
            self.null_count += 1
        elif value is CNULL:
            self.cnull_count += 1
        else:
            counts = self._value_counts
            try:
                counts[value] = counts.get(value, 0) + 1
            except TypeError:  # unhashable — statistics stay coarse
                counts[repr(value)] += 1
                self.distinct_is_lower_bound = True

    def remove(self, value: Any) -> None:
        if value is NULL or value is None:
            self.null_count = max(0, self.null_count - 1)
        elif value is CNULL:
            self.cnull_count = max(0, self.cnull_count - 1)
        else:
            try:
                key = value
                count = self._value_counts.get(key)
            except TypeError:
                key = repr(value)
                count = self._value_counts.get(key)
            if count:
                if count == 1:
                    del self._value_counts[key]
                else:
                    self._value_counts[key] = count - 1

    # -- analysis ---------------------------------------------------------------

    def analyze(self) -> None:
        """Rebuild the histogram and MCV list from the live counters."""
        self.mcv = dict(self._value_counts.most_common(MCV_TARGET))
        if self.distinct_is_lower_bound:
            # repr-collapsed values would produce a garbage ordering
            self.histogram = None
        else:
            self.histogram = EquiDepthHistogram.build(self._value_counts)

    # -- selectivity ------------------------------------------------------------

    def null_fraction(self) -> float:
        total = self.total_count
        return self.null_count / total if total else 0.0

    def cnull_fraction(self) -> float:
        total = self.total_count
        return self.cnull_count / total if total else 0.0

    def selectivity_equals(self, value: Any = None) -> float:
        """Estimated fraction of rows matched by ``column = constant``.

        With the constant at hand the live value counter answers exactly;
        without it the uniform 1/NDV guess applies.
        """
        total = self.total_count
        if total == 0 or self.distinct_count == 0:
            return 0.1  # textbook default guess
        if value is not None and not self.distinct_is_lower_bound:
            return self.frequency(value) / total
        return max(1.0 / self.distinct_count, 1.0 / max(total, 1))

    def selectivity_range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Optional[float]:
        """Histogram estimate for a range predicate; None when no
        analyzed histogram can answer."""
        if self.histogram is None:
            return None
        return self.histogram.range_selectivity(
            low, high, low_inclusive, high_inclusive
        )

    def frequency(self, value: Any) -> int:
        """Exact count of rows storing ``value`` (0 for missing values)."""
        try:
            return self._value_counts.get(value, 0)
        except TypeError:
            return self._value_counts.get(repr(value), 0)


class TableStatistics:
    """Incremental statistics for one table, with staleness tracking.

    ``epoch`` is bumped on every (re-)analysis; cached plans key on it so
    a histogram rebuild invalidates stale plan choices.  DML mutations
    accumulate in ``mutations_since_analyze``; once they exceed
    ``max(auto_analyze_floor, auto_analyze_fraction * rows-at-analyze)``
    the histograms rebuild automatically, so bulk loads never require an
    explicit ``ANALYZE``.
    """

    def __init__(
        self,
        column_names: tuple[str, ...],
        auto_analyze_floor: int = AUTO_ANALYZE_FLOOR,
        auto_analyze_fraction: float = AUTO_ANALYZE_FRACTION,
    ) -> None:
        self.row_count = 0
        self.columns: dict[str, ColumnStatistics] = {
            name.lower(): ColumnStatistics(name) for name in column_names
        }
        self._by_ordinal = tuple(self.columns.values())
        self.epoch = 0
        self.analyzed = False
        self.mutations_since_analyze = 0
        self._rows_at_analyze = 0
        self.auto_analyze_floor = auto_analyze_floor
        self.auto_analyze_fraction = auto_analyze_fraction

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name.lower()]

    # -- staleness --------------------------------------------------------------

    @property
    def stale(self) -> bool:
        """Have enough mutations accumulated to warrant a rebuild?"""
        threshold = max(
            self.auto_analyze_floor,
            self.auto_analyze_fraction * self._rows_at_analyze,
        )
        return self.mutations_since_analyze >= threshold

    def analyze(self) -> None:
        """Rebuild histograms/MCVs for every column; bump the epoch."""
        for column in self.columns.values():
            column.analyze()
        self.analyzed = True
        self.mutations_since_analyze = 0
        self._rows_at_analyze = self.row_count
        self.epoch += 1

    def _on_mutation(self) -> None:
        self.mutations_since_analyze += 1
        if self.auto_analyze_floor >= 0 and self.stale:
            self.analyze()

    # -- DML hooks --------------------------------------------------------------

    def on_insert(self, values: tuple[Any, ...]) -> None:
        """Count one stored tuple (values in column order)."""
        self.row_count += 1
        for column, value in zip(self._by_ordinal, values):
            if value is NULL or value is None or value is CNULL:
                column.add(value)
                continue
            counts = column._value_counts
            try:  # ColumnStatistics.add's common case, without the call
                counts[value] = counts.get(value, 0) + 1
            except TypeError:
                column.add(value)
        self._on_mutation()

    def on_delete(self, values: tuple[Any, ...]) -> None:
        """Uncount one stored tuple (values in column order)."""
        self.row_count = max(0, self.row_count - 1)
        for column, value in zip(self._by_ordinal, values):
            column.remove(value)
        self._on_mutation()

    def cnull_fraction(self, column_name: str) -> float:
        """Fraction of rows whose ``column_name`` is still CNULL.

        This drives the optimizer's estimate of how many CrowdProbe tasks a
        plan will create.
        """
        if self.row_count == 0:
            return 0.0
        return self.column(column_name).cnull_count / self.row_count
