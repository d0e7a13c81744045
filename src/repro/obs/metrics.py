"""Central metrics registry: counters, gauges, histograms, views.

One :class:`MetricsRegistry` per connection is the single source of
truth for operational telemetry.  Subsystems either own an instrument
(``registry.counter("statements_total")``) or register a *collector* — a
pull callback that snapshots an existing stats object (the Task Manager,
the plan cache, the scheduler) on demand, so instrumented hot paths pay
nothing until somebody reads the metrics.

Exposition is Prometheus-style text (``# TYPE`` lines, ``_total``
counters, ``{quantile="..."}`` summaries), rendered by :meth:`text`; the
flat :meth:`snapshot` dict backs programmatic inspection and the shell's
``.metrics`` command.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Any, Callable, Optional

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become ``_``)."""
    return _NAME_RE.sub("_", name)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Counter:
    """A monotonically increasing count.

    Increments are serialized by a per-instrument lock: session threads
    and the network front end all bump shared counters, and an unlocked
    ``+=`` is a read-modify-write that loses updates under contention.
    """

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (thread-safe)."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Streaming distribution with percentile summaries.

    Exact count/sum/min/max plus a bounded reservoir of the most recent
    ``reservoir`` observations, in arrival order, for percentile queries
    — enough for latency summaries without unbounded memory.  Observing
    is an append; a percentile sorts a copy of the reservoir, which only
    expositions ask for.
    """

    __slots__ = (
        "name", "help", "count", "total", "min", "max", "_reservoir",
        "_lock",
    )

    def __init__(self, name: str, help: str = "", reservoir: int = 512) -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: deque = deque(maxlen=max(1, reservoir))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._reservoir.append(value)  # the oldest drops out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the retained reservoir."""
        with self._lock:
            values = sorted(self._reservoir)
        if not values:
            return 0.0
        rank = min(
            len(values) - 1, max(0, int(round(q * (len(values) - 1))))
        )
        return values[rank]

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": round(self.mean, 9),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Owns every instrument and renders the exposition."""

    def __init__(self) -> None:
        # guards instrument get-or-create: two threads asking for the
        # same counter must share one instrument, or half the increments
        # land on an orphan the exposition never reads
        self._create_lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # name -> (callback, help): a zero-cost pull gauge
        self._views: dict[str, tuple[Callable[[], float], str]] = {}
        # name -> (label key, callback, help): callback returns
        # {label value -> number}, one exposition line per label
        self._labeled: dict[
            str, tuple[str, Callable[[], dict[str, float]], str]
        ] = {}
        # prefix -> callback returning a flat stats dict; re-registering a
        # prefix overwrites (a new Server over the same connection takes
        # over that collector's identity)
        self._collectors: dict[str, Callable[[], dict[str, Any]]] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name, help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name, help)
        return instrument

    def histogram(
        self, name: str, help: str = "", reservoir: int = 512
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(
                        name, help, reservoir=reservoir
                    )
        return instrument

    # -- pull-based registration ---------------------------------------------

    def register_view(
        self, name: str, fn: Callable[[], float], help: str = ""
    ) -> None:
        """A computed gauge, evaluated at read time."""
        self._views[name] = (fn, help)

    def register_labeled(
        self,
        name: str,
        label: str,
        fn: Callable[[], dict[str, float]],
        help: str = "",
    ) -> None:
        """A labeled gauge family: ``fn`` returns one value per label."""
        self._labeled[name] = (label, fn, help)

    def register_collector(
        self, prefix: str, fn: Callable[[], dict[str, Any]]
    ) -> None:
        """Adopt an existing stats object: ``fn`` snapshots it to a flat
        dict, exposed under ``prefix``."""
        self._collectors[prefix] = fn

    def collect(self, prefix: str) -> dict[str, Any]:
        """One collector's current snapshot (``{}`` when unregistered)."""
        fn = self._collectors.get(prefix)
        return fn() if fn is not None else {}

    # -- exposition ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every metric as one flat dict (histograms as summary dicts)."""
        data: dict[str, Any] = {}
        for name, counter in self._counters.items():
            data[name] = counter.value
        for name, gauge in self._gauges.items():
            data[name] = gauge.value
        for name, histogram in self._histograms.items():
            data[name] = histogram.summary()
        for name, (fn, _help) in self._views.items():
            data[name] = fn()
        for name, (label, fn, _help) in self._labeled.items():
            for value, number in fn().items():
                data[f'{name}{{{label}="{value}"}}'] = number
        for prefix, fn in self._collectors.items():
            for key, value in fn().items():
                data[f"{prefix}.{key}"] = value
        return data

    def text(self, namespace: str = "crowddb") -> str:
        """Prometheus-style text exposition of every metric."""
        lines: list[str] = []

        def header(name: str, kind: str, help: str) -> str:
            full = f"{namespace}_{_metric_name(name)}"
            if help:
                lines.append(f"# HELP {full} {help}")
            lines.append(f"# TYPE {full} {kind}")
            return full

        for name, counter in sorted(self._counters.items()):
            full = header(name, "counter", counter.help)
            lines.append(f"{full} {_format_value(counter.value)}")
        for name, gauge in sorted(self._gauges.items()):
            full = header(name, "gauge", gauge.help)
            lines.append(f"{full} {_format_value(gauge.value)}")
        for name, histogram in sorted(self._histograms.items()):
            full = header(name, "summary", histogram.help)
            for q in (0.5, 0.9, 0.99):
                lines.append(
                    f'{full}{{quantile="{q}"}} '
                    f"{_format_value(histogram.percentile(q))}"
                )
            lines.append(f"{full}_sum {_format_value(histogram.total)}")
            lines.append(f"{full}_count {histogram.count}")
        for name, (fn, help) in sorted(self._views.items()):
            full = header(name, "gauge", help)
            lines.append(f"{full} {_format_value(fn())}")
        for name, (label, fn, help) in sorted(self._labeled.items()):
            full = header(name, "gauge", help)
            for value, number in sorted(fn().items()):
                lines.append(
                    f'{full}{{{label}="{value}"}} {_format_value(number)}'
                )
        for prefix, fn in sorted(self._collectors.items()):
            for key, value in fn().items():
                if not isinstance(value, (int, float)):
                    continue
                full = f"{namespace}_{_metric_name(prefix)}_{_metric_name(key)}"
                lines.append(f"{full} {_format_value(value)}")
        return "\n".join(lines) + "\n"
