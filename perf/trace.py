"""In-memory span tracer for the traced benchmark run.

The program has no phase spans of its own yet (ROADMAP items 1a and 5), so
the benchmark records them from outside: :func:`install` wraps each layer's
public entry point *at the attribute where its caller looks it up* and puts
the original back when the run ends.  No file under ``src/`` is edited.

A span is ``name, start, end, parent, stmt_id`` plus the thread it ran on
and one count taken at the same boundary (rows, bytes).  A thread-local
stack gives the parent; a span with no parent starts a new tree and mints
the tree's ``stmt_id``.  One in-process statement is therefore one tree::

    stmt > engine.execute > sql.parse
                          > plan.build
                          > optimizer.optimize > plan.bind
                          > engine.physical_plan
                          > exec.drain > storage.scan_columns_* | crowd.*
                          > storage.wal_append

Over TCP the client thread holds ``stmt > net.pack_frame, net.wait >
net.decode_payload, net.decode_rows`` and the server's threads (asyncio
loop, engine pump, one per session) each grow trees of their own; tying
those to the client's statement needs an id on the wire, which is the later
issue.

A layer's time is **self time**: a span's duration minus what its children
cover.  Spans in :data:`WAIT_SPANS` are a thread parked on another thread's
work; their self time is reported as waiting, never as a layer being busy.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Optional

#: spans whose self time is spent blocked on another thread
WAIT_SPANS = frozenset({"net.wait", "server.run_slice", "server.park"})

# span record layout (a list, mutated in place when the span ends)
NAME, START, END, PARENT, STMT, THREAD, COUNT = range(7)


class Tracer:
    """Collects spans from every thread into one list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._stmt_ids = itertools.count(1)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            stmt_id = parent[STMT]
        else:
            parent = None
            stmt_id = next(self._stmt_ids)
        span = [name, 0, 0, parent, stmt_id, threading.get_ident(), 0]
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        span[START] = perf_counter_ns()
        return span

    def end(self, span: list, count: int = 0) -> None:
        span[END] = perf_counter_ns()
        span[COUNT] = count
        self._stack().pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable[[Any, tuple], int]] = None,
    ) -> Callable:
        """``fn`` timed as one span; ``count(result, args)`` is recorded
        with it."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(span)
                raise
            end(span, count(result, args) if count is not None else 0)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        spans = ended(self.spans)
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": (
                                ids.get(id(parent))
                                if parent is not None
                                else None
                            ),
                            "stmt_id": span[STMT],
                            "thread": span[THREAD],
                            "count": span[COUNT],
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


def ended(spans: Iterable[list]) -> list[list]:
    """Spans that ended (a daemon thread parked at exit leaves its last
    wait span open)."""
    return [span for span in spans if span[END]]


@dataclass
class SpanTotals:
    """Everything the per-layer metrics need about one span name."""

    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    count: int = 0

    def self_us_per_call(self) -> float:
        return self.self_ns / self.calls / 1e3 if self.calls else 0.0

    def self_ms_per_call(self) -> float:
        return self.self_ns / self.calls / 1e6 if self.calls else 0.0


def self_times(spans: Iterable[list]) -> list[tuple[list, int]]:
    """Each span with its self time: its duration minus what its children
    cover.  Children run on the parent's thread, one after another, inside
    its interval, so what they cover is the sum of their durations."""
    spans = list(spans)
    covered: dict[int, int] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            covered[id(parent)] = (
                covered.get(id(parent), 0) + span[END] - span[START]
            )
    return [
        (span, span[END] - span[START] - covered.get(id(span), 0))
        for span in spans
    ]


def totals_by_name(spans: Iterable[list]) -> dict[str, SpanTotals]:
    """Calls, self time, inclusive time and counts, summed per span name."""
    totals: dict[str, SpanTotals] = {}
    for span, self_ns in self_times(spans):
        entry = totals.setdefault(span[NAME], SpanTotals())
        entry.calls += 1
        entry.total_ns += span[END] - span[START]
        entry.self_ns += self_ns
        entry.count += span[COUNT]
    return totals


def root_of(span: list) -> list:
    while span[PARENT] is not None:
        span = span[PARENT]
    return span


# -- the wrap table -----------------------------------------------------------


def _rows_of_result(result: Any, _args: tuple) -> int:
    return len(getattr(result, "rows", ()) or ())


class _DrainedOperator:
    """Stands in for the planned root operator so that iterating it is the
    ``exec.drain`` span.  The executor drains the operator completely in
    one loop, so materializing inside the span changes nothing it can see
    — including the rows kept when a statement guard stops it early."""

    def __init__(self, operator: Any, tracer: Tracer) -> None:
        self._operator = operator
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._operator, name)

    def __iter__(self):
        rows: list = []
        span = self._tracer.begin("exec.drain")
        try:
            rows.extend(self._operator)  # keeps the prefix if this raises
        except BaseException as error:
            self._tracer.end(span, len(rows))
            yield from rows
            raise error
        self._tracer.end(span, len(rows))
        yield from rows


def _wrap_planner(tracer: Tracer, plan: Callable) -> Callable:
    """``PhysicalPlanner.plan`` recurses into itself for child nodes; only
    the outermost call is the ``engine.physical_plan`` span, and only its
    operator is the one the executor drains."""
    depth = threading.local()

    @functools.wraps(plan)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        if getattr(depth, "value", 0):
            return plan(self, *args, **kwargs)
        depth.value = 1
        span = tracer.begin("engine.physical_plan")
        try:
            operator = plan(self, *args, **kwargs)
        finally:
            depth.value = 0
            tracer.end(span)
        return _DrainedOperator(operator, tracer)

    return traced


def _wrap_scan_columns(tracer: Tracer, scan_columns: Callable) -> Callable:
    """Cold = the table changed since the cached pivot, so this call pays
    for the row-to-column pivot; warm = the cache is handed back."""

    @functools.wraps(scan_columns)
    def traced(self: Any) -> Any:
        cache = self._column_cache
        cold = cache is None or cache[0] != self._version
        span = tracer.begin(
            "storage.scan_columns_cold" if cold else "storage.scan_columns_warm"
        )
        try:
            result = scan_columns(self)
        except BaseException:
            tracer.end(span)
            raise
        tracer.end(span, result[1])
        return result

    return traced


def _targets() -> list[tuple]:
    """(owner, attribute, span name, count function) for every wrapped
    entry point.  Module owners are where the *caller* imported the name
    (``repro.api.parse``), class owners are where the method is defined."""
    import repro.api as api
    import repro.net.protocol as protocol
    import repro.server.session as session_module
    import repro.storage.recovery as recovery
    from repro.crowd.sim.base import SimulatedCrowdPlatform
    from repro.crowd.task_manager import TaskManager
    from repro.engine.executor import Executor
    from repro.net.client import NetClient
    from repro.optimizer.optimizer import Optimizer
    from repro.plan.binder import Binder
    from repro.plan.builder import PlanBuilder
    from repro.server.scheduler import CooperativeScheduler
    from repro.server.server import Server
    from repro.server.session import Session
    from repro.storage.engine import StorageEngine
    from repro.storage.heap import HeapTable
    from repro.storage.index import HashIndex, OrderedIndex
    from repro.storage.recovery import DurableStorage
    from repro.storage.wal import WriteAheadLog
    from repro.ui.manager import UITemplateManager

    targets: list[tuple] = [
        (api, "parse", "sql.parse", None),
        (api, "parse_script", "sql.parse", None),
        (session_module, "parse_script", "sql.parse", None),
        (PlanBuilder, "build_statement", "plan.build", None),
        (Binder, "bind", "plan.bind", None),
        (Optimizer, "optimize", "optimizer.optimize", None),
        (Executor, "execute", "engine.execute", _rows_of_result),
        (StorageEngine, "insert", "storage.insert", None),
        (HashIndex, "lookup", "storage.index_lookup", None),
        (OrderedIndex, "lookup", "storage.index_lookup", None),
        (HeapTable, "lookup_primary_key", "storage.index_lookup", None),
        (WriteAheadLog, "append", "storage.wal_append", None),
        (DurableStorage, "checkpoint", "storage.checkpoint", None),
        (recovery, "recover_storage", "storage.recover",
         lambda state, _args: state.report.records_replayed),
        (recovery, "load_checkpoint", "storage.checkpoint_load", None),
        (recovery, "restore_engine", "storage.checkpoint_load", None),
        (TaskManager, "wait", "crowd.wait", None),
        (TaskManager, "wait_many", "crowd.wait", None),
        (TaskManager, "settle", "crowd.settle", None),
        (SimulatedCrowdPlatform, "run_until", "crowd.sim_step", None),
        (UITemplateManager, "instantiate", "ui.render", None),
        (Server, "open_session", "server.open_session", None),
        (Server, "run", "server.run", None),
        (Session, "submit", "server.submit", None),
        (Session, "_run_one", "server.session_run", None),
        (Session, "run_slice", "server.run_slice", None),
        (Session, "_park", "server.park", None),
        (CooperativeScheduler, "step", "server.scheduler_step", None),
        (protocol, "result_pages", "net.result_pages",
         lambda _frames, args: len(args[1].rows)),
        (protocol, "pack_frame", "net.pack_frame",
         lambda data, _args: len(data)),
        (protocol, "decode_payload", "net.decode_payload",
         lambda _frame, args: len(args[0])),
        (protocol, "read_frame_blocking", "net.wait", None),
        (NetClient, "_consume", "net.decode_rows",
         lambda _outcome, args: len(args[2].get("rows", ()))),
    ]
    for name in vars(TaskManager):
        if name.startswith("begin_"):
            targets.append((TaskManager, name, "crowd.begin", None))
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    from repro.engine.planner import PhysicalPlanner
    from repro.storage.heap import HeapTable

    originals: list[tuple] = []

    def replace(owner: Any, attribute: str, wrapped: Callable) -> None:
        originals.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapped)

    for owner, attribute, name, count in _targets():
        replace(
            owner, attribute, tracer.wrap(vars(owner)[attribute], name, count)
        )
    replace(
        PhysicalPlanner, "plan",
        _wrap_planner(tracer, vars(PhysicalPlanner)["plan"]),
    )
    replace(
        HeapTable, "scan_columns",
        _wrap_scan_columns(tracer, vars(HeapTable)["scan_columns"]),
    )

    def uninstall() -> None:
        while originals:
            owner, attribute, original = originals.pop()
            setattr(owner, attribute, original)

    return uninstall
