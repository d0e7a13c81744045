"""What every workload shares: the statement record, the closed-loop client
that times statements, and the outcome a measured phase hands back."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Mapping, Optional, Sequence

from perf.trace import Tracer


@dataclass(frozen=True)
class Statement:
    sql: str
    params: tuple = ()
    kind: str = ""  # shape label, for the README's mix table and checks
    ordered: bool = True  # False: compare results as multisets


def exact_mix(
    rng: random.Random, count: int, shares: Mapping[str, float]
) -> list[str]:
    """``count`` kind labels in seed-shuffled order.

    Every seed gets the same number of statements of each kind (the shares,
    largest remainder first) — only their order and parameters differ — so
    the work in a run does not depend on which seed drew it.
    """
    exact = {kind: share * count for kind, share in shares.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(shares, key=lambda kind: counts[kind] - exact[kind])
    for kind in by_remainder[: count - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind in shares for _ in range(counts[kind])]
    rng.shuffle(kinds)
    return kinds


@dataclass(slots=True)
class Reply:
    """What the checks need of one answer.  The ResultSet itself is let go:
    it holds the whole compiled plan, and thousands of those kept alive
    make the interpreter's full collections — pauses the *harness* would
    be adding to the statements it times — grow through the phase."""

    columns: list
    rows: list
    rowcount: int
    statement: str
    status: str
    rows_scanned: int
    assignments: int  # crowd assignments this statement paid for

    @classmethod
    def of(cls, result: Any) -> "Reply":
        stats = result.crowd_stats
        return cls(
            result.columns, result.rows, result.rowcount, result.statement,
            result.status, int(stats.get("rows_scanned", 0)),
            int(stats.get("assignments", 0)),
        )


@dataclass
class Outcome:
    """One measured phase."""

    latencies_ns: list[int] = field(default_factory=list)
    #: wall the clients spent waiting for replies; with one client that is
    #: the sum of latencies (output checks between statements excluded)
    measured_ns: int = 0
    #: per statement: the Reply, the exception it raised, or None when an
    #: identical earlier statement already carries the rows
    results: list[Any] = field(default_factory=list)
    #: indexes of statements that raised or returned a wrong answer
    failed: set[int] = field(default_factory=set)
    rows_scanned: int = 0
    rows_returned: int = 0
    #: checks that are not one statement each (rows read back after a
    #: crash): how many were made, how many came out wrong
    other_checks: int = 0
    other_failures: int = 0
    #: what ``finish`` leaves for ``check`` (e.g. the recovered table)
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns) + self.other_checks

    @property
    def failures(self) -> int:
        return len(self.failed) + self.other_failures


class ClosedLoopClient:
    """Sends the next statement only after the previous reply arrived.

    ``execute(sql, params)`` is the program's public call and returns its
    ResultSet; the latency is what its caller observes.  With a tracer each statement is a ``stmt``
    span, the root of that statement's tree.
    """

    def __init__(
        self,
        execute: Callable[[str, tuple], Any],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.execute = execute
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.results: list[Any] = []

    def send(self, statement: Statement) -> Any:
        tracer = self.tracer
        span = tracer.begin("stmt") if tracer is not None else None
        started = perf_counter_ns()
        try:
            result = self.execute(statement.sql, statement.params)
        except Exception as error:  # a failed statement is a counted outcome
            result = error
        elapsed = perf_counter_ns() - started
        if span is not None:
            tracer.end(span)
        self.latencies_ns.append(elapsed)
        return result if isinstance(result, Exception) else Reply.of(result)


def run_single_client(
    execute: Callable[[str, tuple], Any],
    statements: Sequence[Statement],
    tracer: Optional[Tracer],
    share_repeats: bool = False,
    outcome: Optional[Outcome] = None,
) -> Outcome:
    """The in-process measured phase: one client, every statement in order.

    ``share_repeats`` keeps the rows of the first occurrence of each
    distinct statement only and checks every repeat against them between
    statements (untimed), so a workload that re-runs a 60k-row projection
    does not hold every copy until the check.

    Given an ``outcome``, the statements are appended to it: a phase made
    of rounds calls this once per round.
    """
    client = ClosedLoopClient(execute, tracer)
    if outcome is None:
        outcome = Outcome()
    first_rows: dict[tuple, list] = {}
    for index, statement in enumerate(statements, len(outcome.results)):
        result = client.send(statement)
        if isinstance(result, Exception):
            outcome.failed.add(index)
            outcome.results.append(result)
            continue
        outcome.rows_returned += len(result.rows)
        outcome.rows_scanned += result.rows_scanned
        if share_repeats:
            key = (statement.sql, statement.params)
            reference = first_rows.get(key)
            if reference is None:
                first_rows[key] = result.rows
            else:
                if result.rows != reference:
                    outcome.failed.add(index)
                result = None
        outcome.results.append(result)
    outcome.latencies_ns.extend(client.latencies_ns)
    outcome.measured_ns += sum(client.latencies_ns)
    return outcome
