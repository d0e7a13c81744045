"""``oltp_durable`` — point reads and writes against a WAL-backed table.

*Why it exists.*  It is where ``storage`` pays: every write is framed,
appended and fsynced before it is acknowledged, checkpoints rewrite the
whole heap in the foreground, and recovery must give back every
acknowledged write.  Per-statement ``engine`` overhead (a PK update scans
the table) is the rest.  The ``GROUP BY`` after a write reads the same
``scan_columns`` pivot ``olap_scan`` reads warm, but invalidated — so a
scan-side gain that taxes writes, or the reverse, shows in one of the two.

*Loads:* ``storage`` (WAL append + fsync, heap, PK index, checkpoint,
recovery), ``engine`` (DML paths, physical planning), ``exec`` lightly
(5k-row scans).

*Bypasses:* ``optimizer``/``sql`` (five parameterised shapes: both caches
hit), ``crowd``/``ui``, ``net``/``server``.

Flush policy, stated and fixed: ``wal_sync="commit"`` (fsync before every
acknowledgement) and ``checkpoint_interval=256`` WAL records, which gives
about nine checkpoint cycles inside the measured phase (the issue's 1024
would give two in 12 s).

One closed-loop client.  5k rows pre-loaded by SQL, then the mix: 64% PK
point reads (recent keys favoured), 18% inserts, 14% PK updates, 4%
deletes, and every 100th statement a ``GROUP BY`` over the table just
written.

The phase ends with a crash: the connection is abandoned un-closed, the
directory is copied, each copy's WAL is cut at the last byte that was
fsynced (killing a process leaves the OS cache intact, so the test discards
the unflushed tail itself), and five reopens are timed.  Every acknowledged
write must read back.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Optional

from repro import connect

from perf.harness import Outcome, Statement, exact_mix, run_single_client
from perf.trace import Tracer
from perf.twin import open_twin, same_rows

ROWS = 5_000
STATEMENTS = 6_600  # at REFERENCE_SECONDS
WAL_SYNC = "commit"
CHECKPOINT_INTERVAL = 256
REOPENS = 5
RECENCY = 200.0  # mean distance from the newest key, in keys

DDL = (
    "CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner STRING, "
    "balance FLOAT, branch INTEGER)"
)
TWIN_DDL = DDL.replace("STRING", "TEXT").replace("FLOAT", "REAL")
INSERT = "INSERT INTO accounts VALUES (?, ?, ?, ?)"
READ = "SELECT id, owner, balance, branch FROM accounts WHERE id = ?"
UPDATE = "UPDATE accounts SET balance = ? WHERE id = ?"
DELETE = "DELETE FROM accounts WHERE id = ?"
AGGREGATE = (
    "SELECT branch, COUNT(*), SUM(balance) FROM accounts "
    "GROUP BY branch ORDER BY branch"
)
READ_BACK = "SELECT id, owner, balance, branch FROM accounts ORDER BY id"
WRITES = ("insert", "update", "delete")
#: of the statements that are not the every-100th aggregate.  A read that
#: follows a write pays the column pivot (1.0 ms against 0.4 ms); at the
#: issue's 50/25/20/4 exactly half the statements were fast, so the median
#: sat on the edge between the two modes and moved by a fifth between runs.
#: At 64% reads it lies inside the fast mode (inserts + reads after reads).
MIX = {"read": 0.64, "insert": 0.18, "update": 0.14, "delete": 0.04}


@dataclass
class Inputs:
    preload: list[tuple]
    statements: list[Statement]
    user_bytes: int  # bytes the client asked to have stored or changed


class DurabilityProbe:
    """Counts what reaches the disk, on one storage instance.

    The program counts WAL bytes but neither where the last fsync left the
    file nor how much each checkpoint wrote; both are needed with tracing
    off (crash cut, bytes written per user byte), so the probe shadows the
    two methods on the instance it is given — nothing global changes.
    """

    def __init__(self, storage: Any) -> None:
        self.fsynced_bytes = 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        wal = storage.wal
        flush = wal.flush
        checkpoint = storage.checkpoint
        checkpoint_file = os.path.join(storage.directory, "checkpoint.json")

        def probed_flush(fsync: bool = False) -> None:
            flush(fsync)
            if fsync:
                self.fsynced_bytes = os.path.getsize(wal.path)

        def probed_checkpoint() -> int:
            lsn = checkpoint()
            self.checkpoints += 1
            self.checkpoint_bytes += os.path.getsize(checkpoint_file)
            return lsn

        wal.flush = probed_flush
        storage.checkpoint = probed_checkpoint


@dataclass
class State:
    db: Any
    directory: str
    probe: DurabilityProbe
    written_before: int = 0  # WAL + checkpoint bytes when the phase began


def generate(seed: int, scale: float, smoke: bool = False) -> Inputs:
    rng = random.Random(seed)
    rows = 300 if smoke else ROWS

    def account(key: int) -> tuple:
        return (
            key, f"owner{key:06d}",
            round(rng.uniform(0, 10_000), 2), rng.randrange(20),
        )

    preload = [account(key) for key in range(rows)]
    live = list(range(rows))
    next_key = rows
    statements: list[Statement] = []
    user_bytes = 0

    def recent() -> int:
        back = min(int(rng.expovariate(1.0 / RECENCY)), len(live) - 1)
        return live[len(live) - 1 - back]

    count = max(12, round(STATEMENTS * scale))
    kinds = iter(exact_mix(rng, count - count // 100, MIX))
    for index in range(count):
        kind = "aggregate" if index % 100 == 99 else next(kinds)
        if kind == "aggregate":
            statement = Statement(AGGREGATE, (), kind)
        elif kind == "insert":
            statement = Statement(INSERT, account(next_key), kind)
            live.append(next_key)
            next_key += 1
        elif kind == "update":
            statement = Statement(
                UPDATE, (round(rng.uniform(0, 10_000), 2), recent()), kind
            )
        elif kind == "delete":
            key = recent()
            live.remove(key)
            statement = Statement(DELETE, (key,), kind)
        else:
            statement = Statement(READ, (recent(),), kind)
        if statement.kind in WRITES:
            user_bytes += len(json.dumps(statement.params))
        statements.append(statement)
    return Inputs(preload, statements, user_bytes)


def _open(directory: str) -> Any:
    return connect(
        path=directory, with_crowd=False,
        wal_sync=WAL_SYNC, checkpoint_interval=CHECKPOINT_INTERVAL,
    )


def setup(inputs: Inputs, workdir: str) -> State:
    """Bulk-load with the WAL unsynced and one closing checkpoint, then
    reopen under the measured policy.  Loading under ``commit`` would make
    ``setup_s`` five thousand fsyncs, whose latency on the sandbox's disk
    drifts by tens of percent within the hour."""
    directory = os.path.join(workdir, "db")
    shutil.rmtree(directory, ignore_errors=True)
    loader = connect(
        path=directory, with_crowd=False,
        wal_sync="off", checkpoint_interval=None,
    )
    loader.execute(DDL)
    for row in inputs.preload:
        loader.execute(INSERT, row)
    loader.close()
    db = _open(directory)
    return State(db, directory, DurabilityProbe(db.storage))


def _written(state: State) -> int:
    return (
        state.db.storage.wal.stats.bytes_written + state.probe.checkpoint_bytes
    )


def run(state: State, inputs: Inputs, tracer: Optional[Tracer]) -> Outcome:
    state.written_before = _written(state)
    return run_single_client(state.db.execute, inputs.statements, tracer)


def finish(state: State, inputs: Inputs, outcome: Outcome) -> dict:
    """Crash, cut the unflushed tail, reopen :data:`REOPENS` times."""
    written = _written(state) - state.written_before
    reopen_ms: list[float] = []
    recovered: list[tuple] = []
    for attempt in range(REOPENS):
        copy = f"{state.directory}-crash{attempt}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(state.directory, copy)
        with open(os.path.join(copy, "wal.jsonl"), "r+b") as wal_copy:
            wal_copy.truncate(state.probe.fsynced_bytes)
        started = perf_counter_ns()
        reopened = _open(copy)
        reopen_ms.append((perf_counter_ns() - started) / 1e6)
        if attempt == 0:
            recovered = reopened.query(READ_BACK)
        reopened.storage.wal.close()  # release the file; no checkpoint
        shutil.rmtree(copy)
    outcome.notes["recovered"] = recovered
    return {
        "recovery_ms": statistics.median(reopen_ms),
        "bytes_written_per_user_byte": written / max(1, inputs.user_bytes),
    }


def check(inputs: Inputs, outcome: Outcome) -> None:
    twin = open_twin([TWIN_DDL], {"accounts": inputs.preload})
    try:
        for index, (statement, result) in enumerate(
            zip(inputs.statements, outcome.results)
        ):
            cursor = twin.execute(statement.sql, statement.params)
            if index in outcome.failed:
                continue
            if statement.kind in WRITES:
                right = result.rowcount == cursor.rowcount
            else:
                right = same_rows(result.rows, cursor.fetchall())
            if not right:
                outcome.failed.add(index)
        # every acknowledged write, read back after the crash
        expected = twin.execute(READ_BACK).fetchall()
    finally:
        twin.close()
    ours = {row[0]: row for row in outcome.notes.pop("recovered")}
    theirs = {row[0]: row for row in expected}
    outcome.other_checks += len(theirs)
    outcome.other_failures += sum(
        1
        for key in ours.keys() | theirs.keys()
        if key not in ours
        or key not in theirs
        or not same_rows([ours[key]], [theirs[key]])
    )


def close(state: State) -> None:
    # the connection was "killed": release its file without the final
    # checkpoint a clean close would write
    state.db.storage.wal.close()
    shutil.rmtree(state.directory, ignore_errors=True)
