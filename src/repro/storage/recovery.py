"""Crash recovery and the durable storage lifecycle.

``recover_storage(path)`` rebuilds engine + crowd state from a storage
directory: load the last checkpoint (if any), then replay the WAL tail —
records with LSNs above the checkpoint's ``last_lsn`` — through
:meth:`StorageEngine.apply_entry`.  Torn or corrupt tails recover to the
last valid record with a :class:`~repro.errors.RecoveryWarning`; the torn
bytes were never acknowledged to any client, so this loses nothing that
committed.

:class:`DurableStorage` wraps the whole lifecycle for a connection:
recover on open, write-through WAL while live, periodic checkpoints
(every ``checkpoint_interval`` records), and a final checkpoint + flush
on close.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import RecoveryWarning, StorageError
from repro.storage.checkpoint import (
    CHECKPOINT_NAME,
    build_checkpoint_state,
    load_checkpoint,
    restore_engine,
    write_checkpoint,
)
from repro.storage.engine import StorageEngine
from repro.storage.ledger import CrowdLedger, CrowdState
from repro.storage.wal import (
    LogEntry,
    LogOp,
    WriteAheadLog,
    decode_row,
    read_wal,
    schema_from_dict,
    truncate_to_valid,
)

WAL_NAME = "wal.jsonl"


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_NAME)


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    checkpoint_loaded: bool = False
    records_replayed: int = 0
    crowd_records: int = 0
    records_skipped: int = 0       # at or below the checkpoint's last_lsn
    corrupt_tail: bool = False
    corrupt_reason: Optional[str] = None
    torn_bytes: int = 0            # dropped from the tail
    valid_bytes: int = 0           # WAL prefix that parsed cleanly
    next_lsn: int = 0


@dataclass
class RecoveredState:
    engine: StorageEngine
    crowd: CrowdState
    report: RecoveryReport


def _entry_from_record(record: dict) -> LogEntry:
    """Reconstruct an engine log entry from one WAL record."""
    op = LogOp(record["op"].upper())
    origin = record.get("origin", "client")
    table = record["table"]
    payload: tuple
    if op is LogOp.CREATE_TABLE:
        payload = (schema_from_dict(record["schema"]),)
    elif op is LogOp.INSERT:
        payload = (record["rowid"], decode_row(record["values"]))
    elif op is LogOp.DELETE:
        payload = (record["rowid"],)
    elif op is LogOp.UPDATE:
        payload = (record["rowid"], decode_row(record["values"]))
    elif op is LogOp.CREATE_INDEX:
        payload = (
            record["index"],
            tuple(record["columns"]),
            record["unique"],
            record["ordered"],
        )
    else:  # DROP_TABLE / ANALYZE
        payload = ()
    return LogEntry(op=op, table=table, payload=payload, origin=origin)


def recover_storage(
    directory: str,
    auto_analyze_floor: Optional[int] = None,
    auto_analyze_fraction: Optional[float] = None,
) -> RecoveredState:
    """Rebuild committed state from ``directory`` (checkpoint + WAL tail)."""
    report = RecoveryReport()
    engine_kwargs = dict(
        auto_analyze_floor=auto_analyze_floor,
        auto_analyze_fraction=auto_analyze_fraction,
    )
    state = load_checkpoint(directory)
    if state is not None:
        engine = restore_engine(state, **engine_kwargs)
        crowd = CrowdState.from_checkpoint(state.get("crowd"))
        last_lsn = state["last_lsn"]
        report.checkpoint_loaded = True
    else:
        engine = StorageEngine(**engine_kwargs)
        crowd = CrowdState()
        last_lsn = -1

    scan = read_wal(wal_path(directory))
    report.valid_bytes = scan.valid_bytes
    if scan.corrupt_tail:
        report.corrupt_tail = True
        report.corrupt_reason = scan.corrupt_reason
        report.torn_bytes = scan.total_bytes - scan.valid_bytes
        warnings.warn(
            RecoveryWarning(
                f"WAL tail unreadable ({scan.corrupt_reason}); recovered to "
                f"the last valid record and dropped {report.torn_bytes} "
                f"torn byte(s) that were never acknowledged"
            ),
            stacklevel=2,
        )
    for lsn, record in scan.records:
        if lsn <= last_lsn:
            # covered by the checkpoint (a crash landed between checkpoint
            # publication and WAL truncation) — skipping keeps replay
            # idempotent
            report.records_skipped += 1
            continue
        if crowd.apply_record(record):
            report.crowd_records += 1
        else:
            engine.apply_entry(_entry_from_record(record))
            report.records_replayed += 1
        last_lsn = lsn
    report.next_lsn = max(last_lsn + 1, scan.last_lsn + 1, 0)
    return RecoveredState(engine=engine, crowd=crowd, report=report)


def save_image(
    directory: str, engine: StorageEngine, crowd: CrowdState
) -> str:
    """Write ``engine`` and ``crowd`` as the checkpoint of a new database
    directory (``last_lsn`` -1, no WAL) that ``connect(path=directory)``
    opens.  A directory already holding a checkpoint or a WAL is refused:
    recovery would replay that WAL on top of the image."""
    os.makedirs(directory, exist_ok=True)
    for name in (CHECKPOINT_NAME, WAL_NAME):
        if os.path.exists(os.path.join(directory, name)):
            raise StorageError(
                f"{directory} already holds a database ({name}); "
                "save into a new directory"
            )
    state = build_checkpoint_state(engine, crowd=crowd.to_checkpoint())
    return write_checkpoint(directory, state)


class DurableStorage:
    """One durable CrowdDB instance rooted at a directory.

    File layout::

        <path>/wal.jsonl        the write-ahead log (JSONL, CRC + LSN)
        <path>/checkpoint.json  the last published heap snapshot

    Owns recovery on open, the live WAL, the crowd ledger, and the
    checkpoint policy.  ``bind_crowd`` seeds a Task Manager's comparison
    caches and a ReputationStore's posteriors from recovered state and
    wires their ledger hooks.
    """

    def __init__(
        self,
        directory: str,
        wal_sync: str = "commit",
        checkpoint_interval: Optional[int] = 1024,
        auto_analyze_floor: Optional[int] = None,
        auto_analyze_fraction: Optional[float] = None,
        wal_factory: Callable[..., WriteAheadLog] = WriteAheadLog,
    ) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.checkpoint_interval = checkpoint_interval
        recovered = recover_storage(
            self.directory,
            auto_analyze_floor=auto_analyze_floor,
            auto_analyze_fraction=auto_analyze_fraction,
        )
        self.engine = recovered.engine
        self.crowd = recovered.crowd
        self.report = recovered.report
        if self.report.corrupt_tail:
            # chop the torn bytes so the new write stream starts clean
            truncate_to_valid(
                wal_path(self.directory), self.report.valid_bytes
            )
        self.wal = wal_factory(
            wal_path(self.directory),
            sync=wal_sync,
            start_lsn=self.report.next_lsn,
        )
        self.engine.wal = self.wal
        self.ledger = CrowdLedger(self.wal)
        self.checkpoints_written = 0
        self._task_manager: Optional[Any] = None
        self._reputation: Optional[Any] = None
        self._closed = False

    # -- crowd wiring -----------------------------------------------------------

    def bind_crowd(self, task_manager: Any, reputation: Any = None) -> None:
        """Seed live crowd caches from recovered state and attach ledger
        hooks so future settlements are logged."""
        if task_manager is not None:
            task_manager._equal_cache.update(self.crowd.equal)
            task_manager._order_cache.update(self.crowd.order)
            task_manager.ledger = self.ledger
            self._task_manager = task_manager
        if reputation is not None:
            for worker, (observed, correct) in self.crowd.reputation.items():
                reputation._observed[worker] = observed
                if correct:
                    reputation._correct[worker] = correct
            reputation.ledger = self.ledger
            self._reputation = reputation

    # -- checkpointing ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a checkpoint covering everything logged so far; returns
        the covered ``last_lsn``."""
        last_lsn = self.wal.next_lsn - 1
        # WAL first: the snapshot must never get ahead of durable records
        self.wal.flush(fsync=True)
        crowd = CrowdState.gather(
            self.crowd, self._task_manager, self._reputation
        )
        state = build_checkpoint_state(
            self.engine, crowd=crowd.to_checkpoint(), last_lsn=last_lsn
        )
        write_checkpoint(self.directory, state)
        # only now is the old WAL redundant
        self.wal.truncate()
        self.checkpoints_written += 1
        return last_lsn

    def maybe_checkpoint(self) -> bool:
        """Checkpoint when enough records accumulated since the last one."""
        if (
            self.checkpoint_interval is not None
            and self.checkpoint_interval > 0
            and self.wal.records_since_checkpoint >= self.checkpoint_interval
        ):
            self.checkpoint()
            return True
        return False

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Final checkpoint + flush; idempotent."""
        if self._closed:
            return
        self._closed = True
        if not self.wal.closed:
            if self.wal.records_since_checkpoint or not self.checkpoints_written:
                self.checkpoint()
            self.wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- observability ----------------------------------------------------------

    def stats_snapshot(self) -> dict[str, float]:
        """Storage metrics (registered as a ``storage`` collector)."""
        return {
            "wal_records": self.wal.stats.records,
            "wal_bytes": self.wal.stats.bytes_written,
            "wal_flushes": self.wal.stats.flushes,
            "wal_fsyncs": self.wal.stats.fsyncs,
            "wal_records_since_checkpoint": self.wal.records_since_checkpoint,
            "checkpoints_written": self.checkpoints_written,
            "ledger_records": self.ledger.records,
            "recovery_checkpoint_loaded": int(self.report.checkpoint_loaded),
            "recovery_records_replayed": self.report.records_replayed,
            "recovery_crowd_records": self.report.crowd_records,
            "recovery_records_skipped": self.report.records_skipped,
            "recovery_corrupt_tail": int(self.report.corrupt_tail),
            "recovery_torn_bytes": self.report.torn_bytes,
        }
