"""Storage substrate: heaps, indexes, statistics, WAL, and the engine."""

from repro.storage.checkpoint import load_checkpoint, write_checkpoint
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapTable
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.ledger import CrowdLedger, CrowdState
from repro.storage.recovery import (
    DurableStorage,
    RecoveryReport,
    recover_storage,
)
from repro.storage.row import Row, Scope
from repro.storage.statistics import ColumnStatistics, TableStatistics
from repro.storage.wal import (
    FaultingWAL,
    LogEntry,
    LogOp,
    WalCrash,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "StorageEngine", "HeapTable", "HashIndex", "OrderedIndex", "Row", "Scope",
    "ColumnStatistics", "TableStatistics", "LogEntry", "LogOp",
    "WriteAheadLog", "FaultingWAL", "WalCrash", "read_wal",
    "DurableStorage", "RecoveryReport", "recover_storage",
    "CrowdLedger", "CrowdState",
    "load_checkpoint", "write_checkpoint",
]
