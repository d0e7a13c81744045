"""Operation log for the storage substrate.

A lightweight stand-in for H2's transaction log: every mutation is
described by one structured entry.  When a
:class:`~repro.storage.wal.WriteAheadLog` is attached, the entry is framed
and written through to disk before ``append`` returns, which is what makes
the in-memory engine crash-recoverable (see ``repro.storage.recovery``);
crowd-sourced writes carry ``origin="crowd"`` into their records.  Nothing
is retained in memory: an instance without a WAL keeps no history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class LogOp(enum.Enum):
    CREATE_TABLE = "CREATE_TABLE"
    DROP_TABLE = "DROP_TABLE"
    INSERT = "INSERT"
    DELETE = "DELETE"
    UPDATE = "UPDATE"
    # DDL-adjacent operations that build *derived* state.  They are logged
    # so replay/recovery rebuilds secondary indexes and the statistics
    # epoch identically — without them a recovered engine would silently
    # lose its indexes and plan-cache fingerprint.
    CREATE_INDEX = "CREATE_INDEX"
    ANALYZE = "ANALYZE"


@dataclass(frozen=True)
class LogEntry:
    """One logged mutation.

    ``origin`` distinguishes regular client DML from writes performed by
    the crowd subsystem ("crowd") when memorizing worker answers.
    """

    op: LogOp
    table: str
    payload: tuple[Any, ...] = ()
    origin: str = "client"


class TransactionLog:
    """Write-through of engine mutations to the attached WAL, if any."""

    def __init__(self, wal: Optional[Any] = None) -> None:
        #: attached :class:`~repro.storage.wal.WriteAheadLog` (or None for
        #: an in-memory instance, which logs nothing)
        self.wal = wal

    def append(
        self,
        op: LogOp,
        table: str,
        payload: tuple[Any, ...] = (),
        origin: str = "client",
    ) -> None:
        if self.wal is None:
            return
        # write-ahead: the record must be durable (per the sync policy)
        # before the mutation is acknowledged to the caller
        from repro.storage.wal import wal_record_for

        self.wal.append(wal_record_for(LogEntry(op, table, payload, origin)))
