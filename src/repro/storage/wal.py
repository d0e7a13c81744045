"""On-disk write-ahead log: durable redo records for engine and crowd state.

The paper's prototype leaned on H2 for durability; this module is our
equivalent substrate.  Every :class:`LogEntry` the :class:`~repro.
storage.engine.StorageEngine` logs — DDL, DML, index builds, ANALYZE —
is framed as one JSONL record and appended here *before* the caller
observes the result, together with the crowd ledger's records (CROWDEQUAL
verdicts, CROWDORDER winners, reputation posteriors) so a paid crowd
answer is never bought twice across restarts.

Framing: one record per line, ``<crc32:08x> <lsn> <json>\n``.  The CRC
covers ``"<lsn> <json>"``, so a flipped bit anywhere in the record — LSN
included — fails verification.  LSNs are assigned by the log and strictly
increase across checkpoints (a checkpoint truncates the file but never
rewinds the counter), which makes recovery idempotent: records at or
below the checkpoint's ``last_lsn`` are skipped even if a crash landed
between checkpoint publication and WAL truncation.

``sync`` policies (the ``connect(wal_sync=...)`` knob):

* ``"commit"`` — flush + fsync after every record (crash loses nothing);
* ``"batch"`` — fsync every :data:`BATCH_RECORDS` records (bounded loss);
* ``"off"`` — leave flushing to the OS (fastest, test-friendly).

:class:`FaultingWAL` is the crash-fault-injection harness: a drop-in
subclass that kills the process's write stream at a chosen record
boundary or byte offset, leaving exactly the torn file a real crash
would.
"""

from __future__ import annotations

import enum
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro import codec
from repro.catalog.column import Column
from repro.catalog.table import ForeignKey, TableSchema
from repro.errors import WALError
from repro.sqltypes import SQLType

#: records between fsyncs under the "batch" sync policy
BATCH_RECORDS = 64

SYNC_POLICIES = ("commit", "batch", "off")


# -- value / schema serialization ---------------------------------------------


def encode_value(value: Any) -> Any:
    """JSON-safe encoding of one storage value (see :mod:`repro.codec`)."""
    return codec.encode_value(value, WALError)


def decode_value(value: Any) -> Any:
    return codec.decode_value(value, WALError)


def encode_row(values: Iterable[Any]) -> list:
    encode = codec.encode_value  # one call a value: rows are the hot path
    return [encode(v, WALError) for v in values]


def decode_row(values: Iterable[Any]) -> tuple:
    decode = codec.decode_value
    return tuple(decode(v, WALError) for v in values)


def schema_to_dict(schema: TableSchema) -> dict:
    """Serialize a frozen :class:`TableSchema` for WAL/checkpoint records."""
    return {
        "name": schema.name,
        "crowd": schema.crowd,
        "primary_key": list(schema.primary_key),
        "comment": schema.comment,
        "columns": [
            {
                "name": c.name,
                "type": c.sql_type.value,
                "ordinal": c.ordinal,
                "crowd": c.crowd,
                "primary_key": c.primary_key,
                "not_null": c.not_null,
                "unique": c.unique,
                "default": None if c.default is None else encode_value(c.default),
                "comment": c.comment,
            }
            for c in schema.columns
        ],
        "foreign_keys": [
            {
                "columns": list(fk.columns),
                "ref_table": fk.ref_table,
                "ref_columns": list(fk.ref_columns),
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(data: Mapping) -> TableSchema:
    columns = tuple(
        Column(
            name=c["name"],
            sql_type=SQLType(c["type"]),
            ordinal=c["ordinal"],
            crowd=c["crowd"],
            primary_key=c["primary_key"],
            not_null=c["not_null"],
            unique=c["unique"],
            default=None if c["default"] is None else decode_value(c["default"]),
            comment=c["comment"],
        )
        for c in data["columns"]
    )
    foreign_keys = tuple(
        ForeignKey(
            columns=tuple(fk["columns"]),
            ref_table=fk["ref_table"],
            ref_columns=tuple(fk["ref_columns"]),
        )
        for fk in data["foreign_keys"]
    )
    return TableSchema(
        name=data["name"],
        columns=columns,
        crowd=data["crowd"],
        primary_key=tuple(data["primary_key"]),
        foreign_keys=foreign_keys,
        comment=data["comment"],
    )


# -- engine log entries ---------------------------------------------------------


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
    """One engine mutation, as logged and as replayed.

    ``origin`` distinguishes regular client DML from writes performed by
    the crowd subsystem ("crowd") when memorizing worker answers.
    """

    op: LogOp
    table: str
    payload: tuple[Any, ...] = ()
    origin: str = "client"


def wal_record_for(entry: LogEntry) -> dict:
    """Translate one in-memory :class:`LogEntry` into its WAL record.

    Redo-only: DELETE drops the old values and UPDATE keeps only the new
    tuple — replay re-applies the log forward from an empty (or
    checkpointed) engine, never backward.
    """
    record: dict[str, Any] = {
        "op": entry.op.value.lower(),
        "table": entry.table,
    }
    if entry.origin != "client":
        record["origin"] = entry.origin
    if entry.op is LogOp.CREATE_TABLE:
        record["schema"] = schema_to_dict(entry.payload[0])
    elif entry.op is LogOp.INSERT:
        record["rowid"] = entry.payload[0]
        record["values"] = encode_row(entry.payload[1])
    elif entry.op is LogOp.DELETE:
        record["rowid"] = entry.payload[0]
    elif entry.op is LogOp.UPDATE:
        record["rowid"] = entry.payload[0]
        record["values"] = encode_row(entry.payload[2])
    elif entry.op is LogOp.CREATE_INDEX:
        name, columns, unique, ordered = entry.payload
        record.update(
            index=name, columns=list(columns), unique=unique, ordered=ordered
        )
    # DROP_TABLE / ANALYZE carry no payload beyond the table name
    return record


# -- the log itself -----------------------------------------------------------


@dataclass
class WalStats:
    """Write-side counters exposed through the metrics registry."""

    records: int = 0
    bytes_written: int = 0
    flushes: int = 0
    fsyncs: int = 0


class WriteAheadLog:
    """Append-only JSONL log with per-record CRC32 and monotonic LSNs."""

    def __init__(
        self,
        path: str,
        sync: str = "commit",
        start_lsn: int = 0,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise WALError(
                f"unknown wal_sync policy {sync!r}; expected one of "
                f"{SYNC_POLICIES}"
            )
        self.path = str(path)
        self.sync = sync
        self.next_lsn = start_lsn
        self.stats = WalStats()
        self.records_since_checkpoint = 0
        self._pending_sync = 0
        self._file = open(self.path, "ab")

    # -- writing ----------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> int:
        """Frame and append one record; returns its LSN."""
        lsn = self.next_lsn
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
        body = f"{lsn} {payload}"
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        line = f"{crc:08x} {body}\n".encode("utf-8")
        self._write(line)
        self.next_lsn = lsn + 1
        self.stats.records += 1
        self.stats.bytes_written += len(line)
        self.records_since_checkpoint += 1
        if self.sync == "commit":
            self.flush(fsync=True)
        elif self.sync == "batch":
            self._pending_sync += 1
            if self._pending_sync >= BATCH_RECORDS:
                self.flush(fsync=True)
        return lsn

    def _write(self, data: bytes) -> None:
        """Single write funnel — :class:`FaultingWAL` overrides this."""
        self._file.write(data)

    def flush(self, fsync: bool = False) -> None:
        self._file.flush()
        self.stats.flushes += 1
        if fsync:
            os.fsync(self._file.fileno())
            self.stats.fsyncs += 1
            self._pending_sync = 0

    def truncate(self) -> None:
        """Discard the on-disk records (after a checkpoint made them
        redundant).  LSNs keep counting — recovery relies on that."""
        self._file.flush()
        self._file.seek(0)
        self._file.truncate()
        self.flush(fsync=True)
        self.records_since_checkpoint = 0

    def close(self) -> None:
        if self._file.closed:
            return
        try:
            self.flush(fsync=self.sync != "off")
        finally:
            self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed


class WalCrash(WALError):
    """Raised by :class:`FaultingWAL` at its injection point — stands in
    for the process dying mid-write."""


class FaultingWAL(WriteAheadLog):
    """A WAL whose write stream dies at a chosen injection point.

    ``fail_after_records=k`` kills the (k+1)-th append cleanly at the
    record boundary (nothing of it reaches the file); ``fail_after_bytes=n``
    writes exactly ``n`` bytes and tears whatever record straddles the
    cut.  After the crash every further append raises — the tests then
    recover from the file exactly as a restarted process would.
    """

    def __init__(
        self,
        path: str,
        fail_after_records: Optional[int] = None,
        fail_after_bytes: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        self._fail_after_records = fail_after_records
        self._fail_after_bytes = fail_after_bytes
        self._appended = 0
        self._bytes_seen = 0
        self._crashed = False
        super().__init__(path, **kwargs)

    def append(self, record: Mapping[str, Any]) -> int:
        if self._crashed:
            raise WalCrash("WAL already crashed")
        if (
            self._fail_after_records is not None
            and self._appended >= self._fail_after_records
        ):
            self._crash()
        lsn = super().append(record)
        self._appended += 1
        return lsn

    def _write(self, data: bytes) -> None:
        if self._fail_after_bytes is not None:
            allowed = self._fail_after_bytes - self._bytes_seen
            if len(data) > allowed:
                torn = data[: max(0, allowed)]
                if torn:
                    super()._write(torn)
                    self._bytes_seen += len(torn)
                self._crash()
        super()._write(data)
        self._bytes_seen += len(data)

    def _crash(self) -> None:
        self._crashed = True
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        raise WalCrash(
            f"simulated crash after {self._appended} records / "
            f"{self._bytes_seen} bytes"
        )


# -- reading ------------------------------------------------------------------


@dataclass
class WalReadResult:
    """Outcome of a tolerant WAL scan."""

    records: list = field(default_factory=list)  # [(lsn, record), ...]
    valid_bytes: int = 0
    total_bytes: int = 0
    corrupt_tail: bool = False
    corrupt_reason: Optional[str] = None

    @property
    def last_lsn(self) -> int:
        return self.records[-1][0] if self.records else -1


def _parse_line(line: bytes) -> tuple[int, dict]:
    parts = line.split(b" ", 2)
    if len(parts) != 3:
        raise WALError("malformed record framing")
    crc_hex, lsn_bytes, payload = parts
    body = lsn_bytes + b" " + payload
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        raise WALError("malformed CRC field") from None
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != expected:
        raise WALError(
            f"CRC mismatch (stored {expected:08x}, computed {actual:08x})"
        )
    try:
        lsn = int(lsn_bytes)
        record = json.loads(payload)
    except ValueError as error:  # CRC passed but payload unreadable
        raise WALError(f"unreadable record body: {error}") from None
    if not isinstance(record, dict):
        raise WALError("record body is not an object")
    return lsn, record


def read_wal(path: str) -> WalReadResult:
    """Scan a WAL file, stopping at the first invalid byte.

    Never raises on torn or corrupt data: everything before the first bad
    record is returned, and ``corrupt_tail``/``corrupt_reason`` describe
    the cut so recovery can log a warning and truncate.
    """
    result = WalReadResult()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return result
    result.total_bytes = len(data)
    offset = 0
    last_lsn = -1
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            result.corrupt_tail = True
            result.corrupt_reason = (
                f"torn record at byte {offset}: no terminating newline"
            )
            break
        line = data[offset:newline]
        try:
            lsn, record = _parse_line(line)
        except WALError as error:
            result.corrupt_tail = True
            result.corrupt_reason = f"bad record at byte {offset}: {error}"
            break
        if lsn <= last_lsn:
            result.corrupt_tail = True
            result.corrupt_reason = (
                f"bad record at byte {offset}: LSN {lsn} not monotonic "
                f"(previous {last_lsn})"
            )
            break
        result.records.append((lsn, record))
        last_lsn = lsn
        offset = newline + 1
        result.valid_bytes = offset
    return result


def truncate_to_valid(path: str, valid_bytes: int) -> None:
    """Chop a torn tail off the WAL file (recovery's cleanup step)."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
