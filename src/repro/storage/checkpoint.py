"""Checkpointing: atomic heap snapshots that bound WAL replay.

A checkpoint captures the full committed state of an engine — schemas,
rows under their original rowids, logged secondary-index definitions,
per-table statistics epochs — plus the crowd side (CROWDEQUAL/CROWDORDER
verdict caches and reputation posteriors), together with the LSN of the
last WAL record it covers.

Publication is atomic: the snapshot is written to a temp file, fsynced,
and ``os.replace``d over the previous checkpoint, then the directory is
fsynced.  Recovery therefore always sees either the old checkpoint or the
new one, never a torn mix; the WAL is only truncated *after* the new
checkpoint is durable, and records at or below ``last_lsn`` are skipped
on replay, so a crash anywhere in the checkpoint protocol recovers
correctly.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from repro.errors import StorageError
from repro.storage.index import OrderedIndex
from repro.storage.wal import (
    decode_row,
    encode_row,
    schema_from_dict,
    schema_to_dict,
)

CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_FORMAT = 1


def _index_defs(heap) -> list[dict]:
    """Logged secondary indexes beyond the auto-built PK/unique ones."""
    auto = set()
    schema = heap.schema
    if schema.primary_key:
        auto.add(f"{schema.name}_pk")
    for column in schema.columns:
        if column.unique and not column.primary_key:
            auto.add(f"{schema.name}_{column.name}_unique")
    return [
        {
            "name": index.name,
            "columns": list(index.columns),
            "unique": index.unique,
            "ordered": isinstance(index, OrderedIndex),
        }
        for name, index in heap.indexes.items()
        if name not in auto
    ]


def _statistics_state(stats) -> dict:
    return {
        "epoch": stats.epoch,
        "analyzed": stats.analyzed,
        "mutations_since_analyze": stats.mutations_since_analyze,
        "rows_at_analyze": stats._rows_at_analyze,
    }


def restore_statistics(stats, saved: dict) -> None:
    """Restore a table's statistics bookkeeping from checkpoint state.

    Histograms/MCVs are rebuilt from the live value counters (identical
    inputs, identical summaries), then the epoch and staleness counters
    are pinned back to their checkpointed values so the plan-cache
    fingerprint and the auto-analyze trigger behave exactly as before the
    crash.
    """
    if saved["analyzed"]:
        stats.analyze()
    stats.epoch = saved["epoch"]
    stats.analyzed = saved["analyzed"]
    stats.mutations_since_analyze = saved["mutations_since_analyze"]
    stats._rows_at_analyze = saved["rows_at_analyze"]


def build_checkpoint_state(
    engine, crowd: Optional[dict] = None, last_lsn: int = -1
) -> dict:
    """Serialize one engine (+ crowd ledger state) into checkpoint JSON."""
    tables = {}
    for name in engine.table_names():
        heap = engine.table(name)
        tables[heap.name.lower()] = {
            "next_rowid": heap._next_rowid,
            "rows": [
                [rowid, encode_row(values)]
                for rowid, values in heap._rows.items()
            ],
            "indexes": _index_defs(heap),
            "statistics": _statistics_state(heap.statistics),
        }
    return {
        "format": CHECKPOINT_FORMAT,
        "last_lsn": last_lsn,
        "catalog": [
            schema_to_dict(engine.catalog.table(name))
            for name in engine.table_names()
        ],
        "tables": tables,
        "crowd": crowd
        or {"equal": [], "order": [], "reputation": {}},
    }


def restore_engine(state: dict, **engine_kwargs: Any):
    """Build a fresh engine from checkpoint state (no WAL attached yet)."""
    from repro.storage.engine import StorageEngine

    engine = StorageEngine(**engine_kwargs)
    for schema_dict in state["catalog"]:
        schema = schema_from_dict(schema_dict)
        engine.create_table(schema)
        heap = engine.table(schema.name)
        table_state = state["tables"][schema.name.lower()]
        for index in table_state["indexes"]:
            engine.create_index(
                schema.name,
                index["name"],
                tuple(index["columns"]),
                unique=index["unique"],
                ordered=index["ordered"],
            )
        stats = heap.statistics
        floor = stats.auto_analyze_floor
        if table_state["statistics"]["analyzed"]:
            # restore_statistics rebuilds every summary from the restored
            # counters, so the auto-analyses on the way are wasted
            stats.auto_analyze_floor = -1
        try:
            for rowid, values in table_state["rows"]:
                heap.restore_row(rowid, decode_row(values))
        finally:
            stats.auto_analyze_floor = floor
        heap._next_rowid = table_state["next_rowid"]
        restore_statistics(stats, table_state["statistics"])
    return engine


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_NAME)


def write_checkpoint(directory: str, state: dict) -> str:
    """Atomically publish a checkpoint into ``directory``."""
    path = checkpoint_path(directory)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        # dumps, not dump: only the one-shot encoder runs in C
        handle.write(json.dumps(state, separators=(",", ":")))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path


def load_checkpoint(directory: str) -> Optional[dict]:
    """Read the current checkpoint, or None when there is none yet; a
    file of any other format raises :class:`StorageError`."""
    path = checkpoint_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        return None
    except ValueError as error:
        raise StorageError(f"{path} is not a checkpoint: {error}") from None
    found = state.get("format") if isinstance(state, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise StorageError(
            f"{path} has checkpoint format {found!r}; "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    return state
