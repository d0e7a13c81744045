"""Length-prefixed JSON wire protocol for CrowdDB network serving.

Every frame is a 4-byte big-endian length followed by one UTF-8 JSON
object with a ``"type"`` key.  The conversation is strictly
request/response per statement, with one asynchronous exception —
``cancel`` may arrive while a statement is executing:

client → server
    ``hello``      {client, version[, resume, have]} — must be first;
                   ``resume`` reattaches a detached session by token,
                   ``have`` is the highest frame sequence the client
                   fully processed (the server replays everything after)
    ``statement``  {id, sql[, deadline_ms, budget_cents]} — one script
    ``cancel``     {id}                         — abort that statement
    ``ack``        {fseq}                       — frames ≤ fseq arrived
    ``goodbye``    {}                           — clean disconnect

server → client
    ``welcome``      {server, version, session, token, replayed}
    ``result_page``  {id, seq, columns, rows, last, fseq}
    ``done``         {id, rowcount, statement, stats, pages, status,
                      reason, fseq}
    ``error``        {id, message, error_type, traceback, code[, fseq]}
    ``goodbye``      {}

Frames that belong to a statement's result stream carry a per-session
``fseq`` stamp.  The server buffers them until acknowledged; after an
unclean disconnect the session *detaches* (the statement keeps running)
and a reconnect with ``resume``/``have`` replays exactly the unseen
suffix — result delivery is exactly-once across connection drops.

Result rows page out in bounded chunks (:data:`PAGE_ROWS`) so a large
result neither builds one giant frame nor stalls the writer; ``done``
closes the statement.  Errors carry the server-side exception type and
formatted traceback, so the client can re-raise something that names the
failing operator.

The value codec maps the SQL domain onto JSON: int/float/str/bool pass
through (non-finite floats via a tag), and the in-band NULL/CNULL
singletons travel as tagged objects — byte-identical rows on both ends.
The JSON encoder and decoder do the tagging themselves (``default=`` /
``object_hook=``), so a page of plain scalars costs no Python call per
value; :func:`encode_value`/:func:`decode_value` handle only what the
encoder cannot (non-finite floats, nested sequences, foreign objects).
"""

from __future__ import annotations

import json
import math
import struct
import traceback
from itertools import chain
from typing import Any, Optional

from repro.errors import NetworkProtocolError, StatementCancelled
from repro.sqltypes import CNULL, NULL

PROTOCOL_VERSION = 1
#: refuse frames larger than this (a corrupt length prefix must not
#: make the reader allocate gigabytes)
MAX_FRAME_BYTES = 32 * 1024 * 1024
#: rows per result_page frame
PAGE_ROWS = 512

_LENGTH = struct.Struct(">I")
_TAG = "$crowddb"


# -- value codec --------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """One SQL value → a JSON-serializable shape."""
    if value is NULL:
        return {_TAG: "null"}
    if value is CNULL:
        return {_TAG: "cnull"}
    if isinstance(value, float) and not math.isfinite(value):
        return {_TAG: "float", "v": repr(value)}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return {_TAG: "seq", "v": [encode_value(item) for item in value]}
    # a value outside the SQL domain (shouldn't happen): ship its repr
    # rather than dying mid-page
    return {_TAG: "repr", "v": repr(value)}


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        kind = value.get(_TAG)
        if kind == "null":
            return NULL
        if kind == "cnull":
            return CNULL
        if kind == "float":
            return float(value["v"])
        if kind == "seq":
            return tuple(decode_value(item) for item in value["v"])
        if kind == "repr":
            return value["v"]
        raise NetworkProtocolError(f"unknown value tag: {value!r}")
    return value


def encode_row(row: tuple) -> list:
    return [encode_value(value) for value in row]


def decode_row(row: list) -> tuple:
    return tuple(decode_value(value) for value in row)


#: value types the JSON encoder writes exactly as :func:`encode_value`
#: would (floats only when finite; NULL/CNULL through ``default=``)
_PLAIN = frozenset(
    {int, float, str, bool, type(None), type(NULL), type(CNULL)}
)


def _all_plain(rows: list) -> bool:
    """Whether a page can ride in its frame as it is, leaving NULL/CNULL
    to the JSON encoder — decided by one C-speed scan of the value
    types, not a Python call per value.  A page that cannot takes
    :func:`encode_row`; both produce the same bytes."""
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= _PLAIN:
        return False
    if float not in kinds:
        return True
    floats = [v for v in chain.from_iterable(rows) if type(v) is float]
    return all(map(math.isfinite, floats))


def _tag_singleton(value: Any) -> dict:
    """``json`` ``default=``: the two values it cannot write itself."""
    if value is NULL or value is CNULL:
        return encode_value(value)
    raise TypeError(
        f"{type(value).__name__} is not a wire value: {value!r}"
    )


def _untag(obj: dict) -> Any:
    """``json`` ``object_hook=``: tagged objects become their values
    (innermost first, so a ``seq`` sees its items already decoded)."""
    return decode_value(obj) if _TAG in obj else obj


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_tag_singleton)
_DECODER = json.JSONDecoder(object_hook=_untag)


# -- framing ------------------------------------------------------------------


def pack_frame(frame: dict) -> bytes:
    """One frame → length-prefixed bytes (raises on oversize)."""
    payload = _ENCODER.encode(frame).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise NetworkProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    try:
        frame = _DECODER.decode(payload.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as error:
        # bad UTF-8, bad JSON, or a tagged value missing its payload
        raise NetworkProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(frame, dict) or "type" not in frame:
        raise NetworkProtocolError("frame is not an object with a 'type'")
    return frame


def parse_length(prefix: bytes) -> int:
    """Validate and unpack a 4-byte length prefix."""
    if len(prefix) != _LENGTH.size:
        raise NetworkProtocolError("truncated frame length prefix")
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise NetworkProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def read_frame_blocking(sock) -> Optional[dict]:
    """Read one frame from a blocking socket; None on clean EOF."""
    prefix = bytearray(_LENGTH.size)
    if not _recv_into(sock, prefix, eof_ok=True):
        return None
    payload = bytearray(parse_length(prefix))
    _recv_into(sock, payload)
    return decode_payload(payload)


def _recv_into(sock, buffer: bytearray, eof_ok: bool = False) -> bool:
    """Fill ``buffer`` from the socket.  EOF at a frame boundary returns
    False when ``eof_ok``; EOF anywhere else is a protocol error."""
    view = memoryview(buffer)
    filled = 0
    while filled < len(buffer):
        received = sock.recv_into(view[filled:])
        if not received:
            if eof_ok and not filled:
                return False
            raise NetworkProtocolError("connection closed mid-frame")
        filled += received
    return True


# -- frame builders -----------------------------------------------------------


def hello_frame(
    client: str = "repro",
    resume: Optional[str] = None,
    have: int = -1,
) -> dict:
    frame = {"type": "hello", "client": client, "version": PROTOCOL_VERSION}
    if resume is not None:
        frame["resume"] = resume
        frame["have"] = have
    return frame


def welcome_frame(
    session_id: int, token: str = "", replayed: int = 0
) -> dict:
    return {
        "type": "welcome",
        "server": "crowddb-repro",
        "version": PROTOCOL_VERSION,
        "session": session_id,
        "token": token,
        "replayed": replayed,
    }


def statement_frame(
    statement_id: int,
    sql: str,
    deadline_ms: Optional[int] = None,
    budget_cents: Optional[int] = None,
) -> dict:
    frame = {"type": "statement", "id": statement_id, "sql": sql}
    if deadline_ms is not None:
        frame["deadline_ms"] = int(deadline_ms)
    if budget_cents is not None:
        frame["budget_cents"] = int(budget_cents)
    return frame


def cancel_frame(statement_id: int) -> dict:
    return {"type": "cancel", "id": statement_id}


def ack_frame(fseq: int) -> dict:
    return {"type": "ack", "fseq": fseq}


def result_pages(statement_id: int, result: Any) -> list[dict]:
    """A ResultSet → its result_page frames + the closing done frame."""
    frames: list[dict] = []
    rows = result.rows
    columns = list(result.columns)
    for seq, start in enumerate(range(0, len(rows), PAGE_ROWS)):
        chunk = rows[start : start + PAGE_ROWS]
        frames.append(
            {
                "type": "result_page",
                "id": statement_id,
                "seq": seq,
                "columns": columns,
                "rows": (
                    chunk
                    if _all_plain(chunk)
                    else [encode_row(row) for row in chunk]
                ),
                "last": start + PAGE_ROWS >= len(rows),
            }
        )
    frames.append(
        {
            "type": "done",
            "id": statement_id,
            "rowcount": result.rowcount,
            "statement": result.statement,
            "columns": columns,
            "stats": {
                key: value
                for key, value in (result.crowd_stats or {}).items()
                if isinstance(value, (int, float))
            },
            "pages": len(frames),
            "status": getattr(result, "status", "complete"),
            "reason": getattr(result, "partial_reason", None),
        }
    )
    return frames


def error_frame(statement_id: Optional[int], error: BaseException) -> dict:
    return {
        "type": "error",
        "id": statement_id,
        "message": str(error),
        "error_type": type(error).__name__,
        "traceback": "".join(
            traceback.format_exception(
                type(error), error, error.__traceback__
            )
        ),
        "code": (
            "cancelled" if isinstance(error, StatementCancelled) else "error"
        ),
    }
