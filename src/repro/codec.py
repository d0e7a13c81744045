"""JSON encoding of stored values: the ``{"$": "null"|"cnull"}`` scheme.

Storage tuples and parked crowd work hold JSON-native scalars plus the
NULL/CNULL singletons; the singletons are encoded as one-key tagged dicts
(a scalar column can never legitimately store a dict, so the tag is
unambiguous).  The WAL, checkpoints (a saved database image is one) and
the crowd retry queue all write this format; ``tests/golden/wal_v1.jsonl``
pins its bytes.  The wire protocol's ``$crowddb`` tags are a different
format with its own codec (:mod:`repro.net.protocol`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sqltypes import CNULL, NULL

__all__ = ["encode_value", "decode_value"]

_NULL_TAG = {"$": "null"}
_CNULL_TAG = {"$": "cnull"}
_SCALARS = (str, int, float, bool)


def encode_value(value: Any, error: Optional[type] = None) -> Any:
    """JSON-safe encoding of one value (``None`` collapses into NULL).

    With ``error`` given, a value that is neither a sentinel nor a JSON
    scalar raises it; without, such a value passes through untouched.
    """
    if value is NULL or value is None:
        return _NULL_TAG
    if value is CNULL:
        return _CNULL_TAG
    if error is not None and not isinstance(value, _SCALARS):
        raise error(f"cannot serialize value {value!r}")
    return value


def decode_value(value: Any, error: type = ValueError) -> Any:
    """Inverse of :func:`encode_value`; an unknown tag raises ``error``."""
    if isinstance(value, dict):
        tag = value.get("$")
        if tag == "null":
            return NULL
        if tag == "cnull":
            return CNULL
        raise error(f"unknown value tag {value!r}")
    return value
