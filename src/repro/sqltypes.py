"""SQL type system for CrowdSQL.

CrowdSQL extends every SQL type with one extra value, ``CNULL`` (paper,
Section 2.1): the crowd equivalent of ``NULL``.  ``NULL`` means *known to be
absent*; ``CNULL`` means *unknown, and should be crowdsourced when first
used*.  The two are distinct singletons here, and three-valued logic treats
both as "unknown" for predicate evaluation, while the executor additionally
treats CNULL as a trigger for the CrowdProbe operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import TypeError_


class _Null:
    """Singleton for the standard SQL NULL value (known-absent)."""

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_Null, ())


class _CNull:
    """Singleton for the CROWD NULL value (unknown, sourceable).

    CNULL indicates that a value should be crowdsourced when it is first
    used (paper, Section 2.1).
    """

    _instance: "_CNull | None" = None

    def __new__(cls) -> "_CNull":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CNULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_CNull, ())


NULL = _Null()
CNULL = _CNull()


def is_null(value: Any) -> bool:
    """True for SQL NULL (not for CNULL)."""
    return value is NULL or value is None


def is_cnull(value: Any) -> bool:
    """True for the crowd-sourceable CNULL marker."""
    return value is CNULL


def is_missing(value: Any) -> bool:
    """True for either NULL or CNULL — any value unknown to 3VL."""
    return is_null(value) or is_cnull(value)


def has_missing(values: tuple) -> bool:
    """True when some value of ``values`` is NULL or CNULL."""
    for value in values:
        if value is NULL or value is None or value is CNULL:
            return True
    return False


class SQLType(enum.Enum):
    """The scalar SQL types supported by the engine.

    STRING is the paper's spelling of VARCHAR (Example 1 uses
    ``abstract CROWD STRING``); both spellings parse to this type.
    """

    STRING = "STRING"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    BOOLEAN = "BOOLEAN"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: the Python type each SQL type stores: a value of exactly this type is
#: already in storage form, and :func:`coerce` returns it unchanged
STORAGE_TYPES = {
    SQLType.STRING: str,
    SQLType.INTEGER: int,
    SQLType.FLOAT: float,
    SQLType.BOOLEAN: bool,
}

_TYPE_ALIASES = {
    "STRING": SQLType.STRING,
    "VARCHAR": SQLType.STRING,
    "TEXT": SQLType.STRING,
    "CHAR": SQLType.STRING,
    "INTEGER": SQLType.INTEGER,
    "INT": SQLType.INTEGER,
    "BIGINT": SQLType.INTEGER,
    "SMALLINT": SQLType.INTEGER,
    "FLOAT": SQLType.FLOAT,
    "DOUBLE": SQLType.FLOAT,
    "REAL": SQLType.FLOAT,
    "DECIMAL": SQLType.FLOAT,
    "NUMERIC": SQLType.FLOAT,
    "BOOLEAN": SQLType.BOOLEAN,
    "BOOL": SQLType.BOOLEAN,
}


def type_from_name(name: str) -> SQLType:
    """Resolve a type name (any common alias) to a :class:`SQLType`."""
    try:
        return _TYPE_ALIASES[name.upper()]
    except KeyError:
        raise TypeError_(f"unknown SQL type: {name!r}") from None


def coerce(value: Any, sql_type: SQLType) -> Any:
    """Coerce a Python value to the storage representation of ``sql_type``.

    NULL and CNULL pass through unchanged.  Python ``None`` is normalized
    to the NULL singleton.  Raises :class:`TypeError_` when the value cannot
    be represented in the target type.
    """
    if value is None or value is NULL:
        return NULL
    if value is CNULL:
        return CNULL
    py = STORAGE_TYPES[sql_type]
    if sql_type is SQLType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "yes", "1"):
                return True
            if lowered in ("false", "f", "no", "0"):
                return False
        raise TypeError_(f"cannot coerce {value!r} to BOOLEAN")
    if sql_type is SQLType.FLOAT and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if sql_type is SQLType.INTEGER:
        if isinstance(value, bool):
            raise TypeError_("cannot coerce BOOLEAN to INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                raise TypeError_(f"cannot coerce {value!r} to INTEGER") from None
        raise TypeError_(f"cannot coerce {value!r} to INTEGER")
    if sql_type is SQLType.FLOAT and isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise TypeError_(f"cannot coerce {value!r} to FLOAT") from None
    if isinstance(value, py) and not (py is not bool and isinstance(value, bool)):
        return value
    if sql_type is SQLType.STRING:
        raise TypeError_(f"cannot coerce {value!r} to STRING (pass a str)")
    raise TypeError_(f"cannot coerce {value!r} to {sql_type}")


def parse_literal(text: str, sql_type: SQLType) -> Any:
    """Parse free-text crowd input into a typed value.

    Crowd workers type into HTML forms, so everything arrives as a string.
    Empty input maps to NULL ("the worker says there is no value").
    """
    stripped = text.strip()
    if not stripped or stripped.upper() == "NULL":
        return NULL
    if sql_type is SQLType.STRING:
        return stripped
    return coerce(stripped, sql_type)


@dataclass(frozen=True)
class TriBool:
    """Three-valued logic value: TRUE, FALSE, or UNKNOWN."""

    value: bool | None

    def __bool__(self) -> bool:
        return self.value is True

    def __and__(self, other: "TriBool") -> "TriBool":
        if self.value is False or other.value is False:
            return TRI_FALSE
        if self.value is None or other.value is None:
            return TRI_UNKNOWN
        return TRI_TRUE

    def __or__(self, other: "TriBool") -> "TriBool":
        if self.value is True or other.value is True:
            return TRI_TRUE
        if self.value is None or other.value is None:
            return TRI_UNKNOWN
        return TRI_FALSE

    def __invert__(self) -> "TriBool":
        if self.value is None:
            return TRI_UNKNOWN
        return TRI_FALSE if self.value else TRI_TRUE

    def __repr__(self) -> str:
        if self.value is None:
            return "UNKNOWN"
        return "TRUE" if self.value else "FALSE"


TRI_TRUE = TriBool(True)
TRI_FALSE = TriBool(False)
TRI_UNKNOWN = TriBool(None)


def tri_from(value: Any) -> TriBool:
    """Lift a Python/SQL value into three-valued logic."""
    if is_missing(value):
        return TRI_UNKNOWN
    return TRI_TRUE if bool(value) else TRI_FALSE


def group_key(value: Any) -> Any:
    """``value`` as a dict or set key, as GROUP BY, DISTINCT, set
    operations and vote tallies compare values: itself, or its ``repr``
    when it cannot be hashed."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def compare_values(left: Any, right: Any) -> int | None:
    """SQL comparison: returns -1/0/1, or None when either side is missing.

    Mixed numeric comparison is allowed; other cross-type comparisons raise.
    """
    if is_missing(left) or is_missing(right):
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
        raise TypeError_(f"cannot compare BOOLEAN with {type(right).__name__}")
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    raise TypeError_(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def format_value(value: Any) -> str:
    """Render a value the way the CLI / examples print result cells."""
    if value is NULL:
        return "NULL"
    if value is CNULL:
        return "CNULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
