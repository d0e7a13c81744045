"""Token definitions for the CrowdSQL lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenType(enum.Enum):
    """Lexical categories produced by :func:`repro.sql.lexer.tokenize`."""

    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    STRING = "STRING"
    NUMBER = "NUMBER"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    PARAMETER = "PARAMETER"
    EOF = "EOF"


# Reserved words of CrowdSQL.  The crowd extensions of the paper are CROWD
# (DDL), CNULL (literal), CROWDEQUAL and CROWDORDER (builtin functions).
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
        "LIMIT", "OFFSET", "ASC", "DESC", "DISTINCT", "ALL", "AS",
        "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN",
        "EXISTS", "CASE", "WHEN", "THEN", "ELSE", "END",
        "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON",
        "UNION", "EXCEPT", "INTERSECT",
        "CREATE", "TABLE", "DROP", "INSERT", "INTO", "VALUES",
        "UPDATE", "SET", "DELETE", "PRIMARY", "KEY", "FOREIGN",
        "REFERENCES", "REF", "UNIQUE", "DEFAULT", "CHECK", "INDEX",
        "TRUE", "FALSE",
        "COUNT", "SUM", "AVG", "MIN", "MAX",
        # CrowdSQL extensions
        "CROWD", "CNULL", "CROWDEQUAL", "CROWDORDER",
        # engine statements
        "EXPLAIN", "SHOW", "TABLES", "ANALYZE",
        # statement guard clause: ... WITH DEADLINE <ms> [BUDGET <cents>]
        "WITH",
    }
)


class Token(NamedTuple):
    """One lexical token with its source position (1-based).

    A keyword's ``value`` is its uppercased spelling, so parsers compare
    keyword, operator and punctuation values directly."""

    type: TokenType
    value: Any
    line: int
    column: int

    @property
    def upper(self) -> str:
        """Uppercased text for case-insensitive keyword comparison."""
        return str(self.value).upper()

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        """True when the token has the given type (and value, if given)."""
        if self.type is not token_type:
            return False
        return value is None or self.upper == value.upper()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}({self.value!r})@{self.line}:{self.column}"
