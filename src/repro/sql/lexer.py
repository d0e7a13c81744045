"""One-pass lexer for CrowdSQL.

Produces a list of :class:`repro.sql.tokens.Token`.  Follows standard SQL
lexical rules: case-insensitive keywords, single-quoted strings with ``''``
escaping (double-quoted strings are also accepted, as the paper's examples
use ``"CrowdDB"``), ``--`` line comments and ``/* */`` block comments, and
``?`` positional parameters.

One compiled pattern scans the source, a named group per token kind.
Positions come from match offsets: a one-line source's column is the
offset plus one, a multi-line source bisects its newline offsets.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from repro.errors import ParseError
from repro.sql.tokens import KEYWORDS, Token, TokenType

_EXPONENT = r"(?:[eE][+-]?[0-9]+)"

# One match per token: leading trivia, then the token.  Alternatives are
# tried in order, so ``--`` and ``/*`` never lex as operators; a closing
# quote is one not followed by another (a doubled quote is an escape,
# never a close and a reopen); ``unclosed`` catches what a terminated form
# could not match; ``end`` is the EOF token after trailing trivia.
_PATTERN = re.compile(
    rf"""
    (?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)*
    (?:
        (?P<word>[^\W\d]\w*)
      | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+){_EXPONENT}?|[0-9]+{_EXPONENT})
      | (?P<int>[0-9]+)
      | (?P<punctuation>[(),;.])
      | (?P<string>'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))
      | (?P<quoted>`[^`]*`)
      | (?P<unclosed>/\*|['"`])
      | (?P<operator><=|>=|<>|!=|\|\||[=<>+\-*/%])
      | (?P<parameter>\?)
      | (?P<unexpected>.)
      | (?P<end>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_UNCLOSED = {
    "/*": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated string literal",
    "`": "unterminated quoted identifier",
}

_new = tuple.__new__  # Token(...) without NamedTuple's Python-level __new__


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list ending with a single EOF token."""
    newlines = (
        [m.start() for m in re.finditer("\n", source)] if "\n" in source else None
    )
    tokens: list[Token] = []
    append = tokens.append
    for match in _PATTERN.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        if newlines is None:
            line, column = 1, start + 1
        else:
            line = bisect_right(newlines, start)
            column = start - newlines[line - 1] if line else start + 1
            line += 1
        text = match.group(kind)
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                append(_new(Token, (TokenType.KEYWORD, upper, line, column)))
                continue
            if not (text[0].isalpha() or text[0] == "_"):
                # a numeric character such as '²' is a word character
                # but starts no token
                raise ParseError(f"unexpected character {text[0]!r}", line, column)
            append(_new(Token, (TokenType.IDENTIFIER, text, line, column)))
        elif kind == "punctuation":
            append(_new(Token, (TokenType.PUNCTUATION, text, line, column)))
        elif kind == "operator":
            append(_new(Token, (TokenType.OPERATOR, text, line, column)))
        elif kind == "int":
            append(_new(Token, (TokenType.NUMBER, int(text), line, column)))
        elif kind == "float":
            append(_new(Token, (TokenType.NUMBER, float(text), line, column)))
        elif kind == "string":
            quote = text[0]
            value = text[1:-1].replace(quote + quote, quote)
            append(_new(Token, (TokenType.STRING, value, line, column)))
        elif kind == "quoted":
            append(_new(Token, (TokenType.IDENTIFIER, text[1:-1], line, column)))
        elif kind == "parameter":
            append(_new(Token, (TokenType.PARAMETER, text, line, column)))
        elif kind == "end":
            append(_new(Token, (TokenType.EOF, None, line, column)))
            break
        elif kind == "unclosed":
            raise ParseError(_UNCLOSED[text], line, column)
        else:
            raise ParseError(f"unexpected character {text!r}", line, column)
    return tokens
