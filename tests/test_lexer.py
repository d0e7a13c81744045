"""Unit tests for the CrowdSQL lexer.

``tests/golden/tokens_v1.jsonl`` pins the ``(type, value, line, column)``
stream -- or the ``ParseError`` (message, line, column) -- of every
distinct SQL string that reached ``tokenize`` in a run of the tier-1
suite, the paper benchmarks and ``examples/``, plus ``EDGE_CASES``.  It
was written by the previous lexer.  ``python tests/test_lexer.py
[capture.jsonl]`` rewrites it from its own SQL strings (plus those of a
capture file: one JSON string per line) -- only at the parent of a
change meant to alter lexing, never to make a test pass.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenType

GOLDEN = Path(__file__).parent / "golden" / "tokens_v1.jsonl"
#: sources longer than this pin a digest of their stream, not the stream
LONG_SOURCE = 2000

EDGE_CASES = (
    "SELECT\r\n  a,\r\n  b\r\nFROM t\r\n",
    "SELECT 1.e5, 1e, 1e+, 1.5e-3x, .5E+2, 1..2, 007, 1.2.3, 2.",
    "SELECT t.5, a.b, x.*, ?+?",
    "SELECT `select`, ``, '', '''', 'it''s', \"\"\"\", \"a\"\"b\", 'a'''",
    "SELECT ſelect, _x, ÄÖü, x²y, xⅷ, naïve",
    "SELECT/**/1/*/ */--c",
    "a--b\n-- c\n/* multi\nline */ b",
    "x<=y>=z<>w!=v||u%t-s+r*q/p=o<n>m",
    "\tSELECT\t1\n\n",
    "SELECT 'a''",
    "SELECT 1,\r\n  'unterminated\r\nFROM t",
    'SELECT "open',
    "SELECT\n  /* never closed\n",
    "SELECT `open",
    "SELECT a\r\nFROM t\r\nWHERE b ! c",
    "SELECT |",
    "SELECT \xa0 1",
    "SELECT ⅷ",
    "SELECT a\n\n   #",
    "SELECT \f1",
)


def kinds(source):
    return [t.type for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


def token_record(source: str) -> dict:
    """What the golden pins for one source."""
    try:
        stream = [
            [t.type.value, t.value, t.line, t.column] for t in tokenize(source)
        ]
    except ParseError as error:
        return {"sql": source, "error": [error.args[0], error.line, error.column]}
    if len(source) > LONG_SOURCE:
        digest = hashlib.sha256(json.dumps(stream).encode()).hexdigest()
        return {"sql": source, "sha256": digest}
    return {"sql": source, "tokens": stream}


def test_token_streams_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    assert len(expected) > 1900
    wrong = []
    for record in expected:
        actual = token_record(record["sql"])
        if actual != record:
            wrong.append((record["sql"][:80], actual))
    assert not wrong, f"{len(wrong)} sources lex differently, e.g. {wrong[:3]}"


class TestBasics:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].type is TokenType.EOF

    def test_keywords_are_case_insensitive(self):
        for text in ("select", "SELECT", "SeLeCt"):
            token = tokenize(text)[0]
            assert token.type is TokenType.KEYWORD and token.value == "SELECT"

    def test_identifier(self):
        token = tokenize("nb_attendees")[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "nb_attendees"

    def test_crowd_keywords(self):
        for word in ("CROWD", "CNULL", "CROWDEQUAL", "CROWDORDER"):
            assert tokenize(word)[0].type is TokenType.KEYWORD

    def test_positions(self):
        tokens = tokenize("SELECT\n  title")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_crlf_positions_count_the_carriage_return(self):
        tokens = tokenize("SELECT a,\r\n  b\r\n")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 1), ("a", 1, 8), (",", 1, 9), ("b", 2, 3),
            (None, 3, 1),
        ]


class TestLiterals:
    def test_integer(self):
        assert values("42") == [42]

    def test_float(self):
        assert values("3.25") == [3.25]

    def test_leading_dot_float(self):
        assert values(".5") == [0.5]

    def test_scientific(self):
        assert values("1e3 2.5E-1") == [1000.0, 0.25]

    def test_single_quoted_string(self):
        assert values("'CrowdDB'") == ["CrowdDB"]

    def test_double_quoted_string(self):
        # the paper writes WHERE title = "CrowdDB"
        assert values('"CrowdDB"') == ["CrowdDB"]

    def test_quote_escaping(self):
        assert values("'it''s'") == ["it's"]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_backtick_identifier(self):
        tokens = tokenize("`select`")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "select"


class TestOperators:
    def test_two_char_operators(self):
        assert values("<= >= <> != ||") == ["<=", ">=", "<>", "!=", "||"]

    def test_single_char_operators(self):
        assert values("= < > + - * / %") == ["=", "<", ">", "+", "-", "*", "/", "%"]

    def test_parameter(self):
        tokens = tokenize("?")
        assert tokens[0].type is TokenType.PARAMETER

    def test_punctuation(self):
        assert values("( ) , ; .") == ["(", ")", ",", ";", "."]

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("SELECT @")
        assert excinfo.value.column == 8


class TestUnexpectedCharacters:
    """A character that starts no token is a ParseError at its position --
    including numeric characters that are not ASCII digits."""

    @pytest.mark.parametrize(
        "source, char, line, column",
        [
            ("SELECT ²", "²", 1, 8),
            ("SELECT ⅷ", "ⅷ", 1, 8),
            ("SELECT \xa0", "\xa0", 1, 8),
            ("SELECT ٣", "٣", 1, 8),
            ("SELECT 1,\r\n  x,\r\n ½", "½", 3, 2),
            ("SELECT a\r\nFROM t\r\nWHERE b ! c", "!", 3, 9),
        ],
    )
    def test_position(self, source, char, line, column):
        with pytest.raises(ParseError) as excinfo:
            tokenize(source)
        assert str(excinfo.value) == (
            f"unexpected character {char!r} (line {line}, column {column})"
        )
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_numeric_characters_continue_a_word(self):
        assert values("x² xⅷ") == ["x²", "xⅷ"]

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("SELECT\r\n  'oops\r\n", "unterminated string literal", 2, 3),
            ("SELECT 'a''", "unterminated string literal", 1, 8),
            ("SELECT\n `x", "unterminated quoted identifier", 2, 2),
            ("SELECT 1\r\n/*/ x", "unterminated block comment", 2, 1),
        ],
    )
    def test_unterminated_forms(self, source, message, line, column):
        with pytest.raises(ParseError) as excinfo:
            tokenize(source)
        assert str(excinfo.value) == f"{message} (line {line}, column {column})"
        assert (excinfo.value.line, excinfo.value.column) == (line, column)


class TestComments:
    def test_line_comment(self):
        assert values("SELECT -- the select list\n1") == ["SELECT", 1]

    def test_block_comment(self):
        assert values("SELECT /* hi\nthere */ 1") == ["SELECT", 1]

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("SELECT /* oops")
        assert str(excinfo.value).startswith("unterminated block comment")


class TestTokenHelpers:
    def test_matches(self):
        token = tokenize("select")[0]
        assert token.matches(TokenType.KEYWORD, "SELECT")
        assert token.matches(TokenType.KEYWORD)
        assert not token.matches(TokenType.IDENTIFIER)

    def test_full_statement_shape(self):
        source = "SELECT abstract FROM paper WHERE title = 'CrowdDB';"
        assert kinds(source) == [
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.OPERATOR,
            TokenType.STRING,
            TokenType.PUNCTUATION,
            TokenType.EOF,
        ]


def write_golden(capture: str | None = None) -> None:
    sources = set(EDGE_CASES)
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as handle:
            sources.update(json.loads(line)["sql"] for line in handle)
    if capture is not None:
        with open(capture, encoding="utf-8") as handle:
            sources.update(json.loads(line) for line in handle)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        for source in sorted(sources):
            record = token_record(source)
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    write_golden(sys.argv[1] if len(sys.argv) > 1 else None)
