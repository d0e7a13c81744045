"""CrowdSQL front end: lexer, parser, AST, and pretty printer."""

from repro.sql.lexer import tokenize
from repro.sql.parser import Parser, parse, parse_script
from repro.sql.pretty import format_expression, format_statement

__all__ = [
    "Parser",
    "tokenize",
    "parse",
    "parse_script",
    "format_expression",
    "format_statement",
]
