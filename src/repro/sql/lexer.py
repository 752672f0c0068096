"""Tokenizer for the SQL subset.

One compiled master pattern reads every token (``finditer`` over named
groups).  :func:`tokenize` turns its matches into tokens; :func:`shape`
reads the same matches to find a statement's literals, so the statement
cache and the parser never disagree about what a literal is.  Digits are
ASCII ``0-9``, as in T-SQL.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Any, List, Tuple

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "ASC", "DESC",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "DROP",
    "ALTER", "TABLE", "INDEX", "UNIQUE", "ADD", "COLUMN", "ON", "WITH",
    "PRIMARY", "KEY", "NOT", "NULL", "AND", "OR", "IS", "IN", "AS",
    "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION", "SAVE", "TO", "LEDGER",
    "APPEND_ONLY", "COUNT", "SUM", "MIN", "MAX", "AVG", "TRUE", "FALSE",
    "JOIN", "INNER", "LEFT", "BETWEEN", "LIKE", "EXPLAIN",
}

# Token kinds.
IDENT = "IDENT"
KEYWORD = "KEYWORD"
NUMBER = "NUMBER"
STRING = "STRING"
OPERATOR = "OPERATOR"
PUNCT = "PUNCT"
PARAM = "PARAM"
END = "END"

# Each match is one token and the spaces before it (a newline is a token of
# its own, for line numbers).  No two alternatives start with the same
# character except where order decides: a decimal before an int or a ``.``,
# a comment before the ``-`` operator, a string before a stray quote.  A
# string's closing quote is one no quote follows, so ``'a''`` is
# unterminated rather than ``'a'`` and a stray quote.
_MASTER = re.compile(
    r"[^\S\n]*(?:"
    r"(?P<word>[^\W\d]\w*)"
    r"|(?P<decimal>[0-9]+\.[0-9]*|\.[0-9]+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<operator><>|!=|<=|>=|[=<>+\-*/%])"
    r"|(?P<punct>[(),.])"
    r"|(?P<string>'[^'\n]*(?:''[^'\n]*)*'(?!'))"
    r"|(?P<newline>\n)"
    r"|(?P<param>\?)"
    r"|(?P<bad>\S))"
)


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


#: Per literal group: its value, and the marker it leaves in a shape.  A
#: marker is a character the lexer rejects at a token start, so outside
#: comments the literal-free stretches of a text that lexes never hold one.
_LITERALS = {
    "int": (int, "\x01"),
    "decimal": (Decimal, "\x02"),
    "string": (_unquote, "\x03"),
}


class Token:
    """One token.  ``key`` is what the parser compares or takes: a word
    upper-cased, a literal's value (int, Decimal or str), else ``value``."""

    __slots__ = ("kind", "value", "line", "column", "key")

    def __init__(self, kind: str, value: str, line: int, column: int,
                 key: Any = None) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column
        self.key = value if key is None else key

    def matches(self, kind: str, value: str = None) -> bool:
        """Of ``kind`` and, when ``value`` is given, equal to it ignoring
        case; the parser passes upper-case values, which compare at once."""
        if self.kind != kind:
            return False
        return value is None or self.key == value or self.key == value.upper()

    def __repr__(self) -> str:
        return (f"Token({self.kind}, {self.value!r}, line={self.line}, "
                f"column={self.column})")

    def __str__(self) -> str:
        return f"{self.value!r}" if self.kind != END else "end of input"


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # the current line and the index it starts at
    match = None
    for match in _MASTER.finditer(text):
        group = match.lastgroup
        if group == "comment":
            continue
        start = match.start(group)
        if group == "newline":
            line += 1
            line_start = start + 1
            continue
        value = text[start:match.end()]
        column = start - line_start + 1
        if group == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise SqlSyntaxError(
                    f"unexpected character {value[0]!r}", line, column
                )
            upper = value.upper()
            append(Token(KEYWORD if upper in KEYWORDS else IDENT, value,
                         line, column, upper))
        elif group == "operator":
            append(Token(OPERATOR, value, line, column))
        elif group == "punct":
            append(Token(PUNCT, value, line, column))
        elif group == "string":
            unquoted = _unquote(value)
            append(Token(STRING, unquoted, line, column, unquoted))
        elif group == "param":
            append(Token(PARAM, value, line, column))
        elif group == "bad":
            if value == "'":
                raise SqlSyntaxError("unterminated string literal", line, column)
            raise SqlSyntaxError(f"unexpected character {value!r}", line, column)
        else:  # int or decimal
            try:
                number = _LITERALS[group][0](value)
            except ValueError:  # more digits than int() takes
                raise SqlSyntaxError("number too long", line, column) from None
            append(Token(NUMBER, value, line, column, number))
    # Input ends at the start of a trailing comment, else after the text.
    end = len(text)
    if match is not None and match.lastgroup == "comment":
        end = match.start("comment")
    tokens.append(Token(END, "", line, end - line_start + 1))
    return tokens


def shape(text: str) -> Tuple[str, List[Any]]:
    """``text`` with each number and string literal replaced by its kind's
    marker, and the literals' values in text order.

    Two texts of one shape differ only in literal values of the same kinds:
    they read as the same tokens but for those values.  A text with a
    character the lexer rejects has no shape (it comes back whole, with no
    values), so a marker a client sends can never name a cached shape."""
    parts: List[str] = []
    values: List[Any] = []
    at = 0
    try:
        for match in _MASTER.finditer(text):
            group = match.lastgroup
            if group == "bad":
                return text, []
            literal = _LITERALS.get(group)
            if literal is not None:
                start, end = match.span(group)
                parts.append(text[at:start])
                parts.append(literal[1])
                values.append(literal[0](text[start:end]))
                at = end
    except ValueError:  # a number too long to lex: the text has no shape
        return text, []
    if not values:
        return text, values
    parts.append(text[at:])
    return "".join(parts), values
