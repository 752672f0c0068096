"""Tokenizer for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

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

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCTUATION = "(),."


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int

    def matches(self, kind: str, value: str = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value.upper() == value.upper()

    def __str__(self) -> str:
        return f"{self.value!r}" if self.kind != END else "end of input"


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    line, column = 1, 1
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch.isspace():
            index += 1
            column += 1
            continue
        if text.startswith("--", index):  # line comment
            while index < length and text[index] != "\n":
                index += 1
            continue
        start_column = column
        if ch == "'":
            value, consumed = _read_string(text, index, line, start_column)
            tokens.append(Token(STRING, value, line, start_column))
            index += consumed
            column += consumed
            continue
        if ch.isdigit() or (ch == "." and index + 1 < length and text[index + 1].isdigit()):
            end = index
            seen_dot = False
            while end < length and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            tokens.append(Token(NUMBER, text[index:end], line, start_column))
            column += end - index
            index = end
            continue
        if ch.isalpha() or ch == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            kind = KEYWORD if word.upper() in KEYWORDS else IDENT
            tokens.append(Token(kind, word, line, start_column))
            column += end - index
            index = end
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, index):
                tokens.append(Token(OPERATOR, op, line, start_column))
                index += len(op)
                column += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(PUNCT, ch, line, start_column))
            index += 1
            column += 1
            continue
        if ch == "?":
            tokens.append(Token(PARAM, "?", line, start_column))
            index += 1
            column += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(END, "", line, column))
    return tokens


def _read_string(text: str, start: int, line: int, column: int):
    """Read a single-quoted string with '' as the escape for a quote."""
    index = start + 1
    chars = []
    while index < len(text):
        ch = text[index]
        if ch == "'":
            if text.startswith("''", index):
                chars.append("'")
                index += 2
                continue
            return "".join(chars), index - start + 1
        if ch == "\n":
            break
        chars.append(ch)
        index += 1
    raise SqlSyntaxError("unterminated string literal", line, column)
