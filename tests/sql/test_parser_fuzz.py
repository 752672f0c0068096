"""Parser robustness: arbitrary input never crashes with a non-SQL error."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError, SqlSyntaxError
from repro.sql.lexer import tokenize
from repro.sql.parser import parse

#: Real tokens that keyword soup is built from.
SOUP_TOKENS = [
    "SELECT", "FROM", "WHERE", "JOIN", "ON", "(", ")", ",", "*",
    "=", "t", "a", "1", "'s'", "AND", "NOT", "NULL", "LIKE",
    "BETWEEN", "ORDER", "BY", "GROUP", "INSERT", "INTO", "VALUES",
    "\u00b2", "2.5", "-", "LIMIT",
]

VALID_STATEMENTS = [
    "SELECT name, balance FROM accounts WHERE balance BETWEEN 1 AND 2",
    "SELECT a.x AS x FROM t a JOIN u b ON a.id = b.id WHERE x LIKE '%z'",
    "INSERT INTO t (a, b) VALUES (1, 'two''quoted'), (3, NULL)",
    "UPDATE t SET a = a * 2 + 1 WHERE NOT (a IS NULL OR a IN (1, 2))",
    "CREATE TABLE t (a DECIMAL(10, 2) NOT NULL, PRIMARY KEY (a)) "
    "WITH (LEDGER = ON, APPEND_ONLY = ON)",
    "SELECT COUNT(*) AS n, MIN(v) AS lo FROM t GROUP BY g "
    "ORDER BY n DESC, lo ASC LIMIT 5",
]


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parse_never_crashes_unexpectedly(text):
    """Any input either parses or raises a SqlError — nothing else."""
    try:
        parse(text)
    except SqlError:
        pass


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=120))
@settings(max_examples=200, deadline=None)
def test_tokenizer_never_crashes_unexpectedly(text):
    try:
        tokenize(text)
    except SqlError:
        pass


@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=25))
@settings(max_examples=200, deadline=None)
def test_keyword_soup_never_crashes(parts):
    """Plausible-but-broken SQL built from real tokens."""
    try:
        parse(" ".join(parts))
    except SqlError:
        pass


@pytest.mark.parametrize("statement", VALID_STATEMENTS)
def test_valid_statements_parse(statement):
    assert parse(statement) is not None


@pytest.mark.parametrize("text, column", [
    # A superscript digit is no digit: T-SQL digits are ASCII 0-9.
    ("SELECT * FROM t WHERE a = \u00b2", 27),
    ("SELECT * FROM t LIMIT 2.5", 23),
    ("SELECT * FROM t WHERE a = -'x'", 27),
    ("SELECT * FROM t WHERE a = -NULL", 27),
    ("CREATE TABLE t (a DECIMAL(10.5, 2))", 27),
])
def test_value_errors_are_syntax_errors(text, column):
    """Inputs that once escaped as ValueError / TypeError raise a
    SqlSyntaxError at their token."""
    with pytest.raises(SqlSyntaxError) as caught:
        parse(text)
    assert (caught.value.line, caught.value.column) == (1, column)
