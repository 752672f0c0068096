"""The statement cache lifts literals: statements of one shape share a parse.

A hit must be a parse: for every text, the AST ``SqlSession._parse_cached``
returns equals ``parse(text)`` — compared by ``repr`` as well, so ``1``,
``True`` and ``Decimal('1')`` stay apart — whether the text is the first of
its shape or a later one, and an input whose parse raises raises the same
error (type, message, line, column) whether or not its shape is cached.
"""

import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sql.session as session_module
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.errors import SqlError, SqlSyntaxError
from repro.sql.lexer import shape
from repro.sql.parser import parse
from repro.sql.prepared import StatementCache
from repro.sql.session import SqlSession
from tests.sql.test_parser_fuzz import VALID_STATEMENTS

#: Seed statements, ``{}`` standing for a drawn literal of any kind.
TEMPLATES = [
    # The benchmark's SELECT, UPDATE and DELETE shapes.
    "UPDATE accounts SET balance = {} WHERE id = {}",
    "DELETE FROM accounts WHERE id = {}",
    "SELECT * FROM accounts WHERE id = {}",
    "SELECT * FROM accounts WHERE id >= {} AND id < {}",
    "SELECT * FROM accounts_ledger WHERE id = {}",
    # Literals beside NULL / TRUE / FALSE, after a unary minus, in folds,
    # in places the parser reads them itself, and inside a comment.
    "INSERT INTO t (a, b, c) VALUES ({}, NULL, {}), (TRUE, {}, FALSE)",
    "SELECT a FROM t WHERE a IN ({}, NULL, {}) OR b = -{}",
    "UPDATE t SET a = a * {} + -{} WHERE b BETWEEN {} AND {} -- {}",
    "SELECT {} AS x, b FROM t WHERE c LIKE {} ORDER BY b LIMIT {}",
    "SELECT {}, a FROM t a JOIN u b ON a.id = b.id + {}",
    "INSERT INTO t VALUES ({} + {}, {} / {}, ?)",
    "EXPLAIN DELETE FROM t WHERE NOT (a = {} OR b <> {}) AND c IS NULL",
    "CREATE TABLE t (a DECIMAL({}, {}) NOT NULL) WITH (LEDGER = {})",
    "SELECT * FROM t WHERE a = {}{} AND b = FALSE{}",
]

INTS = st.sampled_from(["0", "007", "5", "10000000000000000000000000"]) | (
    st.integers(0, 10**6).map(str)
)
DECIMALS = st.sampled_from(["1.", ".5", "3.25", "0.000", "2.5"])
STRINGS = st.text(alphabet="ab '0-?9\n", max_size=8).map(
    lambda s: "'" + s.replace("'", "''") + "'"
)
BY_MARKER = {"\x01": INTS, "\x02": DECIMALS, "\x03": STRINGS}


def _session():
    return SqlSession(SimpleNamespace(statement_cache=StatementCache()))


def _outcome(call, text):
    try:
        statement = call(text)
    except SqlError as exc:
        return ("error", type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    return ("ok", statement, repr(statement))


@st.composite
def seeds(draw):
    """A statement text: a valid one, or a template filled with literals."""
    if draw(st.booleans()):
        return draw(st.sampled_from(VALID_STATEMENTS))
    template = draw(st.sampled_from(TEMPLATES))
    literals = [draw(INTS | DECIMALS | STRINGS)
                for _ in range(template.count("{}"))]
    return template.format(*literals)


def _same_shape(draw, text):
    """Another text of ``text``'s shape: each literal redrawn, same kind."""
    key, _ = shape(text)
    return re.sub("[\x01\x02\x03]", lambda m: draw(BY_MARKER[m.group()]), key)


class TestAHitIsAParse:
    @given(seeds(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cached_ast_equals_parse(self, seed, data):
        session = _session()
        texts = [seed] + [_same_shape(data.draw, seed) for _ in range(3)]
        with mock.patch.object(session_module, "parse",
                               side_effect=parse) as parses:
            for text in texts:
                assert (_outcome(session._parse_cached, text)
                        == _outcome(parse, text)), text
        key = shape(seed)[0]
        if session._db.statement_cache._data.get((key,)) is not None:
            # The seed's shape lifted: only texts of another shape (a string
            # drawn with a newline no longer lexes as one) were parsed again.
            others = sum(shape(text)[0] != key for text in texts[1:])
            assert parses.call_count == 1 + others

    @pytest.mark.parametrize("text", [
        "SELECT * FROM t WHERE a = -'x'",
        "SELECT * FROM t LIMIT 2.5",
        "SELECT * FROM t WHERE a = ²",
        "SELECT * FROM t WHERE a = 'open",
        "INSERT INTO t VALUES (1 / 0)",
    ])
    def test_errors_are_the_parsers_cached_shape_or_not(self, text):
        session = _session()
        # Cache every shape near the failing text first.
        for warm in ("SELECT * FROM t WHERE a = 'x'", "SELECT * FROM t WHERE a = 1",
                     "SELECT * FROM t LIMIT 2", "INSERT INTO t VALUES (1)"):
            session._parse_cached(warm)
        for _ in range(2):
            assert _outcome(session._parse_cached, text) == _outcome(parse, text)
            assert _outcome(parse, text)[0] == "error"


class TestCacheRules:
    def test_same_kinds_other_values_hit_without_a_parse(self):
        session = _session()
        cache = session._db.statement_cache
        session._parse_cached("UPDATE accounts SET balance = 1 WHERE id = 2")
        with mock.patch.object(session_module, "parse",
                               side_effect=parse) as parses:
            statement = session._parse_cached(
                "UPDATE accounts SET balance = 30 WHERE id = 4")
        assert parses.call_count == 0
        assert statement == parse("UPDATE accounts SET balance = 30 WHERE id = 4")
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
        assert len(cache) == 1  # one template, no entry per text

    def test_kinds_are_part_of_the_shape(self):
        assert shape("SELECT * FROM t WHERE id = 5")[0] != (
            shape("SELECT * FROM t WHERE id = '5'")[0])
        assert shape("SELECT * FROM t WHERE id = 5")[0] != (
            shape("SELECT * FROM t WHERE id = 5.0")[0])

    @pytest.mark.parametrize("text, other", [
        ("SELECT * FROM t LIMIT 5", "SELECT * FROM t LIMIT 6"),
        ("SELECT * FROM t WHERE a = -1", "SELECT * FROM t WHERE a = -2"),
        ("SELECT 1 FROM t", "SELECT 2 FROM t"),
        ("SELECT * FROM t WHERE a LIKE 'x%'", "SELECT * FROM t WHERE a LIKE 'y%'"),
        ("INSERT INTO t VALUES (1 + 2)", "INSERT INTO t VALUES (3 + 4)"),
        ("CREATE TABLE t (a VARCHAR(5))", "CREATE TABLE t (a VARCHAR(6))"),
        ("CREATE TABLE t (a INT) WITH (LEDGER = 1)",
         "CREATE TABLE t (a INT) WITH (LEDGER = 0)"),
    ])
    def test_unlifted_statements_are_cached_by_text(self, text, other):
        session = _session()
        cache = session._db.statement_cache
        for sql in (text, other, text):
            assert session._parse_cached(sql) == parse(sql)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 1

    def test_a_text_cannot_name_a_shape_entry(self):
        session = _session()
        cached = "SELECT * FROM t WHERE id = 5 AND v = 6"
        session._parse_cached(cached)
        # The shape sent as text, and one raw marker beside a real literal:
        # were it a shape, the two-literal one with a single value.
        texts = [shape(cached)[0]] + [
            f"SELECT * FROM t WHERE id = {marker} AND v = 6"
            for marker in ("\x01", "\x02", "\x03")
        ]
        for text in texts:
            assert shape(text) == (text, [])
            assert _outcome(session._parse_cached, text) == _outcome(parse, text)
            assert _outcome(parse, text)[0] == "error"

    def test_a_statement_too_deep_to_template_is_cached_by_text(self):
        # A hit rebuilds recursively, so a deep chain keeps no template.
        session = _session()
        cache = session._db.statement_cache
        texts = ["SELECT * FROM t WHERE a = " + " + ".join([digit] * 150)
                 for digit in "12"]
        for text in texts + texts[:1]:
            assert session._parse_cached(text) == parse(text)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 1

    def test_ddl_empties_the_shapes_too(self, tmp_path):
        db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        try:
            db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)")
            db.sql("INSERT INTO t VALUES (1, 10)")
            assert db.sql("SELECT * FROM t WHERE id = 1") == [{"id": 1, "v": 10}]
            db.sql("ALTER TABLE t ADD COLUMN note VARCHAR(10)")
            assert len(db.statement_cache) == 0
            misses = db.statement_cache.stats()["misses"]
            assert db.sql("SELECT * FROM t WHERE id = 1") == [
                {"id": 1, "v": 10, "note": None}]
            assert db.statement_cache.stats()["misses"] == misses + 1
        finally:
            db.close()
