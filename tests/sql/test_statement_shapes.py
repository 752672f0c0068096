"""The statement cache lifts literals: statements of one shape share a
parse and a plan.

A hit must be a parse: for every text, the cached statement with its
slots filled by the text's values (:func:`_cached`, a test-side filler)
equals ``parse(text)`` — compared by ``repr`` as well, so ``1``, ``True``
and ``Decimal('1')`` stay apart — whether the text is the first of its
shape or a later one, and an input whose parse raises raises the same
error (type, message, line, column) whether or not its shape is cached.
Only the statements the session plans lift: DDL and transaction control
are cached under their text.

A hit must be a fresh plan: run through a cache that holds its shape's plan,
a text answers what it answers through an empty cache — EXPLAIN rows,
result multiset, affected-row count or error (type, message) — and a plan
cached before a schema change through the API answers as if planned after.
"""

import contextlib
import dataclasses
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.expressions as expressions_module
import repro.engine.operators as operators_module
import repro.sql.session as session_module
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.expressions import Slot
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import SqlError, SqlSyntaxError
from repro.sql.lexer import shape
from repro.sql.parser import MAX_DEPTH, parse
from repro.sql.prepared import PLANNED, StatementCache
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
    # Plans of every access path, with a literal in each slot a plan keeps.
    "SELECT a, b FROM t WHERE id IN ({}, {}, NULL) ORDER BY id",
    "SELECT * FROM t WHERE b = {} AND a <> {}",
    "SELECT * FROM accounts WHERE id >= {} ORDER BY id LIMIT 3",
    "SELECT * FROM t_ledger WHERE id = {} AND a > {}",
    "SELECT t.id, u.v FROM t JOIN u ON u.id = t.a WHERE t.b <> {}",
    "SELECT t.id, u.v FROM t JOIN u ON u.id = t.a AND u.v = {} WHERE t.a > {}",
    "SELECT g, COUNT(*) AS n FROM t WHERE NOT (a = {}) GROUP BY g",
    "UPDATE t SET b = {}, a = a + {} WHERE id BETWEEN {} AND {}",
    "DELETE FROM t WHERE a NOT IN ({}, {}) OR b LIKE 'x%'",
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


def _filled(node, values):
    """``node`` with every slot replaced by its value."""
    if type(node) is Slot:
        return values[node.index]
    if type(node) is tuple:
        return tuple(_filled(item, values) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return type(node)(*(
            _filled(getattr(node, field.name), values)
            for field in dataclasses.fields(node)
        ))
    return node


def _cached(session):
    """``text ->`` the statement the session's cache serves for it, its
    slots filled with the text's values: what a hit stands for."""
    def cached(text):
        entry, values = session._prepare(text)
        return _filled(entry.statement, values)
    return cached


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
                assert (_outcome(_cached(session), text)
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
            _cached(session)(warm)
        for _ in range(2):
            assert _outcome(_cached(session), text) == _outcome(parse, text)
            assert _outcome(parse, text)[0] == "error"


class TestCacheRules:
    def test_same_kinds_other_values_hit_without_a_parse(self):
        session = _session()
        cache = session._db.statement_cache
        _cached(session)("UPDATE accounts SET balance = 1 WHERE id = 2")
        with mock.patch.object(session_module, "parse",
                               side_effect=parse) as parses:
            statement = _cached(session)(
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
            assert _cached(session)(sql) == parse(sql)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 1

    def test_a_text_cannot_name_a_shape_entry(self):
        session = _session()
        cached = "SELECT * FROM t WHERE id = 5 AND v = 6"
        _cached(session)(cached)
        # The shape sent as text, and one raw marker beside a real literal:
        # were it a shape, the two-literal one with a single value.
        texts = [shape(cached)[0]] + [
            f"SELECT * FROM t WHERE id = {marker} AND v = 6"
            for marker in ("\x01", "\x02", "\x03")
        ]
        for text in texts:
            assert shape(text) == (text, [])
            assert _outcome(_cached(session), text) == _outcome(parse, text)
            assert _outcome(parse, text)[0] == "error"

    @pytest.mark.parametrize("text", [
        statement for statement in VALID_STATEMENTS
        if type(parse(statement)) not in PLANNED
    ] + [
        "CREATE TABLE t (a VARCHAR(5), b DECIMAL(10, 2) NOT NULL)",
        "ALTER TABLE t ADD COLUMN c VARCHAR(5)",
        "ALTER TABLE t DROP COLUMN c",
        "CREATE UNIQUE INDEX ix ON t (a, b)",
        "DROP INDEX ix ON t",
        "DROP TABLE t",
        "BEGIN TRANSACTION",
        "SAVE TRANSACTION sp",
        "ROLLBACK TO sp",
        "COMMIT",
    ])
    def test_ddl_and_transaction_control_never_lift(self, text):
        session = _session()
        cache = session._db.statement_cache
        assert type(parse(text)) not in PLANNED
        for _ in range(2):
            entry, values = session._prepare(text)
            assert values == ()
            assert cache._data.get(text) is entry
            assert entry.statement == parse(text)
            assert cache._data.get((shape(text)[0],)) is None

    def test_a_statement_too_deep_is_refused_cached_shape_or_not(self):
        # The parser's depth bound holds for the shape's template as well.
        session = _session()
        _cached(session)("SELECT * FROM t WHERE a = 1 + 1")
        for terms in (MAX_DEPTH + 1, 1500):
            text = "SELECT * FROM t WHERE a = " + " + ".join(["1"] * terms)
            outcome = _outcome(_cached(session), text)
            assert outcome == _outcome(parse, text)
            assert outcome[:3] == ("error", "SqlSyntaxError", (
                "Some part of your SQL statement is nested too deeply"
                f" at line 1, column {outcome[4]}"))

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


#: The statements a plan serves.
_RUN = ("SELECT", "UPDATE", "DELETE", "EXPLAIN", "INSERT")


@pytest.fixture(scope="module")
def shapes_db(tmp_path_factory):
    """The tables the templates name, with NULLs, an index and a view."""
    db = LedgerDatabase.open(
        str(tmp_path_factory.mktemp("shapes") / "db"), clock=LogicalClock())
    db.sql("CREATE TABLE accounts (id INT PRIMARY KEY, name VARCHAR(16), "
           "balance INT) WITH (LEDGER = ON)")
    db.sql("INSERT INTO accounts VALUES (1, 'a', 10), (2, 'b', NULL), "
           "(5, NULL, 7), (7, 'd', 0)")
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, a INT, b VARCHAR(8), "
           "c VARCHAR(8), g INT, v INT, x VARCHAR(8)) WITH (LEDGER = ON)")
    db.sql("CREATE INDEX ix_b ON t (b)")
    db.sql("INSERT INTO t VALUES (0, 1, 'ab', 'c', 1, 2, 'x0'), "
           "(1, NULL, 'ab', NULL, 1, NULL, NULL), (2, 2, '5', 'a%', 2, 3, 'z'), "
           "(3, 5, NULL, 'b', NULL, 1, 'x3'), (4, 0, 'x', '', 2, 0, '')")
    db.sql("UPDATE t SET a = 3 WHERE id = 4")
    db.sql("CREATE TABLE u (id INT PRIMARY KEY, v INT)")
    db.sql("INSERT INTO u VALUES (1, 10), (2, NULL), (5, 50)")
    yield db
    db.close()


def _answer(db, cache, text):
    """What ``text`` answers through ``cache``, inside a transaction that
    is then rolled back, so every run starts from the same rows."""
    db.statement_cache = cache
    session = SqlSession(db)
    session.execute("BEGIN")
    try:
        result = session.execute(text)
    except Exception as exc:  # whatever it is, fresh and hit must agree
        return ("error", type(exc).__name__, str(exc))
    finally:
        session.abort()
    if isinstance(result, list) and not text.startswith("EXPLAIN"):
        return ("rows", sorted(repr(sorted(row.items())) for row in result))
    return ("result", repr(result))


class TestAHitIsAFreshPlan:
    @given(seeds(), st.data())
    @settings(deadline=None)
    def test_cached_plan_answers_as_a_fresh_one(self, shapes_db, seed, data):
        if not seed.startswith(_RUN):
            return
        warm = shapes_db.statement_cache
        try:
            texts = [seed] + [_same_shape(data.draw, seed) for _ in range(3)]
            for text in texts:
                variants = [text]
                if not text.startswith(("EXPLAIN", "INSERT")):
                    variants.append("EXPLAIN " + text)
                for sql in variants:
                    hit = _answer(shapes_db, warm, sql)
                    assert hit == _answer(shapes_db, StatementCache(), sql), sql
        finally:
            shapes_db.statement_cache = warm

    def test_a_hit_reuses_the_plan_of_its_shape(self, shapes_db):
        cache = shapes_db.statement_cache
        shapes_db.sql("SELECT * FROM t WHERE id >= 1 AND id < 3")
        (entry,) = [e for k, e in cache._data.items() if k == (
            shape("SELECT * FROM t WHERE id >= 1 AND id < 3")[0],)]
        plan = entry.plan
        assert shapes_db.sql("SELECT * FROM t WHERE id >= 3 AND id < 9") == [
            row for row in shapes_db.sql("SELECT * FROM t") if row["id"] >= 3]
        assert entry.plan is plan

    @pytest.mark.parametrize("text, other", [
        ("SELECT * FROM accounts WHERE id = 1", "SELECT * FROM accounts WHERE id = 5"),
        ("SELECT * FROM t WHERE id >= 1 AND id < 3 AND a <> 7",
         "SELECT * FROM t WHERE id >= 2 AND id < 5 AND a <> 3"),
        ("SELECT * FROM t_ledger WHERE id = 4", "SELECT * FROM t_ledger WHERE id = 0"),
        ("SELECT a + 1 AS n FROM t WHERE b = 'ab'", "SELECT a + 2 AS n FROM t WHERE b = 'x'"),
        ("SELECT t.id, u.v FROM t JOIN u ON u.id = t.a WHERE t.a > 0",
         "SELECT t.id, u.v FROM t JOIN u ON u.id = t.a WHERE t.a > 2"),
        ("SELECT t.id, u.v FROM t JOIN u ON u.id = t.a AND u.v = 3",
         "SELECT t.id, u.v FROM t JOIN u ON u.id = t.a AND u.v = 10"),
        ("SELECT t.id, u.v FROM t LEFT JOIN u ON u.id = t.a AND u.v > 0",
         "SELECT t.id, u.v FROM t LEFT JOIN u ON u.id = t.a AND u.v > 20"),
        ("UPDATE accounts SET balance = 1 WHERE id = 2",
         "UPDATE accounts SET balance = 3 WHERE id = 7"),
        ("DELETE FROM u WHERE id IN (1, 2)", "DELETE FROM u WHERE id IN (5, 9)"),
        ("INSERT INTO t VALUES (8, 1, 'p', NULL, 2, 3, 'q')",
         "INSERT INTO t VALUES (9, 4, 'r', NULL, 5, 6, 's')"),
        ("INSERT INTO u (v, id) VALUES (1, 11), (NULL, 12)",
         "INSERT INTO u (v, id) VALUES (3, 13), (NULL, 14)"),
    ])
    def test_a_hit_plans_nothing(self, shapes_db, text, other):
        """A hit parses nothing, walks no tree, binds, checks and chooses
        nothing, and evaluates no Expression per row: it fills slots and
        runs."""
        fresh = _answer(shapes_db, StatementCache(), other)
        cache = StatementCache()
        _answer(shapes_db, cache, text)
        with _planning_refused() as calls:
            assert _answer(shapes_db, cache, other) == fresh
        assert calls == []
        shapes_db.statement_cache = cache
        assert cache.stats()["hits"] >= 1

    def test_a_repeated_executemany_binds_nothing(self, shapes_db):
        warm = shapes_db.statement_cache
        shapes_db.statement_cache = StatementCache()
        session = SqlSession(shapes_db)
        text = "INSERT INTO u (id, v) VALUES (?, ?), (?, NULL)"
        session.execute("BEGIN")
        try:
            assert session.executemany(text, [(20, 1, 21)]) == 2
            with _planning_refused() as calls:
                assert session.executemany(
                    text, [(22, 2, 23), (24, None, 25)]) == 4
            assert calls == []
            assert session.execute("SELECT * FROM u WHERE id >= 20") == [
                {"id": 20, "v": 1}, {"id": 21, "v": None},
                {"id": 22, "v": 2}, {"id": 23, "v": None},
                {"id": 24, "v": None}, {"id": 25, "v": None}]
        finally:
            session.abort()
            shapes_db.statement_cache = warm


@contextlib.contextmanager
def _planning_refused():
    """Record each call that parses, plans or binds; refuse evaluating an
    Expression per row.  Yields the list of calls."""
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    def refused(*args, **kwargs):
        raise AssertionError("an Expression was evaluated on a hit")

    with mock.patch.multiple(
        session_module, parse=counted("parse", parse),
        plan_access=counted("plan_access", operators_module.plan_access),
        bind_columns=counted("bind_columns", operators_module.bind_columns),
        _InsertPlan=counted("_InsertPlan", session_module._InsertPlan),
        itemgetter=counted("itemgetter", session_module.itemgetter),
    ), mock.patch.multiple(
        operators_module,
        check_comparisons=counted(
            "check_comparisons", operators_module.check_comparisons),
        sargable_terms=counted(
            "sargable_terms", operators_module.sargable_terms),
        _choose_path=counted("_choose_path", operators_module._choose_path),
    ), mock.patch.object(
        expressions_module, "walk", counted("walk", expressions_module.walk)
    ), mock.patch.object(expressions_module.Expression, "evaluate", refused):
        yield calls


def _fresh(db, text):
    warm = db.statement_cache
    try:
        return _answer(db, StatementCache(), text)
    finally:
        db.statement_cache = warm


class TestStalePlans:
    """A plan binds tables, schemas and index names.  A schema change
    through the ``LedgerDatabase`` API passes no SQL DDL, so it does not
    empty the cache: the plan must notice the catalog moved on."""

    @pytest.fixture
    def db(self, tmp_path):
        database = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        database.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w VARCHAR(8)) "
                     "WITH (LEDGER = ON)")
        database.sql("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 10, 'c')")
        yield database
        database.close()

    def _same_as_fresh(self, db, *texts):
        for text in texts:
            assert _answer(db, db.statement_cache, text) == _fresh(db, text), text

    def test_index_created_and_dropped_through_the_api(self, db):
        select = "SELECT id FROM t WHERE v = {}"
        db.sql(select.format(10))
        db.sql("EXPLAIN " + select.format(10))
        db.create_index("t", IndexDefinition("ix_v", ("v",)))
        self._same_as_fresh(db, select.format(20), "EXPLAIN " + select.format(10))
        assert db.sql("EXPLAIN " + select.format(10))[0]["access"] == "index_seek"
        db.drop_index("t", "ix_v")
        # The plan must not seek the dropped index.
        self._same_as_fresh(db, select.format(10), "EXPLAIN " + select.format(20))
        assert db.sql("EXPLAIN " + select.format(10))[0]["access"] == "seq_scan"
        assert sorted(r["id"] for r in db.sql(select.format(10))) == [1, 3]

    def test_column_added_through_the_api(self, db):
        db.sql("SELECT * FROM t WHERE id = 1")
        db.sql("UPDATE t SET v = 11 WHERE id = 1")
        db.add_column("t", Column("note", VARCHAR(8)))
        self._same_as_fresh(
            db, "SELECT * FROM t WHERE id = 2", "UPDATE t SET v = 12 WHERE id = 2",
            "SELECT * FROM t_ledger WHERE id = 2")
        assert db.sql("SELECT * FROM t WHERE id = 2") == [
            {"id": 2, "v": 20, "w": "b", "note": None}]

    #: An INSERT of each form: positional, with a column list, many rows.
    INSERTS = ["INSERT INTO t VALUES (7, 70, 'g')",
               "INSERT INTO t (v, id) VALUES (80, 8)",
               "INSERT INTO t (id) VALUES (9), (10)"]

    def test_inserts_after_a_column_added_through_the_api(self, db):
        for text in self.INSERTS:
            _answer(db, db.statement_cache, text)
        db.add_column("t", Column("note", VARCHAR(8)))
        self._same_as_fresh(db, *self.INSERTS)
        assert _fresh(db, self.INSERTS[0])[0] == "error"
        assert db.sql("INSERT INTO t (v, id) VALUES (90, 9)") == 1
        assert db.sql("SELECT * FROM t WHERE id = 9") == [
            {"id": 9, "v": 90, "w": None, "note": None}]
        assert db.verify([db.generate_digest()]).ok

    def test_inserts_after_the_table_is_dropped_and_recreated(self, db):
        for text in self.INSERTS:
            _answer(db, db.statement_cache, text)
        dropped = db.engine.table(db.drop_ledger_table("t"))
        db.create_ledger_table(TableSchema(
            "t", [Column("id", INT, nullable=False), Column("v", INT)],
            primary_key=("id",)))
        before = [row for _, row in dropped.scan()]
        self._same_as_fresh(db, *self.INSERTS)
        assert db.sql("INSERT INTO t (v, id) VALUES (80, 8)") == 1
        assert db.sql("INSERT INTO t (id) VALUES (9), (10)") == 2
        assert [row for _, row in dropped.scan()] == before
        assert db.sql("SELECT * FROM t") == [
            {"id": 8, "v": 80}, {"id": 9, "v": None}, {"id": 10, "v": None}]
        assert db.verify([db.generate_digest()]).ok

    def test_table_dropped_and_recreated_through_the_api(self, db):
        texts = ["SELECT * FROM t WHERE id = 1", "UPDATE t SET v = 5 WHERE id = 1",
                 "DELETE FROM t WHERE id = 3", "SELECT * FROM t_ledger WHERE id = 1"]
        for text in texts:
            db.sql(text)
        dropped = db.engine.table(db.drop_ledger_table("t"))
        db.create_ledger_table(TableSchema(
            "t", [Column("id", INT, nullable=False), Column("v", INT)],
            primary_key=("id",)))
        db.sql("INSERT INTO t VALUES (1, 100), (3, 300)")
        before = [row for _, row in dropped.scan()]
        self._same_as_fresh(db, *texts)
        # The plans read and wrote the new table, not the dropped one.
        assert [row for _, row in dropped.scan()] == before
        assert db.sql("SELECT * FROM t WHERE id = 1") == [{"id": 1, "v": 100}]
        assert db.sql("UPDATE t SET v = 7 WHERE id = 1") == 1
        assert db.sql("DELETE FROM t WHERE id = 3") == 1
        assert db.sql("SELECT * FROM t") == [{"id": 1, "v": 7}]
        assert db.verify([db.generate_digest()]).ok
