"""Remaining SQL execution semantics and error-surface details."""

import datetime as dt

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.core.verification import SEVERITY_ERROR, Finding
from repro.engine.clock import LogicalClock
from repro.errors import (
    SqlArithmeticError,
    SqlBindError,
    SqlSyntaxError,
    TypeSystemError,
    VerificationFailedError,
)
from repro.sql.session import SqlSession


@pytest.fixture
def db(tmp_path):
    database = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
    database.sql(
        "CREATE TABLE accounts (name VARCHAR(16) NOT NULL PRIMARY KEY, "
        "balance INT NOT NULL) WITH (LEDGER = ON)"
    )
    database.sql("INSERT INTO accounts VALUES ('a', 10), ('b', 20)")
    return database


class TestSelfReferencingUpdates:
    def test_update_reads_current_row_values(self, db):
        db.sql("UPDATE accounts SET balance = balance + 5")
        assert {r["name"]: r["balance"] for r in db.sql(
            "SELECT * FROM accounts")} == {"a": 15, "b": 25}

    def test_update_with_cross_column_expression(self, db):
        db.sql("UPDATE accounts SET balance = balance * 2 WHERE name = 'a'")
        (row,) = db.sql("SELECT balance FROM accounts WHERE name = 'a'")
        assert row["balance"] == 20

    def test_self_update_is_fully_versioned(self, db):
        for _ in range(3):
            db.sql("UPDATE accounts SET balance = balance + 1 WHERE name = 'a'")
        events = db.sql(
            "SELECT balance FROM accounts_ledger WHERE name = 'a' AND "
            "ledger_operation_type_desc = 'INSERT' "
            "ORDER BY ledger_transaction_id, ledger_sequence_number"
        )
        assert [e["balance"] for e in events] == [10, 11, 12, 13]
        assert db.verify([db.generate_digest()]).ok

    def test_swap_style_update_uses_pre_update_row(self, db):
        # Both assignments see the original row (SQL semantics).
        db.sql("CREATE TABLE pair (id INT PRIMARY KEY, x INT, y INT)")
        db.sql("INSERT INTO pair VALUES (1, 1, 2)")
        db.sql("UPDATE pair SET x = y, y = x WHERE id = 1")
        (row,) = db.sql("SELECT x, y FROM pair")
        assert (row["x"], row["y"]) == (2, 1)


class TestIntegerArithmetic:
    """T-SQL integer arithmetic, in statements and in constant folding."""

    def test_values_fold_integer_division(self, db):
        db.sql("CREATE TABLE n (id INT PRIMARY KEY, q INT, r INT)")
        db.sql("INSERT INTO n VALUES (1, 7 / 2, (0 - 7) % 3)")
        assert db.sql("SELECT q, r FROM n") == [{"q": 3, "r": -1}]

    def test_select_and_update_divide_as_tsql(self, db):
        db.sql("UPDATE accounts SET balance = balance / 3 WHERE name = 'a'")
        assert db.sql("SELECT balance FROM accounts WHERE name = 'a'") == [
            {"balance": 3}]
        assert db.sql(
            "SELECT name, (0 - balance) % 7 AS r FROM accounts ORDER BY name"
        ) == [{"name": "a", "r": -3}, {"name": "b", "r": -6}]

    def test_division_by_zero_is_a_sql_error(self, db):
        with pytest.raises(SqlArithmeticError):
            db.sql("SELECT balance / 0 AS q FROM accounts")
        with pytest.raises(SqlArithmeticError):
            db.sql("UPDATE accounts SET balance = balance % 0")
        with pytest.raises(SqlArithmeticError):
            db.sql("INSERT INTO accounts VALUES ('c', 1 / 0)")
        assert len(db.sql("SELECT * FROM accounts")) == 2
        assert db.verify([db.generate_digest()]).ok


class TestOperandTypes:
    """Numbers meet numbers; ``+`` also joins two strings.  Any other mix of
    types, in arithmetic (dates included) or in a comparison, is a bind
    error."""

    @pytest.fixture
    def typed(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, a INT, b VARCHAR(8), "
               "d DATE) WITH (LEDGER = ON)")
        db.sql("INSERT INTO t VALUES (1, 1, 'x', '2024-01-02'), "
               "(2, 2, '2', NULL)")
        db.sql("CREATE TABLE u (id INT PRIMARY KEY, s VARCHAR(8))")
        db.sql("INSERT INTO u VALUES (1, 'x'), (2, '2')")
        return db

    @pytest.mark.parametrize("text", [
        "SELECT a + b AS s FROM t",
        "SELECT b * 3 AS s FROM t",
        "SELECT 3 * b AS s FROM t",
        "SELECT b % 2 AS s FROM t",
        "SELECT b - b AS s FROM t",
        "SELECT d - d AS s FROM t",
        "SELECT a + d AS s FROM t",
        "UPDATE t SET b = b * 2",
        # Folded in VALUES, with the error the same SELECT raises.
        "INSERT INTO t VALUES (3, 1, 'a' * 3, NULL)",
        "INSERT INTO t VALUES (3, 1 - 'x', 'y', NULL)",
    ])
    def test_arithmetic_on_other_types_is_refused(self, typed, text):
        with pytest.raises(SqlBindError, match="cannot apply"):
            typed.sql(text)
        assert typed.sql("SELECT b FROM t ORDER BY id") == [
            {"b": "x"}, {"b": "2"}]

    def test_plus_joins_two_strings(self, typed):
        assert typed.sql("SELECT b + b AS s, b + 'y' AS y FROM t ORDER BY id") == [
            {"s": "xx", "y": "xy"}, {"s": "22", "y": "2y"}]

    @pytest.mark.parametrize("text", [
        "SELECT * FROM t WHERE a = b",
        "SELECT * FROM t WHERE a <> b",
        "SELECT * FROM t WHERE a < b",
        "SELECT * FROM t WHERE NOT (b >= a)",
        "SELECT * FROM t_ledger WHERE b = a",
        "UPDATE t SET a = 0 WHERE a = b",
        "DELETE FROM t WHERE b <> a",
        # The index-probe join step and the snapshot one.
        "SELECT * FROM t JOIN u ON u.id = t.b",
        "SELECT * FROM t LEFT JOIN u ON u.s = t.a",
        "SELECT * FROM t JOIN u ON u.id = t.id WHERE t.b = u.id",
        # A column of the joined side against a literal of another type.
        "SELECT * FROM t JOIN u ON u.id = t.id AND u.s = 3",
        "SELECT * FROM t LEFT JOIN u ON u.id = t.a AND u.id < 'x'",
    ])
    def test_columns_of_other_types_do_not_compare(self, typed, text):
        with pytest.raises(SqlBindError, match="cannot compare column"):
            typed.sql(text)
        assert len(typed.sql("SELECT * FROM t")) == 2

    @pytest.mark.parametrize("text", [
        "SELECT SUM(b) AS s FROM t",
        "SELECT AVG(b) AS s FROM t",
        "SELECT SUM(d) AS s FROM t",
        "SELECT AVG(d) AS s FROM t",
        "SELECT a, SUM(b) AS s FROM t GROUP BY a",
    ])
    def test_sum_and_avg_of_a_non_number_are_refused(self, typed, text):
        """T-SQL's error 8117, when the plan is built: a loaded table and
        an emptied one refuse alike; MIN, MAX and COUNT still answer."""
        with pytest.raises(SqlBindError, match="invalid for the (SUM|AVG)"):
            typed.sql(text)
        assert typed.sql(
            "SELECT MIN(b) AS lo, MAX(d) AS hi, COUNT(b) AS n, SUM(a) AS s, "
            "AVG(a) AS m FROM t"
        ) == [{"lo": "2", "hi": dt.date(2024, 1, 2), "n": 2, "s": 3, "m": 1.5}]
        typed.sql("DELETE FROM t")
        with pytest.raises(SqlBindError, match="invalid for the (SUM|AVG)"):
            typed.sql(text)

    @pytest.mark.parametrize("text", [
        "SELECT id FROM t WHERE b = a + 1",
        "SELECT id FROM t WHERE a + 0 = 'x'",
        "SELECT id FROM t WHERE b <> a + 1",
        "SELECT id FROM t WHERE b < a + 1",
        "SELECT id FROM t WHERE (a + 1) * 2 >= b",
        "SELECT id FROM t WHERE b + 'y' = a",
        "SELECT id FROM t WHERE d = a - 1",
        "SELECT id FROM t WHERE id = 1 AND NOT (b + b < 2)",
        "SELECT id FROM t WHERE a + 1 IN (2, 'x')",
        "DELETE FROM t WHERE NOT (a + 1 IN ('x'))",
        "UPDATE t SET a = 0 WHERE b = a + 1",
        "DELETE FROM t WHERE a + 1 <> b",
        "SELECT * FROM t JOIN u ON u.id = t.id AND u.s = t.a + 1",
    ])
    def test_expressions_of_other_types_do_not_compare(self, typed, text):
        """An arithmetic operand has the type its columns and literals
        give it, so ``=`` and ``<>`` refuse like ``<``, when the plan is
        built: no row matches silently, none is updated or deleted, and
        an empty table refuses too."""
        with pytest.raises(SqlBindError, match="cannot compare"):
            typed.sql(text)
        assert typed.sql("SELECT id, a, b FROM t ORDER BY id") == [
            {"id": 1, "a": 1, "b": "x"}, {"id": 2, "a": 2, "b": "2"}]
        typed.sql("DELETE FROM t")
        with pytest.raises(SqlBindError, match="cannot compare"):
            typed.sql(text)

    @pytest.mark.parametrize("text", [
        "SELECT id, b = a AS x FROM t",
        "SELECT id, a + 1 = b AS x FROM t",
        "SELECT id, b < a AS x FROM t",
        "SELECT 1 IN ('a', 2) AS x FROM t",
        "SELECT id FROM t WHERE 1 IN ('a', 2)",
        "SELECT t.id, u.s = t.a AS x FROM t JOIN u ON u.id = t.id",
    ])
    def test_select_list_comparisons_are_typed(self, typed, text):
        """The SELECT list is checked like WHERE, when the plan is built:
        in-process, over the wire as BAD_REQUEST, and on an empty table."""
        from repro.client import LedgerClient
        from repro.server.ledger_server import LedgerServer
        from repro.server.protocol import BAD_REQUEST, RequestError

        with pytest.raises(SqlBindError, match="cannot compare"):
            typed.sql(text)
        server = LedgerServer(typed, port=0, workers=1).start()
        client = LedgerClient("127.0.0.1", server.port, pool_size=1)
        try:
            with pytest.raises(RequestError, match="cannot compare") as raised:
                client.execute(text)
            assert raised.value.code == BAD_REQUEST
        finally:
            client.close()
            server.stop(drain=True)
        typed.sql("DELETE FROM t")
        with pytest.raises(SqlBindError, match="cannot compare"):
            typed.sql(text)

    def test_select_list_comparisons_of_one_kind_run(self, typed):
        assert typed.sql("SELECT id, b = 'x' AS x, a + 1 = id + 1 AS y, "
                         "2 IN (1, 2) AS z FROM t ORDER BY id") == [
            {"id": 1, "x": True, "y": True, "z": True},
            {"id": 2, "x": False, "y": True, "z": True}]

    def test_expressions_of_one_kind_compare(self, typed):
        assert typed.sql("SELECT id FROM t WHERE a + 1 = 2") == [{"id": 1}]
        assert typed.sql("SELECT id FROM t WHERE b + 'y' = 'xy'") == [
            {"id": 1}]
        assert typed.sql("SELECT id FROM t WHERE a * 2 > id + 0.5 "
                         "ORDER BY id") == [{"id": 1}, {"id": 2}]
        assert typed.sql("SELECT id FROM t WHERE a + NULL = b") == []
        assert typed.sql("SELECT id FROM t WHERE a + 1 IN (NULL, 3)") == [
            {"id": 2}]

    def test_columns_of_one_kind_compare(self, typed):
        assert typed.sql("SELECT id FROM t WHERE id = a") == [
            {"id": 1}, {"id": 2}]
        assert typed.sql(
            "SELECT t.id FROM t JOIN u ON u.s = t.b ORDER BY t.id") == [
            {"t.id": 1}, {"t.id": 2}]
        assert typed.sql(
            "SELECT t.id, u.s FROM t JOIN u ON u.id = t.id AND u.s = 'x'") == [
            {"t.id": 1, "u.s": "x"}]


class TestErrorSurface:
    def test_update_unknown_column_rolls_back(self, db):
        with pytest.raises(Exception):
            db.sql("UPDATE accounts SET missing = 1")
        assert len(db.sql("SELECT * FROM accounts")) == 2
        assert db.verify([db.generate_digest()]).ok

    def test_commit_without_begin(self, db):
        with pytest.raises(SqlBindError):
            db.sql("COMMIT")

    def test_nested_begin_rejected(self, db):
        db.sql("BEGIN")
        with pytest.raises(SqlBindError):
            db.sql("BEGIN")
        db.sql("ROLLBACK")

    @pytest.mark.parametrize("where", [
        "balance = " + " + ".join(["1"] * 1500),
        "(" * 1500 + "balance = 1" + ")" * 1500,
        "NOT " * 1500 + "balance = 1",
        "balance = " + "-(" * 1500 + "1" + ")" * 1500,
    ], ids=["chain", "parentheses", "not", "unary_minus"])
    def test_too_deep_is_a_syntax_error_at_its_token(self, db, where):
        """SQL Server's error 191, not the interpreter's RecursionError."""
        with pytest.raises(SqlSyntaxError, match="nested too deeply") as info:
            db.sql(f"SELECT * FROM accounts WHERE {where}")
        assert info.value.line == 1 and info.value.column > 1
        assert len(db.sql("SELECT * FROM accounts")) == 2

    def test_verification_error_truncates_long_finding_lists(self):
        findings = [
            Finding("table_root", SEVERITY_ERROR, f"finding number {i}")
            for i in range(9)
        ]
        error = VerificationFailedError(findings)
        message = str(error)
        assert "9 finding(s)" in message
        assert "+4 more" in message
        assert len(error.findings) == 9


def _api_update(assignments):
    def update(db):
        txn = db.begin()
        try:
            db.update(txn, "accounts", assignments)
        finally:
            db.rollback(txn)
    return update


class TestWrittenColumns:
    """A statement names each column it writes once, and never a hidden
    (GENERATED ALWAYS) system column; the error names the column."""

    @pytest.mark.parametrize("write, column", [
        ("INSERT INTO accounts (name, balance, balance) VALUES ('c', 5, 6)",
         "balance"),
        ("INSERT INTO accounts (name, balance, ledger_start_transaction_id) "
         "VALUES ('c', 5, 99)", "ledger_start_transaction_id"),
        ("UPDATE accounts SET balance = 1, balance = 2", "balance"),
        ("UPDATE accounts SET ledger_start_transaction_id = 5",
         "ledger_start_transaction_id"),
        (_api_update({"ledger_end_sequence_number": 1}),
         "ledger_end_sequence_number"),
    ])
    def test_duplicate_or_hidden_column_is_a_bind_error(self, db, write, column):
        before = db.sql("SELECT * FROM accounts_ledger")
        with pytest.raises(SqlBindError, match=f"'{column}'"):
            write(db) if callable(write) else db.sql(write)
        assert db.sql("SELECT * FROM accounts_ledger") == before
        assert db.verify([db.generate_digest()]).ok

    def test_column_list_in_any_order_and_on_one_column_tables(self, db):
        db.sql("INSERT INTO accounts (balance, name) VALUES (7, 'c'), (8, 'd')")
        rows = db.sql("SELECT * FROM accounts WHERE balance < 9 ORDER BY name")
        assert rows == [
            {"name": "c", "balance": 7}, {"name": "d", "balance": 8},
        ]
        db.sql("CREATE TABLE one (id INT PRIMARY KEY)")
        db.sql("INSERT INTO one (id) VALUES (1), (2)")
        assert db.sql("SELECT * FROM one ORDER BY id") == [{"id": 1}, {"id": 2}]
        with pytest.raises(SqlBindError, match="value count"):
            db.sql("INSERT INTO one (id) VALUES (3, 4)")
        assert db.verify([db.generate_digest()]).ok


class TestValuesThatDoNotEncode:
    """A value its column's type cannot encode is refused with the type's
    error, naming the first bad column, and nothing is written."""

    @pytest.mark.parametrize("values", [
        "(1, 'NaN', NULL)",
        "(1, NULL, '2021-01-01T00:00:00+00:00')",
        "(1, NULL, '2021-01-01T00:00:00Z')",
    ])
    def test_rejected_by_the_type_and_nothing_written(self, db, values):
        db.sql(
            "CREATE TABLE typed (id INT PRIMARY KEY, d DECIMAL(10, 2), "
            "at DATETIME) WITH (LEDGER = ON)"
        )
        with pytest.raises(TypeSystemError):
            db.sql(f"INSERT INTO typed (id, d, at) VALUES {values}")
        assert db.sql("SELECT * FROM typed") == []
        assert db.sql("SELECT * FROM typed_ledger") == []
        assert db.verify([db.generate_digest()]).ok

    @pytest.fixture
    def texts(self, db):
        db.sql(
            "CREATE TABLE texts (id INT PRIMARY KEY, label VARCHAR(8), "
            "ratio FLOAT) WITH (LEDGER = ON)"
        )
        db.sql("INSERT INTO texts VALUES (1, 'one', 1)")
        return db.sql("SELECT * FROM texts_ledger")

    # A lone surrogate (a JSON request can carry one) and an integer no
    # float holds: each a TypeSystemError naming its column, never a raw
    # UnicodeEncodeError / OverflowError, and nothing is written.
    _UNSTORABLE = [
        ("label", "'\ud800'", "not valid Unicode"),
        ("label", "'ok\udfff'", "not valid Unicode"),
        ("ratio", "9" * 401, "out of FLOAT's range"),
    ]
    _IDS = ["lone_high_surrogate", "trailing_low_surrogate", "float_overflow"]

    @pytest.mark.parametrize("column, literal, text", _UNSTORABLE, ids=_IDS)
    def test_unstorable_insert(self, db, texts, column, literal, text):
        with pytest.raises(TypeSystemError, match=f"column '{column}': .*{text}"):
            db.sql(f"INSERT INTO texts (id, {column}) VALUES (2, {literal})")
        assert db.sql("SELECT * FROM texts_ledger") == texts
        assert db.verify([db.generate_digest()]).ok

    @pytest.mark.parametrize("column, literal, text", _UNSTORABLE, ids=_IDS)
    def test_unstorable_update(self, db, texts, column, literal, text):
        with pytest.raises(TypeSystemError, match=f"column '{column}': .*{text}"):
            db.sql(f"UPDATE texts SET {column} = {literal} WHERE id = 1")
        assert db.sql("SELECT * FROM texts_ledger") == texts
        assert db.verify([db.generate_digest()]).ok

    def test_first_bad_column_is_named_before_a_later_one(self, db):
        """A lone surrogate in an earlier column and a bool in a later
        TINYINT: the error names the earlier column, as validating the
        columns in order does."""
        db.sql(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(10), "
            "flag TINYINT) WITH (LEDGER = ON)"
        )
        with pytest.raises(
            TypeSystemError, match="^column 'name': .*not valid Unicode"
        ):
            SqlSession(db).executemany(
                "INSERT INTO t (id, name, flag) VALUES (?, ?, ?)",
                [(1, "\ud800", True)],
            )
        assert db.sql("SELECT * FROM t") == []
        assert db.sql("SELECT * FROM t_ledger") == []
        assert db.verify([db.generate_digest()]).ok
