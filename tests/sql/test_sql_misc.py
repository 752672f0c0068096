"""Remaining SQL execution semantics and error-surface details."""

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.core.verification import SEVERITY_ERROR, Finding
from repro.engine.clock import LogicalClock
from repro.errors import SqlBindError, TypeSystemError, VerificationFailedError
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
