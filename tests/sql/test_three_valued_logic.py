"""WHERE keeps a row only when its predicate is TRUE: SQL's three-valued
logic, as SQL Server answers with ``ANSI_NULLS ON`` (and as SQLite does).

Five rows; ``a`` is NULL in rows 2 and 4, ``b`` in row 3.  A comparison with
NULL is UNKNOWN, ``NOT`` UNKNOWN is UNKNOWN, and UNKNOWN is not kept — in
SELECT, UPDATE, DELETE, join ``ON``, the ledger view and
``LedgerDatabase.select`` alike.
"""

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.expressions import NotOp, eq
from repro.errors import SqlSyntaxError

ROWS = "(1, 1, 'ab'), (2, NULL, 'ac'), (3, 3, NULL), (4, NULL, 'x'), (5, 5, 'ay')"


@pytest.fixture(params=["ledger", "regular"])
def db(request, tmp_path):
    database = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
    option = " WITH (LEDGER = ON)" if request.param == "ledger" else ""
    database.sql(
        f"CREATE TABLE t (id INT PRIMARY KEY, a INT, b VARCHAR(8)){option}"
    )
    database.sql(f"INSERT INTO t VALUES {ROWS}")
    yield database
    database.close()


def ids(db, where):
    return sorted(row["id"] for row in db.sql(f"SELECT id FROM t WHERE {where}"))


@pytest.mark.parametrize("where, expected", [
    ("NOT (a = 1)", [3, 5]),
    ("NOT (a IN (1, NULL))", []),
    ("a IN (1, NULL)", [1]),
    ("a NOT IN (1, 3)", [5]),
    ("NOT (a BETWEEN 1 AND 3)", [5]),
    ("a NOT BETWEEN 1 AND 3", [5]),
    ("NOT (b LIKE 'a%')", [4]),
    ("b NOT LIKE 'a%'", [4]),
    ("NOT (a = 1 OR a = 3)", [5]),
    # FALSE AND UNKNOWN is FALSE, so NOT of it keeps rows 2 and 4.
    ("NOT (a = 1 AND b = 'ab')", [2, 3, 4, 5]),
    # TRUE OR UNKNOWN is TRUE.
    ("id = 2 OR a = 9", [2]),
    ("id > 2 AND NOT (a = 3)", [5]),
    ("a = NULL", []),
    ("NOT (a = NULL)", []),
    ("a IS NULL", [2, 4]),
    ("NOT (a IS NULL)", [1, 3, 5]),
])
def test_select_keeps_only_true(db, where, expected):
    assert ids(db, where) == expected


def test_delete_keeps_rows_whose_predicate_is_unknown(db):
    assert db.sql("DELETE FROM t WHERE NOT (a = 1)") == 2
    assert ids(db, "id > 0") == [1, 2, 4]
    if db.engine.table("t").options.get("role") == "ledger":
        assert db.verify([db.generate_digest()]).ok


def test_update_changes_only_true_rows(db):
    assert db.sql("UPDATE t SET b = 'z' WHERE a NOT IN (1)") == 2
    assert ids(db, "b = 'z'") == [3, 5]


def test_join_on_keeps_only_true_pairs(db):
    db.sql("CREATE TABLE u (id INT PRIMARY KEY, k INT)")
    db.sql("INSERT INTO u VALUES (1, 1), (2, NULL)")
    rows = db.sql(
        "SELECT t.id AS l, u.id AS r FROM t JOIN u ON NOT (t.a = u.k)")
    assert sorted((row["l"], row["r"]) for row in rows) == [(3, 1), (5, 1)]


def test_select_api_keeps_only_true(db):
    assert sorted(r["id"] for r in db.select("t", NotOp(eq("a", 1)))) == [3, 5]


def test_ledger_view_keeps_only_true(tmp_path):
    db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
    try:
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, a INT, b VARCHAR(8)) "
               "WITH (LEDGER = ON)")
        db.sql(f"INSERT INTO t VALUES {ROWS}")
        rows = db.sql("SELECT id FROM t_ledger WHERE NOT (a = 1)")
        assert sorted(row["id"] for row in rows) == [3, 5]
        view = db.ledger_view("t", NotOp(eq("a", 1)))
        assert sorted(row["id"] for row in view) == [3, 5]
    finally:
        db.close()


def test_not_must_precede_like_between_or_in(db):
    with pytest.raises(SqlSyntaxError, match="LIKE, BETWEEN or IN after NOT"):
        db.sql("SELECT id FROM t WHERE a NOT = 1")
