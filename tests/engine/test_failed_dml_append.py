"""A commit whose log append fails leaves no trace.

A transaction's records reach the log in one append, at COMMIT: BEGIN,
the frames of every change it kept, then COMMIT.  ``wal.append`` fires for
each record before any byte is written, so whichever record it fails at,
the append writes nothing: the ledger slot is handed back and the
transaction stays active for its rollback (a one-shot autocommit statement
rolls back by itself).  After it, whether the statement ran inside
``BEGIN`` (then ``ROLLBACK``) or under autocommit: the live rows are the
rows from before the statement plus the writes made after it, ``verify``
against a digest passes, and both still hold after a crash and a reopen.

Each statement below is failed at each record of its commit (for a ledger
table's DELETE and UPDATE: the history row, then the base DELETE and
INSERT).
"""

import os

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.wal import BEGIN, COMMIT, DELETE, INSERT, INSERT_MANY, read_frames
from repro.errors import InjectedFaultError
from repro.faults import FAULTS

NOTE = "n" * 1500  # five rows fill a page
ROWS = {key: (f"v{key}", NOTE) for key in range(1, 11)}

#: Each statement and the DML frames it logs (``frame kinds``): the base
#: table's, and for DELETE and UPDATE first the history row's.
STATEMENTS = {
    "insert": (
        "INSERT INTO t (id, v, note) VALUES (20, 'v20', NULL)",
        [INSERT_MANY],
    ),
    "insert_many": (
        "INSERT INTO t (id, v, note) VALUES "
        "(20, 'v20', NULL), (21, 'v21', NULL), (22, 'v22', NULL)",
        [INSERT_MANY],
    ),
    "delete": ("DELETE FROM t WHERE id = 2", [INSERT, DELETE]),
    "update_in_place": (
        "UPDATE t SET v = 'nine' WHERE id = 2", [INSERT, DELETE, INSERT]
    ),
    "update_that_moves": (
        f"UPDATE t SET note = '{'m' * 3000}' WHERE id = 2",
        [INSERT, DELETE, INSERT],
    ),
}


def commit_records(name):
    """The record kinds of the commit of statement ``name``, in order."""
    return [BEGIN, *STATEMENTS[name][1], COMMIT]


CASES = [
    (name, position)
    for name in STATEMENTS
    for position in range(len(commit_records(name)))
]
MODES = ("rollback", "autocommit")


def open_db(path):
    return LedgerDatabase.open(str(path), clock=LogicalClock())


@pytest.fixture
def path(tmp_path):
    return tmp_path / "db"


@pytest.fixture
def db(path):
    database = open_db(path)
    database.sql(
        "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20) NOT NULL, "
        "note VARCHAR(4000)) WITH (LEDGER = ON)"
    )
    database.sql("CREATE UNIQUE INDEX t_v ON t (v)")
    for key, (v, note) in ROWS.items():
        database.sql(f"INSERT INTO t (id, v, note) VALUES ({key}, '{v}', '{note}')")
    yield database
    if not database.engine.closed:
        database.close()


def rows(db):
    return {row["id"]: (row["v"], row["note"]) for row in db.sql("SELECT * FROM t")}


def dml_frames(db):
    frames, _ = read_frames(db.engine.wal.path)
    return [(kind, fields) for kind, fields in frames if "table_id" in fields]


def assert_verifies(db, digests):
    report = db.verify(digests)
    assert report.ok, [finding.message for finding in report.errors]


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_each_statement_logs_these_frames(db, name):
    """The positions below enumerate every record of each statement's
    commit; the UPDATEs are one in place and one that moves its row."""
    sql, kinds = STATEMENTS[name]
    before = len(dml_frames(db))
    db.sql(sql)
    logged = dml_frames(db)[before:]
    assert [kind for kind, _ in logged] == kinds
    if name.startswith("update"):
        deleted, inserted = logged[1][1], logged[2][1]
        moved = (deleted["page"], deleted["slot"]) != (
            inserted["page"], inserted["slot"]
        )
        assert moved == (name == "update_that_moves")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name, position", CASES)
def test_a_failed_commit_append_leaves_no_trace(db, path, name, position, mode):
    before = rows(db)
    digests = [db.generate_digest()]
    sql, _ = STATEMENTS[name]
    if mode != "autocommit":
        db.sql("BEGIN TRANSACTION")
        db.sql(sql)
        sql = "COMMIT"
    size = os.path.getsize(db.engine.wal.path)
    failed = []

    def fail(context):
        failed.append(context["kind"])
        raise InjectedFaultError("wal.append")

    FAULTS.arm("wal.append", action="fail", skip=position, times=1, callback=fail)
    try:
        with pytest.raises(InjectedFaultError):
            db.sql(sql)
    finally:
        FAULTS.reset()
    assert failed == [commit_records(name)[position]]
    assert os.path.getsize(db.engine.wal.path) == size
    if mode != "autocommit":
        db.sql("ROLLBACK")
    # An autocommit write after it, which takes any slot the statement freed.
    db.sql("INSERT INTO t (id, v, note) VALUES (31, 'v31', NULL)")
    assert db.engine.failure is None

    expected = {**before, 31: ("v31", None)}
    assert rows(db) == expected
    digests.append(db.generate_digest())
    assert_verifies(db, digests)

    db.simulate_crash()
    db = open_db(path)
    try:
        assert rows(db) == expected
        assert_verifies(db, digests)
    finally:
        db.close()
