"""A statement whose DML frame append fails leaves no trace.

Every table write makes its change in memory and then logs it through one
step, ``Table._log``.  When one of a statement's appends fails, the change
is taken back and every frame that did reach the log is compensated by its
mirror CLR before the error surfaces; the statement then undoes its earlier
writes as any failed statement does.  So after the failure, whether the
transaction goes on to ``COMMIT``, to ``ROLLBACK``, or was a one-shot
autocommit: the live rows are the rows from before the statement plus the
writes made after it, ``verify`` against a digest passes, and both still
hold after a crash and a reopen.  A compensation that fails as well stops
the engine until it is reopened.

Each statement below is failed at each of its DML appends (for a ledger
table: the history row, then the base DELETE and INSERT).
"""

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.wal import DELETE, INSERT, INSERT_MANY, read_frames
from repro.errors import InjectedFaultError, LedgerError
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
CASES = [
    (name, position)
    for name, (_, kinds) in STATEMENTS.items()
    for position in range(len(kinds))
]
MODES = ("commit", "rollback", "autocommit")


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


def fail_statement(db, name, position, skip_before=0, times=1):
    """Run statement ``name`` with its ``position``-th DML append failing
    (``skip_before`` appends come first: an autocommit's BEGIN)."""
    sql, _ = STATEMENTS[name]
    FAULTS.arm("wal.append", action="fail", skip=skip_before + position, times=times)
    try:
        with pytest.raises(InjectedFaultError):
            db.sql(sql)
        assert FAULTS.triggers("wal.append") == times
    finally:
        FAULTS.reset()


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_each_statement_logs_these_frames(db, name):
    """The positions below enumerate every DML append of each statement;
    the UPDATEs are one in place and one that moves its row."""
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
def test_a_failed_append_leaves_no_trace(db, path, name, position, mode):
    before = rows(db)
    digests = [db.generate_digest()]
    if mode != "autocommit":
        db.sql("BEGIN TRANSACTION")
    fail_statement(db, name, position, skip_before=mode == "autocommit")
    later = {}
    if mode != "autocommit":
        db.sql("INSERT INTO t (id, v, note) VALUES (30, 'v30', NULL)")
        if mode == "commit":
            later[30] = ("v30", None)
            db.sql("COMMIT")
        else:
            db.sql("ROLLBACK")
    # An autocommit write after it, which takes any slot the statement freed.
    db.sql("INSERT INTO t (id, v, note) VALUES (31, 'v31', NULL)")
    later[31] = ("v31", None)
    assert db.engine.failure is None

    expected = {**before, **later}
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


def test_a_failed_compensation_stops_the_engine_until_a_reopen(db, path):
    """The UPDATE's base INSERT append fails, then so does the CLR that
    compensates its logged DELETE: the log holds a DELETE memory no longer
    has, so nothing more may commit until a reopen recovers from the log."""
    before = rows(db)
    digests = [db.generate_digest()]
    db.sql("BEGIN TRANSACTION")
    fail_statement(db, "update_in_place", 2, times=2)
    assert "reopen" in db.engine.failure
    with pytest.raises(LedgerError):
        db.sql("COMMIT")
    with pytest.raises(LedgerError):
        db.engine.begin()
    assert db.health()["status"] == "degraded"
    db.close()  # a stopped engine closes as a crash would

    db = open_db(path)
    try:
        assert db.engine.failure is None
        assert rows(db) == before
        assert_verifies(db, digests)
        db.sql("UPDATE t SET v = 'nine' WHERE id = 2")
        assert rows(db)[2] == ("nine", NOTE)
        assert_verifies(db, [*digests, db.generate_digest()])
    finally:
        db.close()
