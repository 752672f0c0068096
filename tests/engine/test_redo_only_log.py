"""The log is redo-only: a transaction's records reach it in one append.

A commit appends BEGIN, the frames of every change its transaction kept and
COMMIT with one ``WalWriter.append`` call; a rollback — full, to a
savepoint, or of a failed statement — writes nothing.

Logs written when each change was appended as it happened still recover:
they interleave transactions, compensate rolled-back changes with CLRs
(``"clr": true`` DML records, DELETE_MANY for an INSERT_MANY), end a
rolled-back transaction with ABORT and leave an open one without COMMIT.
:class:`AsAppendedLog` rebuilds such a log from the engine's own steps,
and recovery from it must come back to the rows recovery from the log
written here comes back to, and verify.
"""

import os
import shutil

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.transaction import Transaction, TransactionManager
from repro.engine.wal import (
    ABORT,
    BEGIN,
    COMMIT,
    DDL,
    DELETE,
    DELETE_MANY,
    INSERT,
    INSERT_MANY,
    WalRecord,
    WalWriter,
    read_frames,
)
from repro.errors import ConstraintError
from repro.sql import SqlSession

TABLES = (
    "CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(40), code INT NOT NULL) "
    "WITH (LEDGER = ON)",
    "CREATE UNIQUE INDEX a_code ON a (code)",
    "CREATE TABLE b (id INT PRIMARY KEY, v VARCHAR(40), code INT NOT NULL) "
    "WITH (LEDGER = ON)",
    "CREATE UNIQUE INDEX b_code ON b (code)",
)


def open_db(path):
    return LedgerDatabase.open(str(path), clock=LogicalClock())


@pytest.fixture
def db(tmp_path):
    database = open_db(tmp_path / "db")
    for ddl in TABLES:
        database.sql(ddl)
    database.sql("INSERT INTO a VALUES (1, 'one', 1), (2, 'two', 2)")
    database.sql("INSERT INTO b VALUES (1, 'one', 1), (2, 'two', 2)")
    yield database
    if not database.engine.closed:
        database.close()


def rows(db):
    return {
        name: sorted(tuple(row.values()) for row in db.sql(f"SELECT * FROM {name}"))
        for name in ("a", "b")
    }


class TestOneAppendPerCommit:
    @pytest.fixture
    def appends(self, db, monkeypatch):
        """Each ``append`` call's record kinds, on the live log."""
        wal = db.engine.wal
        calls = []
        append = wal.append

        def counted(*records):
            calls.append([record.kind for record in records])
            return append(*records)

        monkeypatch.setattr(wal, "append", counted)
        return calls

    @pytest.mark.parametrize("sql, frames", [
        ("UPDATE a SET v = 'new' WHERE id = 1", [INSERT, DELETE, INSERT]),
        ("INSERT INTO a VALUES (3, 'three', 3)", [INSERT_MANY]),
        ("DELETE FROM a WHERE id = 2", [INSERT, DELETE]),
    ], ids=["update", "insert", "delete"])
    def test_an_autocommit_statement_is_one_append(self, db, appends, sql, frames):
        db.sql(sql)
        assert appends == [[BEGIN, *frames, COMMIT]]

    def test_a_transaction_is_one_append(self, db, appends):
        session = SqlSession(db)
        session.execute("BEGIN TRANSACTION")
        session.execute("INSERT INTO a VALUES (3, 'three', 3)")
        session.execute("UPDATE b SET v = 'new' WHERE id = 1")
        session.execute("DELETE FROM a WHERE id = 1")
        assert appends == []
        session.execute("COMMIT")
        assert appends == [[
            BEGIN, INSERT_MANY, INSERT, DELETE, INSERT, INSERT, DELETE, COMMIT,
        ]]

    def test_rollbacks_write_nothing(self, db, appends):
        path = db.engine.wal.path
        size = os.path.getsize(path)
        before = rows(db)
        session = SqlSession(db)
        session.execute("BEGIN TRANSACTION")
        session.execute("INSERT INTO a VALUES (3, 'three', 3)")
        session.execute("SAVE TRANSACTION sp")
        session.execute("UPDATE a SET v = 'new' WHERE id = 1")
        session.execute("ROLLBACK TO sp")
        with pytest.raises(ConstraintError):
            session.execute("UPDATE b SET code = 7")  # the second row collides
        assert os.path.getsize(path) == size
        session.execute("ROLLBACK")
        assert os.path.getsize(path) == size
        assert appends == []
        assert rows(db) == before


#: The compensation record (CLR) of each DML frame kind.
_MIRROR = {INSERT: DELETE, DELETE: INSERT, INSERT_MANY: DELETE_MANY}


def compensation(record):
    """The CLR that took ``record`` back, as logs appended it."""
    kind = _MIRROR[record.kind]
    key = "rec" if kind == INSERT else "old"
    rows = [
        {"page": page, "slot": slot, key: data.hex()}
        for (page, slot), data in record.rows
    ]
    payload = {"clr": True, "tid": record.tid, "table_id": record.table_id}
    if kind == DELETE_MANY:
        payload["rows"] = rows
    else:
        payload.update(rows[0])
    return WalRecord(kind, payload)


class _Kept(list):
    """A transaction's changes that tell ``log`` of each one kept and each
    one taken back."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def append(self, change):
        super().append(change)
        self.log.extend(change[0])

    def pop(self, *at):
        change = super().pop(*at)
        self.log.extend(compensation(record) for record in reversed(change[0]))
        return change


class AsAppendedLog:
    """The records of the engine's steps in the order it took them, as a
    log that appended each change as it happened: BEGIN at begin, each
    change's frames when it was made, the CLRs of each change taken back,
    ABORT after a rollback, COMMIT and DDL as appended."""

    def __init__(self, monkeypatch):
        self.records = []
        log = self.records
        begin, rollback = TransactionManager.begin, TransactionManager.rollback
        init, append = Transaction.__init__, WalWriter.append

        def kept_init(txn, *args):
            init(txn, *args)
            txn.changes = _Kept(log)

        def logged_begin(manager, *args):
            txn = begin(manager, *args)
            log.append(WalRecord(BEGIN, {"tid": txn.tid, "username": txn.username}))
            return txn

        def logged_rollback(manager, txn):
            rollback(manager, txn)
            log.append(WalRecord(ABORT, {"tid": txn.tid}))

        def logged_append(wal, *records):
            lsn = append(wal, *records)
            if records[-1].kind in (COMMIT, DDL):
                log.append(records[-1])
            return lsn

        monkeypatch.setattr(Transaction, "__init__", kept_init)
        monkeypatch.setattr(TransactionManager, "begin", logged_begin)
        monkeypatch.setattr(TransactionManager, "rollback", logged_rollback)
        monkeypatch.setattr(WalWriter, "append", logged_append)

    def write(self, path):
        os.remove(path)
        writer = WalWriter(path)
        for record in self.records:
            writer.append(record)
        writer.close()


def test_a_log_appended_as_changes_happened_recovers(db, tmp_path, monkeypatch):
    db.checkpoint()  # the log from here on is the workload's alone
    steps = AsAppendedLog(monkeypatch)
    first, second, third, open_one = (SqlSession(db) for _ in range(4))

    # Two transactions, interleaved, committing in the reverse of their
    # begin order; one rolls back to a savepoint, one undoes a statement.
    first.execute("BEGIN TRANSACTION")
    second.execute("BEGIN TRANSACTION")
    first.execute("INSERT INTO a VALUES (3, 'three', 3), (4, 'four', 4)")
    second.execute("INSERT INTO b VALUES (3, 'three', 3)")
    first.execute("SAVE TRANSACTION sp")
    first.execute("INSERT INTO a VALUES (10, 'rolled back', 10)")
    first.execute("DELETE FROM a WHERE id = 1")
    first.execute("UPDATE a SET v = 'rolled back' WHERE id = 2")
    first.execute("ROLLBACK TO sp")
    with pytest.raises(ConstraintError):
        second.execute("UPDATE b SET code = 7 WHERE id < 3")  # id 2 collides
    second.execute("UPDATE b SET v = 'kept' WHERE id = 2")
    first.execute("INSERT INTO a VALUES (5, 'after the savepoint', 5)")
    second.execute("COMMIT")
    first.execute("COMMIT")
    digests = [db.generate_digest()]

    # A rolled-back transaction, then autocommits and one left open.
    third.execute("BEGIN TRANSACTION")
    third.execute("INSERT INTO a VALUES (20, 'aborted', 20)")
    third.execute("UPDATE a SET v = 'aborted' WHERE id = 3")
    third.execute("ROLLBACK")
    db.sql("UPDATE a SET v = 'autocommit' WHERE id = 4")
    db.sql("INSERT INTO b VALUES (6, 'six', 6)")
    digests.append(db.generate_digest())
    open_one.execute("BEGIN TRANSACTION")
    open_one.execute("INSERT INTO b VALUES (30, 'never committed', 30)")
    expected = {
        name: [row for row in table if row[0] != 30]
        for name, table in rows(db).items()
    }
    db.simulate_crash()

    shutil.copytree(tmp_path / "db", tmp_path / "as_appended")
    (wal_name,) = [
        name for name in os.listdir(tmp_path / "db") if name.startswith("wal.")
    ]
    monkeypatch.undo()
    steps.write(str(tmp_path / "as_appended" / wal_name))
    written, _ = read_frames(str(tmp_path / "db" / wal_name))
    log, _ = read_frames(str(tmp_path / "as_appended" / wal_name))
    assert len(written) < len(log)
    kinds = [kind for kind, _ in log]
    assert ABORT in kinds and DELETE_MANY in kinds
    assert any(fields.get("clr") and kind == INSERT for kind, fields in log)
    tids = [fields["tid"] for kind, fields in log if kind == BEGIN]
    committed = {fields["tid"] for kind, fields in log if kind == COMMIT}
    assert tids[1] in committed and tids[-1] not in committed  # the loser
    assert kinds.index(COMMIT) > kinds.index(BEGIN, 1)  # interleaved

    for name in ("db", "as_appended"):
        recovered = open_db(tmp_path / name)
        try:
            assert rows(recovered) == expected, name
            report = recovered.verify(digests)
            assert report.ok, [finding.message for finding in report.errors]
        finally:
            recovered.close()
