"""The one durability point: the storage lock's outermost release syncs the
log.  Releases queued behind one fsync share the next, nothing answers
before the log is durable through what it shows, each operation fsyncs at
most once, a failed fsync stops the engine, and a torn tail loses whole
transactions only."""

import os
import sys
import threading
import time

import pytest

from repro.client import LedgerClient
from repro.core.group_commit import GroupCommitter
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import InjectedCrashError, LedgerError
from repro.faults import FAULTS
from repro.server.ledger_server import LedgerServer
from repro.sql.session import SqlSession

_real_fsync = os.fsync


def _open(path, sync=True, block_size=4):
    db = LedgerDatabase.open(
        str(path), block_size=block_size, sync=sync, clock=LogicalClock()
    )
    db.create_ledger_table(
        TableSchema(
            "grouped",
            [
                Column("tag", VARCHAR(32), nullable=False),
                Column("value", INT, nullable=False),
            ],
            primary_key=["tag"],
        )
    )
    return db


def _commit_work(db, tag, value, done=None):
    """A unit inserting one row; appends its tid and the log's end after
    its COMMIT to ``done``."""

    def work():
        txn = db.begin()
        try:
            db.insert(txn, "grouped", [[tag, value]])
            db.commit(txn)
        except BaseException:
            db.rollback(txn)
            raise
        if done is not None:
            done.append((txn.tid, db.engine.wal.end))
        return txn.tid

    return work


class _Fsyncs:
    """``os.fsync``, counted; the first call once armed waits for
    ``release`` (then raises ``error``, if set)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.armed = False
        self.blocked = threading.Event()
        self.release = threading.Event()
        self.finished = threading.Event()
        self.error = None
        monkeypatch.setattr(os, "fsync", self)

    def __call__(self, fd):
        self.calls += 1
        if self.armed:
            self.armed = False
            self.blocked.set()
            assert self.release.wait(20)
            if self.error is not None:
                raise self.error
            _real_fsync(fd)
            self.finished.set()
            return
        _real_fsync(fd)


def _wait_for(condition, what):
    deadline = time.monotonic() + 20
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def _run_six(db, committer, fsyncs):
    """Six units wait behind a held ``storage_lock``; the first unit's fsync
    waits until all six have committed.  Returns each thread's outcome,
    the units' ``(tid, end)`` and the durable LSN each saw on return."""
    outcomes, done, seen = {}, [], {}

    def run(index):
        try:
            outcomes[index] = committer.run(
                _commit_work(db, f"t{index}", index, done)
            )
            seen[index] = db.engine.wal._durable
        except BaseException as exc:  # noqa: BLE001 — asserted below
            outcomes[index] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
    with db.ledger.storage_lock:
        for thread in threads:
            thread.start()
        time.sleep(0.05)
    assert fsyncs.blocked.wait(20)
    _wait_for(lambda: len(done) == 6, "the units never committed")
    time.sleep(0.05)  # the last ones reach sync_through
    fsyncs.release.set()
    for thread in threads:
        thread.join(20)
    return outcomes, dict(done), seen


class TestSharedFsync:
    def test_units_queued_behind_one_fsync_share_the_next(
        self, tmp_path, monkeypatch
    ):
        db = _open(tmp_path / "db")
        committer = GroupCommitter(db)
        fsyncs = _Fsyncs(monkeypatch)
        fsyncs.armed = True
        outcomes, ends, seen = _run_six(db, committer, fsyncs)
        assert fsyncs.calls < 6
        assert sorted(outcomes.values()) == sorted(ends)
        for index, tid in outcomes.items():
            assert seen[index] >= ends[tid]  # durable through its COMMIT
        stats = committer.stats()
        assert stats["units"] == 6
        assert stats["fsyncs"] == fsyncs.calls
        assert stats["mean_group_size"] == 6 / fsyncs.calls
        rows = {row["tag"] for row in db.select("grouped")}
        assert rows == {f"t{i}" for i in range(6)}
        db.close()

    def test_stress_every_unit_returns_durable(self, tmp_path, monkeypatch):
        """More threads than cores, a short switch interval: every run
        returns once an fsync covered its COMMIT (the log's size when the
        fsync ran), no unit is lost, and the stats count each unit once."""
        db = _open(tmp_path / "db", block_size=3)
        committer = GroupCommitter(db)
        synced = [0]

        def fsync(fd):
            size = os.fstat(fd).st_size
            _real_fsync(fd)
            synced[0] = max(synced[0], size)

        monkeypatch.setattr(os, "fsync", fsync)
        late = []

        def run(thread):
            for i in range(15):
                done = []
                committer.run(_commit_work(db, f"s{thread}-{i}", i, done))
                ((tid, end),) = done
                if synced[0] < end:
                    late.append(tid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert late == []
        assert len(db.select("grouped")) == 8 * 15
        assert committer.stats()["units"] == 8 * 15
        db.close()

    def test_a_failed_unit_fails_on_its_own(self, tmp_path):
        db = _open(tmp_path / "db")
        committer = GroupCommitter(db)

        def bad_work():
            txn = db.begin()
            try:
                raise ValueError("unit-level failure")
            finally:
                db.rollback(txn)

        with pytest.raises(ValueError):
            committer.run(bad_work)
        assert committer.run(_commit_work(db, "after", 1)) > 0
        assert {row["tag"] for row in db.select("grouped")} == {"after"}
        db.close()

    def test_without_sync_mode_nothing_fsyncs(self, tmp_path, monkeypatch):
        db = _open(tmp_path / "db", sync=False)
        committer = GroupCommitter(db)
        fsyncs = _Fsyncs(monkeypatch)
        for i in range(3):
            committer.run(_commit_work(db, f"a{i}", i))
        assert fsyncs.calls == 0
        assert committer.stats()["mean_group_size"] == 1.0
        db.close()


class TestNoAnswerBeforeDurability:
    def test_digest_receipt_and_select_wait_for_a_units_fsync(
        self, tmp_path, monkeypatch
    ):
        """A unit's fsync blocks after its lock release; other threads can
        already see its row and the block it closed, but their digest,
        receipt and SELECT reply wait until that fsync is done."""
        db = _open(tmp_path / "db", block_size=1)
        server = LedgerServer(db, port=0, workers=4).start()
        client = LedgerClient("127.0.0.1", server.port, pool_size=1)
        fsyncs = _Fsyncs(monkeypatch)
        try:
            client.insert("grouped", [["before", 0]])
            fsyncs.armed = True
            done = []
            writer = threading.Thread(
                target=server._committer.run,
                args=(_commit_work(db, "held", 1, done),),
            )
            writer.start()
            assert fsyncs.blocked.wait(20)
            ((tid, _),) = done
            answers = {}

            def answer(name, call):
                answers[name] = (call(), fsyncs.finished.is_set())

            readers = [
                threading.Thread(target=answer, args=args) for args in (
                    ("digest", db.generate_digest),
                    ("receipt", lambda: db.transaction_receipt(tid)),
                    ("select", lambda: client.execute(
                        "SELECT tag FROM grouped")["rows"]),
                )
            ]
            for reader in readers:
                reader.start()
            time.sleep(0.3)
            assert answers == {}
            fsyncs.release.set()
            for thread in (writer, *readers):
                thread.join(20)
            assert {name: after for name, (_, after) in answers.items()} == {
                "digest": True, "receipt": True, "select": True,
            }
            assert answers["receipt"][0].entry.transaction_id == tid
            assert {"held"} <= {row["tag"] for row in answers["select"][0]}
        finally:
            fsyncs.release.set()
            client.close()
            server.stop(drain=True)
            db.close()


class TestFailedFsync:
    def test_one_error_for_the_unit_and_its_waiters_then_fail_stop(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "db"
        db = _open(path)
        committer = GroupCommitter(db)
        committer.run(_commit_work(db, "durable", 0))
        fsyncs = _Fsyncs(monkeypatch)
        fsyncs.armed = True
        fsyncs.error = OSError(5, "Input/output error")
        outcomes, _, _ = _run_six(db, committer, fsyncs)
        errors = list(outcomes.values())
        assert all(isinstance(e, LedgerError) for e in errors), errors
        assert len({id(e) for e in errors}) == 1
        (failure,) = {id(e): e for e in errors}.values()
        assert failure is db.engine.wal.failure
        assert "fsync" in str(failure) and "reopen" in str(failure)
        assert fsyncs.calls == 1  # no retried fsync after the failure
        for call in (
            lambda: committer.run(_commit_work(db, "later", 9)),
            lambda: db.sql("INSERT INTO grouped VALUES ('later', 9)"),
            db.engine.wal.flush,
        ):
            with pytest.raises(LedgerError) as raised:
                call()
            assert raised.value is failure
        assert fsyncs.calls == 1
        health = db.health()
        assert health["status"] == "degraded"
        assert "fsync" in health["problems"][0]["last_error"]
        db.close()  # no checkpoint: recovery replays the log

        db = LedgerDatabase.open(str(path), block_size=4)
        try:
            assert db.verify([db.generate_digest()]).ok
            tags = {row["tag"] for row in db.select("grouped")}
            assert "durable" in tags
            assert tags <= {"durable"} | {f"t{i}" for i in range(6)}
            db.sql("INSERT INTO grouped VALUES ('reopened', 1)")
        finally:
            db.close()


class TestTornGroup:
    def test_torn_tail_fails_the_unit_and_recovers(self, tmp_path):
        """A crash between the lock release and the fsync loses whole
        transactions: the unit raises (not acknowledged), and the reopened
        database verifies with no partial transaction visible."""
        path = tmp_path / "db"
        db = _open(path)
        committer = GroupCommitter(db)
        committer.run(_commit_work(db, "durable", 0))

        FAULTS.arm("server.fsync_torn_group", action="crash")
        with pytest.raises(InjectedCrashError):
            committer.run(_commit_work(db, "torn", 1))
        FAULTS.reset()
        assert os.path.getsize(db.engine.wal.path) > db.engine.wal._durable
        db.simulate_crash()

        db2 = LedgerDatabase.open(str(path), block_size=4)
        try:
            assert db2.verify([db2.generate_digest()]).ok
            tags = {row["tag"] for row in db2.select("grouped")}
            assert "durable" in tags  # the acknowledged unit survived
            # 'torn' may be present (flushed-but-unacked, the classic
            # ambiguity) or absent — but the WAL tail tear must never
            # surface a corrupt or partial state.
            assert tags <= {"durable", "torn"}
        finally:
            db2.close()


class TestOuterHold:
    def test_one_fsync_for_many_commits(self, tmp_path, monkeypatch):
        """Five commits inside one outer ``storage_lock`` hold fsync nothing
        until it lets go; its release runs exactly one."""
        db = _open(tmp_path / "db")
        fsyncs = _Fsyncs(monkeypatch)
        with db.ledger.storage_lock:
            for i in range(5):
                txn = db.begin()
                db.insert(txn, "grouped", [[f"d{i}", i]])
                db.commit(txn)
            assert fsyncs.calls == 0
        assert fsyncs.calls == 1
        assert db.engine.wal.owed == 0
        with db.ledger.storage_lock:
            pass  # nothing owed
        assert fsyncs.calls == 1
        db.close()


def _session_transaction(db):
    session = SqlSession(db)
    return lambda: [
        session.execute(statement) for statement in (
            "BEGIN TRANSACTION",
            "INSERT INTO grouped VALUES ('s1', 1)",
            "INSERT INTO grouped VALUES ('s2', 2)",
            "COMMIT",
        )
    ]


def _api_transaction(db):
    def run():
        txn = db.begin()
        db.insert(txn, "grouped", [["api", 1]])
        db.commit(txn)

    return run


#: Operation -> (its callable, given the database; fsyncs it runs).
CENSUS = {
    "autocommit_insert": (
        lambda db: lambda: db.sql("INSERT INTO grouped VALUES ('a', 1)"), 1
    ),
    "api_transaction": (_api_transaction, 1),
    "session_transaction": (_session_transaction, 1),
    "create_ledger_table": (
        lambda db: lambda: db.sql(
            "CREATE TABLE census (id INT PRIMARY KEY, v VARCHAR(8)) "
            "WITH (LEDGER = ON)"
        ),
        1,
    ),
    "select": (lambda db: lambda: db.sql("SELECT * FROM grouped"), 0),
}


class TestFsyncCensus:
    """Fsyncs per operation in sync mode: one for each outermost
    ``storage_lock`` release that finds a COMMIT or DDL frame unsynced,
    none for a read; every operation returns durable."""

    @pytest.mark.parametrize("operation", sorted(CENSUS))
    def test_fsyncs_per_operation(self, operation, tmp_path, monkeypatch):
        db = _open(tmp_path / "db", block_size=100)  # no block closes
        db.sql("INSERT INTO grouped VALUES ('seed', 0)")
        make, expected = CENSUS[operation]
        call = make(db)
        fsyncs = _Fsyncs(monkeypatch)
        call()
        assert fsyncs.calls == expected
        assert db.engine.wal.owed == 0
        db.close()

    def test_embedded_threads_share_fsyncs(
        self, tmp_path, monkeypatch, record_property
    ):
        """Four threads commit at once, each through its own session: no
        commit runs more than one fsync, and the fsyncs per commit are
        reported (no bound is claimed)."""
        db = _open(tmp_path / "db", block_size=16)
        fsyncs = _Fsyncs(monkeypatch)
        per_thread = 25

        def run(thread):
            session = SqlSession(db)
            for i in range(per_thread):
                session.execute(
                    f"INSERT INTO grouped VALUES ('e{thread}-{i}', {i})"
                )

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        commits = 4 * per_thread
        assert len(db.select("grouped")) == commits
        assert 1 <= fsyncs.calls <= commits
        ratio = fsyncs.calls / commits
        record_property("fsyncs_per_commit", ratio)
        print(f"4 embedded threads: {ratio:.2f} fsyncs per commit")
        db.close()
