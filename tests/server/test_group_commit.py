"""Group-commit semantics: coalescing, member isolation, torn-group
atomicity, ack-after-fsync ordering."""

import os
import threading

import pytest

from repro.core.group_commit import GroupCommitter
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import InjectedCrashError, LedgerError
from repro.faults import FAULTS


def _open(path, sync=False):
    db = LedgerDatabase.open(
        str(path), block_size=4, sync=sync, clock=LogicalClock()
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


def _commit_work(db, tag, value):
    def work():
        txn = db.begin()
        try:
            db.insert(txn, "grouped", [[tag, value]])
            db.commit(txn)
        except BaseException:
            db.rollback(txn)
            raise
        return txn.tid

    return work


class TestCoalescing:
    def test_concurrent_commits_form_groups(self, tmp_path):
        db = _open(tmp_path / "db")
        committer = GroupCommitter(db, max_group=8)
        results = {}
        barrier = threading.Barrier(6)

        def run(index):
            barrier.wait()
            results[index] = committer.run(
                _commit_work(db, f"t{index}", index)
            )

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        assert len(set(results.values())) == 6  # six distinct transactions
        stats = committer.stats()
        assert stats["members"] == 6
        assert 1 <= stats["groups"] <= 6
        rows = {row["tag"] for row in db.select("grouped")}
        assert rows == {f"t{i}" for i in range(6)}
        committer.close()
        db.close()

    def test_failed_member_does_not_poison_the_group(self, tmp_path):
        db = _open(tmp_path / "db")
        committer = GroupCommitter(db, max_group=8)

        def bad_work():
            txn = db.begin()
            try:
                raise ValueError("member-level failure")
            finally:
                db.rollback(txn)

        with pytest.raises(ValueError):
            committer.run(bad_work)
        # The committer keeps serving after a member failure.
        assert committer.run(_commit_work(db, "after", 1)) > 0
        assert {row["tag"] for row in db.select("grouped")} == {"after"}
        committer.close()
        db.close()

    def test_closed_committer_rejects_work(self, tmp_path):
        db = _open(tmp_path / "db")
        committer = GroupCommitter(db)
        committer.close()
        committer.close()  # idempotent
        with pytest.raises(LedgerError):
            committer.run(_commit_work(db, "x", 1))
        db.close()


class TestTornGroup:
    def test_torn_group_fsync_fails_all_members_and_recovers(self, tmp_path):
        """A crash at the group-fsync point loses whole transactions
        atomically: every member's run() raises (nothing acked), and the
        reopened database verifies with no partial transaction visible."""
        path = tmp_path / "db"
        db = _open(path, sync=True)
        committer = GroupCommitter(db, max_group=8)
        committer.run(_commit_work(db, "durable", 0))

        FAULTS.arm("server.fsync_torn_group", action="crash")
        with pytest.raises(InjectedCrashError):
            committer.run(_commit_work(db, "torn", 1))
        FAULTS.reset()
        db.simulate_crash()

        db2 = LedgerDatabase.open(str(path), block_size=4)
        try:
            assert db2.verify([db2.generate_digest()]).ok
            tags = {row["tag"] for row in db2.select("grouped")}
            assert "durable" in tags  # the fsynced group survived
            # 'torn' may be present (flushed-but-unacked, the classic
            # ambiguity) or absent — but the WAL tail tear must never
            # surface a corrupt or partial state.
            assert tags <= {"durable", "torn"}
        finally:
            db2.close()

    def test_wal_records_torn_tail_marker(self, tmp_path):
        db = _open(tmp_path / "db", sync=True)
        committer = GroupCommitter(db, max_group=4)
        FAULTS.arm("server.fsync_torn_group", action="crash")
        with pytest.raises(InjectedCrashError):
            committer.run(_commit_work(db, "x", 1))
        FAULTS.reset()
        assert os.path.getsize(db.engine.wal.path) > 0
        db.simulate_crash()


def _count_fsyncs(wal, monkeypatch):
    calls = {"n": 0}
    original = wal._flush_and_sync

    def counting():
        calls["n"] += 1
        original()

    monkeypatch.setattr(wal, "_flush_and_sync", counting)
    return calls


class TestDeferredSync:
    def test_one_group_fsync_for_many_commits(self, tmp_path, monkeypatch):
        db = _open(tmp_path / "db", sync=True)
        wal = db.engine.wal
        calls = _count_fsyncs(wal, monkeypatch)
        with wal.deferred_sync():
            for i in range(5):
                txn = db.begin()
                db.insert(txn, "grouped", [[f"d{i}", i]])
                db.commit(txn)
        # One fsync hardened all five commits (appends AND the per-commit
        # flush are both deferred to the group boundary).
        assert calls["n"] == 1
        db.close()

    def test_solo_commit_still_fsyncs(self, tmp_path, monkeypatch):
        db = _open(tmp_path / "db", sync=True)
        calls = _count_fsyncs(db.engine.wal, monkeypatch)
        txn = db.begin()
        db.insert(txn, "grouped", [["solo", 1]])
        db.commit(txn)
        assert calls["n"] >= 1  # sync mode outside a group is unchanged
        db.close()

    def test_exception_skips_the_group_fsync(self, tmp_path, monkeypatch):
        db = _open(tmp_path / "db", sync=True)
        wal = db.engine.wal
        calls = _count_fsyncs(wal, monkeypatch)
        with pytest.raises(RuntimeError):
            with wal.deferred_sync():
                txn = db.begin()
                db.insert(txn, "grouped", [["boom", 1]])
                db.commit(txn)
                raise RuntimeError("crash before the durability point")
        # No fsync happened: the group never reached its durability point,
        # so none of its members may be acknowledged.
        assert calls["n"] == 0
        db.simulate_crash()
