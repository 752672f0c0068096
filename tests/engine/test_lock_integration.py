"""Table-level locking enforced by the DML path."""

import pytest

from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.operators import insert_rows
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import LockError


@pytest.fixture
def db(tmp_path):
    return Database.open(str(tmp_path / "db"), clock=LogicalClock())


@pytest.fixture
def items(db):
    return db.create_table(
        TableSchema(
            "items",
            [Column("id", INT, nullable=False), Column("v", VARCHAR(16))],
            primary_key=["id"],
        )
    )


class TestWriteConflicts:
    def test_two_writers_conflict(self, db, items):
        first = db.begin()
        insert_rows(first, items, [[1, "a"]])
        second = db.begin()
        with pytest.raises(LockError):
            insert_rows(second, items, [[2, "b"]])
        db.rollback(second)
        db.commit(first)

    def test_lock_released_on_commit(self, db, items):
        first = db.begin()
        insert_rows(first, items, [[1, "a"]])
        db.commit(first)
        second = db.begin()
        insert_rows(second, items, [[2, "b"]])
        db.commit(second)
        assert items.row_count() == 2

    def test_lock_released_on_rollback(self, db, items):
        first = db.begin()
        insert_rows(first, items, [[1, "a"]])
        db.rollback(first)
        second = db.begin()
        insert_rows(second, items, [[1, "again"]])
        db.commit(second)
        assert items.row_count() == 1

    def test_writers_on_different_tables_coexist(self, db, items):
        other = db.create_table(
            TableSchema("other", [Column("id", INT, nullable=False)],
                        primary_key=["id"])
        )
        first = db.begin()
        second = db.begin()
        insert_rows(first, items, [[1, "a"]])
        insert_rows(second, other, [[1]])
        db.commit(first)
        db.commit(second)

    def test_same_transaction_reacquires_freely(self, db, items):
        txn = db.begin()
        insert_rows(txn, items, [[1, "a"]])
        insert_rows(txn, items, [[2, "b"]])
        db.commit(txn)


class TestLedgerLockInteraction:
    def test_ledger_commit_pipeline_not_blocked_by_user_locks(self, tmp_path):
        """Block building runs in its own transactions after user locks drop."""
        from repro.core.ledger_database import LedgerDatabase
        from tests.core.conftest import accounts_schema

        db = LedgerDatabase.open(str(tmp_path / "ldb"), block_size=2,
                                 clock=LogicalClock())
        db.create_ledger_table(accounts_schema())
        # Enough transactions to force several block closures mid-stream.
        for i in range(6):
            txn = db.begin()
            db.insert(txn, "accounts", [[f"u{i}", i]])
            db.commit(txn)
        assert db.verify([db.generate_digest()]).ok


class TestConflictTelemetry:
    def test_conflicts_counted_and_emitted(self):
        from repro.engine.locks import LockManager, LockMode
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            manager = LockManager()
            manager.acquire(1, 5, LockMode.EXCLUSIVE)
            with pytest.raises(LockError):
                manager.acquire(2, 5, LockMode.SHARED)
            with pytest.raises(LockError):
                manager.acquire(3, 5, LockMode.EXCLUSIVE)
            fam = OBS.metrics.get("table_lock_conflicts_total")
            assert fam.labels("S").value == 1
            assert fam.labels("X").value == 1
            conflicts = [
                e for e in OBS.events.tail(10) if e.name == "lock.conflict"
            ]
            assert len(conflicts) == 2
            assert conflicts[0].payload["table_id"] == 5
            assert conflicts[0].payload["mode"] == "S"
            assert conflicts[0].payload["holders"] == {"1": "X"}
            assert conflicts[1].payload["mode"] == "X"
        finally:
            OBS.reset()
            OBS.disable()

    def test_successful_acquisitions_cost_nothing(self):
        from repro.engine.locks import LockManager, LockMode
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            manager = LockManager()
            manager.acquire(1, 5, LockMode.SHARED)
            manager.acquire(2, 5, LockMode.SHARED)
            # Re-acquiring a mode already held is a no-op, not a conflict.
            manager.acquire(1, 5, LockMode.SHARED)
            fam = OBS.metrics.get("table_lock_conflicts_total")
            assert fam.labels("S").value == 0
            assert not [
                e for e in OBS.events.tail(10) if e.name == "lock.conflict"
            ]
        finally:
            OBS.reset()
            OBS.disable()
