"""Integration tests: tables, transactions, savepoints, locks, operators."""

import pytest

from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expressions import BinaryOp, ColumnRef, Literal, eq
from repro.engine.locks import LockManager, LockMode
from repro.engine.operators import (
    access_path,
    aggregate,
    delete_rows,
    index_seek,
    insert_rows,
    limit_rows,
    pk_seek,
    seq_scan,
    sort_rows,
    update_rows,
)
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import DECIMAL, INT, VARCHAR
from repro.errors import (
    ConstraintError,
    LockError,
    SavepointError,
    TransactionError,
)


@pytest.fixture
def db(tmp_path):
    database = Database.open(str(tmp_path / "db"), clock=LogicalClock())
    yield database


@pytest.fixture
def accounts(db):
    schema = TableSchema(
        "accounts",
        [
            Column("id", INT, nullable=False),
            Column("name", VARCHAR(32), nullable=False),
            Column("balance", DECIMAL(12, 2)),
        ],
        primary_key=["id"],
        indexes=[IndexDefinition("ix_name", ("name",))],
    )
    return db.create_table(schema)


def rows_of(table):
    return sorted(row for _, row in table.scan())


class TestDml:
    def test_insert_and_scan(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"], [2, "John", "500.00"]])
        db.commit(txn)
        assert accounts.row_count() == 2
        names = [row["name"] for _, row in seq_scan(accounts)]
        assert sorted(names) == ["John", "Nick"]

    def test_pk_uniqueness(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"]])
        with pytest.raises(ConstraintError):
            insert_rows(txn, accounts, [[1, "Dup", "1.00"]])
        db.commit(txn)
        assert accounts.row_count() == 1

    def test_update_changes_value_and_keeps_pk_lookup(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"]])
        update_rows(txn, accounts, {"balance": "50.00"}, eq("id", 1))
        db.commit(txn)
        _, row = accounts.seek([1])
        assert str(row[2]) == "50.00"

    def test_update_of_pk_moves_index_entry(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"]])
        update_rows(txn, accounts, {"id": 9}, eq("id", 1))
        db.commit(txn)
        assert accounts.seek([1]) is None
        assert accounts.seek([9]) is not None

    def test_delete(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"], [2, "Joe", "30.00"]])
        deleted = delete_rows(txn, accounts, eq("name", "Joe"))
        db.commit(txn)
        assert deleted == 1
        assert accounts.row_count() == 1

    def test_nonclustered_index_seek(self, db, accounts):
        txn = db.begin()
        insert_rows(
            txn, accounts,
            [[1, "Nick", "100.00"], [2, "Nick", "7.00"], [3, "Mary", "1.00"]],
        )
        db.commit(txn)
        hits = [row["id"] for _, row in index_seek(accounts, "ix_name", ["Nick"])]
        assert sorted(hits) == [1, 2]

    def test_index_maintained_through_update_delete(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"]])
        update_rows(txn, accounts, {"name": "Nicholas"}, eq("id", 1))
        db.commit(txn)
        assert list(index_seek(accounts, "ix_name", ["Nick"])) == []
        assert len(list(index_seek(accounts, "ix_name", ["Nicholas"]))) == 1
        txn = db.begin()
        delete_rows(txn, accounts, eq("id", 1))
        db.commit(txn)
        assert list(index_seek(accounts, "ix_name", ["Nicholas"])) == []

    def test_unique_nonclustered_index(self, db):
        schema = TableSchema(
            "users",
            [Column("id", INT, nullable=False), Column("email", VARCHAR(64))],
            primary_key=["id"],
            indexes=[IndexDefinition("ux_email", ("email",), unique=True)],
        )
        users = db.create_table(schema)
        txn = db.begin()
        insert_rows(txn, users, [[1, "a@x.com"]])
        with pytest.raises(ConstraintError):
            insert_rows(txn, users, [[2, "a@x.com"]])
        # Updating the row to keep its own key is fine.
        update_rows(txn, users, {"email": "a@x.com"}, eq("id", 1))
        db.commit(txn)

    def test_clustered_scan_is_pk_ordered(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[3, "c", None], [1, "a", None], [2, "b", None]])
        db.commit(txn)
        # A primary-key range is read through the clustered index: key order.
        at_least_one = BinaryOp(">=", ColumnRef("id"), Literal(1))
        ids = [row["id"] for _, row in access_path(accounts, at_least_one)]
        assert ids == [1, 2, 3]


class TestRollbackAndSavepoints:
    def test_rollback_undoes_everything(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "Nick", "100.00"]])
        db.commit(txn)
        txn = db.begin()
        insert_rows(txn, accounts, [[2, "Evil", "0.00"]])
        update_rows(txn, accounts, {"balance": "0.00"}, eq("id", 1))
        delete_rows(txn, accounts, eq("id", 1))
        db.rollback(txn)
        assert accounts.row_count() == 1
        _, row = accounts.seek([1])
        assert str(row[2]) == "100.00"
        assert len(list(index_seek(accounts, "ix_name", ["Evil"]))) == 0

    def test_savepoint_partial_rollback(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "keep", None]])
        db.savepoint(txn, "sp1")
        insert_rows(txn, accounts, [[2, "discard", None]])
        db.rollback_to_savepoint(txn, "sp1")
        insert_rows(txn, accounts, [[3, "after", None]])
        db.commit(txn)
        ids = sorted(row["id"] for _, row in seq_scan(accounts))
        assert ids == [1, 3]

    def test_nested_savepoints(self, db, accounts):
        txn = db.begin()
        insert_rows(txn, accounts, [[1, "a", None]])
        db.savepoint(txn, "outer")
        insert_rows(txn, accounts, [[2, "b", None]])
        db.savepoint(txn, "inner")
        insert_rows(txn, accounts, [[3, "c", None]])
        db.rollback_to_savepoint(txn, "outer")
        # inner is invalidated by rolling back past it
        with pytest.raises(SavepointError):
            db.rollback_to_savepoint(txn, "inner")
        db.commit(txn)
        assert sorted(row["id"] for _, row in seq_scan(accounts)) == [1]

    def test_missing_savepoint(self, db, accounts):
        txn = db.begin()
        with pytest.raises(SavepointError):
            db.rollback_to_savepoint(txn, "nope")
        db.rollback(txn)

    def test_commit_after_rollback_fails(self, db):
        txn = db.begin()
        db.rollback(txn)
        with pytest.raises(TransactionError):
            db.commit(txn)

    def test_dml_on_finished_transaction_fails(self, db, accounts):
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionError):
            insert_rows(txn, accounts, [[1, "x", None]])


class TestLockManager:
    def test_shared_locks_compatible(self):
        locks = LockManager()
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(2, 10, LockMode.SHARED)

    def test_exclusive_conflicts(self):
        locks = LockManager()
        locks.acquire(1, 10, LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            locks.acquire(2, 10, LockMode.SHARED)
        with pytest.raises(LockError):
            locks.acquire(2, 10, LockMode.EXCLUSIVE)

    def test_reentrant_and_upgrade(self):
        locks = LockManager()
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(1, 10, LockMode.EXCLUSIVE)  # upgrade, sole holder
        assert (10, LockMode.EXCLUSIVE) in locks.locks_held(1)

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager()
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(2, 10, LockMode.SHARED)
        with pytest.raises(LockError):
            locks.acquire(1, 10, LockMode.EXCLUSIVE)

    def test_release_all(self):
        locks = LockManager()
        locks.acquire(1, 10, LockMode.EXCLUSIVE)
        locks.release_all(1)
        locks.acquire(2, 10, LockMode.EXCLUSIVE)


class TestOperators:
    def seed(self, db, accounts):
        txn = db.begin()
        insert_rows(
            txn, accounts,
            [[i, f"user{i % 3}", f"{i * 10}.00"] for i in range(1, 10)],
        )
        db.commit(txn)

    def test_filter_and_sort(self, db, accounts):
        self.seed(db, accounts)
        big = (
            row for _, row in
            access_path(accounts, BinaryOp(">", ColumnRef("id"), Literal(6)))
        )
        ordered = list(sort_rows(big, [("id", True)]))
        assert [r["id"] for r in ordered] == [9, 8, 7]

    def test_limit(self, db, accounts):
        self.seed(db, accounts)
        rows = (row for _, row in seq_scan(accounts))
        assert len(list(limit_rows(rows, 4))) == 4

    def test_aggregate_group_by(self, db, accounts):
        self.seed(db, accounts)
        rows = (row for _, row in seq_scan(accounts))
        summary = {
            r["name"]: r["n"]
            for r in aggregate(rows, ["name"], [("n", "COUNT", None)])
        }
        assert summary == {"user0": 3, "user1": 3, "user2": 3}

    def test_aggregate_global_over_empty(self, db, accounts):
        rows = iter([])
        (summary,) = aggregate(rows, [], [("n", "COUNT", None), ("s", "SUM", "id")])
        assert summary == {"n": 0, "s": None}

    def test_pk_seek_operator(self, db, accounts):
        self.seed(db, accounts)
        hits = list(pk_seek(accounts, [5]))
        assert len(hits) == 1 and hits[0][1]["id"] == 5
        assert list(pk_seek(accounts, [99])) == []
