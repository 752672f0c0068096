"""Crash recovery, checkpointing and WAL behaviour."""

import os

import pytest

from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expressions import eq
from repro.engine.operators import delete_rows, insert_rows, seq_scan, update_rows
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.engine.wal import WalRecord, WalWriter, read_wal
from repro.errors import TransactionError


def make_schema(name="items"):
    return TableSchema(
        name,
        [Column("id", INT, nullable=False), Column("label", VARCHAR(50))],
        primary_key=["id"],
        indexes=[IndexDefinition("ix_label", ("label",))],
    )


def open_db(path):
    return Database.open(str(path), clock=LogicalClock())


class TestWal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.close()
        records = list(read_wal(path))
        assert [r.kind for r in records] == ["BEGIN", "COMMIT"]
        assert records[0].payload["tid"] == 1

    def test_torn_tail_discarded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1}))
        writer.close()
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x00\xffgarbage")  # torn frame
        records = list(read_wal(path))
        assert [r.kind for r in records] == ["BEGIN", "COMMIT"]

    def test_corrupted_crc_stops_reading(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1}))
        writer.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size - 3)
            f.write(b"X")
        assert [r.kind for r in read_wal(path)] == ["BEGIN"]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_wal(str(tmp_path / "absent.log"))) == []


class TestCleanRestart:
    def test_data_survives_close_and_open(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.close()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert sorted(r["label"] for _, r in seq_scan(table2)) == ["alpha", "beta"]
        assert table2.seek([2]) is not None

    def test_next_tid_monotonic_across_restart(self, tmp_path):
        db = open_db(tmp_path / "db")
        db.create_table(make_schema())
        txn = db.begin()
        first_tid = txn.tid
        db.commit(txn)
        db.close()
        db2 = open_db(tmp_path / "db")
        txn2 = db2.begin()
        assert txn2.tid > first_tid
        db2.rollback(txn2)

    def test_nonclustered_index_loaded_from_its_own_storage(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"]])
        db.commit(txn)
        db.close()
        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        index = table2.nonclustered["ix_label"]
        assert index.heap.record_count() == 1
        hits = list(table2.seek_index("ix_label", ["alpha"]))
        assert len(hits) == 1


class TestCrashRecovery:
    def test_committed_transactions_redone(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert sorted(r["label"] for _, r in seq_scan(table2)) == ["alpha", "beta"]

    def test_uncommitted_transactions_lost(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "committed"]])
        db.commit(txn)
        loser = db.begin()
        insert_rows(loser, table, [[2, "uncommitted"]])
        db.simulate_crash()  # loser never committed

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        labels = [r["label"] for _, r in seq_scan(table2)]
        assert labels == ["committed"]

    def test_updates_and_deletes_redone(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "old"], [2, "gone"]])
        db.commit(txn)
        txn = db.begin()
        update_rows(txn, table, {"label": "new"}, eq("id", 1))
        delete_rows(txn, table, eq("id", 2))
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        rows = [(r["id"], r["label"]) for _, r in seq_scan(table2)]
        assert rows == [(1, "new")]

    def test_recovery_after_checkpoint_plus_more_work(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[i, f"pre{i}"] for i in range(5)])
        db.commit(txn)
        db.checkpoint()
        txn = db.begin()
        insert_rows(txn, table, [[i, f"post{i}"] for i in range(5, 8)])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert table2.row_count() == 8
        assert table2.seek([7]) is not None

    def test_indexes_rebuilt_after_crash(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert len(list(table2.seek_index("ix_label", ["beta"]))) == 1
        assert table2.seek([1]) is not None

    def test_crash_elsewhere_does_not_heal_a_tampered_index(self, tmp_path):
        """Only tables with a redone record rebuild their indexes; the rest
        load the persisted images as a clean restart would, so verification
        still sees index tampering after a crash in an unrelated table."""
        from repro.attacks import tamper_nonclustered_index
        from repro.core.ledger_database import LedgerDatabase
        from repro.sql import SqlSession

        def index_findings(db):
            report = db.verify([db.generate_digest()])
            return [f for f in report.errors if f.invariant == "index"]

        path = str(tmp_path / "ledger")
        db = LedgerDatabase.open(path)
        session = SqlSession(db)
        session.execute(
            "CREATE TABLE a (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)"
        )
        session.execute("CREATE INDEX ix_v ON a (v)")
        session.execute(
            "CREATE TABLE b (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)"
        )
        session.execute("INSERT INTO a (id, v) VALUES (1, 10), (2, 20)")
        db.checkpoint()
        tamper_nonclustered_index(
            db.ledger_table("a"), "ix_v", lambda r: r["id"] == 2, "v", 99
        )
        db.checkpoint()
        session.execute("INSERT INTO b (id, v) VALUES (1, 1)")
        db.simulate_crash()

        recovered = LedgerDatabase.open(path)
        try:
            assert len(index_findings(recovered)) == 1
            assert not recovered.verify([recovered.generate_digest()]).ok
        finally:
            recovered.close()
        # ... and it is what a clean close + reopen of the same files reports.
        reopened = LedgerDatabase.open(path)
        try:
            assert len(index_findings(reopened)) == 1
        finally:
            reopened.close()

    def test_index_created_after_checkpoint_rebuilt_without_redo(self, tmp_path):
        """An index with no persisted image is rebuilt from its base table
        even when no record of that table was redone."""
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema().without_index("ix_label"))
        other = db.create_table(make_schema("other"))
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.checkpoint()
        db.create_index("items", IndexDefinition("ix_late", ("label",)))
        txn = db.begin()
        insert_rows(txn, other, [[1, "x"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert table2.nonclustered["ix_late"].heap.record_count() == 2
        assert len(list(table2.seek_index("ix_late", ["beta"]))) == 1

    def test_ddl_after_checkpoint_recovered(self, tmp_path):
        db = open_db(tmp_path / "db")
        db.create_table(make_schema("first"))
        db.checkpoint()
        table = db.create_table(make_schema("second"))
        txn = db.begin()
        insert_rows(txn, table, [[1, "x"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        assert db2.has_table("first")
        assert db2.has_table("second")
        assert db2.table("second").row_count() == 1

    def test_dropped_table_stays_dropped(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema("victim"))
        txn = db.begin()
        insert_rows(txn, table, [[1, "x"]])
        db.commit(txn)
        db.checkpoint()
        db.drop_table_physical("victim")
        db.simulate_crash()
        db2 = open_db(tmp_path / "db")
        assert not db2.has_table("victim")

    def test_double_crash_recovery_is_stable(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"]])
        db.commit(txn)
        db.simulate_crash()
        db2 = open_db(tmp_path / "db")
        db2.simulate_crash()  # crash again without any new work
        db3 = open_db(tmp_path / "db")
        assert db3.table("items").row_count() == 1


class TestCheckpoint:
    def test_checkpoint_requires_quiescence(self, tmp_path):
        db = open_db(tmp_path / "db")
        db.create_table(make_schema())
        txn = db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.rollback(txn)
        db.checkpoint()

    def test_checkpoint_truncates_wal(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[i, "x" * 40] for i in range(50)])
        db.commit(txn)
        old_wal = db._wal_path(0)
        assert os.path.getsize(old_wal) > 0
        db.checkpoint()
        assert not os.path.exists(old_wal)
        assert os.path.exists(db._wal_path(1))

    def test_repeated_checkpoints(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        for round_number in range(3):
            txn = db.begin()
            insert_rows(txn, table, [[round_number, f"r{round_number}"]])
            db.commit(txn)
            db.checkpoint()
        db.simulate_crash()
        db2 = open_db(tmp_path / "db")
        assert db2.table("items").row_count() == 3
