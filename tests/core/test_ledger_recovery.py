"""Ledger atomicity/durability across crashes and restarts (§3.3.2)."""

import shutil

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq

from tests.core.conftest import accounts_schema, run


def reopen(db, **kwargs):
    path = db.engine.path
    return LedgerDatabase.open(path, clock=LogicalClock(), **kwargs)


class TestCleanRestart:
    def test_ledger_state_survives_close(self, db, accounts, tmp_path):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        digest = db.generate_digest()
        db.close()
        db2 = reopen(db)
        report = db2.verify([digest])
        assert report.ok, report.summary()
        assert db2.select("accounts") == [{"name": "Nick", "balance": 1}]

    def test_block_size_persisted(self, db, accounts):
        db.close()
        db2 = reopen(db)
        assert db2.ledger.block_size == 4

    def test_guid_and_create_time_stable(self, db, accounts):
        guid = db.database_guid
        created = db.database_create_time
        db.close()
        db2 = reopen(db)
        assert db2.database_guid == guid
        assert db2.database_create_time == created


class TestCrashRecovery:
    def test_queue_reconstructed_from_commit_records(self, db, accounts):
        txn = run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        assert db.ledger.pending_entries > 0
        db.simulate_crash()
        db2 = reopen(db)
        entry = db2.ledger.transaction_entry(txn.tid)
        assert entry is not None
        assert entry.username == "a"
        report = db2.verify([db2.generate_digest()])
        assert report.ok, report.summary()

    def test_no_duplicate_entries_after_checkpoint_crash(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        db.checkpoint()  # drains the queue into the system table
        run(db, "a", lambda t: db.insert(t, "accounts", [["Mary", 2]]))
        db.simulate_crash()
        db2 = reopen(db)
        entries = db2.ledger.all_entries()
        tids = [e.transaction_id for e in entries]
        assert len(tids) == len(set(tids))
        assert db2.verify([db2.generate_digest()]).ok

    def test_uncommitted_ledger_work_vanishes(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["kept", 1]]))
        txn = db.begin("a")
        db.insert(txn, "accounts", [["lost", 2]])
        db.simulate_crash()  # never committed
        db2 = reopen(db)
        names = [r["name"] for r in db2.select("accounts")]
        assert names == ["kept"]
        assert db2.verify([db2.generate_digest()]).ok

    def test_digest_before_crash_still_verifies_after(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        digest = db.generate_digest()
        run(db, "a", lambda t: db.update(
            t, "accounts", {"balance": 9}, eq("name", "Nick")))
        db.simulate_crash()
        db2 = reopen(db)
        report = db2.verify([digest, db2.generate_digest()])
        assert report.ok, report.summary()

    def test_block_counters_resume_correctly(self, db, accounts):
        for i in range(6):  # crosses a block boundary at size 4
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        open_block = db.ledger.open_block_id
        db.simulate_crash()
        db2 = reopen(db)
        assert db2.ledger.open_block_id == open_block
        # New work continues the chain without ordinal collisions.
        for i in range(6):
            run(db2, "a", lambda t, i=i: db2.insert(
                t, "accounts", [[f"v{i}", i]]))
        assert db2.verify([db2.generate_digest()]).ok

    def test_crash_between_digests_keeps_chain_derivable(self, db, accounts):
        from repro.core.digest import verify_digest_chain

        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        old = db.generate_digest()
        db.simulate_crash()
        db2 = reopen(db)
        run(db2, "a", lambda t: db2.insert(t, "accounts", [["Mary", 2]]))
        new = db2.generate_digest()
        headers = db2.block_headers(old.block_id + 1, new.block_id)
        assert verify_digest_chain(old, new, headers)

    def test_double_crash(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        db.simulate_crash()
        db2 = reopen(db)
        run(db2, "a", lambda t: db2.insert(t, "accounts", [["Mary", 2]]))
        db2.simulate_crash()
        db3 = reopen(db2)
        assert len(db3.select("accounts")) == 2
        assert db3.verify([db3.generate_digest()]).ok


class TestBackupRestore:
    def test_backup_checkpoints_and_copies_under_storage_lock(
        self, db, accounts, tmp_path, monkeypatch
    ):
        """No commit or block closure may write a page or a WAL frame
        while a backup checkpoints and copies the directory."""
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        owned = []
        checkpoint, copytree = db.engine.checkpoint, shutil.copytree

        def spy(name, call):
            def spied(*args, **kwargs):
                owned.append((name, db.ledger.storage_lock._is_owned()))
                return call(*args, **kwargs)
            return spied

        monkeypatch.setattr(db.engine, "checkpoint", spy("checkpoint", checkpoint))
        monkeypatch.setattr(shutil, "copytree", spy("copytree", copytree))
        db.backup(str(tmp_path / "backup"))
        assert owned == [("checkpoint", True), ("copytree", True)]

    def test_backup_restore_new_incarnation(self, db, accounts, tmp_path):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        digest = db.generate_digest()
        backup_dir = str(tmp_path / "backup")
        db.backup(backup_dir)
        restored = LedgerDatabase.restore_backup(
            backup_dir, str(tmp_path / "restored"), clock=LogicalClock()
        )
        # Same database identity, new incarnation (create time changed).
        assert restored.database_guid == db.database_guid
        assert restored.database_create_time != db.database_create_time
        report = restored.verify([digest])
        assert report.ok, report.summary()

    def test_restored_backup_recovers_pre_tamper_state(self, db, accounts, tmp_path):
        """The §3.7 recovery-from-tampering workflow."""
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 100]]))
        digest = db.generate_digest()
        backup_dir = str(tmp_path / "backup")
        db.backup(backup_dir)
        from repro.attacks import rewrite_row_value

        rewrite_row_value(
            db.ledger_table("accounts"), lambda r: r["name"] == "Nick",
            "balance", 0,
        )
        assert not db.verify([digest]).ok  # tampering detected
        restored = LedgerDatabase.restore_backup(
            backup_dir, str(tmp_path / "restored"), clock=LogicalClock()
        )
        assert restored.verify([digest]).ok  # backup predates the attack
        assert restored.select("accounts") == [{"name": "Nick", "balance": 100}]
