"""Ledger truncation (§5.2): bounded retention with preserved verifiability."""

import pytest

from repro.engine.expressions import eq
from repro.errors import TruncationError

from tests.core.conftest import run


def build_history(db, rounds=10):
    """Commit enough transactions to close several blocks (block size 4)."""
    for i in range(rounds):
        run(db, "app", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
    run(db, "app", lambda t: db.update(
        t, "accounts", {"balance": 999}, eq("name", "u0")))
    run(db, "app", lambda t: db.delete(t, "accounts", eq("name", "u1")))
    db.generate_digest()


class TestTruncation:
    def test_truncate_removes_old_blocks_and_verifies(self, db, accounts):
        build_history(db)
        blocks_before = db.ledger.blocks()
        assert len(blocks_before) >= 3
        cut = blocks_before[0].block_id
        summary = db.truncate_ledger(cut, note="retention policy")
        assert summary["blocks_removed"] >= 1
        assert db.ledger.first_block_id() == cut + 1
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()

    def test_live_rows_survive_and_reanchor(self, db, accounts):
        build_history(db)
        rows_before = {r["name"]: r["balance"] for r in db.select("accounts")}
        cut = db.ledger.blocks()[1].block_id
        summary = db.truncate_ledger(cut)
        assert summary["live_rows_reanchored"] > 0
        rows_after = {r["name"]: r["balance"] for r in db.select("accounts")}
        assert rows_after == rows_before
        assert db.verify([db.generate_digest()]).ok

    def test_tampering_after_truncation_still_detected(self, db, accounts):
        build_history(db)
        cut = db.ledger.blocks()[0].block_id
        db.truncate_ledger(cut)
        digest = db.generate_digest()
        from repro.attacks import rewrite_row_value

        rewrite_row_value(
            db.ledger_table("accounts"),
            lambda r: r["name"] == "u5", "balance", 123_456,
        )
        report = db.verify([digest])
        assert not report.ok

    def test_old_digest_warns_after_truncation(self, db, accounts):
        build_history(db)
        old_digest = db.generate_digest()
        # Advance past the old digest's block, then truncate it away.
        for i in range(8):
            run(db, "app", lambda t, i=i: db.insert(
                t, "accounts", [[f"extra{i}", i]]))
        db.generate_digest()
        db.truncate_ledger(old_digest.block_id)
        report = db.verify([old_digest, db.generate_digest()])
        assert report.ok  # warnings do not fail verification
        assert any("truncated" in w.message for w in report.warnings)

    def test_truncation_event_recorded_in_ledger(self, db, accounts):
        build_history(db)
        cut = db.ledger.blocks()[0].block_id
        db.truncate_ledger(cut, note="audit window closed")
        from repro.core.ledger_database import TRUNCATIONS_TABLE

        records = db.select(TRUNCATIONS_TABLE)
        assert len(records) == 1
        assert records[0]["truncated_through_block"] == cut
        assert records[0]["note"] == "audit window closed"

    def test_cannot_truncate_latest_block(self, db, accounts):
        build_history(db)
        latest = db.ledger.latest_block()
        with pytest.raises(TruncationError):
            db.truncate_ledger(latest.block_id)

    def test_cannot_truncate_missing_block(self, db, accounts):
        build_history(db)
        with pytest.raises(TruncationError):
            db.truncate_ledger(999)

    def test_truncation_refuses_tampered_ledger(self, db, accounts):
        build_history(db)
        from repro.attacks import rewrite_row_value

        rewrite_row_value(
            db.ledger_table("accounts"), lambda r: r["name"] == "u5",
            "balance", 1,
        )
        cut = db.ledger.blocks()[0].block_id
        with pytest.raises(TruncationError):
            db.truncate_ledger(cut)

    def test_repeated_truncation(self, db, accounts):
        build_history(db, rounds=14)
        first_cut = db.ledger.blocks()[0].block_id
        db.truncate_ledger(first_cut)
        for i in range(8):
            run(db, "app", lambda t, i=i: db.insert(
                t, "accounts", [[f"more{i}", i]]))
        db.generate_digest()
        second_cut = db.ledger.blocks()[0].block_id
        db.truncate_ledger(second_cut)
        assert db.ledger.first_block_id() == second_cut + 1
        assert db.verify([db.generate_digest()]).ok

    def test_anchor_survives_restart(self, db, accounts, tmp_path):
        build_history(db)
        cut = db.ledger.blocks()[0].block_id
        db.truncate_ledger(cut)
        db.close()
        from repro.core.ledger_database import LedgerDatabase
        from repro.engine.clock import LogicalClock

        db2 = LedgerDatabase.open(db.engine.path, clock=LogicalClock())
        assert db2.ledger.first_block_id() == cut + 1
        assert db2.verify([db2.generate_digest()]).ok

    def test_crash_before_next_checkpoint_reopens_verifiable(self, tmp_path):
        """Truncated entries still sit in the WAL's COMMIT records until the
        next checkpoint; recovery must not re-enqueue them."""
        from repro.core.ledger_database import LedgerDatabase

        path = str(tmp_path / "crashdb")
        db = LedgerDatabase.open(path, block_size=2)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        for i in range(10):
            db.sql(f"INSERT INTO t (id) VALUES ({i})")
        db.generate_digest()
        db.truncate_ledger(2)
        db.simulate_crash()

        reopened = LedgerDatabase.open(path)
        try:
            assert reopened.ledger.first_block_id() == 3
            assert all(
                e.block_id >= 3 for e in reopened.ledger.all_entries()
            )
            report = reopened.verify([reopened.generate_digest()])
            assert report.ok, [str(f) for f in report.errors]
            assert [r["id"] for r in reopened.select("t")] == list(range(10))
        finally:
            reopened.close()
