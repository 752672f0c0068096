"""Incremental verification: checkpoint lifecycle, fallbacks and safety.

An incremental cycle trusts the checkpoint only as a *work bound*: the
chained block hashes, block roots and every entry are still re-checked
every cycle; the row versions of new transactions are re-hashed and their
roots compared; the rest of each table is counted — records the delta did
not locate, from the page headers — against the checkpoint's leaf count.
The checkpoint is an object this process built from a passing run, never
a file; its recorded block hash and ``max_tid`` are still cross-checked
against storage, and any inconsistency falls back to — or escalates into
— a full scan.  Tampering that an incremental cycle defers (same-count
rewrites of pre-checkpoint rows, index edits) must be caught by the
deep-scan cadence.  What the delta reads, and that
every attack gets the verdict it got before the delta existed, is pinned
in ``test_verify_delta.py``.
"""

import json
import os
import threading

import pytest

from repro.attacks import (
    delete_history_row,
    fork_block,
    rewrite_row_value,
    tamper_nonclustered_index,
    tamper_transaction_entry,
    tamper_view_definition,
)
from repro.core.ledger_database import LedgerDatabase
from repro.core.verification import LedgerVerifier
from repro.crypto.hashing import sha256, to_hex
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq
from repro.engine.schema import IndexDefinition
from repro.obs.monitor import ContinuousVerifier

from tests.core.conftest import accounts_schema, run


@pytest.fixture
def seeded(db, accounts):
    """Several closed blocks with history, plus a trusted digest."""
    for i in range(8):
        run(db, "alice", lambda t, i=i: db.insert(
            t, "accounts", [[f"u{i}", i * 10]]))
    run(db, "bob", lambda t: db.update(
        t, "accounts", {"balance": 1}, eq("name", "u0")))
    return db.generate_digest()


def build_checkpoint(db, digests):
    report = db.verify(digests, build_checkpoint=True)
    assert report.ok, report.summary()
    assert report.built_checkpoint is not None
    return report.built_checkpoint


def commit_delta(db, start, count=3):
    for i in range(start, start + count):
        run(db, "carol", lambda t, i=i: db.insert(
            t, "accounts", [[f"delta{i}", i]]))
    return db.generate_digest()


def findings_by_invariant(report):
    return {f.invariant for f in report.errors}


class TestCheckpointLifecycle:
    def test_full_passing_run_builds_checkpoint(self, db, seeded):
        checkpoint = build_checkpoint(db, [seeded])
        assert checkpoint.database_guid == db.database_guid
        assert checkpoint.block_id == max(
            b.block_id for b in db.ledger.blocks()
        )
        assert checkpoint.max_tid > 0
        # Every transaction is in a closed block after the digest, so each
        # table's count is one leaf per live row and two per history row.
        tables = db.ledger_tables()
        assert set(checkpoint.tables) == {t.table_id for t in tables}
        for table in tables:
            history = db.history_table(table.name)
            assert checkpoint.tables[table.table_id] == table.row_count() + (
                2 * history.row_count() if history is not None else 0
            ), table.name

    def test_not_built_unless_requested(self, db, seeded):
        assert db.verify([seeded]).built_checkpoint is None

    def test_not_built_on_failure(self, db, seeded, accounts):
        rewrite_row_value(accounts, lambda r: r["name"] == "u1",
                          "balance", 666)
        report = db.verify([seeded], build_checkpoint=True)
        assert not report.ok
        assert report.built_checkpoint is None


class TestIncrementalCycles:
    def test_clean_delta_passes_incrementally(self, db, seeded):
        checkpoint = build_checkpoint(db, [seeded])
        second = commit_delta(db, 0)
        report = db.verify(
            [seeded, second], mode="incremental", checkpoint=checkpoint
        )
        assert report.ok, report.summary()
        assert report.mode == "incremental"
        assert report.skipped_invariants == ["index"]
        assert not report.escalated
        assert report.fallback_reason is None

    def test_unknown_mode_rejected(self, db, seeded):
        with pytest.raises(ValueError):
            db.verify([seeded], mode="sideways")

    def test_delta_row_tamper_detected(self, db, seeded, accounts):
        checkpoint = build_checkpoint(db, [seeded])
        second = commit_delta(db, 0)
        rewrite_row_value(accounts, lambda r: r["name"] == "delta0",
                          "balance", 424242)
        report = db.verify(
            [seeded, second], mode="incremental", checkpoint=checkpoint
        )
        assert not report.ok
        assert "table_root" in findings_by_invariant(report)

    def test_pre_checkpoint_erasure_escalates(self, db, seeded, accounts):
        checkpoint = build_checkpoint(db, [seeded])
        second = commit_delta(db, 0)
        history = db.history_table("accounts")
        delete_history_row(accounts, history, lambda r: r["name"] == "u0")
        report = db.verify(
            [seeded, second], mode="incremental", checkpoint=checkpoint
        )
        assert not report.ok
        assert report.escalated
        assert report.mode == "full"
        assert report.findings[0].severity == "warning"

    def test_pre_checkpoint_block_fork_detected(self, db, seeded):
        checkpoint = build_checkpoint(db, [seeded])
        second = commit_delta(db, 0)
        fork_block(db, db.ledger.blocks()[0].block_id)
        report = db.verify(
            [seeded, second], mode="incremental", checkpoint=checkpoint
        )
        assert not report.ok
        assert findings_by_invariant(report) & {"chain", "digest"}

    def test_pre_checkpoint_entry_tamper_detected(self, db, seeded,
                                                  accounts):
        checkpoint = build_checkpoint(db, [seeded])
        second = commit_delta(db, 0)
        entry_tid = db.ledger.all_entries()[0].transaction_id
        tamper_transaction_entry(db, entry_tid, "innocent_user")
        report = db.verify(
            [seeded, second], mode="incremental", checkpoint=checkpoint
        )
        assert not report.ok
        assert "block_root" in findings_by_invariant(report)

    def test_view_tamper_detected(self, db, seeded):
        checkpoint = build_checkpoint(db, [seeded])
        tamper_view_definition(
            db, "accounts_ledger",
            "CREATE VIEW accounts_ledger AS SELECT * FROM accounts "
            "WHERE 1=0",
        )
        report = db.verify(
            [seeded], mode="incremental", checkpoint=checkpoint
        )
        assert not report.ok
        assert "view" in findings_by_invariant(report)

    def test_same_count_rewrite_deferred_to_deep_scan(self, db, seeded,
                                                      accounts):
        """The documented trust boundary: a same-count byte rewrite of
        pre-checkpoint data survives the incremental cycle and must be
        caught by the next deep (full) scan."""
        checkpoint = build_checkpoint(db, [seeded])
        second = commit_delta(db, 0)
        rewrite_row_value(accounts, lambda r: r["name"] == "u5",
                          "balance", 31337)
        incremental = db.verify(
            [seeded, second], mode="incremental", checkpoint=checkpoint
        )
        assert incremental.mode == "incremental"
        deep = db.verify([seeded, second])
        assert not deep.ok
        assert "table_root" in findings_by_invariant(deep)

    def test_index_tamper_deferred_to_deep_scan(self, db):
        schema = accounts_schema("indexed").with_index(
            IndexDefinition("ix_balance", ("balance",))
        )
        table = db.create_ledger_table(schema)
        for i in range(6):
            run(db, "a", lambda t, i=i: db.insert(
                t, "indexed", [[f"k{i}", i]]))
        digest = db.generate_digest()
        checkpoint = build_checkpoint(db, [digest])
        tamper_nonclustered_index(
            table, "ix_balance", lambda r: r["name"] == "k1", "balance", 9
        )
        incremental = db.verify(
            [digest], mode="incremental", checkpoint=checkpoint
        )
        assert "index" in incremental.skipped_invariants
        deep = db.verify([digest])
        assert not deep.ok
        assert "index" in findings_by_invariant(deep)


class TestCheckpointFallbacks:
    def test_missing_checkpoint_runs_full(self, db, seeded):
        report = db.verify([seeded], mode="incremental", checkpoint=None)
        assert report.ok
        assert report.mode == "full"
        assert report.fallback_reason is not None

    def test_foreign_database_guid(self, db, seeded):
        checkpoint = build_checkpoint(db, [seeded])
        checkpoint.database_guid = "0000-not-this-database"
        report = db.verify(
            [seeded], mode="incremental", checkpoint=checkpoint
        )
        assert report.mode == "full"
        assert "different database" in report.fallback_reason

    def test_unknown_checkpoint_block(self, db, seeded):
        checkpoint = build_checkpoint(db, [seeded])
        checkpoint.block_id = 9_999
        report = db.verify(
            [seeded], mode="incremental", checkpoint=checkpoint
        )
        assert report.mode == "full"
        assert report.fallback_reason is not None

    def test_checkpoint_block_hash_mismatch(self, db, seeded):
        """A forged checkpoint pointing at a rewritten block must not be
        trusted: the recomputed block hash wins and forces a full scan."""
        checkpoint = build_checkpoint(db, [seeded])
        checkpoint.block_hash = bytes(32)
        report = db.verify(
            [seeded], mode="incremental", checkpoint=checkpoint
        )
        assert report.mode == "full"
        assert report.fallback_reason is not None

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_max_tid_is_not_the_chains(self, db, seeded, shift):
        """``max_tid`` must be the last transaction in the checkpoint's
        blocks; one above would skip new transactions' roots."""
        checkpoint = build_checkpoint(db, [seeded])
        checkpoint.max_tid += shift
        report = db.verify(
            [seeded], mode="incremental", checkpoint=checkpoint
        )
        assert report.ok and report.mode == "full"
        assert "checkpoint transaction" in report.fallback_reason


    def test_truncation_since_the_checkpoint_falls_back_quietly(
        self, tmp_path
    ):
        """A truncation below a held checkpoint's block removes row
        versions its leaf counts include: the next cycle runs full with no
        warning instead of escalating over a count it cannot match."""
        db = LedgerDatabase.open(
            str(tmp_path / "truncated"), block_size=2, clock=LogicalClock()
        )
        try:
            db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT) "
                   "WITH (LEDGER = ON)")
            for i in range(12):
                db.sql(f"INSERT INTO t VALUES ({i}, {i})")
            for i in range(6):
                db.sql(f"UPDATE t SET v = {100 + i} WHERE id = {i}")
            checkpoint = build_checkpoint(db, [db.generate_digest()])
            assert checkpoint.block_id == 9
            db.truncate_ledger(2)
            for i in range(4):
                db.sql(f"INSERT INTO t VALUES ({100 + i}, 0)")
            report = db.verify(
                [db.generate_digest()], mode="incremental",
                checkpoint=checkpoint,
            )
            assert report.ok and report.mode == "full"
            assert not report.escalated
            assert report.findings == []
            assert report.fallback_reason == (
                "ledger truncated since the checkpoint")
        finally:
            db.close()


class TestIncrementalMonitor:
    def quiet(self, db, **kwargs):
        kwargs.setdefault("interval", 999.0)
        return ContinuousVerifier(db, **kwargs)

    def test_deep_scan_cadence(self, db, seeded):
        monitor = self.quiet(db, deep_scan_every=3)
        # Cycle 1: no checkpoint yet -> a full scan, which builds the first
        # checkpoint and keeps it in memory.
        assert monitor.run_cycle() == "passed"
        assert monitor.last_mode == "full"
        assert monitor.deep_scans == 1
        assert monitor.checkpoint_block >= 0
        # Cycles 2-3 ride the checkpoint.
        assert monitor.run_cycle() == "passed"
        assert monitor.last_mode == "incremental"
        assert monitor.run_cycle() == "passed"
        assert monitor.last_mode == "incremental"
        # Cycle 4 is the deep scan.
        assert monitor.run_cycle() == "passed"
        assert monitor.last_mode == "full"
        assert monitor.deep_scans == 2
        status = monitor.status()
        assert "incremental" not in status
        assert status["deep_scan_every"] == 3
        assert status["last_mode"] == "full"

    def test_every_cycle_is_full_by_default(self, db, seeded):
        monitor = self.quiet(db)
        assert monitor.deep_scan_every == 1
        for _ in range(3):
            assert monitor.run_cycle() == "passed"
            assert monitor.last_mode == "full"
        assert monitor.checkpoint_block == -1

    def test_checkpoint_advances_with_commits(self, db, seeded):
        monitor = self.quiet(db, deep_scan_every=10)
        assert monitor.run_cycle() == "passed"
        first = monitor.checkpoint_block
        commit_delta(db, 0, count=6)
        assert monitor.run_cycle() == "passed"
        assert monitor.last_mode == "incremental"
        assert monitor.checkpoint_block > first

    def test_deep_scan_catches_deferred_rewrite(self, db, seeded, accounts):
        monitor = self.quiet(db, deep_scan_every=2)
        assert monitor.run_cycle() == "passed"  # deep, builds checkpoint
        rewrite_row_value(accounts, lambda r: r["name"] == "u4",
                          "balance", 31337)
        outcomes = [monitor.run_cycle() for _ in range(2)]
        assert "failed" in outcomes, outcomes
        assert not monitor.healthy

    def test_failed_cycle_drops_the_checkpoint(self, db, seeded, accounts):
        """Once a deep scan fails, the next cycle must not resume from the
        checkpoint built before the tampering: an incremental cycle would
        count the rewritten row as verified prefix and turn the monitor
        healthy again."""
        monitor = self.quiet(db, deep_scan_every=3)
        assert monitor.run_cycle() == "passed"
        rewrite_row_value(accounts, lambda r: r["name"] == "u4",
                          "balance", 31337)
        for _ in range(2):  # deferred to the deep scan
            assert monitor.run_cycle() == "passed"
            assert monitor.last_mode == "incremental"
        assert monitor.run_cycle() == "failed"
        assert monitor.checkpoint_block == -1
        assert monitor.run_cycle() == "failed"
        assert monitor.last_mode == "full"
        assert not monitor.healthy

    def test_planted_checkpoint_file_is_not_read(self, db, seeded,
                                                 accounts):
        """Someone who can write the database directory closes the block
        past the monitor's checkpoint and plants an honest checkpoint of
        it where, and as, monitors used to keep theirs: format 2 with its
        unkeyed integrity hash.  A monitor that read it would treat the
        three new transactions as verified prefix and pass a rewrite of
        one of their rows; this one compares their roots."""
        monitor = self.quiet(db, deep_scan_every=5)
        assert monitor.run_cycle() == "passed"
        assert monitor.last_mode == "full"
        later = commit_delta(db, 0)  # closes the block the forger names
        forged = build_checkpoint(db, [seeded, later])
        assert forged.block_id > monitor.checkpoint_block
        payload = {
            "version": 2,
            "database_guid": forged.database_guid,
            "block_id": forged.block_id,
            "block_hash": forged.block_hash.hex(),
            "max_tid": forged.max_tid,
            "tables": {str(k): v for k, v in sorted(forged.tables.items())},
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        planted = os.path.join(db.engine.path, "verify_checkpoint.json")
        with open(planted, "w", encoding="utf-8") as fh:
            json.dump({"checkpoint": payload,
                       "integrity": to_hex(sha256(canonical.encode()))}, fh)
        rewrite_row_value(accounts, lambda r: r["name"] == "delta1",
                          "balance", 666)
        assert monitor.run_cycle() == "failed"
        assert monitor.last_mode == "incremental"
        assert any(f.startswith("[table_root/error]")
                   for f in monitor.last_findings), monitor.last_findings

    def test_commits_proceed_while_cycle_verifies(
        self, db, seeded, monkeypatch
    ):
        """run_cycle holds no lock across verification, so a session can
        commit while a cycle is mid-scan."""
        monitor = self.quiet(db)
        entered = threading.Event()
        release = threading.Event()
        check_chain = LedgerVerifier._check_chain

        def blocking_check_chain(self, *args):
            entered.set()
            assert release.wait(timeout=20), "cycle never released"
            return check_chain(self, *args)

        monkeypatch.setattr(
            LedgerVerifier, "_check_chain", blocking_check_chain
        )
        outcome = []
        cycle = threading.Thread(
            target=lambda: outcome.append(monitor.run_cycle())
        )
        cycle.start()
        try:
            assert entered.wait(timeout=20), "cycle never reached verify"
            assert cycle.is_alive()
            # Commit while the verifier is parked mid-phase.
            run(db, "writer", lambda t: db.insert(
                t, "accounts", [["mid-cycle", 1]]))
        finally:
            release.set()
            cycle.join(timeout=30)
        assert not cycle.is_alive()
        assert outcome == ["passed"]
        assert db.engine.table("accounts").seek(["mid-cycle"])
