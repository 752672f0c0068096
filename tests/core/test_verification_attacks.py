"""Verification must catch every storage-level attack (§2.5.2, §3.4).

Each test mounts one attack from :mod:`repro.attacks` and asserts that the
corresponding invariant flags it — and that a clean database verifies.
"""

import pytest

from repro.attacks import (
    delete_history_row,
    drop_and_recreate_table,
    fork_block,
    rewrite_chain,
    rewrite_row_value,
    tamper_column_type,
    tamper_nonclustered_index,
    tamper_transaction_entry,
    tamper_view_definition,
)
from repro.digests import DigestManager, ImmutableBlobStorage
from repro.engine.expressions import eq
from repro.engine.schema import IndexDefinition
from repro.engine.types import SMALLINT
from repro.errors import VerificationFailedError
from repro.obs import OBS
from repro.obs.monitor import ContinuousVerifier

from tests.core.conftest import accounts_schema, run


@pytest.fixture
def seeded(db, accounts):
    """Accounts with an update (so history exists) and a trusted digest."""
    run(db, "alice", lambda t: db.insert(
        t, "accounts", [["Nick", 100], ["John", 500], ["Mary", 200]]))
    run(db, "bob", lambda t: db.update(
        t, "accounts", {"balance": 50}, eq("name", "Nick")))
    digest = db.generate_digest()
    return digest


def findings_by_invariant(report):
    return {f.invariant for f in report.errors}


class TestCleanVerification:
    def test_clean_database_passes(self, db, seeded):
        report = db.verify([seeded])
        assert report.ok, report.summary()
        assert report.blocks_verified > 0
        assert report.transactions_verified > 0
        assert report.row_versions_hashed > 0

    def test_multiple_digests_all_verify(self, db, accounts):
        digests = []
        for i in range(3):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
            digests.append(db.generate_digest())
        report = db.verify(digests)
        assert report.ok

    def test_verification_scoped_to_one_table(self, db, seeded):
        report = db.verify([seeded], table_names=["accounts"])
        assert report.ok
        assert report.tables_verified == 1

    def test_raise_if_failed(self, db, seeded, accounts):
        rewrite_row_value(accounts, lambda r: r["name"] == "Nick", "balance", 1)
        report = db.verify([seeded])
        with pytest.raises(VerificationFailedError):
            report.raise_if_failed()


class TestRowTampering:
    def test_live_row_rewrite_detected(self, db, seeded, accounts):
        rewrite_row_value(
            accounts, lambda r: r["name"] == "John", "balance", 999_999
        )
        report = db.verify([seeded])
        assert not report.ok
        assert "table_root" in findings_by_invariant(report)

    def test_history_row_rewrite_detected(self, db, seeded, accounts):
        history = db.history_table("accounts")
        rewrite_row_value(history, lambda r: r["name"] == "Nick", "balance", 0)
        report = db.verify([seeded])
        assert not report.ok
        assert "table_root" in findings_by_invariant(report)

    def test_history_erasure_detected(self, db, seeded, accounts):
        history = db.history_table("accounts")
        delete_history_row(accounts, history, lambda r: r["name"] == "Nick")
        report = db.verify([seeded])
        assert not report.ok

    def test_row_injection_detected(self, db, seeded, accounts):
        # Forge an entire row attributed to a legitimate past transaction.
        entry_tid = db.ledger.all_entries()[-1].transaction_id
        forged = accounts.schema.empty_row()
        forged[accounts.schema.column("name").ordinal] = "Ghost"
        forged[accounts.schema.column("balance").ordinal] = 1
        from repro.core import system_columns as sc

        forged[accounts.schema.column(sc.START_TRANSACTION).ordinal] = entry_tid
        forged[accounts.schema.column(sc.START_SEQUENCE).ordinal] = 99
        accounts.heap.insert(accounts.prepare_row(forged)[1])
        report = db.verify([seeded])
        assert not report.ok

    def test_row_referencing_unknown_transaction_detected(self, db, seeded, accounts):
        from repro.core import system_columns as sc

        forged = accounts.schema.empty_row()
        forged[accounts.schema.column("name").ordinal] = "Ghost"
        forged[accounts.schema.column(sc.START_TRANSACTION).ordinal] = 999_999
        forged[accounts.schema.column(sc.START_SEQUENCE).ordinal] = 0
        accounts.heap.insert(accounts.prepare_row(forged)[1])
        report = db.verify([seeded])
        assert not report.ok
        assert any("not recorded" in f.message for f in report.errors)

    def test_garbage_record_bytes_detected(self, db, seeded, accounts):
        rid = next(iter(accounts.heap.scan()))[0]
        accounts.heap.tamper_record(rid, b"\x00\x04garbage-bytes")
        report = db.verify([seeded])
        assert not report.ok


class TestMetadataTampering:
    def test_column_type_swap_detected(self, db, seeded):
        # Figure 4's attack: reinterpret INT as SMALLINT via catalog edit.
        tamper_column_type(db, "accounts", "balance", SMALLINT)
        report = db.verify([seeded])
        assert not report.ok

    def test_view_definition_tamper_detected(self, db, seeded):
        tamper_view_definition(
            db, "accounts_ledger",
            "CREATE VIEW accounts_ledger AS SELECT * FROM accounts WHERE 1=0",
        )
        report = db.verify([seeded])
        assert not report.ok
        assert "view" in findings_by_invariant(report)


class TestChainTampering:
    def test_transaction_entry_tamper_detected(self, db, seeded, accounts):
        db.ledger.flush_queue()
        entry_tid = db.ledger.all_entries()[-1].transaction_id
        tamper_transaction_entry(db, entry_tid, "innocent_user")
        report = db.verify([seeded])
        assert not report.ok
        assert "block_root" in findings_by_invariant(report)

    def test_block_fork_detected_by_digest_and_chain(self, db, seeded, accounts):
        fork_block(db, seeded.block_id)
        report = db.verify([seeded])
        assert not report.ok
        invariants = findings_by_invariant(report)
        assert "digest" in invariants

    def test_fork_of_interior_block_breaks_chain(self, db, accounts):
        for i in range(9):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        digest = db.generate_digest()
        blocks = db.ledger.blocks()
        assert len(blocks) >= 2
        fork_block(db, blocks[0].block_id)
        report = db.verify([digest])
        assert not report.ok
        assert "chain" in findings_by_invariant(report)

    def test_deleted_block_detected(self, db, accounts):
        for i in range(9):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        digest = db.generate_digest()
        from repro.core.database_ledger import BLOCKS_TABLE

        blocks_table = db.engine.table(BLOCKS_TABLE)
        victim = db.ledger.blocks()[0].block_id
        rid = blocks_table.seek([victim])[0]
        blocks_table.heap.tamper_delete(rid)
        report = db.verify([digest])
        assert not report.ok

    @pytest.mark.parametrize("table_name, invariant", [
        ("database_ledger_transactions", "block_root"),
        ("database_ledger_blocks", "chain"),
    ])
    def test_unreadable_system_row_is_reported_not_raised(
        self, db, accounts, table_name, invariant
    ):
        """A structurally damaged entry or block record is a *missing* one:
        verification reports what it breaks instead of dying in the scan,
        and keyed readers return None."""
        for i in range(9):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        digest = db.generate_digest()
        table = db.engine.table(table_name)
        rid, row = next(iter(table.scan()))
        table.heap.tamper_record(rid, b"\x00\x04junk")

        report = db.verify([digest])
        assert not report.ok
        assert invariant in findings_by_invariant(report)
        if table_name == "database_ledger_blocks":
            assert db.ledger.block(row[0]) is None
            assert row[0] not in {b.block_id for b in db.ledger.blocks()}
        else:
            assert db.ledger.transaction_entry(row[0]) is None
            assert row[0] not in {
                e.transaction_id for e in db.ledger.all_entries()
            }
            assert all(
                e.transaction_id != row[0]
                for e in db.ledger.transactions_in_block(row[1])
            )

    def test_sealed_block_that_cannot_chain_is_reported_not_raised(
        self, tmp_path
    ):
        """A sealed block whose predecessor no longer reads stays unclosed,
        and verification reports the unreadable block instead of raising
        out of the snapshot."""
        from repro.core.database_ledger import BLOCKS_TABLE
        from repro.core.ledger_database import LedgerDatabase
        from repro.engine.clock import LogicalClock

        db = LedgerDatabase.open(
            str(tmp_path / "db"), block_size=2, clock=LogicalClock()
        )
        try:
            db.create_ledger_table(accounts_schema())
            for i in range(3):
                run(db, "a", lambda t, i=i: db.insert(
                    t, "accounts", [[f"u{i}", i]]))
            db.pipeline.drain(seal_open=False)
            assert [b.block_id for b in db.ledger.blocks()] == [0, 1]
            blocks_table = db.engine.table(BLOCKS_TABLE)
            blocks_table.heap.tamper_record(
                blocks_table.seek([1])[0], b"\x00\x04junk"
            )
            for i in range(3, 6):
                run(db, "a", lambda t, i=i: db.insert(
                    t, "accounts", [[f"u{i}", i]]))
            sealed = db.ledger.sealed_pending()
            assert sealed > 0

            report = db.verify([])
            assert not report.ok
            assert any(
                f.context.get("block_id") == 1 for f in report.errors
            ), report.summary()
            # The block stays sealed; the commit that filled it recorded
            # the failed close and nothing raised.
            assert db.ledger.sealed_pending() == sealed
            assert db.pipeline.stats()["failed_block"] == 2
        finally:
            db.simulate_crash()


class TestSelfConsistentChainRewrite:
    """:func:`rewrite_chain` recomputes every block hash, so only a digest
    issued before the rewrite can tell the new chain from the old one: the
    verifier here, the monitor and the server (``TestTamperDetected``)."""

    @pytest.fixture
    def chain(self, db, accounts):
        for i in range(9):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        db.pipeline.drain(seal_open=True)
        assert len(db.ledger.blocks()) >= 2
        return db

    def test_rewrite_chain_passes_a_digest_taken_after(self, chain):
        rewrite_chain(chain)
        report = chain.verify([chain.generate_digest()])
        assert report.ok, (
            "a self-consistent rewrite must pass a digest taken after it — "
            "otherwise this drill tests nothing"
        )

    def test_rewrite_chain_fails_a_digest_uploaded_before(self, chain, tmp_path):
        manager = DigestManager(
            chain, ImmutableBlobStorage(str(tmp_path / "blobs"))
        )
        manager.upload_digest()
        rewrite_chain(chain)
        trusted = manager.digests_for_verification()

        report = chain.verify(trusted)
        assert findings_by_invariant(report) == {"digest"}, report.summary()

    def test_rewrite_chain_trips_the_monitor_within_one_cycle(self, chain):
        OBS.reset()
        try:
            monitor = ContinuousVerifier(chain, interval=999.0)
            assert monitor.run_cycle() == "passed"
            rewrite_chain(chain)
            assert monitor.run_cycle() == "failed"
            assert not monitor.healthy
            events = OBS.events.read(category="tamper", name="tamper.detected")
            assert [e.payload["source"] for e in events] == ["verification"]
        finally:
            OBS.reset()
            OBS.disable()


class TestIndexTampering:
    def test_nonclustered_index_tamper_detected(self, db):
        schema = accounts_schema("indexed").with_index(
            IndexDefinition("ix_balance", ("balance",))
        )
        table = db.create_ledger_table(schema)
        run(db, "a", lambda t: db.insert(t, "indexed", [["Nick", 100]]))
        digest = db.generate_digest()
        tamper_nonclustered_index(
            table, "ix_balance", lambda r: r["name"] == "Nick", "balance", 7
        )
        report = db.verify([digest])
        assert not report.ok
        assert "index" in findings_by_invariant(report)

    def test_untampered_index_passes(self, db):
        schema = accounts_schema("indexed").with_index(
            IndexDefinition("ix_balance", ("balance",))
        )
        db.create_ledger_table(schema)
        run(db, "a", lambda t: db.insert(t, "indexed", [["Nick", 100]]))
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()


class TestDropRecreateAttack:
    def test_swap_is_visible_in_table_operations_view(self, db, accounts):
        run(db, "honest", lambda t: db.insert(t, "accounts", [["Nick", 100]]))
        drop_and_recreate_table(
            db, "accounts", accounts_schema(), [["Nick", 1_000_000]]
        )
        # Verification passes: each table id's data is internally consistent.
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()
        # ...but the swap is auditable (Figure 6).
        operations = db.table_operations_view()
        accounts_ops = [
            op for op in operations
            if "accounts" in op["table_name"] and "history" not in op["table_name"]
        ]
        kinds = [op["operation"] for op in accounts_ops]
        assert kinds.count("CREATE") == 2
        assert kinds.count("DROP") == 1
        # The recreated table has a different id than the dropped original.
        create_ids = [op["table_id"] for op in accounts_ops
                      if op["operation"] == "CREATE"]
        assert len(set(create_ids)) == 2
