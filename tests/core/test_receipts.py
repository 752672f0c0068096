"""Transaction receipts and non-repudiation (§5.1)."""

import pytest

from repro.crypto.rsa import generate_keypair
from repro.core.receipts import _RECEIPT_BLOCKS_CACHED, TransactionReceipt
from repro.errors import ReceiptError
from repro.faults import FAULTS

from tests.core.conftest import run


@pytest.fixture
def signer():
    return generate_keypair(bits=512, seed=2021)


@pytest.fixture
def signed_db(db, accounts, signer):
    db.set_signing_key(signer)
    return db


class TestReceiptGeneration:
    def test_receipt_for_committed_transaction(self, signed_db, signer):
        db = signed_db
        txn = run(db, "alice", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        receipt = db.transaction_receipt(txn.tid)
        assert receipt.entry.transaction_id == txn.tid
        assert receipt.verify(signer.public)

    def test_receipt_closes_open_block_if_needed(self, signed_db, signer):
        db = signed_db
        txn = run(db, "alice", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        # No digest generated: the transaction sits in the open block.
        receipt = db.transaction_receipt(txn.tid)
        assert receipt.verify(signer.public)

    def test_receipt_from_a_sealed_block_leaves_the_open_block_open(
        self, signed_db, signer
    ):
        """A receipt for a transaction in a block that is sealed but not
        yet closed closes that block and leaves the open block as it is,
        as it does once a commit or a drain has closed the sealed block."""
        db = signed_db
        db.pipeline.drain()
        # The close of the commit that fills the block fails once: the
        # sealed block stays unclosed.
        FAULTS.arm("ledger.block_persist", action="fail", times=1)
        try:
            tids = [
                run(db, "a", lambda t, i=i: db.insert(
                    t, "accounts", [[f"u{i}", i]]
                )).tid
                for i in range(db.ledger.block_size + 1)
            ]
        finally:
            FAULTS.reset()
        ledger = db.ledger
        assert ledger.sealed_pending() == 1
        open_block, open_ordinal = ledger.open_block_id, ledger.checkpoint_state()[
            "open_ordinal"
        ]
        assert open_ordinal == 1
        assert db.transaction_receipt(tids[0]).verify(signer.public)
        assert ledger.sealed_pending() == 0
        assert ledger.latest_block_id() == open_block - 1
        assert ledger.checkpoint_state() == {
            "open_block_id": open_block, "open_ordinal": open_ordinal,
        }
        # A receipt from the open block still closes it.
        assert db.transaction_receipt(tids[-1]).verify(signer.public)
        assert ledger.latest_block_id() == open_block

    def test_receipt_for_unknown_transaction_fails(self, signed_db):
        with pytest.raises(ReceiptError):
            signed_db.transaction_receipt(999_999)

    def test_receipt_for_non_ledger_transaction_fails(self, signed_db):
        from repro.engine.schema import Column, TableSchema
        from repro.engine.types import INT

        db = signed_db
        db.create_table(TableSchema("plain", [Column("id", INT)]))
        txn = run(db, "a", lambda t: db.insert(t, "plain", [[1]]))
        with pytest.raises(ReceiptError):
            db.transaction_receipt(txn.tid)

    def test_one_signature_covers_all_transactions_in_block(self, signed_db, signer):
        db = signed_db
        tids = []
        for i in range(3):
            txn = run(db, "a", lambda t, i=i: db.insert(
                t, "accounts", [[f"u{i}", i]]))
            tids.append(txn.tid)
        receipts = [db.transaction_receipt(tid) for tid in tids]
        same_block = [
            r for r in receipts
            if r.block_header.block_id == receipts[0].block_header.block_id
        ]
        assert len({r.block_signature for r in same_block}) == 1
        for receipt in receipts:
            assert receipt.verify(signer.public)


class TestReceiptVerification:
    def make_receipt(self, db, signer):
        txn = run(db, "alice", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        return db.transaction_receipt(txn.tid)

    def test_json_round_trip(self, signed_db, signer):
        receipt = self.make_receipt(signed_db, signer)
        restored = TransactionReceipt.from_json(receipt.to_json())
        assert restored.verify(signer.public)

    def test_wrong_public_key_fails(self, signed_db, signer):
        receipt = self.make_receipt(signed_db, signer)
        other = generate_keypair(bits=512, seed=1)
        assert not receipt.verify(other.public)

    def test_tampered_entry_fails(self, signed_db, signer):
        import dataclasses

        receipt = self.make_receipt(signed_db, signer)
        evil_entry = dataclasses.replace(receipt.entry, username="somebody_else")
        evil = dataclasses.replace(receipt, entry=evil_entry)
        assert not evil.verify(signer.public)

    def test_tampered_block_header_fails(self, signed_db, signer):
        import dataclasses

        receipt = self.make_receipt(signed_db, signer)
        evil_header = dataclasses.replace(
            receipt.block_header, transaction_count=999
        )
        evil = dataclasses.replace(receipt, block_header=evil_header)
        assert not evil.verify(signer.public)

    def test_receipt_survives_ledger_destruction(self, signed_db, signer):
        """The §5.1 motivation: the receipt proves inclusion even after the
        ledger is gone."""
        db = signed_db
        receipt = self.make_receipt(db, signer)
        # Scorched earth: erase the block and transaction system tables.
        from repro.core.database_ledger import BLOCKS_TABLE, TRANSACTIONS_TABLE

        for table_name in (BLOCKS_TABLE, TRANSACTIONS_TABLE):
            table = db.engine.table(table_name)
            for rid, _ in list(table.heap.scan()):
                table.heap.tamper_delete(rid)
        assert receipt.verify(signer.public)

    def test_malformed_receipt_json_rejected(self):
        with pytest.raises(ReceiptError):
            TransactionReceipt.from_json("{\"entry\": {}}")


class TestReceiptBlockCache:
    """The per-block receipt material is declared state of the database,
    bounded, and leaves with the blocks truncation removes."""

    def test_declared_and_empty_on_a_fresh_database(self, signed_db):
        assert signed_db._receipt_block_cache == {}

    def test_truncation_evicts_the_blocks_it_removes(self, signed_db, signer):
        db = signed_db
        tids = [
            run(db, "app", lambda t, i=i: db.insert(
                t, "accounts", [[f"u{i}", i]])).tid
            for i in range(12)
        ]
        db.generate_digest()
        old, kept = tids[0], tids[-1]
        old_block = db.transaction_receipt(old).block_header.block_id
        kept_block = db.transaction_receipt(kept).block_header.block_id
        assert old_block < kept_block
        assert {key[0] for key in db._receipt_block_cache} == {
            old_block, kept_block,
        }

        db.truncate_ledger(old_block)

        assert all(key[0] > old_block for key in db._receipt_block_cache)
        assert kept_block in {key[0] for key in db._receipt_block_cache}
        assert db.transaction_receipt(kept).verify(signer.public)
        with pytest.raises(ReceiptError):
            db.transaction_receipt(old)

    def test_bounded_lru_and_an_evicted_blocks_receipt_is_unchanged(
        self, signed_db, signer
    ):
        db = signed_db
        block_size = db.ledger.block_size
        tids = [
            run(db, "app", lambda t, i=i: db.insert(
                t, "accounts", [[f"u{i}", i]])).tid
            for i in range(block_size * (_RECEIPT_BLOCKS_CACHED + 3))
        ]
        db.generate_digest()
        firsts = tids[::block_size]
        before = db.transaction_receipt(firsts[0]).to_json()
        for tid in firsts[1:]:
            db.transaction_receipt(tid)
            assert len(db._receipt_block_cache) <= _RECEIPT_BLOCKS_CACHED
        assert len(db._receipt_block_cache) == _RECEIPT_BLOCKS_CACHED
        latest = db.transaction_receipt(firsts[-1]).block_header.block_id
        # Least recently receipted first out: the first block is gone...
        cached = [key[0] for key in db._receipt_block_cache]
        evicted = db.transaction_receipt(firsts[0])
        assert evicted.block_header.block_id not in cached
        assert evicted.to_json() == before
        assert evicted.verify(signer.public)
        # ...and receipting it again evicted the oldest remaining one.
        assert len(db._receipt_block_cache) == _RECEIPT_BLOCKS_CACHED
        assert cached[0] not in {key[0] for key in db._receipt_block_cache}
        assert latest in {key[0] for key in db._receipt_block_cache}
