"""Keyed readers of the ledger's system tables equal a scan-and-filter.

``DatabaseLedger`` answers ``transaction_entry``, ``transactions_in_block``,
``block``, ``latest_block``, ``latest_block_id`` and ``block_headers`` from
access paths (clustered seeks, the derived ``block_id`` index, the cached
closed height, entries kept in hand).  The reference here is the way they
used to be answered — filter what ``all_entries()`` / ``blocks()`` find by
scanning the heaps — computed inside the test after every step of a random
history: one-row and multi-row commits, queue flushes, drains, digest
uploads, receipts, truncation, crash + reopen, and tampering with an entry
or block row below the engine.

Tampering never moves a record, so the access paths still point at it; a
keyed reader re-reads it and re-checks its key.  A row that no longer
decodes, or that now claims a key the ledger never issued, is therefore
*missing* under every key the ledger did issue — which is also what the
scan says about those keys.  (Under the forged key itself only the scan finds
the row: an access path cannot lead to a key nothing was ever stored under.
Verification reads by scan, so it is what reports such a row.)

One thread: the block builder is stopped, so sealed-but-unclosed blocks
stay that way until a drain — and are what a crash leaves behind.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database_ledger import BLOCKS_TABLE, TRANSACTIONS_TABLE
from repro.core.digest import BlockHeader
from repro.core.ledger_database import LedgerDatabase
from repro.crypto.merkle import MerkleTree
from repro.crypto.rsa import generate_keypair
from repro.digests import DigestManager, ImmutableBlobStorage
from repro.engine.clock import LogicalClock
from repro.engine.record import decode_record, encode_record
from repro.errors import LedgerError, ReceiptError, StorageError, TruncationError

from tests.core.conftest import accounts_schema

BLOCK_SIZE = 3
FORGED = 1_000_000  # added to a key to make one the ledger never issued
SIGNER = generate_keypair(bits=512, seed=19)

pick = st.floats(min_value=0.0, max_value=0.999)
step = st.one_of(
    st.tuples(st.just("commit"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("commit"), st.just(1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drain"), st.booleans()),
    st.tuples(st.just("digest")),
    st.tuples(st.just("receipt"), pick),
    st.tuples(st.just("truncate"), pick),
    st.tuples(st.just("crash")),
    st.tuples(
        st.just("tamper"),
        st.sampled_from([TRANSACTIONS_TABLE, BLOCKS_TABLE]),
        st.sampled_from(["junk", "field", "key"]),
        pick,
    ),
)


class History:
    """The database under test plus what the test knows it did to it."""

    def __init__(self, root):
        self.path = os.path.join(root, "db")
        self.storage = ImmutableBlobStorage(os.path.join(root, "blobs"))
        self.db = None
        self.tids = []          # every transaction id ever committed
        self.next_row = 0
        self.digests = []       # uploaded before any tampering
        self.tampered = False   # some row was ever tampered with
        self.unreadable = False  # a junked record is live in memory
        self.forged = False      # a forged key is live in memory
        self.open()
        self.db.create_ledger_table(accounts_schema())

    def open(self):
        self.db = LedgerDatabase.open(
            self.path, block_size=BLOCK_SIZE, clock=LogicalClock()
        )
        self.db.pipeline.stop(drain=False)
        self.db.set_signing_key(SIGNER)
        self.manager = DigestManager(self.db, self.storage)

    @property
    def ledger(self):
        return self.db.ledger

    def tolerated(self, *expected):
        """Errors a step may end in: the ones named, or — once a row has
        been tampered with — any refusal the ledger itself raises."""
        return (LedgerError,) if self.tampered else expected

    # -- steps ---------------------------------------------------------

    def commit(self, rows):
        txn = self.db.begin("app")
        self.db.insert(txn, "accounts", [
            [f"u{self.next_row + i}", i] for i in range(rows)
        ])
        self.next_row += rows
        self.db.commit(txn)
        self.tids.append(txn.tid)

    def flush(self):
        self.ledger.flush_queue()

    def drain(self, seal_open):
        try:
            self.db.pipeline.drain(seal_open=seal_open)
        except self.tolerated():
            pass

    def digest(self):
        try:
            digest = self.manager.upload_digest()
        except self.tolerated():
            return
        if not self.tampered:
            self.digests.append(digest)

    def receipt(self, fraction):
        if not self.tids:
            return
        tid = self.tids[int(fraction * len(self.tids))]
        try:
            receipt = self.db.transaction_receipt(tid)
        except self.tolerated(ReceiptError):
            # Untampered, only a truncated transaction has no receipt.
            assert self.tampered or self.ledger.transaction_entry(tid) is None
            return
        assert self.tampered or receipt.verify(SIGNER.public)

    def truncate(self, fraction):
        blocks = self.ledger.blocks()[:-1]
        if not blocks:
            return
        try:
            self.db.truncate_ledger(blocks[int(fraction * len(blocks))].block_id)
        except self.tolerated(TruncationError):
            pass

    def crash(self):
        self.db.simulate_crash()
        # The tampered page images die with the process, but not what was
        # built on them meanwhile (a block chained to a tampered
        # predecessor is durable), so ``tampered`` stays.
        self.unreadable = self.forged = False
        self.open()

    def tamper(self, table_name, kind, fraction):
        table = self.db.engine.table(table_name)
        stored = list(table.heap.scan())
        if not stored:
            return
        rid, record = stored[int(fraction * len(stored))]
        self.tampered = True
        if kind != "junk":
            try:
                row = list(decode_record(table.schema, record))
            except StorageError:
                kind = "junk"  # already unreadable; keep it that way
        if kind == "junk":
            table.heap.tamper_record(rid, b"\x00\x04junk")
            self.unreadable = True
            return
        if kind == "key":
            row[0] += FORGED  # transaction_id / block_id
            self.forged = True
        elif table_name == TRANSACTIONS_TABLE:
            row[table.schema.column("username").ordinal] = "mallory"
        else:
            row[table.schema.column("transaction_count").ordinal] += 1
        table.heap.tamper_record(rid, encode_record(table.schema, tuple(row)))

    # -- the property --------------------------------------------------

    def check(self):
        ledger = self.ledger
        with ledger.storage_lock:
            issued_blocks = range(0, ledger.open_block_id + 2)
            scanned = ledger.all_entries()
            entries = [e for e in scanned if e.transaction_id < FORGED]
            blocks = [b for b in ledger.blocks() if b.block_id < FORGED]
            by_tid = {e.transaction_id: e for e in entries}
            by_block = {b.block_id: b for b in blocks}

            for tid in self.tids + [0, max(self.tids, default=0) + 1]:
                assert ledger.transaction_entry(tid) == by_tid.get(tid)
            for block_id in issued_blocks:
                assert ledger.transactions_in_block(block_id) == sorted(
                    (e for e in scanned if e.block_id == block_id),
                    key=lambda e: e.ordinal,
                )
                assert ledger.block(block_id) == by_block.get(block_id)
            assert ledger.latest_block() == (blocks[-1] if blocks else None)
            assert ledger.latest_block_id() == (
                blocks[-1].block_id if blocks else ledger.first_block_id() - 1
            )
            if self.forged:
                for row in scanned:
                    if row.transaction_id >= FORGED:
                        assert ledger.transaction_entry(row.transaction_id) is None
                for row in ledger.blocks():
                    if row.block_id >= FORGED:
                        assert ledger.block(row.block_id) is None

            first, last = ledger.first_block_id(), ledger.latest_block_id()
            for low, high in ((first, last), (first + 1, last - 1), (last, last)):
                wanted = range(low, high + 1)
                if all(b in by_block for b in wanted):
                    assert ledger.block_headers(low, high) == [
                        BlockHeader.from_block_row(by_block[b]) for b in wanted
                    ]
                else:
                    with pytest.raises(LedgerError):
                        ledger.block_headers(low, high)

            if not self.tampered:
                for block in blocks:
                    members = sorted(
                        (e for e in entries if e.block_id == block.block_id),
                        key=lambda e: e.ordinal,
                    )
                    assert block.transaction_count == len(members)
                    assert block.transactions_root == MerkleTree(
                        [e.entry_hash() for e in members]
                    ).root()

    def verdict(self):
        report = self.db.verify(self.digests)
        return report.ok, frozenset(f.invariant for f in report.errors)

    def finish(self):
        """Same verdict before and after a clean close and reopen."""
        before = self.verdict()
        assert before[0] or self.tampered
        try:
            self.db.close()
        except LedgerError:
            # A tampered chain can refuse to close its sealed blocks.
            assert self.tampered
            self.db.simulate_crash()
            return
        if self.unreadable:
            # The engine refuses a directory holding an undecodable record.
            with pytest.raises(StorageError):
                LedgerDatabase.open(self.path, clock=LogicalClock())
            return
        self.open()
        try:
            if self.forged:
                # The rebuilt trees index the forged key like any other (a
                # forged block id even becomes the tip recovery resumes
                # from), so only the verdict carries over, not its findings.
                assert not self.verdict()[0]
            else:
                assert self.verdict() == before
                self.check()
        finally:
            self.db.close()


@given(steps=st.lists(step, min_size=4, max_size=24))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_keyed_readers_equal_scan_and_filter(tmp_path_factory, steps):
    history = History(str(tmp_path_factory.mktemp("keyed")))
    try:
        history.check()
        for name, *arguments in steps:
            getattr(history, name)(*arguments)
            history.check()
        history.finish()
    finally:
        if not history.db.closed and not history.db.engine.closed:
            history.db.simulate_crash()
