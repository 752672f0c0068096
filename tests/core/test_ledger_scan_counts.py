"""The ledger's own bookkeeping costs O(block), stated as exact counts.

A spy on the heaps of ``database_ledger_transactions`` and
``database_ledger_blocks`` counts every full pass (``HeapFile.scan``, which
``Table.scan`` and an index build both go through, and ``HeapFile.pages``,
verification's page-by-page read) and every record read by RowId
(``HeapFile.read``).  After one warm-up call each, block close, digest
generation, receipts, header ranges and the chain tip make **no** pass over
either table, closing the tenth 1 000-transaction block reads no more than
closing the first, and ``recover`` decodes no stored entry twice.  Only
verification is allowed to scan, and a warm verification cycle decodes
none of what it scans.  One thread throughout: blocks close in the commits
that fill them and in explicit drains.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core import entries
from repro.core.database_ledger import (
    BLOCKS_TABLE,
    TRANSACTIONS_TABLE,
    DatabaseLedger,
)
from repro.core.entries import BlockRow, TransactionEntry
from repro.core.ledger_database import HISTORY_SUFFIX, LedgerDatabase
from repro.core.verification import capture_snapshot
from repro.crypto.hashing import LeafHashCache
from repro.engine.btree import BPlusTree
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.heap import HeapFile
from repro.engine.pager import Page
from repro.engine.record import RecordKernel
from repro.engine.schema import IndexDefinition
from repro.engine.table import Table
from repro.faults import FAULTS

from tests.core.conftest import accounts_schema, run

SYSTEM = (TRANSACTIONS_TABLE, BLOCKS_TABLE)


class Spy:
    """Passes over, decoding scans of, and record reads from the system tables."""

    def __init__(self, monkeypatch):
        self.passes = Counter()    # HeapFile.scan / .pages: any whole-heap walk
        self.decoding = Counter()  # ...that decodes every record it walks
        self.reads = Counter()     # HeapFile.read: one record by RowId
        heap_scan, heap_pages, heap_read, table_scan = (
            HeapFile.scan, HeapFile.pages, HeapFile.read, Table.scan,
        )

        def scan(heap):
            if heap.name in SYSTEM:
                self.passes[heap.name] += 1
            return heap_scan(heap)

        def pages(heap):
            if heap.name in SYSTEM:
                self.passes[heap.name] += 1
            return heap_pages(heap)

        def read(heap, rid):
            if heap.name in SYSTEM:
                self.reads[heap.name] += 1
            return heap_read(heap, rid)

        def decoding_scan(table):
            if table.name in SYSTEM:
                self.decoding[table.name] += 1
            return table_scan(table)

        def verification_reader(name, table_name):
            reader = getattr(DatabaseLedger, name)

            def counted(ledger, *args, **kwargs):
                self.decoding[table_name] += 1
                return reader(ledger, *args, **kwargs)

            monkeypatch.setattr(DatabaseLedger, name, counted)

        monkeypatch.setattr(HeapFile, "scan", scan)
        monkeypatch.setattr(HeapFile, "pages", pages)
        monkeypatch.setattr(HeapFile, "read", read)
        monkeypatch.setattr(Table, "scan", decoding_scan)
        verification_reader("all_entries", TRANSACTIONS_TABLE)
        verification_reader("blocks", BLOCKS_TABLE)

    def reset(self):
        self.passes.clear()
        self.decoding.clear()
        self.reads.clear()


@pytest.fixture
def spy(monkeypatch):
    return Spy(monkeypatch)


def open_db(path, block_size):
    return LedgerDatabase.open(path, block_size=block_size, clock=LogicalClock())


@contextmanager
def closes_failing(times=None):
    """Block closes fail after their queue flush (``times`` of them, or
    all), so the blocks commits fill stay sealed — what a crash then
    leaves for recovery."""
    FAULTS.arm("ledger.block_persist", action="fail", times=times)
    try:
        yield
    finally:
        FAULTS.reset()


def commit_rows(db, start, count):
    return [
        run(db, "app", lambda t, i=i: db.insert(
            t, "accounts", [[f"u{i}", i]])).tid
        for i in range(start, start + count)
    ]


def warm_then_three_commits(db):
    """A full cycle and a warm-up incremental one, then three commits and
    a digest: (digests, the warm-up's checkpoint, the block height before
    the three commits)."""
    commit_rows(db, 0, 30)
    digests = [db.generate_digest()]
    checkpoint = db.verify(digests, build_checkpoint=True).built_checkpoint
    commit_rows(db, 30, 6)
    digests.append(db.generate_digest())
    checkpoint = db.verify(
        digests, mode="incremental", checkpoint=checkpoint,
        build_checkpoint=True,
    ).built_checkpoint
    height = db.ledger.latest_block_id()
    commit_rows(db, 36, 3)
    digests.append(db.generate_digest())
    return digests, checkpoint, height


class TestOperationalPathsNeverScan:
    """Ledger bookkeeping reads O(block): block close, digests, receipts
    and reopen read the system tables by key; only verification scans, and
    a warm cycle decodes nothing it scans."""

    @pytest.fixture
    def db(self, tmp_path):
        db = open_db(str(tmp_path / "db"), block_size=4)
        db.create_ledger_table(accounts_schema())
        yield db
        db.close()

    def test_zero_passes_after_one_warm_up_call_each(self, db, spy):
        tids = commit_rows(db, 0, 30)
        db.pipeline.drain()
        db.generate_digest()
        db.transaction_receipt(tids[0])
        db.block_headers(0, db.ledger.latest_block_id())
        spy.reset()

        # Block close: seven more full blocks and a partial one.
        tids += commit_rows(db, 30, 30)
        db.pipeline.drain()
        assert not spy.passes
        closed = db.ledger.latest_block_id()

        spy.reset()
        digest = db.generate_digest()
        assert digest.block_id == closed
        assert not spy.passes
        # The tip block row, and the entries of that one block.
        assert spy.reads[BLOCKS_TABLE] == 1
        assert spy.reads[TRANSACTIONS_TABLE] <= 4

        spy.reset()
        assert db.transaction_receipt(tids[0]).entry.transaction_id == tids[0]
        cached_reads = spy.reads[TRANSACTIONS_TABLE]   # block already receipted
        db.transaction_receipt(tids[40])               # a block never receipted
        assert not spy.passes
        assert cached_reads == 1
        assert spy.reads[TRANSACTIONS_TABLE] <= cached_reads + 1 + 4

        spy.reset()
        first = db.ledger.first_block_id()
        headers = db.block_headers(first, closed)
        assert len(headers) == closed - first + 1
        assert not spy.passes
        assert spy.reads[BLOCKS_TABLE] == len(headers)

        spy.reset()
        assert db.ledger.latest_block_id() == closed
        assert db.ledger.latest_block().block_id == closed
        assert not spy.passes
        assert spy.reads[BLOCKS_TABLE] == 2
        assert not spy.decoding

    def test_warm_digest_decodes_no_entry(self, db, spy, monkeypatch):
        """The tip block's last commit time is kept from its close; after a
        restart the first digest reads that block's entries once."""
        decoded = []
        from_row = TransactionEntry.from_row.__func__

        def counting(cls, row):
            decoded.append(1)
            return from_row(cls, row)

        def scanned_commit_time(db, block_id):
            return max(
                e.commit_time for e in db.ledger.transactions_in_block(block_id)
            )

        commit_rows(db, 0, 10)
        db.generate_digest()  # warm-up
        commit_rows(db, 10, 6)
        monkeypatch.setattr(TransactionEntry, "from_row", classmethod(counting))
        spy.reset()
        digest = db.generate_digest()
        assert not decoded
        assert not spy.reads[TRANSACTIONS_TABLE]
        assert digest.last_transaction_commit_time == scanned_commit_time(
            db, digest.block_id
        )

        path = db.engine.path
        db.simulate_crash()
        reopened = open_db(path, block_size=4)
        try:
            tip = reopened.ledger.block(digest.block_id)
            decoded.clear()
            again = reopened.generate_digest()
            assert len(decoded) == tip.transaction_count
            decoded.clear()
            third = reopened.generate_digest()
            assert not decoded
            for later in (again, third):
                assert (
                    later.block_id, later.block_hash,
                    later.last_transaction_commit_time,
                ) == (
                    digest.block_id, digest.block_hash,
                    digest.last_transaction_commit_time,
                )
        finally:
            reopened.close()

    def test_verification_is_the_one_that_scans(self, db, spy):
        commit_rows(db, 0, 10)
        digest = db.generate_digest()
        spy.reset()
        snapshot = capture_snapshot(db)
        # Both tables by heap scan, nothing looked up by key.
        assert spy.decoding == {TRANSACTIONS_TABLE: 1, BLOCKS_TABLE: 1}
        assert not spy.reads
        assert len(snapshot.entries) >= 10
        assert db.verify([digest]).ok

    def test_warm_cycle_decodes_no_entry_or_block(self, db, spy, monkeypatch):
        """After one warm-up cycle, an incremental cycle still reads each
        system table's heap once but decodes no stored entry or block and
        hashes no entry: their exact bytes are in the verifier's memo, and
        with no page changed not one record is looked up there — every page
        is served whole.  New entries and blocks are decoded once each."""
        commit_rows(db, 0, 30)
        digests = [db.generate_digest()]
        checkpoint = db.verify(digests, build_checkpoint=True).built_checkpoint

        def cycle():
            nonlocal checkpoint
            report = db.verify(
                digests, mode="incremental", checkpoint=checkpoint,
                build_checkpoint=True,
            )
            assert report.ok and report.mode == "incremental", report.summary()
            checkpoint = report.built_checkpoint

        commit_rows(db, 30, 6)
        digests.append(db.generate_digest())
        cycle()  # warm-up

        calls = Counter()

        def counting(name, method):
            def counted(*args):
                calls[name] += 1
                return method(*args)
            return counted

        for row_class in (TransactionEntry, BlockRow):
            monkeypatch.setattr(row_class, "from_row", classmethod(counting(
                row_class.__name__, row_class.from_row.__func__
            )))
        monkeypatch.setattr(entries, "hash_transaction_entry", counting(
            "hash_transaction_entry", entries.hash_transaction_entry
        ))
        looked_up = Counter()
        get_many = LeafHashCache.get_many

        def counted_get_many(cache, context, records):
            looked_up[context.split("|", 1)[0]] += len(records)
            return get_many(cache, context, records)

        monkeypatch.setattr(LeafHashCache, "get_many", counted_get_many)
        spy.reset()
        cycle()
        assert calls == {}
        assert spy.passes == {TRANSACTIONS_TABLE: 1, BLOCKS_TABLE: 1}
        assert not looked_up[TRANSACTIONS_TABLE]
        assert not looked_up[BLOCKS_TABLE]

        height = db.ledger.latest_block_id()
        commit_rows(db, 36, 5)
        digests.append(db.generate_digest())
        calls.clear()
        cycle()
        assert calls["TransactionEntry"] == 5
        assert calls["BlockRow"] == db.ledger.latest_block_id() - height

    def test_page_reader_slices_no_record_of_a_page_the_memo_holds(
        self, db, monkeypatch
    ):
        """``HeapFile.pages`` leaves a page's records unsliced until they
        are asked for, so on a warm cycle ``Page.records`` slices only the
        records of system-table pages whose image changed since the memo
        took them — each of their live records once — and none of any
        other system-table page."""
        commit_rows(db, 0, 120)
        digests = [db.generate_digest()]
        checkpoint = db.verify(digests, build_checkpoint=True).built_checkpoint
        heaps = [db.engine.table(name).heap for name in SYSTEM]
        before = {heap.name: [bytes(page.buf) for page in heap._pages] for heap in heaps}
        commit_rows(db, 120, 3)
        digests.append(db.generate_digest())

        sliced = Counter()
        records = Page.records

        def counting(page):
            for slot, record in records(page):
                sliced[id(page)] += 1
                yield slot, record

        monkeypatch.setattr(Page, "records", counting)
        report = db.verify(digests, mode="incremental", checkpoint=checkpoint)
        assert report.ok and report.mode == "incremental", report.summary()
        unchanged = 0
        for heap in heaps:
            kept = before[heap.name]
            for number, page in enumerate(heap._pages):
                if number < len(kept) and bytes(page.buf) == kept[number]:
                    unchanged += 1
                    assert not sliced[id(page)], (heap.name, number)
                else:
                    assert sliced[id(page)] == page.live_count, (heap.name, number)
        assert len(heaps[0]._pages) > 1 and unchanged

    def test_cycle_after_commits_looks_up_no_system_record(
        self, db, monkeypatch
    ):
        """Three commits and a block close change the tail page of both
        system tables.  The page memo keeps each record beside its row, so
        every record still on a changed page reuses its row: no system
        record is looked up in the per-record memo, and only the new
        entries and blocks are decoded."""
        digests, checkpoint, height = warm_then_three_commits(db)
        closed = db.ledger.latest_block_id()

        decoded, looked_up = Counter(), Counter()
        for row_class in (TransactionEntry, BlockRow):
            def counted(cls, row, from_row=row_class.from_row.__func__):
                decoded[cls.__name__] += 1
                return from_row(cls, row)
            monkeypatch.setattr(row_class, "from_row", classmethod(counted))
        get_many = LeafHashCache.get_many

        def counted_get_many(cache, context, records):
            looked_up[context.split("|", 1)[0]] += len(records)
            return get_many(cache, context, records)

        monkeypatch.setattr(LeafHashCache, "get_many", counted_get_many)
        report = db.verify(digests, mode="incremental", checkpoint=checkpoint)
        assert report.ok and report.mode == "incremental", report.summary()
        assert not looked_up[TRANSACTIONS_TABLE]
        assert not looked_up[BLOCKS_TABLE]
        assert decoded == {
            "TransactionEntry": 3,
            "BlockRow": closed - height,
        }

    def test_warm_cycle_looks_up_each_new_root_once(self, db, monkeypatch):
        """The reverse root check — entries recording a root that no row
        versions back — reads the entries above the checkpoint once per
        run, not once per ledger table: a warm incremental cycle after 3
        commits looks up each new entry's root once, for the one table it
        wrote, however many ledger tables there are."""
        for name in ("spare1", "spare2"):
            db.create_ledger_table(accounts_schema(name))
        digests, checkpoint, _ = warm_then_three_commits(db)

        calls = Counter()
        root_for_table = TransactionEntry.root_for_table

        def counted(entry, table_id):
            calls[table_id] += 1
            return root_for_table(entry, table_id)

        monkeypatch.setattr(TransactionEntry, "root_for_table", counted)
        report = db.verify(digests, mode="incremental", checkpoint=checkpoint)
        assert report.ok and report.mode == "incremental", report.summary()
        assert len(db.ledger_tables()) >= 3
        assert calls == {db.engine.table("accounts").table_id: 3}

    def test_truncation_finds_the_prefix_by_key(self, db, spy):
        commit_rows(db, 0, 30)
        db.generate_digest()
        db.ledger.transactions_in_block(0)  # warm-up: the index is built
        spy.reset()
        db.truncate_ledger(2)
        # Truncation verifies first (one decoding scan of each table) and
        # rebuilds the block index its deletes dropped; it makes no other
        # pass, however it finds the rows it removes.
        assert spy.decoding == {TRANSACTIONS_TABLE: 1, BLOCKS_TABLE: 1}
        assert spy.passes[BLOCKS_TABLE] == 1
        assert spy.passes[TRANSACTIONS_TABLE] <= 3
        assert db.ledger.block(2) is None
        assert db.ledger.first_block_id() == 3
        assert db.verify([db.generate_digest()]).ok


class TestCostDoesNotGrowWithTheTable:
    """Closing the tenth block reads no more than closing the first, and
    recovery decodes each entry once."""

    BLOCK = 1000
    BLOCKS = 10

    def test_block_close_is_flat_and_recovery_decodes_each_entry_once(
        self, tmp_path, spy, monkeypatch
    ):
        path = str(tmp_path / "db")
        db = open_db(path, block_size=self.BLOCK)
        db.create_ledger_table(accounts_schema())
        db.pipeline.drain()
        first = db.ledger.latest_block_id() + 1

        per_close = []
        for block in range(self.BLOCKS):
            commit_rows(db, block * self.BLOCK, self.BLOCK - 1)
            assert db.ledger.latest_block_id() == first + block - 1
            built = db.pipeline.stats()["blocks_built"]
            spy.reset()
            # The commit that fills the block closes it.
            commit_rows(db, (block + 1) * self.BLOCK - 1, 1)
            assert not spy.passes
            per_close.append(sum(spy.reads.values()))
            assert db.pipeline.stats()["blocks_built"] == built + 1
            assert db.ledger.sealed_pending() == 0
            assert db.ledger.latest_block_id() == first + block
        # Closing reads the previous block's row to chain to it; nothing else.
        assert per_close[-1] <= per_close[0] <= 1
        assert max(per_close) <= 1

        # A checkpoint (the WAL forgets those commits), then a sealed block
        # (its close fails once) and half an open one, part flushed and part
        # still queued: what a crash leaves for recover() to pick up.
        db.checkpoint()
        with closes_failing(times=1):
            tids = commit_rows(db, self.BLOCKS * self.BLOCK, self.BLOCK + 300)
        assert db.ledger.sealed_pending() == 1
        db.ledger.flush_queue()
        tids += commit_rows(db, (self.BLOCKS + 2) * self.BLOCK, 200)
        stored = self.BLOCKS * self.BLOCK + self.BLOCK + 300
        db.simulate_crash()

        during_recover = {}
        recover = DatabaseLedger.recover

        def spied_recover(ledger, payloads, state):
            spy.reset()
            recover(ledger, payloads, state)
            during_recover.update(
                passes=dict(spy.passes), decoding=dict(spy.decoding),
                reads=dict(spy.reads),
                # What the open leaves: it closes no block.
                state=(
                    ledger.closed_block_height, ledger.open_block_id,
                    ledger.pending_entries,
                ),
            )

        monkeypatch.setattr(DatabaseLedger, "recover", spied_recover)
        reopened = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            # The checkpoint left its open block empty, so every unclosed
            # block is re-primed from the log: no pass over either table,
            # and only the unclosed blocks' stored entries decoded — each
            # once.  The tip comes from the blocks tree's last key.
            assert during_recover["decoding"] == {}
            assert during_recover["passes"] == {}
            assert during_recover["reads"] == {
                TRANSACTIONS_TABLE: self.BLOCK + 300,
            }
            assert during_recover["reads"][TRANSACTIONS_TABLE] < stored

            assert during_recover["state"] == (
                first + self.BLOCKS - 1, first + self.BLOCKS + 1, 200,
            )
            ledger = reopened.ledger
            reopened.pipeline.drain(seal_open=False)
            sealed = ledger.block(first + self.BLOCKS)
            assert sealed is not None and sealed.transaction_count == self.BLOCK
            assert ledger.transaction_entry(tids[-1]).ordinal == 499
            assert reopened.verify([reopened.generate_digest()]).ok
        finally:
            reopened.close()

    def test_open_reads_each_user_heap_once_and_only_its_keys(
        self, tmp_path, monkeypatch
    ):
        """Reopening a crashed directory makes one pass over the indexed
        user table, decodes none of its records whole, and builds its
        trees without a single one-key insert."""
        path = str(tmp_path / "db")
        db = open_db(path, block_size=100)
        db.create_ledger_table(accounts_schema().with_index(
            IndexDefinition("ix_balance", ("balance",))
        ))
        commit_rows(db, 0, 300)
        db.checkpoint()
        commit_rows(db, 300, 300)  # redone: the crash path rebuilds
        db.simulate_crash()

        user_heaps = ("accounts", "accounts" + HISTORY_SUFFIX)
        passes, decoded, inserts = Counter(), [], Counter()
        heap_scan, decode = HeapFile.scan, RecordKernel.decode
        insert, insert_many = BPlusTree.insert, BPlusTree.insert_many
        recover, inside = Database._recover, []

        def scan(heap):
            if heap.name in user_heaps:
                passes[heap.name] += 1
            return heap_scan(heap)

        def counting_decode(kernel, data):
            decoded.append(kernel)
            return decode(kernel, data)

        def counting(name, method):
            # Only recovery's inserts count, not those of any later write.
            def counted(tree, *args):
                if inside:
                    inserts[name] += 1
                return method(tree, *args)
            return counted

        def engine_recovery(engine, checkpoint_path):
            inside.append(True)
            try:
                return recover(engine, checkpoint_path)
            finally:
                inside.clear()

        monkeypatch.setattr(HeapFile, "scan", scan)
        monkeypatch.setattr(RecordKernel, "decode", counting_decode)
        monkeypatch.setattr(BPlusTree, "insert", counting("insert", insert))
        monkeypatch.setattr(
            BPlusTree, "insert_many", counting("insert_many", insert_many)
        )
        monkeypatch.setattr(Database, "_recover", engine_recovery)
        reopened = LedgerDatabase.open(path, clock=LogicalClock())
        monkeypatch.undo()
        try:
            accounts = reopened.engine.table("accounts")
            assert passes == {"accounts": 1}
            user_kernels = {
                id(reopened.engine.table(name).schema.derived(RecordKernel))
                for name in user_heaps
            }
            assert not user_kernels & {id(kernel) for kernel in decoded}
            assert inserts == {}
            assert len(accounts.clustered) == accounts.row_count() == 600
            assert len(accounts.nonclustered["ix_balance"]) == 600
            assert reopened.verify([reopened.generate_digest()]).ok
        finally:
            reopened.close()


class TestRecoveryDecodesWhatItKeeps:
    """A crash open re-primes every block opened since the last checkpoint
    from the log: a re-queued entry is decoded from its COMMIT payload, a
    stored one re-read once by its transaction id, and only a block the
    checkpoint left open is found through the ``block_id`` index."""

    BLOCK = 10

    @pytest.fixture
    def recovered(self, spy, monkeypatch):
        """Reopen ``path``, spying on the ledger's recovery: its passes and
        reads, the payloads it decoded and the state it left (the open
        closes no block)."""
        seen = {}
        recover = DatabaseLedger.recover
        from_payload = TransactionEntry.from_payload.__func__
        decoded = []

        def counting(cls, payload):
            decoded.append(payload["tid"])
            return from_payload(cls, payload)

        def spied(ledger, payloads, state):
            spy.reset()
            decoded.clear()
            recover(ledger, payloads, state)
            seen.update(
                passes=dict(spy.passes), decoding=dict(spy.decoding),
                reads=dict(spy.reads), decoded=list(decoded),
                queued=[e.transaction_id for e in ledger._queue],
                key_indexes=dict(ledger._transactions_table()._key_indexes),
                state=(
                    ledger.closed_block_height, ledger.sealed_pending(),
                    ledger.open_block_id, ledger.checkpoint_state()["open_ordinal"],
                ),
            )

        monkeypatch.setattr(TransactionEntry, "from_payload", classmethod(counting))
        monkeypatch.setattr(DatabaseLedger, "recover", spied)

        def reopen(path):
            return LedgerDatabase.open(path, clock=LogicalClock()), seen

        return reopen

    def _ledger_table(self, tmp_path):
        db = open_db(str(tmp_path / "db"), block_size=self.BLOCK)
        db.create_ledger_table(accounts_schema())
        db.pipeline.drain()
        return db, db.ledger.latest_block_id() + 1

    def test_without_a_checkpoint_no_key_pass(self, tmp_path, recovered):
        db, first = self._ledger_table(tmp_path)
        with closes_failing():
            commit_rows(db, 0, 25)   # two sealed blocks and five entries
        db.ledger.flush_queue()  # ...all stored; no block closed
        queued = commit_rows(db, 25, 3)
        db.simulate_crash()

        reopened, seen = recovered(str(tmp_path / "db"))
        try:
            assert seen["passes"] == {} and seen["decoding"] == {}
            assert seen["key_indexes"] == {}
            assert seen["decoded"] == seen["queued"] == queued
            # Each stored entry of an unclosed block read once; the closed
            # tip is the blocks tree's last key.
            assert seen["reads"] == {TRANSACTIONS_TABLE: 25}
            assert seen["state"] == (first - 1, 2, first + 2, 8)
            assert reopened.verify([reopened.generate_digest()]).ok
        finally:
            reopened.close()

    def test_a_block_left_open_by_the_checkpoint_makes_one_key_pass(
        self, tmp_path, recovered
    ):
        db, first = self._ledger_table(tmp_path)
        commit_rows(db, 0, 4)
        db.checkpoint()          # leaves four stored entries in the open block
        with closes_failing():
            commit_rows(db, 4, 10)   # which fills and seals; four in the next
        db.ledger.flush_queue()
        queued = commit_rows(db, 14, 2)
        db.simulate_crash()

        reopened, seen = recovered(str(tmp_path / "db"))
        try:
            assert seen["passes"] == {TRANSACTIONS_TABLE: 1}
            assert seen["decoding"] == {}
            assert list(seen["key_indexes"]) == [
                (reopened.ledger._transactions_table().schema.column(
                    "block_id").ordinal,)
            ]
            assert seen["decoded"] == seen["queued"] == queued
            assert seen["reads"] == {TRANSACTIONS_TABLE: 14}
            assert seen["state"] == (first - 1, 1, first + 1, 6)
            assert reopened.verify([reopened.generate_digest()]).ok
        finally:
            reopened.close()
