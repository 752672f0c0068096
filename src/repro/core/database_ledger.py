"""The Database Ledger: transaction entries, blocks, and digests (§2.2, §3.3).

Committed transactions that touched ledger tables become *transaction
entries*.  Entries are assigned a (block id, ordinal) at commit time by the
**sequencer** and ride on the COMMIT WAL record; they then sit in an
**in-memory queue** until a checkpoint batches them into the
``database_ledger_transactions`` system table — the contention-avoiding
design of §3.3.2.

Block formation is *staged* (§4.2): when the sequencer hands out the last
ordinal of a block it **seals** the block — pure in-memory bookkeeping — and
block *closure* (Merkle root over the entry hashes, hash chaining,
persistence into ``database_ledger_blocks``) follows once the block's last
entry is durably enqueued.  The paper closes blocks off the critical path,
for a many-core server; here the commit that fills a block closes it, on
its own thread, after its COMMIT record is appended — durable at once, or
at its group's one fsync under group commit (:meth:`DatabaseLedger.
enqueue`) — and :meth:`repro.core.pipeline.LedgerPipeline.drain` closes the
rest.  The ledger starts no thread of its own.

One lock, ``storage_lock``, guards all of it: the storage engine (which is
not thread-safe), the sequencer's counters, the sealed blocks and the entry
queue.  A commit holds it from :meth:`DatabaseLedger.assign` through
:meth:`DatabaseLedger.enqueue`, so whoever holds it finds every sealed block
with all of its entries in hand; block closure, drains, verification scans
and SQL execution all serialize on it.  Only the progress readers
(``pending_entries``, ``sealed_pending``, ``oldest_queue_entry_age``) read
without it.

Both system tables are ordinary relational tables: their integrity is
protected by the chain itself plus externally stored digests, exactly as in
the paper.

Who reads them, and how.  Everything *operational* costs O(block), never
O(history): a block closes over the entries it was handed at enqueue (or
that :meth:`DatabaseLedger.recover` re-primed) and reads nothing back;
:meth:`~DatabaseLedger.transaction_entry` and :meth:`~DatabaseLedger.block`
are clustered seeks (both tables are keyed on exactly those ids);
:meth:`~DatabaseLedger.transactions_in_block` — receipts, digests,
truncation — is an equality lookup on ``block_id`` through the table's
derived key index; the chain tip comes from the cached closed height.  A
keyed reader re-reads the stored record at the RowId it was given and
re-checks the key, so a row that no longer decodes, or decodes to another
key, is *missing* — never an exception, never a stale answer.  Only
*verification* scans: :meth:`~DatabaseLedger.all_entries` and
:meth:`~DatabaseLedger.blocks` walk the heaps, because a verifier must see
what storage holds, not what an in-memory access path remembers having put
there.  Given the verifier's cache they pass over every page whose exact
image is unchanged and decode only records whose exact bytes they have not
decoded before.
"""

from __future__ import annotations

import datetime as dt
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.digest import BlockHeader, DatabaseDigest
from repro.core.entries import BlockRow, TransactionEntry
from repro.core.verify_snapshot import schema_fingerprint
from repro.crypto.hashing import LeafHashCache
from repro.crypto.merkle import MerkleTree
from repro.engine.database import Database
from repro.engine.record import RecordKernel
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.transaction import Transaction, TxnState
from repro.engine.types import BIGINT, DATETIME, VARBINARY, VARCHAR
from repro.errors import DigestError, InjectedCrashError, LedgerError
from repro.faults import FAULTS
from repro.obs import OBS

FAULTS.register(
    "ledger.flush_queue",
    "Before the queue-flush transaction begins.  Queued entries stay in "
    "memory (and on the WAL via their COMMIT records); the next flush or "
    "recovery re-drains them.",
)
FAULTS.register(
    "ledger.block_persist",
    "Inside block closure, before the block row is inserted.  The block "
    "stays sealed: the next drain or block-filling commit retries the "
    "close, and after a crash recovery re-seals it from the WAL.",
)

TRANSACTIONS_TABLE = "database_ledger_transactions"
BLOCKS_TABLE = "database_ledger_blocks"

#: The paper uses 100K transactions per block; tests and examples shrink it.
DEFAULT_BLOCK_SIZE = 100_000

def _ledger_metrics(reg):
    class _Families:
        blocks_closed = reg.counter(
            "ledger_blocks_closed_total", "Ledger blocks formed and appended"
        )
        digests_generated = reg.counter(
            "digest_generated_total", "Database digests generated"
        )

    return _Families


def _transactions_schema() -> TableSchema:
    return TableSchema(
        TRANSACTIONS_TABLE,
        [
            Column("transaction_id", BIGINT, nullable=False),
            Column("block_id", BIGINT, nullable=False),
            Column("ordinal", BIGINT, nullable=False),
            Column("commit_time", DATETIME, nullable=False),
            Column("username", VARCHAR(128), nullable=False),
            Column("table_hashes", VARBINARY(8000), nullable=False),
        ],
        primary_key=["transaction_id"],
    )


def _blocks_schema() -> TableSchema:
    return TableSchema(
        BLOCKS_TABLE,
        [
            Column("block_id", BIGINT, nullable=False),
            Column("previous_block_hash", VARBINARY(32), nullable=True),
            Column("transactions_root", VARBINARY(32), nullable=False),
            Column("transaction_count", BIGINT, nullable=False),
            Column("closed_time", DATETIME, nullable=False),
        ],
        primary_key=["block_id"],
    )


class DatabaseLedger:
    """Manages the blockchain of transaction blocks for one database."""

    def __init__(
        self, engine: Database, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        if block_size < 1:
            raise LedgerError("block size must be at least 1")
        self._engine = engine
        self._block_size = block_size
        self._m = OBS.metrics.handles("ledger", _ledger_metrics)
        #: The ledger's one lock, shared with every consumer of the
        #: (single-threaded) storage engine via LedgerDatabase/pipeline.
        self.storage_lock = threading.RLock()
        self._queue: List[TransactionEntry] = []
        self._open_block_id = 0
        self._open_ordinal = 0
        #: Sealed-but-unclosed blocks in id order: (block_id, entry_count).
        self._sealed: Deque[Tuple[int, int]] = deque()
        #: Durably enqueued entries of every not-yet-closed block, in hand
        #: from enqueue (or recovery) until the block closes — flushing the
        #: queue to the system table does not remove them, so closing a
        #: block reads nothing back.
        self._pending: Dict[int, List[TransactionEntry]] = {}
        #: Cached highest closed block id (no storage scan; -1 when none).
        self._closed_height = -1
        #: (block id, latest commit time among its entries) of the last
        #: block closed — what the next digest names — so a digest decodes
        #: no entry.  Empty after a restart until the first digest fills it.
        self._tip_commit_time: Optional[Tuple[int, dt.datetime]] = None
        #: Blocks closed since open, by filling commits and drains alike.
        self.blocks_closed = 0
        #: (block id, error) of the last close that failed; the block stays
        #: sealed and ``health()`` degraded until a close succeeds.
        self.close_failure: Optional[Tuple[int, str]] = None
        # Set after truncation: (last truncated block id, its hash).
        self._anchor: Optional[Tuple[int, bytes]] = None
        #: Telemetry side-channel: per queued entry, its enqueue
        #: ``monotonic_ns``.  Consumed by block closure to compute queue
        #: wait.  Never part of hashed state.
        self._entry_meta: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Bootstrap / configuration
    # ------------------------------------------------------------------

    def ensure_system_tables(self) -> None:
        if not self._engine.has_table(TRANSACTIONS_TABLE):
            self._engine.create_table(
                _transactions_schema(),
                {"role": "system", "system_kind": "ledger_transactions"},
            )
        if not self._engine.has_table(BLOCKS_TABLE):
            self._engine.create_table(
                _blocks_schema(), {"role": "system", "system_kind": "ledger_blocks"}
            )

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def open_block_id(self) -> int:
        return self._open_block_id

    # The progress readers below take no lock.  Under the GIL a ``len``, a
    # ``dict.get`` and ``next(iter(list))`` each see a whole container,
    # never a torn one, and a figure one commit stale is all they promise.

    @property
    def pending_entries(self) -> int:
        """Entries still in the in-memory queue (not yet in the system table)."""
        return len(self._queue)

    @property
    def closed_block_height(self) -> int:
        """Highest closed block id, served from cache (no storage access)."""
        return self._closed_height

    def sealed_pending(self) -> int:
        """Blocks sealed by the sequencer but not yet closed."""
        return len(self._sealed)

    def set_anchor(self, block_id: int, block_hash: bytes) -> None:
        """Install the truncation anchor: the chain now starts after it."""
        self._anchor = (block_id, block_hash)

    @property
    def anchor(self) -> Optional[Tuple[int, bytes]]:
        return self._anchor

    def first_block_id(self) -> int:
        """The first block that should exist in the chain."""
        return self._anchor[0] + 1 if self._anchor else 0

    # ------------------------------------------------------------------
    # Stage 2 — the sequencer (called by the ledger hooks at commit)
    # ------------------------------------------------------------------

    def assign(
        self, txn: Transaction, table_roots: Tuple[Tuple[int, bytes], ...]
    ) -> TransactionEntry:
        """Assign the committing transaction its slot in the chain (§3.3.2).

        Pure in-memory bookkeeping — this runs on the commit hot path, under
        the commit's ``storage_lock``.  When the assignment fills the open
        block, the block is *sealed* (also pure bookkeeping); it closes once
        the COMMIT record is appended, in :meth:`enqueue`.
        """
        assert txn.commit_time is not None
        entry = TransactionEntry(
            transaction_id=txn.tid,
            block_id=self._open_block_id,
            ordinal=self._open_ordinal,
            commit_time=txn.commit_time,
            username=txn.username,
            table_roots=table_roots,
        )
        self._open_ordinal += 1
        if self._open_ordinal >= self._block_size:
            self._seal()
        return entry

    def hand_back(self, entry: TransactionEntry) -> None:
        """Return the slot of a commit whose COMMIT record never reached the log.

        The failing commit has held ``storage_lock`` since :meth:`assign`,
        so its slot is the newest one: the open block steps back onto it,
        and a block that assignment sealed is open again.
        """
        if entry.block_id != self._open_block_id:
            self._sealed.pop()
        self._open_block_id = entry.block_id
        self._open_ordinal = entry.ordinal

    def seal_open_block(self) -> Optional[int]:
        """Seal the open block if it holds any entries; returns its id.

        Empty open blocks are never sealed, so the chain never contains
        empty blocks.
        """
        with self.storage_lock:
            return self._seal()

    def _seal(self) -> Optional[int]:
        """Publish (id, count) of the open block and advance past it."""
        if self._open_ordinal == 0:
            return None
        sealed_id = self._open_block_id
        count = self._open_ordinal
        self._sealed.append((sealed_id, count))
        self._open_block_id = sealed_id + 1
        self._open_ordinal = 0
        OBS.events.emit(
            "ledger", "block.sealed", block_id=sealed_id, transactions=count
        )
        return sealed_id

    def enqueue(self, entry: TransactionEntry) -> None:
        """Queue a committed entry (stage 2 → stage 3 handoff).

        Runs under the commit's ``storage_lock``, after its COMMIT record is
        appended: durable already, or, under group commit, at the group's
        one fsync, which the log's order puts before any record the close
        appends.  When the entry completes a sealed block — this commit's
        assignment sealed it — the commit closes every ready sealed block,
        oldest first.  A close that fails does not fail the commit: the
        block stays sealed and :attr:`close_failure` names it until a later
        close succeeds.  A simulated crash still propagates.
        """
        self._queue.append(entry)
        self._pending.setdefault(entry.block_id, []).append(entry)
        if OBS.metrics.enabled or OBS.tracer.enabled:
            self._entry_meta[entry.transaction_id] = time.monotonic_ns()
        if self._sealed and self._sealed[-1][0] == entry.block_id:
            try:
                self.close_ready_blocks()
            except InjectedCrashError:
                raise
            except Exception:
                pass  # recorded by close_next_ready_block; a drain retries

    def oldest_queue_entry_age(self) -> float:
        """Seconds the oldest still-queued entry has been waiting."""
        head = next(iter(self._queue), None)
        if head is None:
            return 0.0
        enqueue_ns = self._entry_meta.get(head.transaction_id)
        if enqueue_ns is None:
            return 0.0
        return max(0.0, (time.monotonic_ns() - enqueue_ns) / 1e9)

    # ------------------------------------------------------------------
    # Queue flushing and block building (stage 3)
    # ------------------------------------------------------------------

    def flush_queue(self) -> int:
        """Batch-insert queued entries into the transactions system table.

        Runs at checkpoint (§3.3.2) and before block closure/verification.
        Returns the number of entries flushed.  Entries enqueued while the
        flush transaction runs are left for the next flush.
        """
        with self.storage_lock:
            snapshot = list(self._queue)
            if not snapshot:
                return 0
            FAULTS.fire("ledger.flush_queue", entries=len(snapshot))
            with OBS.tracer.span("ledger.flush_queue", entries=len(snapshot)):
                table = self._transactions_table()
                txn = self._engine.begin(username="ledger_system")
                with self._system_transaction(txn):
                    table.insert_many(txn, [
                        table.schema.row_from_visible(entry.to_row())
                        for entry in snapshot
                    ])
                    self._engine.commit(txn)
            del self._queue[: len(snapshot)]
        return len(snapshot)

    def next_ready_block(self) -> Optional[Tuple[int, int]]:
        """The oldest sealed block as (id, entry count), if any.

        Under ``storage_lock`` every sealed block is ready: each commit
        holds the lock from :meth:`assign` through :meth:`enqueue`.
        """
        return self._sealed[0] if self._sealed else None

    def close_next_ready_block(self) -> Optional[BlockRow]:
        """Close the oldest sealed block; None when none is sealed.

        Takes ``storage_lock`` for the closure.  A sealed block whose entries
        are not all in hand fails the closure with a :class:`LedgerError`.
        A failed close leaves the block sealed, records it in
        :attr:`close_failure`, emits ``block.close_failed`` and raises; a
        successful one clears the record and counts in :attr:`blocks_closed`.
        """
        with self.storage_lock:
            ready = self.next_ready_block()
            if ready is None:
                return None
            block_id, count = ready
            try:
                block = self._close_block(block_id, count)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                self.close_failure = (block_id, error)
                OBS.events.emit(
                    "ledger", "block.close_failed",
                    block_id=block_id, error=error,
                )
                raise
            self.close_failure = None
            self._sealed.popleft()
            self._pending.pop(block_id, None)
            self._closed_height = block_id
            self.blocks_closed += 1
            return block

    def close_ready_blocks(self) -> int:
        """Close every sealed block, oldest first; returns how many closed.

        Stops at the first close that fails and raises its error.
        """
        with self.storage_lock:
            closed = 0
            while self.close_next_ready_block() is not None:
                closed += 1
            return closed

    def close_open_block(self) -> int:
        """Synchronous path: seal the open block and close everything ready.

        Returns how many blocks closed.  Closing an empty open block is a
        no-op — no empty blocks are ever emitted.
        """
        with self.storage_lock:
            self._seal()
            return self.close_ready_blocks()

    def _close_block(self, block_id: int, expected_count: int) -> BlockRow:
        """Form and persist one sealed block (requires ``storage_lock``).

        Flushes the queue (the block's entries must be in the system table
        before its row is), computes the Merkle root over the hashes of the
        entries *in hand* — the ones enqueue or recovery put in
        ``_pending``, nothing is read back from the table — chains it to the
        previous block (one seek) and persists the block row.  The cost is
        the block's, whatever the size of the history behind it.
        """
        build_start_ns = time.monotonic_ns()
        tracer = OBS.tracer
        with tracer.span("block.append", block_id=block_id) as span:
            self.flush_queue()
            entries = sorted(
                self._pending.get(block_id, ()), key=lambda e: e.ordinal
            )
            if len(entries) != expected_count:
                raise LedgerError(
                    f"block {block_id} should hold {expected_count} "
                    f"entries but {len(entries)} were found"
                )
            # Close the queue-wait interval for every covered commit before
            # the fault point: a kill-mode crash here must leave the waits
            # in the black box.
            self._absorb_entry_meta(block_id, entries, build_start_ns)
            FAULTS.fire("ledger.block_persist", block_id=block_id)
            with tracer.span("merkle.root", block_id=block_id):
                tree = MerkleTree([entry.entry_hash() for entry in entries])
            with tracer.span("block.persist", block_id=block_id):
                previous_hash = self._previous_hash_for(block_id)
                block = BlockRow(
                    block_id=block_id,
                    previous_block_hash=previous_hash,
                    transactions_root=tree.root(),
                    transaction_count=len(entries),
                    closed_time=self._engine.clock(),
                )
                table = self._blocks_table()
                txn = self._engine.begin(username="ledger_system")
                with self._system_transaction(txn):
                    table.insert(
                        txn, table.schema.row_from_visible(block.to_row())
                    )
                    self._engine.commit(txn)
                self._tip_commit_time = (
                    block_id, max(entry.commit_time for entry in entries)
                )
            span.set_attribute("transactions", block.transaction_count)
        self._m.blocks_closed.inc()
        OBS.events.emit(
            "ledger", "block.closed",
            block_id=block.block_id, transactions=block.transaction_count,
        )
        return block

    def _absorb_entry_meta(
        self,
        block_id: int,
        entries: Sequence[TransactionEntry],
        build_start_ns: int,
    ) -> None:
        """Consume queue metadata for a block's entries at closure start.

        For each covered commit this retroactively records a ``queue.wait``
        span naming the commit's ``tid`` and the ``block_id`` that covers it
        — the link from a commit's lineage to its block.
        """
        tracer = OBS.tracer
        enqueued = {
            entry.transaction_id: self._entry_meta.pop(
                entry.transaction_id, None
            )
            for entry in entries
        }
        if not tracer.enabled:
            return
        for entry in entries:
            enqueue_ns = enqueued.get(entry.transaction_id)
            if enqueue_ns is None:
                continue
            tracer.record_span(
                "queue.wait",
                start_ns=enqueue_ns,
                duration_ns=build_start_ns - enqueue_ns,
                tid=entry.transaction_id,
                block_id=block_id,
            )

    def _previous_hash_for(self, block_id: int) -> Optional[bytes]:
        if self._anchor and block_id == self._anchor[0] + 1:
            return self._anchor[1]
        if block_id == 0:
            return None
        previous = self.block(block_id - 1)
        if previous is None:
            raise LedgerError(
                f"cannot close block {block_id}: predecessor is missing"
            )
        return previous.block_hash()

    # ------------------------------------------------------------------
    # Digest generation (§2.2)
    # ------------------------------------------------------------------

    def generate_digest(
        self, database_guid: str, database_create_time: str
    ) -> DatabaseDigest:
        """Produce the Database Digest for the current ledger state.

        Forces the open block to close so the digest covers every committed
        transaction (the paper's frequent-digest design keeps the window of
        uncovered data to seconds).  Concurrent callers should drain the
        pipeline first so in-flight commits are covered too.
        """
        with self.storage_lock, OBS.tracer.span("digest.generate") as span:
            self.close_open_block()
            latest = self.latest_block()
            if latest is None:
                raise DigestError(
                    "the ledger is empty: no transactions have modified "
                    "ledger tables"
                )
            # The covering block: a commit's lineage extends through to
            # the digest that publishes it.
            span.set_attribute("block_id", latest.block_id)
            last_commit = self._last_commit_time_in_block(latest.block_id)
            digest = DatabaseDigest(
                database_guid=database_guid,
                database_create_time=database_create_time,
                block_id=latest.block_id,
                block_hash=latest.block_hash(),
                last_transaction_commit_time=last_commit,
                digest_time=self._engine.clock(),
            )
        self._m.digests_generated.inc()
        OBS.events.emit(
            "digest", "digest.generated",
            block_id=digest.block_id,
            block_hash=digest.block_hash.hex(),
        )
        return digest

    def _last_commit_time_in_block(self, block_id: int) -> dt.datetime:
        """Served from the block close; read by key once after a restart."""
        cached = self._tip_commit_time
        if cached is not None and cached[0] == block_id:
            return cached[1]
        entries = self.transactions_in_block(block_id)
        if not entries:
            raise DigestError(f"block {block_id} holds no transactions")
        self._tip_commit_time = (
            block_id, max(entry.commit_time for entry in entries)
        )
        return self._tip_commit_time[1]

    # ------------------------------------------------------------------
    # Queries over the chain
    # ------------------------------------------------------------------

    def block(self, block_id: int) -> Optional[BlockRow]:
        """The closed block ``block_id``: one clustered seek.

        The record is read from the heap at the RowId the tree holds and its
        key re-checked, so a block row that was erased, no longer decodes or
        now claims another id is missing (None) — as it is to a scan.
        """
        with self.storage_lock:
            block = self._seek(self._blocks_table(), block_id, BlockRow)
        if block is not None and block.block_id == block_id:
            return block
        return None

    def latest_block(self) -> Optional[BlockRow]:
        """The highest closed block that still reads back, without a scan.

        Starts at the cached closed height (kept by block closure and
        :meth:`recover`; truncation never removes the tip) and steps down
        only past rows that have gone missing.
        """
        with self.storage_lock:
            for block_id in range(
                self._closed_height, self.first_block_id() - 1, -1
            ):
                block = self.block(block_id)
                if block is not None:
                    return block
        return None

    def latest_block_id(self) -> int:
        """Highest closed block id; ``first_block_id() - 1`` when none."""
        latest = self.latest_block()
        return latest.block_id if latest else self.first_block_id() - 1

    def blocks(self, cache: Optional[LeafHashCache] = None) -> List[BlockRow]:
        """All closed blocks ordered by block id — verification's reader.

        Reads the heap directly (not through the clustered index) and skips
        undecodable records: a tampered or erased block row must degrade to
        "missing" so verification can report it instead of crashing.  This
        and :meth:`all_entries` are the only full scans of the system
        tables; nothing operational calls them.  With the verifier's
        ``cache``, an unchanged page, or a record read before, comes from
        the memo (see :meth:`_scan`).
        """
        with self.storage_lock:
            found = self._scan(self._blocks_table(), BlockRow, cache)
        found.sort(key=lambda b: b.block_id)
        return found

    def block_headers(self, from_block: int, to_block: int) -> List[BlockHeader]:
        """Headers for blocks ``from_block..to_block`` (external fork checks).

        One seek per block asked for.
        """
        headers = []
        for block_id in range(from_block, to_block + 1):
            block = self.block(block_id)
            if block is None:
                raise LedgerError(f"block {block_id} is missing from the chain")
            headers.append(BlockHeader.from_block_row(block))
        return headers

    def transaction_entry(self, transaction_id: int) -> Optional[TransactionEntry]:
        """The entry of one transaction: the queue, then a clustered seek.

        Queue first, table second — a flush inserts before it trims, so an
        entry on its way from one to the other is never missed.  Like
        :meth:`block`, the stored record is re-read and its key re-checked:
        a tampered row is missing, not an error.
        """
        with self.storage_lock:
            for entry in self._queue:
                if entry.transaction_id == transaction_id:
                    return entry
            entry = self._seek(
                self._transactions_table(), transaction_id, TransactionEntry
            )
        if entry is not None and entry.transaction_id == transaction_id:
            return entry
        return None

    def transactions_in_block(self, block_id: int) -> List[TransactionEntry]:
        """Entries of one block, ordered by ordinal (queue included).

        An equality lookup on ``block_id`` through the table's derived key
        index; each hit is re-read from the heap and kept only if it still
        decodes to this block.  Entries a flush has inserted but not yet
        trimmed from the queue are counted once.
        """
        with self.storage_lock:
            table = self._transactions_table()
            block_ordinal = table.schema.column("block_id").ordinal
            entries = []
            for rid in table.rids_with_key((block_ordinal,), (block_id,)):
                entry = self._row_at(table, rid, TransactionEntry)
                if entry is not None and entry.block_id == block_id:
                    entries.append(entry)
            stored = {entry.transaction_id for entry in entries}
            entries.extend(
                e for e in self._queue
                if e.block_id == block_id and e.transaction_id not in stored
            )
        entries.sort(key=lambda e: e.ordinal)
        return entries

    def all_entries(
        self, cache: Optional[LeafHashCache] = None
    ) -> List[TransactionEntry]:
        """Every known entry (system table + queue), by transaction id.

        Verification's reader: a heap scan in which undecodable rows
        degrade to missing (see :meth:`blocks`).
        """
        with self.storage_lock:
            entries = self._scan(
                self._transactions_table(), TransactionEntry, cache
            )
            entries.extend(self._queue)
        entries.sort(key=lambda e: e.transaction_id)
        return entries

    @staticmethod
    def _scan(
        table: Table, row_class, cache: Optional[LeafHashCache] = None
    ) -> List[Any]:
        """Every row of a system table that still reads, from its heap.

        Requires ``storage_lock``.  Each record is decoded on its own, so
        one that is structurally damaged is skipped like one whose values
        no longer parse.

        Every page is read from the heap on every call.  With a ``cache``,
        memoized under the table's schema fingerprint, a page whose exact
        image is the one the memo holds for it contributes the rows decoded
        from that image, with no per-record work.  The memo keeps each
        page's records beside their rows, so on a changed page every record
        whose exact stored bytes were on the kept image reuses its row — the
        same frozen row, which computes its hash once — and only the rest
        are decoded.  A tampered record or a re-declared column misses and
        is decoded from what storage holds now.  Rows keep their physical
        order.
        """
        schema = table.schema
        decode = schema.derived(RecordKernel).decode
        pages = list(table.heap.pages())
        if cache is None:
            kept = [(False, ())] * len(pages)
        else:
            context = schema_fingerprint(table.name, schema, False)
            kept = cache.get_pages(context, [image for image, _ in pages])
        rows, fills = [], []
        for number, (image, records) in enumerate(pages):
            same, pairs = kept[number]
            if not same:
                known = dict(pairs)
                pairs = []
                for record in records:
                    row = known.get(record)
                    if row is None:
                        try:
                            row = row_class.from_row(
                                schema.visible_values(decode(record))
                            )
                        except Exception:
                            continue
                    pairs.append((record, row))
                fills.append((number, image, pairs))
            rows.extend(row for _, row in pairs)
        if cache is not None and fills:
            cache.put_pages(context, fills)
        return rows

    @classmethod
    def _seek(cls, table: Table, key: int, row_class) -> Any:
        """The row stored under primary key ``key``, or None.

        Requires ``storage_lock``.  The caller checks that what was read
        still carries ``key``.
        """
        rid = table.clustered.seek([key])
        return None if rid is None else cls._row_at(table, rid, row_class)

    @staticmethod
    def _row_at(table: Table, rid, row_class) -> Any:
        """What the record at ``rid`` holds now; None if gone or unreadable."""
        try:
            return row_class.from_row(
                table.schema.visible_values(table.read_row(rid))
            )
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Checkpoint / recovery integration
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, int]:
        with self.storage_lock:
            return {
                "open_block_id": self._open_block_id,
                "open_ordinal": self._open_ordinal,
            }

    def recover(
        self,
        recovered_payloads: Sequence[dict],
        checkpoint_state: Dict[str, int],
    ) -> None:
        """Reconstruct queue, block counters and sealed blocks after restart.

        ``recovered_payloads`` are the ledger payloads of COMMIT records
        found in the WAL (analysis phase, §3.3.2), as decoded from the log;
        only those of entries kept in hand are turned into entries.  A
        payload below the first block belongs to a block a truncation
        removed (its COMMIT record stays in the WAL until the next
        checkpoint) and is dropped.  One whose transaction id is not in the
        clustered tree the engine has just rebuilt was never batched into
        the system table and is re-queued.  Blocks that were sealed
        (fully assigned) but not closed before the crash are re-sealed; the
        next drain, or the next commit that fills a block, closes them.

        Everything held in memory is rebuilt from durable state alone, and
        only the blocks past the last closed one are read: the closed
        height is the last key of the blocks tree.  A block the last
        checkpoint left open (or sealed, not closed) may hold entries
        stored before it, which only the table knows: its entries come from
        :meth:`transactions_in_block`, whose first call builds the
        ``block_id`` index with one key-only pass.  Every later block holds
        exactly the entries of this log's payloads that name it, so it is
        re-primed from them: a re-queued entry from its payload, a stored
        one re-read at the RowId its transaction id seeks to and kept only
        if it still carries that id and block.
        """
        transactions = self._transactions_table()
        # Pre-crash telemetry metadata is meaningless in the new process
        # (monotonic clock restarted, span ids reset) — drop it.
        self._entry_meta = {}
        first_block = self.first_block_id()

        # The closed height is the last key of the blocks tree (a key tuple
        # is ``(1, block_id)``), read without decoding its row: a block row
        # damaged in a value must not stop the open that lets verification
        # report it.
        closed = [key for key, _ in self._blocks_table().clustered.scan()]
        self._closed_height = closed[-1][1] if closed else first_block - 1
        # Every slot assigned before the last checkpoint is at or below the
        # open block it recorded (below it when that block was still empty)
        # and is stored: the checkpoint flushed the queue.  Every slot
        # assigned since rode a COMMIT record of this log, and a flush
        # always follows its COMMIT frame.  So the blocks from ``logged`` on
        # hold only logged entries — all of them when no checkpoint exists.
        open_block = checkpoint_state.get("open_block_id", 0)
        left_open = 1 if checkpoint_state.get("open_ordinal", 0) else 0
        logged = max(open_block + left_open, self._closed_height + 1)
        highest = max(open_block, self._closed_height + 1)
        seek = transactions.clustered.seek
        queue: List[TransactionEntry] = []
        from_log: Dict[int, List[TransactionEntry]] = {}
        for payload in recovered_payloads:
            block_id = payload["block"]
            if block_id < first_block:
                continue
            highest = max(highest, block_id)
            tid = payload["tid"]
            rid = seek([tid])
            if rid is None:
                entry = TransactionEntry.from_payload(payload)
                queue.append(entry)
            elif block_id >= logged:
                entry = self._row_at(transactions, rid, TransactionEntry)
                if entry is None or (entry.transaction_id, entry.block_id) != (
                    tid, block_id
                ):
                    continue  # gone or re-keyed: missing, as to a keyed reader
            if block_id >= logged:
                from_log.setdefault(block_id, []).append(entry)
        self._queue = sorted(queue, key=lambda e: (e.block_id, e.ordinal))

        self._pending = {}
        for block_id in range(self._closed_height + 1, logged):
            entries = self.transactions_in_block(block_id)
            if entries:
                self._pending[block_id] = entries
        for block_id in sorted(from_log):
            self._pending[block_id] = sorted(
                from_log[block_id], key=lambda e: e.ordinal
            )

        # The open block is the highest one anything was assigned to; the
        # ones before it were sealed before the crash, and it is re-sealed
        # too if it is full.
        self._open_block_id = highest
        self._open_ordinal = 1 + max(
            (e.ordinal for e in self._pending.get(highest, ())), default=-1
        )
        self._sealed = deque(
            (block_id, len(self._pending[block_id]))
            for block_id in sorted(self._pending)
            if block_id < highest
        )
        if self._open_ordinal >= self._block_size:
            self._seal()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @contextmanager
    def _system_transaction(self, txn: Transaction) -> Iterator[None]:
        """Roll ``txn`` back if the close goes wrong before its COMMIT
        record reaches the log.  Past that point the engine has stopped
        (``Database.failure``) and recovery decides; a simulated crash
        leaves everything as a dead process would."""
        try:
            yield
        except InjectedCrashError:
            raise
        except Exception:
            if txn.state is TxnState.ACTIVE and self._engine.failure is None:
                self._engine.rollback(txn)
            raise

    def _transactions_table(self) -> Table:
        return self._engine.table(TRANSACTIONS_TABLE)

    def _blocks_table(self) -> Table:
        return self._engine.table(BLOCKS_TABLE)
