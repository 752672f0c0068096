"""The Database Ledger: transaction entries, blocks, and digests (§2.2, §3.3).

Committed transactions that touched ledger tables become *transaction
entries*.  Entries are assigned a (block id, ordinal) at commit time by the
**sequencer** and ride on the COMMIT WAL record; they then sit in an
**in-memory queue** until a checkpoint batches them into the
``database_ledger_transactions`` system table — the contention-avoiding
design of §3.3.2.

Block formation is *staged* (§4.2): when the sequencer hands out the last
ordinal of a block it **seals** the block — pure in-memory bookkeeping on the
commit hot path — and block *closure* (Merkle root over the entry hashes,
hash chaining, persistence into ``database_ledger_blocks``) happens later,
off the critical path, driven by the block-builder thread of
:class:`repro.core.pipeline.LedgerPipeline` or by an explicit ``drain()``.

Concurrency is per stage rather than one coarse mutex:

* ``sequencer_lock`` — guards ordinal/block assignment and sealing;
* ``queue_lock`` — guards the entry queue and per-block enqueue accounting
  (its condition variable is how ``drain()`` waits for in-flight commits);
* ``storage_lock`` — guards every storage-engine access (the engine itself
  is not thread-safe); block closure, verification scans and SQL execution
  all serialize on it.

Lock hierarchy (acquire left to right, never the reverse):
``storage_lock`` → ``sequencer_lock`` → ``queue_lock``.

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
there.  Given the verifier's cache they decode only records whose exact
bytes they have not decoded before.
"""

from __future__ import annotations

import datetime as dt
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
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
from repro.engine.transaction import Transaction
from repro.engine.types import BIGINT, DATETIME, VARBINARY, VARCHAR
from repro.errors import DigestError, LedgerError
from repro.faults import FAULTS
from repro.obs import OBS
from repro.obs.context import TraceContext
from repro.obs.tracing import build_lineage_tree, render_span_tree

FAULTS.register(
    "ledger.flush_queue",
    "Before the queue-flush transaction begins.  Queued entries stay in "
    "memory (and on the WAL via their COMMIT records); the next flush or "
    "recovery re-drains them.",
)
FAULTS.register(
    "ledger.block_persist",
    "Inside block closure, before the block row is inserted.  The block "
    "stays sealed-but-open; recovery rebuilds the sealed queue from the "
    "WAL and closure is retried.",
)

TRANSACTIONS_TABLE = "database_ledger_transactions"
BLOCKS_TABLE = "database_ledger_blocks"

#: The paper uses 100K transactions per block; tests and examples shrink it.
DEFAULT_BLOCK_SIZE = 100_000

#: Queue wait (seconds) beyond which a commit is reported as slow.
DEFAULT_SLOW_TXN_THRESHOLD = 1.0

#: Cap on per-block ``block.append`` → commit links and on retained
#: block-trace contexts: enough to stitch lineage without unbounded growth.
_MAX_BLOCK_LINKS = 16
_MAX_BLOCK_TRACES = 64

#: Cap on rendered lineage lines embedded in a ``txn.slow`` event.
_MAX_SLOW_LINEAGE_LINES = 80

def _ledger_metrics(reg):
    class _Families:
        entries_enqueued = reg.counter(
            "ledger_entries_enqueued_total",
            "Transaction entries enqueued after durable commit",
        )
        entries_flushed = reg.counter(
            "ledger_entries_flushed_total",
            "Transaction entries batch-inserted into the system table",
        )
        queue_depth = reg.gauge(
            "ledger_queue_depth",
            "Transaction entries currently waiting in the in-memory queue",
        )
        sealed_pending = reg.gauge(
            "ledger_sealed_blocks_pending",
            "Blocks sealed by the sequencer but not yet closed by the "
            "block builder",
        )
        blocks_sealed = reg.counter(
            "ledger_blocks_sealed_total", "Blocks sealed by the sequencer"
        )
        blocks_closed = reg.counter(
            "ledger_blocks_closed_total", "Ledger blocks formed and appended"
        )
        block_close_seconds = reg.histogram(
            "ledger_block_close_seconds",
            "Time to form one block (flush, Merkle root, persist)",
        )
        block_transactions = reg.histogram(
            "ledger_block_transactions",
            "Transactions per closed block",
            buckets=(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000),
        )
        stage_seconds = reg.histogram(
            "pipeline_stage_seconds",
            "Wall time per commit-pipeline stage operation "
            "(seal, flush, merkle, persist, close, drain)",
            ("stage",),
        )
        queue_wait_seconds = reg.histogram(
            "pipeline_queue_wait_seconds",
            "Per-entry wait between durable enqueue and block-closure start",
        )
        queue_oldest_age = reg.gauge(
            "ledger_queue_oldest_age_seconds",
            "Age of the oldest entry still waiting in the in-memory queue",
        )
        digests_generated = reg.counter(
            "digest_generated_total", "Database digests generated"
        )
        digest_generate_seconds = reg.histogram(
            "digest_generate_seconds", "Digest generation latency"
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
        #: Stage locks.  ``storage_lock`` is shared with every consumer of
        #: the (single-threaded) storage engine via LedgerDatabase/pipeline.
        self.storage_lock = threading.RLock()
        self.sequencer_lock = threading.RLock()
        self.queue_lock = threading.RLock()
        self._queue_cv = threading.Condition(self.queue_lock)
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
        #: Pipeline wake-up: invoked when a sealed block becomes closable.
        self._sealed_ready_callback: Optional[Callable[[], None]] = None
        # Set after truncation: (last truncated block id, its hash).
        self._anchor: Optional[Tuple[int, bytes]] = None
        #: Telemetry side-channel (guarded by ``queue_lock``): per queued
        #: entry, (enqueue monotonic_ns, trace-context payload or None).
        #: Consumed by block closure to compute queue wait and to stitch the
        #: builder's spans into the originating commit's trace.  Never part
        #: of hashed state.
        self._entry_meta: Dict[int, Tuple[int, Optional[Dict[str, Any]]]] = {}
        #: Trace context of the ``block.append`` span per recently closed
        #: block (guarded by ``queue_lock``), so digest generation/upload
        #: can link back to the block that covers them.
        self._block_traces: Dict[int, Dict[str, Any]] = {}
        #: Queue waits beyond this many seconds emit a ``txn.slow`` event
        #: carrying the offending commit's lineage tree.
        self.slow_txn_threshold = DEFAULT_SLOW_TXN_THRESHOLD

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

    @property
    def pending_entries(self) -> int:
        """Entries still in the in-memory queue (not yet in the system table)."""
        with self.queue_lock:
            return len(self._queue)

    @property
    def closed_block_height(self) -> int:
        """Highest closed block id, served from cache (no storage access)."""
        return self._closed_height

    def sealed_pending(self) -> int:
        """Blocks sealed by the sequencer but not yet closed."""
        with self.queue_lock:
            return len(self._sealed)

    def set_sealed_ready_callback(
        self, callback: Optional[Callable[[], None]]
    ) -> None:
        """Install the pipeline's wake-up for newly closable sealed blocks."""
        self._sealed_ready_callback = callback

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

        Pure in-memory bookkeeping — this runs on the commit hot path.  When
        the assignment fills the open block, the block is *sealed* (also pure
        bookkeeping); Merkle root computation and persistence happen later,
        off the commit path.
        """
        assert txn.commit_time is not None
        with self.sequencer_lock:
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
                self._seal_locked()
        return entry

    def seal_open_block(self) -> Optional[int]:
        """Seal the open block if it holds any entries; returns its id.

        Empty open blocks are never sealed, so the chain never contains
        empty blocks.
        """
        with self.sequencer_lock:
            return self._seal_locked()

    def _seal_locked(self) -> Optional[int]:
        """Seal under ``sequencer_lock``: publish (id, count), advance."""
        if self._open_ordinal == 0:
            return None
        started = time.perf_counter()
        sealed_id = self._open_block_id
        count = self._open_ordinal
        with self.queue_lock:
            self._sealed.append((sealed_id, count))
            if OBS.metrics.enabled:
                self._m.sealed_pending.set(len(self._sealed))
        self._open_block_id = sealed_id + 1
        self._open_ordinal = 0
        if OBS.metrics.enabled:
            self._m.blocks_sealed.inc()
            self._m.stage_seconds.labels("seal").observe(
                time.perf_counter() - started
            )
        OBS.events.emit(
            "ledger", "block.sealed", block_id=sealed_id, transactions=count
        )
        return sealed_id

    def enqueue(
        self,
        entry: TransactionEntry,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Queue a durably committed entry (stage 2 → stage 3 handoff).

        Never closes blocks inline: when the entry completes a sealed block
        the registered pipeline callback is invoked so the block builder
        picks it up asynchronously.  ``trace`` is the commit's trace-context
        payload (if tracing is on); it crosses the thread boundary with the
        entry so the builder can attach its spans to the commit's trace.
        """
        ready = False
        with self.queue_lock:
            self._queue.append(entry)
            self._pending.setdefault(entry.block_id, []).append(entry)
            if self._sealed:
                head_id, head_count = self._sealed[0]
                ready = len(self._pending.get(head_id, ())) >= head_count
            if OBS.metrics.enabled or OBS.tracer.enabled:
                self._entry_meta[entry.transaction_id] = (
                    time.monotonic_ns(),
                    trace,
                )
            if OBS.metrics.enabled:
                self._m.entries_enqueued.inc()
                self._m.queue_depth.set(len(self._queue))
                self._m.queue_oldest_age.set(self._oldest_age_locked())
            self._queue_cv.notify_all()
        if ready and self._sealed_ready_callback is not None:
            self._sealed_ready_callback()

    def _oldest_age_locked(self) -> float:
        """Age (s) of the head queue entry; requires ``queue_lock``."""
        if not self._queue:
            return 0.0
        meta = self._entry_meta.get(self._queue[0].transaction_id)
        if meta is None:
            return 0.0
        return max(0.0, (time.monotonic_ns() - meta[0]) / 1e9)

    def oldest_queue_entry_age(self) -> float:
        """Seconds the oldest still-queued entry has been waiting."""
        with self.queue_lock:
            return self._oldest_age_locked()

    def wait_for_sealed_entries(self, timeout: float) -> bool:
        """Wait until every sealed block has all its entries enqueued.

        Returns False on timeout (an in-flight commit has an assigned slot
        in a sealed block but has not reached post-commit yet).
        """
        deadline = time.monotonic() + timeout
        with self.queue_lock:
            while True:
                incomplete = [
                    block_id
                    for block_id, count in self._sealed
                    if len(self._pending.get(block_id, ())) < count
                ]
                if not incomplete:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._queue_cv.wait(remaining)

    # ------------------------------------------------------------------
    # Queue flushing and block building (stage 3)
    # ------------------------------------------------------------------

    def flush_queue(self) -> int:
        """Batch-insert queued entries into the transactions system table.

        Runs at checkpoint (§3.3.2) and before block closure/verification.
        Returns the number of entries flushed.  Entries enqueued while the
        flush transaction runs are left for the next flush.
        """
        with self.queue_lock:
            snapshot = list(self._queue)
        if not snapshot:
            return 0
        FAULTS.fire("ledger.flush_queue", entries=len(snapshot))
        started = time.perf_counter()
        with self.storage_lock, OBS.tracer.span(
            "ledger.flush_queue", entries=len(snapshot)
        ):
            table = self._transactions_table()
            txn = self._engine.begin(username="ledger_system")
            try:
                table.insert_many(txn, [
                    table.schema.row_from_visible(entry.to_row())
                    for entry in snapshot
                ])
            except Exception:
                self._engine.rollback(txn)
                raise
            self._engine.commit(txn)
        with self.queue_lock:
            del self._queue[: len(snapshot)]
            if OBS.metrics.enabled:
                self._m.queue_depth.set(len(self._queue))
                self._m.queue_oldest_age.set(self._oldest_age_locked())
        if OBS.metrics.enabled:
            self._m.entries_flushed.inc(len(snapshot))
            self._m.stage_seconds.labels("flush").observe(
                time.perf_counter() - started
            )
        return len(snapshot)

    def next_ready_block(self) -> Optional[Tuple[int, int]]:
        """The oldest sealed block whose entries are all enqueued, if any."""
        with self.queue_lock:
            if not self._sealed:
                return None
            block_id, count = self._sealed[0]
            if len(self._pending.get(block_id, ())) < count:
                return None
            return block_id, count

    def close_next_ready_block(self) -> Optional[BlockRow]:
        """Close the oldest closable sealed block; None when nothing is ready.

        Takes ``storage_lock`` for the closure; safe to call concurrently
        from the block builder and a draining consumer.
        """
        with self.storage_lock:
            ready = self.next_ready_block()
            if ready is None:
                return None
            block_id, count = ready
            block = self._close_block(block_id, count)
            with self.queue_lock:
                self._sealed.popleft()
                self._pending.pop(block_id, None)
                if OBS.metrics.enabled:
                    self._m.sealed_pending.set(len(self._sealed))
            self._closed_height = block_id
            return block

    def close_open_block(self) -> Optional[BlockRow]:
        """Synchronous path: seal the open block and close everything ready.

        Returns the last block closed, or None if nothing was closable.
        Closing an empty open block is a no-op — no empty blocks are ever
        emitted.  Consumers that must also wait for in-flight concurrent
        commits should use :meth:`repro.core.pipeline.LedgerPipeline.drain`.
        """
        self.seal_open_block()
        last: Optional[BlockRow] = None
        while True:
            block = self.close_next_ready_block()
            if block is None:
                return last
            last = block

    def _close_block(self, block_id: int, expected_count: int) -> BlockRow:
        """Form and persist one sealed block (requires ``storage_lock``).

        Flushes the queue (the block's entries must be in the system table
        before its row is), computes the Merkle root over the hashes of the
        entries *in hand* — the ones enqueue or recovery put in
        ``_pending``, nothing is read back from the table — chains it to the
        previous block (one seek) and persists the block row.  The cost is
        the block's, whatever the size of the history behind it.
        """
        started = time.perf_counter()
        build_start_ns = time.monotonic_ns()
        tracer = OBS.tracer
        with tracer.span("block.append", block_id=block_id) as span:
            self.flush_queue()
            with self.queue_lock:
                entries = sorted(
                    self._pending.get(block_id, ()), key=lambda e: e.ordinal
                )
            if len(entries) != expected_count:
                raise LedgerError(
                    f"block {block_id} should hold {expected_count} "
                    f"entries but {len(entries)} were found"
                )
            # Close the queue-wait interval for every covered commit (and
            # link the block span to their traces) before the fault point:
            # a kill-mode crash here must leave the waits in the black box.
            self._absorb_entry_meta(span, block_id, entries, build_start_ns)
            FAULTS.fire("ledger.block_persist", block_id=block_id)
            merkle_started = time.perf_counter()
            with tracer.span("merkle.root", block_id=block_id):
                tree = MerkleTree([entry.entry_hash() for entry in entries])
            if OBS.metrics.enabled:
                self._m.stage_seconds.labels("merkle").observe(
                    time.perf_counter() - merkle_started
                )
            persist_started = time.perf_counter()
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
                table.insert(
                    txn, table.schema.row_from_visible(block.to_row())
                )
                self._engine.commit(txn)
                self._tip_commit_time = (
                    block_id, max(entry.commit_time for entry in entries)
                )
            if OBS.metrics.enabled:
                self._m.stage_seconds.labels("persist").observe(
                    time.perf_counter() - persist_started
                )
            span.set_attribute("transactions", block.transaction_count)
            block_trace = span.context()
            if block_trace is not None:
                with self.queue_lock:
                    self._block_traces[block_id] = block_trace.to_payload()
                    while len(self._block_traces) > _MAX_BLOCK_TRACES:
                        self._block_traces.pop(next(iter(self._block_traces)))
        if OBS.metrics.enabled:
            self._m.blocks_closed.inc()
            self._m.block_transactions.observe(block.transaction_count)
            elapsed = time.perf_counter() - started
            self._m.block_close_seconds.observe(elapsed)
            self._m.stage_seconds.labels("close").observe(elapsed)
        OBS.events.emit(
            "ledger", "block.closed",
            block_id=block.block_id, transactions=block.transaction_count,
        )
        return block

    def _absorb_entry_meta(
        self,
        block_span,
        block_id: int,
        entries: Sequence[TransactionEntry],
        build_start_ns: int,
    ) -> None:
        """Consume queue metadata for a block's entries at closure start.

        For each covered commit this observes ``pipeline_queue_wait_seconds``,
        retroactively records a ``queue.wait`` span *inside the commit's own
        trace* (its parent is the commit-side span the context points at),
        links the ``block.append`` span to the first ``_MAX_BLOCK_LINKS``
        commit traces, and — when a wait crossed ``slow_txn_threshold`` —
        emits a ``txn.slow`` event carrying the worst commit's lineage tree.
        """
        tracer = OBS.tracer
        metrics_on = OBS.metrics.enabled
        with self.queue_lock:
            metas = {
                entry.transaction_id: self._entry_meta.pop(
                    entry.transaction_id, None
                )
                for entry in entries
            }
        if not (metrics_on or tracer.enabled):
            return
        slowest: Optional[Tuple[float, int, Optional[TraceContext]]] = None
        slow_count = 0
        links_added = 0
        for entry in entries:
            meta = metas.get(entry.transaction_id)
            if meta is None:
                continue
            enqueue_ns, trace_payload = meta
            wait_seconds = max(0.0, (build_start_ns - enqueue_ns) / 1e9)
            if metrics_on:
                self._m.queue_wait_seconds.observe(wait_seconds)
            context = TraceContext.from_payload(trace_payload)
            if tracer.enabled and context is not None:
                tracer.record_span(
                    "queue.wait",
                    start_ns=enqueue_ns,
                    duration_ns=build_start_ns - enqueue_ns,
                    context=context,
                    tid=entry.transaction_id,
                    block_id=block_id,
                )
                if links_added < _MAX_BLOCK_LINKS:
                    block_span.add_link(context.trace_id, context.span_id)
                    links_added += 1
            if wait_seconds > self.slow_txn_threshold:
                slow_count += 1
                if slowest is None or wait_seconds > slowest[0]:
                    slowest = (wait_seconds, entry.transaction_id, context)
        if slowest is not None and OBS.events.enabled:
            wait_seconds, tid, context = slowest
            lineage = ""
            if tracer.enabled and context is not None:
                roots = build_lineage_tree(
                    tracer.recorder.spans(), context.trace_id
                )
                lines = render_span_tree(roots).splitlines()
                lineage = "\n".join(lines[:_MAX_SLOW_LINEAGE_LINES])
            OBS.events.emit(
                "ledger", "txn.slow",
                tid=tid, block_id=block_id,
                queue_wait_seconds=round(wait_seconds, 6),
                threshold_seconds=self.slow_txn_threshold,
                slow_entries=slow_count,
                lineage=lineage,
            )

    def trace_context_for_block(
        self, block_id: int
    ) -> Optional[TraceContext]:
        """The ``block.append`` trace context for a recently closed block."""
        with self.queue_lock:
            payload = self._block_traces.get(block_id)
        return TraceContext.from_payload(payload)

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
        started = time.perf_counter()
        with self.storage_lock, OBS.tracer.span("digest.generate") as span:
            self.close_open_block()
            latest = self.latest_block()
            if latest is None:
                raise DigestError(
                    "the ledger is empty: no transactions have modified "
                    "ledger tables"
                )
            # Link into the covering block's trace so a commit's lineage
            # extends through to the digest that publishes it.
            block_trace = self.trace_context_for_block(latest.block_id)
            if block_trace is not None:
                span.add_link(block_trace.trace_id, block_trace.span_id)
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
        self._m.digest_generate_seconds.observe(time.perf_counter() - started)
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
        ``cache``, a record read before decodes from the memo (see
        :meth:`_scan`).
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
        with self.queue_lock:
            for entry in self._queue:
                if entry.transaction_id == transaction_id:
                    return entry
        with self.storage_lock:
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
            with self.queue_lock:
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
        with self.queue_lock:
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

        Every record is read from the heap on every call.  With a ``cache``,
        one whose key — (the table's schema fingerprint, its exact stored
        bytes) — was decoded before is served from the memo: the same
        frozen row, which computes its hash once.  A tampered record or a
        re-declared column misses and is decoded from what storage holds
        now.  Lookups and fills are one batch each.
        """
        schema = table.schema
        decode = schema.derived(RecordKernel).decode
        records = [record for _, record in table.heap.scan()]
        if cache is None:
            memo: List[Any] = [None] * len(records)
        else:
            context = schema_fingerprint(table.name, schema, False)
            memo = cache.get_many(context, records)
        found, decoded = [], []
        for record, row in zip(records, memo):
            if row is None:
                try:
                    row = row_class.from_row(
                        schema.visible_values(decode(record))
                    )
                except Exception:
                    continue
                decoded.append((record, row))
            found.append(row)
        if cache is not None and decoded:
            cache.put_many(context, decoded)
        return found

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
        with self.sequencer_lock:
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
        found in the WAL (analysis phase, §3.3.2).  Entries already batched
        into the system table before the crash are deduplicated by
        transaction id — one seek each in the clustered tree the engine has
        just rebuilt.  COMMIT records written before a truncation stay in
        the WAL until the next checkpoint; their entries belong to blocks
        below the anchor (installed by the caller beforehand) and are
        dropped, not re-enqueued.  Blocks that were sealed (fully assigned)
        but not closed before the crash are re-sealed so the block builder
        finishes them.

        Everything held in memory is rebuilt from durable state alone, and
        only the blocks past the last closed one are read: the closed
        height is the last key of the blocks tree, the entries in hand are
        those blocks' rows (one key-only pass builds the ``block_id`` index
        that finds them) plus the re-queued ones.
        """
        transactions = self._transactions_table()
        # Pre-crash telemetry metadata is meaningless in the new process
        # (monotonic clock restarted, span ids reset) — drop it.
        self._entry_meta = {}
        self._block_traces = {}
        first_block = self.first_block_id()
        recovered = [
            entry
            for entry in map(TransactionEntry.from_payload, recovered_payloads)
            if entry.block_id >= first_block
        ]
        self._queue = sorted(
            (
                entry for entry in recovered
                if transactions.clustered.seek([entry.transaction_id]) is None
            ),
            key=lambda e: (e.block_id, e.ordinal),
        )

        blocks = self._blocks_table()
        closed = [rid for _, rid in blocks.clustered.scan()]  # in id order
        self._closed_height = (
            blocks.read_row(closed[-1])[blocks.schema.column("block_id").ordinal]
            if closed
            else first_block - 1
        )
        # Every slot assigned before the last checkpoint is at or below the
        # open block it recorded; every one assigned since rode a COMMIT
        # record.  Together they bound the blocks that can hold entries.
        highest = max(
            [checkpoint_state.get("open_block_id", 0), self._closed_height + 1]
            + [entry.block_id for entry in recovered]
        )
        self._pending = {}
        for block_id in range(self._closed_height + 1, highest + 1):
            entries = self.transactions_in_block(block_id)
            if entries:
                self._pending[block_id] = entries

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
            self._seal_locked()
        if OBS.metrics.enabled:
            self._m.sealed_pending.set(len(self._sealed))
            self._m.queue_depth.set(len(self._queue))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transactions_table(self) -> Table:
        return self._engine.table(TRANSACTIONS_TABLE)

    def _blocks_table(self) -> Table:
        return self._engine.table(BLOCKS_TABLE)
