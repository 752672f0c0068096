"""Immutable verification snapshots: capture fast, verify off-lock (§2.3, §6).

The paper observes that verification cost is proportional to the data
scanned, and a practical deployment cannot stall the OLTP path while the
scan runs.  This module captures everything verification needs — sealed
blocks, transaction entries, and per-table frozen record streams — in one
short critical section under the storage lock.  All invariant checks then
run against the snapshot with no locks held, so commits proceed concurrently
with verification: lock hold time drops from O(history) to O(snapshot
capture).

The snapshot is cheap because stored records are immutable ``bytes``;
materializing a heap scan is a list of references, not a deep copy.  The
expensive work — transcoding every record into its canonical serialization
and SHA-256 over every row version — happens off-lock, in the range tasks of
:mod:`repro.core.verify_parallel`).

Given a usable :class:`VerificationCheckpoint`, the relations of every
table it covers are captured as a *delta*: only the records attributed to a
transaction above ``checkpoint.max_tid`` (or to a still-open one), found
through the table's derived key index on the start (base) or end (history)
transaction id, re-read by RowId and re-checked, plus the relation's live
record count from the page headers.  The delta costs what the new
transactions wrote, not what the table holds; what the verifier may
conclude from it is stated in :mod:`repro.core.verification`.

``record_events`` is the single routine that turns one stored record into
its verification events; every range task reaches it for each record the
leaf-hash cache does not hold, so no two runs can disagree on hashing
semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core import system_columns as sc
from repro.core.entries import BlockRow, TransactionEntry
from repro.core.ledger_view import history_table_of, view_definition
from repro.crypto.hashing import LeafHashCache, hash_leaf
from repro.engine.record import RecordKernel, hashable_payload
from repro.errors import LedgerError, StorageError
from repro.obs import OBS


#: One row-version event: (transaction id, sequence, leaf digest).
Event = Tuple[Optional[int], int, bytes]


def schema_fingerprint(relation_name: str, schema, is_history: bool) -> str:
    """Content fingerprint of everything decoding and leaf hashing depend on.

    Covers the relation's role (base vs. history changes how many events a
    record yields), every column's name, ordinal, exact type (id + metadata,
    so ``tamper_column_type`` changes the fingerprint), hidden/dropped flags,
    and the primary-key ordinals, whose columns are decoded strictly.  Cache
    entries keyed by this fingerprint — row versions here, the ledger's own
    entry and block records and pages in
    :meth:`repro.core.database_ledger.DatabaseLedger._scan` — can never alias
    across schema changes.
    """
    parts: List[str] = [relation_name, "history" if is_history else "base"]
    for column in schema.columns:
        parts.append(
            f"{column.ordinal}:{column.name}:{column.sql_type.type_id}:"
            f"{column.sql_type.type_meta().hex()}:"
            f"{int(column.hidden)}{int(column.dropped)}"
        )
    parts.append(",".join(str(o) for o in schema.primary_key_ordinals()))
    return "|".join(parts)


@dataclass
class RelationSnapshot:
    """Frozen record stream of one relation (a base table or its history)."""

    name: str
    schema: Any
    fingerprint: str
    is_history: bool
    #: Ordinals of the start (transaction id, sequence number) columns.
    start_ordinals: Tuple[int, int]
    #: History relations: ordinals of the end columns; else empty.
    end_ordinals: Tuple[int, ...]
    #: (page id, slot, stored record bytes) in heap order.  Plain ints, not
    #: a RowId per record: a snapshot holds every record of the database,
    #: and only a finding ever shows where one of them lives.
    records: List[Tuple[int, int, bytes]]
    #: Live records in the relation's heap; more than ``len(records)`` when
    #: only the delta was captured.
    live_count: int
    #: Base relations only: index name -> stored records of the index heap.
    index_records: Dict[str, List[bytes]] = field(default_factory=dict)


@dataclass
class TableSnapshot:
    """One ledger table: base relation plus its optional history relation."""

    table_id: int
    name: str
    base: RelationSnapshot
    history: Optional[RelationSnapshot] = None

    def relations(self) -> List[RelationSnapshot]:
        out = [self.base]
        if self.history is not None:
            out.append(self.history)
        return out


@dataclass
class VerificationSnapshot:
    """Everything a verification run reads, captured at one instant."""

    database_guid: str
    first_block_id: int
    open_block_id: int
    anchor: Optional[Tuple[int, bytes]]
    cutoff_tid: Optional[int]
    entries: Dict[int, TransactionEntry]
    blocks: Dict[int, BlockRow]
    tables: List[TableSnapshot]
    #: view name -> stored definition, from the views catalog.
    views_stored: Dict[str, str]
    #: (view name, canonically re-derived definition) per ledger table.
    views_expected: List[Tuple[str, str]]
    #: Transactions open at capture with no ledger entry yet: their row
    #: versions are not verified until they commit or roll back.
    active_tids: FrozenSet[int] = frozenset()
    #: The checkpoint the delta relations were captured against, if any.
    checkpoint: Optional[VerificationCheckpoint] = None
    #: Why the checkpoint offered to the capture was not used.
    fallback_reason: Optional[str] = None
    #: Seconds the storage lock was held during capture.
    capture_seconds: float = 0.0
    #: Entries grouped by block id, sorted by ordinal (derived, off-lock).
    entries_by_block: Dict[int, List[TransactionEntry]] = field(
        default_factory=dict
    )

    def finalize(self) -> None:
        """Derive secondary structures; runs off-lock after capture."""
        by_block: Dict[int, List[TransactionEntry]] = {}
        for entry in self.entries.values():
            by_block.setdefault(entry.block_id, []).append(entry)
        for group in by_block.values():
            group.sort(key=lambda e: e.ordinal)
        self.entries_by_block = by_block


def _relation(
    table, is_history: bool, records: List[Tuple[int, int, bytes]],
    live_count: int,
) -> RelationSnapshot:
    return RelationSnapshot(
        name=table.name,
        schema=table.schema,
        fingerprint=schema_fingerprint(table.name, table.schema, is_history),
        is_history=is_history,
        start_ordinals=sc.start_ordinals(table.schema),
        end_ordinals=sc.end_ordinals(table.schema) if is_history else (),
        records=records,
        live_count=live_count,
    )


def _full_relation(
    table, is_history: bool, with_indexes: bool
) -> RelationSnapshot:
    """Every record of the relation, in heap order (and of its indexes),
    taken page by page."""
    records = [
        (page_id, slot, record)
        for page_id, page_records in table.heap.page_records()
        for slot, record in page_records
    ]
    relation = _relation(table, is_history, records, len(records))
    if with_indexes:
        for index in table.nonclustered.values():
            relation.index_records[index.name] = index.scan_records()
    return relation


def _delta_relation(
    table, is_history: bool, tids: Iterable[int]
) -> RelationSnapshot:
    """The records attributed to ``tids``, found by key, in heap order.

    A base record is attributed to its start transaction, a history record
    to its end transaction (which is never below its start).  The derived
    key index only says where to look: each candidate is re-read by RowId
    and kept only if its stored transaction id is the one probed, once.
    """
    ordinal = (
        sc.end_ordinals(table.schema) if is_history
        else sc.start_ordinals(table.schema)
    )[0]
    key = (ordinal,)
    project = table.schema.derived(RecordKernel).projector(key)
    heap = table.heap
    found: Dict[Any, bytes] = {}
    for tid in tids:
        for rid in table.rids_with_key(key, (tid,)):
            if rid in found or not heap.exists(rid):
                continue
            record = heap.read(rid)
            try:
                if project(record)[ordinal] != tid:
                    continue
            except StorageError:
                continue
            found[rid] = record
    records = [(page_id, slot, found[page_id, slot])
               for page_id, slot in sorted(found)]
    return _relation(table, is_history, records, heap.record_count())


@dataclass
class VerificationCheckpoint:
    """Where a passing verification run left off: exactly what the next
    incremental cycle checks (:func:`_usable_checkpoint`) or counts against.

    An object this process built from a passing run
    (``report.built_checkpoint``) and hands to the next
    ``db.verify(mode="incremental", checkpoint=...)``; it is never stored.
    Any caller may pass one, so every field is checked before use.
    """

    database_guid: str
    #: Last closed block the passing run covered; its id and recomputed
    #: chained hash are checked against the chain the next cycle captures.
    block_id: int
    block_hash: bytes
    #: Highest transaction id in blocks <= block_id, recomputed by the next
    #: cycle from the same entries.
    max_tid: int
    #: Ledger table id -> row-version leaves at or below ``max_tid`` (a
    #: fixed set, see :func:`record_events`), which the next cycle counts.
    tables: Dict[int, int] = field(default_factory=dict)


def max_tid_through(
    entries: Dict[int, TransactionEntry], block_id: int
) -> Optional[int]:
    """Highest transaction id among the entries in blocks <= ``block_id``."""
    return max(
        (tid for tid, entry in entries.items() if entry.block_id <= block_id),
        default=None,
    )


def _usable_checkpoint(
    checkpoint: Optional[VerificationCheckpoint],
    database_guid: str,
    first_block_id: int,
    blocks: Dict[int, BlockRow],
    entries: Dict[int, TransactionEntry],
) -> Tuple[Optional[VerificationCheckpoint], Optional[str]]:
    """Decide whether the checkpoint can drive an incremental cycle.

    Every field the cycle relies on is checked against what was just
    captured: the block id and hash against the chain, ``max_tid`` against
    the entries of the blocks up to it.  Anything suspicious disqualifies
    the checkpoint and forces a full scan — the conservative direction,
    since a full scan is always sound.
    """
    if checkpoint is None:
        return None, "no checkpoint available"
    if checkpoint.database_guid != database_guid:
        return None, "checkpoint belongs to a different database"
    if checkpoint.block_id < first_block_id:
        return None, "ledger truncated past the checkpoint block"
    block = blocks.get(checkpoint.block_id)
    if block is None:
        return None, f"checkpoint block {checkpoint.block_id} is missing"
    if block.block_hash() != checkpoint.block_hash:
        return (
            None,
            f"recomputed hash of block {checkpoint.block_id} does not "
            "match the checkpoint",
        )
    max_tid = max_tid_through(entries, checkpoint.block_id)
    if max_tid != checkpoint.max_tid:
        return (
            None,
            f"checkpoint transaction {checkpoint.max_tid} is not the last "
            f"one in blocks up to {checkpoint.block_id} ({max_tid})",
        )
    return checkpoint, None


def _truncation_cutoff_tid(db) -> Optional[int]:
    from repro.core.ledger_database import TRUNCATIONS_TABLE

    try:
        table = db.engine.table(TRUNCATIONS_TABLE)
    except Exception:
        return None
    cutoff = None
    ordinal = table.schema.column("truncated_through_tid").ordinal
    for _, row in table.scan():
        value = row[ordinal]
        if cutoff is None or value > cutoff:
            cutoff = value
    return cutoff


def capture_snapshot(
    db,
    table_names: Optional[Sequence[str]] = None,
    checkpoint: Optional[VerificationCheckpoint] = None,
    cache: Optional[LeafHashCache] = None,
) -> VerificationSnapshot:
    """Capture a consistent verification snapshot under the storage lock.

    Drains the pipeline without sealing the open block (sealed blocks close
    so the chain tip is complete; open-block entries keep verifying as
    uncovered transactions), flushes the entry queue, then materializes
    references to every stored record verification will read.  The lock is
    released before any hashing happens.

    With a ``checkpoint`` that :func:`_usable_checkpoint` accepts against
    the blocks and entries just captured, each table it covers is captured
    as a delta (:func:`_delta_relation`) and no index heap is copied — an
    incremental run defers the index invariant.  Every other table, and
    every run without a usable checkpoint, is captured whole.

    A sealed block that cannot close — its predecessor is missing or no
    longer reads — stays unclosed in the snapshot: its entries then
    reference a block outside the chain, which verification reports.

    Every entry and block record is read from its heap on every capture;
    with the verifier's ``cache`` only the ones never decoded before are
    decoded (:meth:`repro.core.database_ledger.DatabaseLedger._scan`).
    """
    from repro.core.ledger_database import VIEWS_TABLE

    ledger = db.ledger
    started = time.perf_counter()
    with ledger.storage_lock, OBS.tracer.span("verify.snapshot"):
        try:
            db.pipeline.drain(seal_open=False)
        except LedgerError:
            # A sealed block failed to close.  With none sealed the
            # pipeline is shut down: still an error.
            if ledger.next_ready_block() is None:
                raise
        ledger.flush_queue()
        entries = {e.transaction_id: e for e in ledger.all_entries(cache)}
        blocks = {b.block_id: b for b in ledger.blocks(cache)}
        cutoff_tid = _truncation_cutoff_tid(db)
        database_guid = db.database_guid
        first_block_id = ledger.first_block_id()
        checkpoint, fallback_reason = _usable_checkpoint(
            checkpoint, database_guid, first_block_id, blocks, entries
        )
        active_tids = frozenset(
            txn.tid for txn in db.engine.active_transactions
            if txn.tid not in entries
        )
        if checkpoint is not None:
            delta_tids = sorted(
                active_tids.union(
                    tid for tid in entries if tid > checkpoint.max_tid
                )
            )

        all_tables = db.ledger_tables()
        if table_names is not None:
            wanted = set(table_names)
            target_tables = [t for t in all_tables if t.name in wanted]
        else:
            target_tables = all_tables

        tables: List[TableSnapshot] = []
        for table in target_tables:
            history = history_table_of(db.engine, table)
            if checkpoint is not None and table.table_id in checkpoint.tables:
                base = _delta_relation(table, False, delta_tids)
                history_rel = (
                    _delta_relation(history, True, delta_tids)
                    if history is not None else None
                )
            else:
                with_indexes = checkpoint is None
                base = _full_relation(table, False, with_indexes)
                history_rel = (
                    _full_relation(history, True, with_indexes)
                    if history is not None else None
                )
            tables.append(
                TableSnapshot(
                    table_id=table.table_id,
                    name=table.name,
                    base=base,
                    history=history_rel,
                )
            )

        views = db.engine.table(VIEWS_TABLE)
        name_ord = views.schema.column("view_name").ordinal
        def_ord = views.schema.column("definition").ordinal
        views_stored = {
            row[name_ord]: row[def_ord] for _, row in views.scan()
        }
        views_expected = [
            (f"{table.name}_ledger", view_definition(db.engine, table))
            for table in all_tables
        ]

        snapshot = VerificationSnapshot(
            database_guid=database_guid,
            first_block_id=first_block_id,
            open_block_id=ledger.open_block_id,
            anchor=ledger.anchor,
            cutoff_tid=cutoff_tid,
            entries=entries,
            blocks=blocks,
            tables=tables,
            views_stored=views_stored,
            views_expected=views_expected,
            active_tids=active_tids,
            checkpoint=checkpoint,
            fallback_reason=fallback_reason,
        )
    snapshot.capture_seconds = time.perf_counter() - started
    snapshot.finalize()
    return snapshot


def record_events(
    relation: RelationSnapshot, record: bytes
) -> Tuple[Event, ...]:
    """Derive the verification events of one stored record.

    Base relation records yield one event attributed to the creating
    transaction; history records yield two — the as-created form (end
    columns left out, exactly as the creating transaction hashed the
    version) and the as-deleted full row (hashed by the deleting
    transaction).  The canonical serialization skips NULL values, so a live
    row's NULL end columns hash identically to the as-created history form —
    the property that keeps per-table event streams append-only and makes
    a checkpoint's per-table leaf counts stable.  The last event's leaf is
    always the full row's, which the index invariant compares with index
    copies.

    One kernel pass (:func:`repro.engine.record.hashable_payload`) checks
    the record's structure, builds both payloads from the stored bytes and
    decodes the system and clustered-key columns — nothing else.  Raises
    :class:`repro.errors.StorageError` on structural damage or a system or
    key value that does not decode; damage confined to another column's
    value bytes changes the leaf instead.
    """
    start_tid, start_seq = relation.start_ordinals
    payload, created, row = hashable_payload(
        relation.schema, record, relation.end_ordinals
    )
    seq = row[start_seq]
    if not relation.is_history:
        return (
            (row[start_tid], -1 if seq is None else seq, hash_leaf(payload)),
        )
    end_tid, end_seq = relation.end_ordinals
    end = row[end_seq]
    return (
        (row[start_tid], -1 if seq is None else seq, hash_leaf(created)),
        (row[end_tid], -1 if end is None else end, hash_leaf(payload)),
    )
