"""Table: schema + heap + indexes + the DML operations that tie them together.

This is where the ledger's DML-plan extensions (paper §3.2) attach: every
insert/update/delete runs the registered :class:`EngineHooks` *before* the
storage mutation.  The hooks return the row prepared for storage
(:data:`PreparedRow`, from :meth:`Table.prepare_row`): the ledger populates
the hidden system columns, prepares the row, and hashes exactly the record
bytes that will be stored.  History-table maintenance is performed by the
ledger layer through :meth:`system_insert`, which bypasses the hooks (history
rows are hashed as part of the originating operation, not as fresh inserts).

An update rewrites its row where it lies whenever the page can hold the new
version, and moves it (delete + insert, a new RowId) only when it cannot.
Either way the WAL carries a DELETE record (with the before-image) followed
by an INSERT record; redo replays both idempotently, undo reverts them.

Every write is kept by its transaction in one step, :meth:`Table._log`:
memory changes, then the change's log frames and the action that takes it
back become one entry of the transaction (``Transaction.changes``).  A
table never writes the log: COMMIT appends the frames of the changes its
transaction kept, and a rollback takes changes back in memory only.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any, Callable, DefaultDict, Dict, Iterator, List, Optional, Sequence,
    Set, Tuple,
)

from repro.engine.heap import HeapFile, RowId
from repro.engine.index import (
    ClusteredIndex,
    DerivedKeyIndex,
    NonclusteredIndex,
)
from repro.engine.pager import MAX_RECORD_SIZE
from repro.engine.record import RecordKernel, decode_record
from repro.engine.schema import IndexDefinition, TableSchema
from repro.engine.transaction import Transaction
from repro.engine.wal import DELETE, INSERT, INSERT_MANY, DmlRecord
from repro.errors import ConstraintError, StorageError

#: A row ready to store: (validated physical values, their record bytes,
#: the record's canonical payload — :meth:`RecordKernel.write`).
PreparedRow = Tuple[Tuple[Any, ...], bytes, bytes]


class Table:
    """A stored table and its physical access paths."""

    def __init__(
        self,
        table_id: int,
        schema: TableSchema,
        hooks_ref: Callable[[], Any],
        options: Optional[Dict[str, Any]] = None,
        heap: Optional[HeapFile] = None,
        lock_manager=None,
    ) -> None:
        self.table_id = table_id
        self.schema = schema
        self.options = options if options is not None else {}
        self._hooks_ref = hooks_ref
        self._lock_manager = lock_manager
        self.heap = heap if heap is not None else HeapFile(schema.name)
        self.clustered: Optional[ClusteredIndex] = (
            ClusteredIndex(schema) if schema.primary_key else None
        )
        self.nonclustered: Dict[str, NonclusteredIndex] = {}
        for definition in schema.indexes:
            self.nonclustered[definition.name] = NonclusteredIndex(
                schema.name, definition, schema
            )
        # Built on first use by :meth:`rids_with_key`, one per key-ordinal
        # tuple; a missing entry means "rebuild".
        self._key_indexes: Dict[Tuple[int, ...], DerivedKeyIndex] = {}

    @property
    def name(self) -> str:
        return self.schema.name

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _acquire_write_lock(self, txn: Transaction) -> None:
        if self._lock_manager is not None:
            from repro.engine.locks import LockMode

            self._lock_manager.acquire(txn.tid, self.table_id, LockMode.EXCLUSIVE)

    def prepare_row(self, row: Sequence[Any]) -> PreparedRow:
        """Validate a physical row and encode it, record and hashed payload:
        one generated writer call (:meth:`RecordKernel.write`)."""
        return self.schema.derived(RecordKernel).write(row)

    def insert(self, txn: Transaction, row: List[Any]) -> RowId:
        """Insert a physical row through the full pipeline (hooks included)."""
        txn.require_active()
        self._acquire_write_lock(txn)
        prepared = self._hooks_ref().before_insert(txn, self, row)
        return self._store_row(txn, prepared)

    def insert_many(self, txn: Transaction, rows: List[List[Any]]) -> List[RowId]:
        """Insert a statement's whole row batch through the full pipeline.

        Behaviourally equivalent to calling :meth:`insert` per row inside
        one transaction, but with every per-row cost amortized: the hooks
        run once over the batch (one hash/tracing observation), each index
        tree descends each of its subtrees the batch reaches once, and the
        log carries ONE frame for the statement.
        """
        if not rows:
            return []
        txn.require_active()
        self._acquire_write_lock(txn)
        prepared = self._hooks_ref().before_insert_many(txn, self, rows)
        return self._store_rows(txn, prepared, INSERT_MANY)

    def system_insert(self, txn: Transaction, prepared: PreparedRow) -> RowId:
        """Insert bypassing DML hooks (history-table maintenance, §3.2)."""
        txn.require_active()
        self._acquire_write_lock(txn)
        return self._store_row(txn, prepared)

    def delete_row(self, txn: Transaction, rid: RowId) -> Tuple[Any, ...]:
        """Delete the row at ``rid``; returns the removed row."""
        txn.require_active()
        self._acquire_write_lock(txn)
        old_record = self.heap.read(rid)
        old_row = decode_record(self.schema, old_record)
        self._hooks_ref().before_delete(txn, self, old_row)
        self._remove_row(txn, rid, old_row, old_record)
        return old_row

    def update_row(
        self,
        txn: Transaction,
        rid: RowId,
        old_row: Tuple[Any, ...],
        new_row: List[Any],
    ) -> RowId:
        """Replace the row at ``rid`` — ``old_row``, as the caller decoded
        it — with ``new_row``; returns the row's RowId, new only if it moved.

        The new version is written at ``rid`` whenever its page can hold it,
        and the clustered entry changes only when the key does; each
        nonclustered index replaces its copy.  Only when the page cannot
        hold the new version does the row move (remove, then place).  Both
        paths log ``DELETE`` (old record) then ``INSERT`` (new record).
        """
        txn.require_active()
        self._acquire_write_lock(txn)
        old_record = self.heap.read(rid)
        prepared = self._hooks_ref().before_update(txn, self, old_row, new_row)
        validated, new_record, _ = prepared
        # Pre-check constraints so the physical mutation cannot half-apply.
        _check_sizes((new_record,))
        self._check_unique(validated, old_row)
        if not self.heap.overwrite(rid, new_record):
            self._remove_row(txn, rid, old_row, old_record)
            return self._store_row(txn, prepared)
        self._rewrite_access_paths(rid, old_row, validated, new_record)

        def take_back() -> None:
            if not self.heap.overwrite(rid, old_record):
                page_id, slot = rid
                raise StorageError(
                    f"cannot restore RowId({page_id}:{slot}) in {self.name!r}"
                )
            self._rewrite_access_paths(rid, validated, old_row, old_record)

        frames = ((DELETE, ((rid, old_record),)), (INSERT, ((rid, new_record),)))
        self._log(txn, frames, take_back)
        return rid

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """All rows in physical (RowId) order, each decoded whole."""
        decode = self.schema.derived(RecordKernel).decode
        for rid, record in self.heap.scan():
            yield rid, decode(record)

    def read_row(self, rid: RowId) -> Tuple[Any, ...]:
        """Fetch and decode the physical row at ``rid``."""
        return decode_record(self.schema, self.heap.read(rid))

    def seek(self, pk_values: Sequence[Any]) -> Optional[Tuple[RowId, Tuple[Any, ...]]]:
        """Point lookup by primary key."""
        if self.clustered is None:
            raise StorageError(f"table {self.name!r} has no primary key to seek")
        rid = self.clustered.seek(pk_values)
        if rid is None:
            return None
        return rid, self.read_row(rid)

    def seek_index(
        self, index_name: str, key_values: Sequence[Any]
    ) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """Equality lookup through a nonclustered index."""
        index = self.nonclustered[index_name]
        for rid in index.seek(key_values):
            yield rid, self.read_row(rid)

    def rids_with_key(
        self, ordinals: Sequence[int], key_values: Sequence[Any]
    ) -> List[RowId]:
        """RowIds of the rows whose columns at ``ordinals`` equal the key.

        For tables with no index of their own on those columns (history
        tables, looked up by the base table's primary key; the ledger's
        transaction entries, looked up by block; ledger tables and their
        history, looked up by transaction id for incremental verification):
        served from a :class:`DerivedKeyIndex` per ordinal tuple, built by
        one key-only pass on first use.  The caller reads the rows and
        applies its predicate to them: the index says where a key was
        stored, not what the record holds now.
        """
        ordinals = tuple(ordinals)
        index = self._key_indexes.get(ordinals)
        if index is None:
            index = self._key_indexes[ordinals] = DerivedKeyIndex(
                ordinals, self._key_rows(ordinals)
            )
        return index.seek(key_values)

    def _key_rows(
        self, ordinals: Tuple[int, ...]
    ) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """Every record whose key columns read, with only those decoded.

        A record whose key does not read has no place in an index; like one
        the nonclustered trees cannot resolve, it stays visible to scans —
        which is what verification reads.
        """
        project = self.schema.derived(RecordKernel).projector(ordinals)
        for rid, record in self.heap.scan():
            try:
                yield rid, project(record)
            except StorageError:
                continue

    def drop_key_indexes(self) -> None:
        """Forget every derived key index; the next lookup rebuilds it."""
        self._key_indexes.clear()

    def row_count(self) -> int:
        return self.heap.record_count()

    # ------------------------------------------------------------------
    # Schema evolution support
    # ------------------------------------------------------------------

    def replace_schema(self, schema: TableSchema) -> None:
        """Swap the schema (ordinals stable); refresh index bindings.

        Indexes no longer present in the new schema (e.g. because they
        covered a dropped column) are discarded.
        """
        self.schema = schema
        self.drop_key_indexes()
        surviving = {definition.name for definition in schema.indexes}
        for name in list(self.nonclustered):
            if name not in surviving:
                del self.nonclustered[name]
        for index in self.nonclustered.values():
            index.reattach_schema(schema)

    def create_nonclustered_index(self, definition: IndexDefinition) -> None:
        """Build a new nonclustered index over the existing rows."""
        index = NonclusteredIndex(self.name, definition, self.schema)
        self._build_from_heap([index])
        self.nonclustered[definition.name] = index

    def drop_nonclustered_index(self, name: str) -> None:
        del self.nonclustered[name]

    def rebuild_indexes(self) -> None:
        """Rebuild every access path from the base heap (crash recovery)."""
        self._build_from_heap(list(self.nonclustered.values()))

    def load_indexes_from_storage(self) -> None:
        """Rebuild in-memory trees from persisted storage (clean restart).

        The clustered tree is derived from the base heap; each nonclustered
        tree is derived from *its own* heap file, so index-level tampering in
        storage survives a clean restart — exactly the attack surface
        verification invariant 5 covers.  Without a primary key, index
        records find their base rows by exact bytes, from one pass over the
        base heap.
        """
        self._build_from_heap([])
        base_records: DefaultDict[bytes, List[RowId]] = defaultdict(list)
        if self.clustered is None and self.nonclustered:
            for rid, record in self.heap.scan():
                base_records[record].append(rid)
        for index in self.nonclustered.values():
            index.load_tree_from_heap(self.clustered, base_records)

    def _build_from_heap(self, indexes: List[NonclusteredIndex]) -> None:
        """Bulk-build the clustered tree and ``indexes`` from one pass that
        parses key columns only: damaged structure or primary keys, or a key
        held twice, raise; a nonclustered key that does not read keeps its
        record out of that tree; other damage is verification's to report."""
        if self.clustered is None and not indexes:
            return
        kernel = self.schema.derived(RecordKernel)
        pk = self.schema.primary_key_ordinals()
        read_keys = kernel.projector(
            {*pk, *(o for index in indexes for o in index.key_ordinals)}
        )
        keys, records = [], []
        for rid, record in self.heap.scan():
            try:
                row = key_row = read_keys(record)
            except StorageError:  # raises again unless a nonclustered key
                row, key_row = None, kernel.projector(pk)(record)
            keys.append((key_row, rid))
            if indexes:  # only a nonclustered tree takes the records
                records.append((rid, record, row))
        if self.clustered is not None:
            self.clustered.load(keys)
        for index in indexes:
            index.rebuild(records)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _store_row(self, txn: Transaction, prepared: PreparedRow) -> RowId:
        """:meth:`_store_rows` for one row, logged as one ``INSERT`` frame."""
        return self._store_rows(txn, [prepared], INSERT)[0]

    def _store_rows(
        self, txn: Transaction, prepared: List[PreparedRow], kind: str
    ) -> List[RowId]:
        """Constraint-check and place a whole prepared batch, logged as one
        ``kind`` frame: ``INSERT_MANY`` for a statement, ``INSERT`` for one
        row stored on its own.

        All checks — each record's size, and each new key against the batch
        and the stored data — run before any mutation, so a violation
        anywhere in the batch leaves heap, indexes and transaction
        untouched.  Each access path's keys are built with one call and
        probed with one descent; the trees then take those same keys.
        """
        rows: Sequence[Tuple[Any, ...]]
        rows, records, _ = zip(*prepared)
        _check_sizes(records)
        pk_keys: List[Tuple] = []
        if self.clustered is not None:
            pk_keys = self.clustered.keys_of(rows)
            at = _first_taken(pk_keys, self.clustered.held)
            if at is not None:
                raise self._duplicate_key(rows[at])
        index_keys = []
        for index in self.nonclustered.values():
            keys = index.keys_of(rows)
            if index.definition.unique and _first_taken(keys, index.held) is not None:
                raise ConstraintError(
                    f"duplicate key in unique index {index.name!r}"
                )
            index_keys.append((index, keys))

        if kind == INSERT:  # one row, through the heap's one-record call
            rids = [self.heap.insert(records[0])]
        else:
            rids = self.heap.insert_many(records)
        if self.clustered is not None:
            self.clustered.insert_keys(pk_keys, rids)
        for index, keys in index_keys:
            index.insert_many(keys, records, rids)
        for key_index in self._key_indexes.values():
            for row, rid in zip(rows, rids):
                key_index.add(row, rid)

        def take_back() -> None:
            self.drop_key_indexes()
            for row, rid in zip(reversed(rows), reversed(rids)):
                self._physical_remove(rid, row)

        self._log(txn, ((kind, list(zip(rids, records))),), take_back)
        return rids

    def _remove_row(
        self,
        txn: Transaction,
        rid: RowId,
        old_row: Tuple[Any, ...],
        old_record: bytes,
    ) -> None:
        self._physical_remove(rid, old_row)

        def take_back() -> None:
            self.drop_key_indexes()
            self.heap.restore(rid, old_record)
            if self.clustered is not None:
                self.clustered.insert(old_row, rid)
            for index in self.nonclustered.values():
                index.insert(old_row, old_record, rid)

        self._log(txn, ((DELETE, ((rid, old_record),)),), take_back)

    def _log(self, txn: Transaction, frames, take_back: Callable[[], None]) -> None:
        """Keep a change just made in memory on ``txn``: its ``(kind, rows)``
        frames, which its COMMIT appends, and ``take_back``, which a
        rollback runs."""
        txn.changes.append((
            [DmlRecord(kind, txn.tid, self.table_id, rows) for kind, rows in frames],
            take_back,
        ))

    def _physical_remove(self, rid: RowId, row: Tuple[Any, ...]) -> None:
        # Every UPDATE and DELETE removes a row, so removal patches the
        # derived indexes; undo, which is rare, drops them before calling
        # here, as a restore does.
        self.heap.delete(rid)
        if self.clustered is not None:
            self.clustered.delete(row)
        for index in self.nonclustered.values():
            index.delete(row, rid)
        for key_index in self._key_indexes.values():
            key_index.discard(row, rid)

    def _rewrite_access_paths(
        self,
        rid: RowId,
        old_row: Tuple[Any, ...],
        row: Tuple[Any, ...],
        record: bytes,
    ) -> None:
        """Point the trees at ``row``, rewritten at ``rid`` over ``old_row``:
        the clustered entry is re-keyed only if the primary key changed, and
        each nonclustered and derived key index replaces its copy (delete,
        then insert)."""
        clustered = self.clustered
        if clustered is not None and clustered.key_of(row) != clustered.key_of(old_row):
            clustered.delete(old_row)
            clustered.insert(row, rid)
        for index in self.nonclustered.values():
            index.delete(old_row, rid)
            index.insert(row, record, rid)
        for key_index in self._key_indexes.values():
            key_index.discard(old_row, rid)
            key_index.add(row, rid)

    def _check_unique(
        self, row: Tuple[Any, ...], old_row: Tuple[Any, ...]
    ) -> None:
        """Refuse an UPDATE to ``row`` that takes a key another row holds,
        before anything is written.  A key equal to ``old_row``'s is not
        probed: the only entry it could find is the row's own."""
        clustered = self.clustered
        if clustered is not None:
            key = clustered.key_of(row)
            if key != clustered.key_of(old_row) and clustered.held((key,)):
                raise self._duplicate_key(row)
        for index in self.nonclustered.values():
            if not index.definition.unique:
                continue
            key, old_key = index.keys_of((row, old_row))
            if key != old_key and index.held((key,)):
                raise ConstraintError(
                    f"duplicate key in unique index {index.name!r}"
                )

    def _duplicate_key(self, row: Tuple[Any, ...]) -> ConstraintError:
        pk = tuple(row[o] for o in self.schema.primary_key_ordinals())
        return ConstraintError(f"duplicate primary key {pk!r} in table {self.name!r}")

    def __repr__(self) -> str:
        return f"<Table {self.name!r} id={self.table_id}>"


def _check_sizes(records: Sequence[bytes]) -> None:
    """Refuse a record over the row size limit before anything is stored:
    the statement's fault, not the storage's (``Page`` keeps its own check
    as the storage invariant)."""
    if max(map(len, records)) > MAX_RECORD_SIZE:
        size = next(len(r) for r in records if len(r) > MAX_RECORD_SIZE)
        raise ConstraintError(
            f"record of {size} bytes exceeds the {MAX_RECORD_SIZE}-byte row "
            "size limit"
        )


def _first_taken(
    keys: Sequence[Tuple], held: Callable[[Sequence[Tuple]], Set[Tuple]]
) -> Optional[int]:
    """The position of the first key that repeats one before it in ``keys``
    or that is stored: ``held`` names the stored ones, from one probe of
    the whole batch."""
    stored = held(keys)
    if not stored and len(set(keys)) == len(keys):
        return None
    seen: Set[Tuple] = set()
    for at, key in enumerate(keys):
        if key in seen or key in stored:
            return at
        seen.add(key)
    return None
