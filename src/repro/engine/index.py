"""Clustered and nonclustered indexes.

The clustered index maps primary-key tuples to heap RowIds; there is exactly
one per table when a primary key is declared (tables without one are heaps
ordered by RowId, like SQL Server).

Nonclustered indexes matter to the ledger because they *duplicate* table data
in storage that can be tampered with independently of the base table
(verification invariant 5, §3.4.1).  To model that faithfully, each
nonclustered index owns its own :class:`~repro.engine.heap.HeapFile` holding
a full copy of every indexed record, plus a B+ tree for lookups.  Tampering
with the index heap leaves the base table untouched — only invariant 5
catches it.

A tree key is one flat tuple, two elements per key part (:func:`key_tuple`):
``(1, account)`` clustered, ``(1, account, page_id, slot)`` nonclustered.
``keys_of`` keys a batch of rows in one call; a batch is probed with one
:meth:`BPlusTree.held` and enters a tree with one
:meth:`BPlusTree.insert_many`.  No tree is persisted: open bulk-builds
each one (:meth:`BPlusTree.bulk`) from keys read by
:meth:`RecordKernel.projector`, which parses no other value.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import (
    Any, Callable, DefaultDict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro.engine.btree import BPlusTree
from repro.engine.heap import HeapFile, RowId
from repro.engine.record import RecordKernel, key_tuple
from repro.engine.schema import IndexDefinition, TableSchema
from repro.errors import ConstraintError, StorageError


#: Sorts after every part tag (``0`` NULL, ``1`` a value), so ``key + _AFTER``
#: bounds every clustered key extending ``key`` — clustered keys only: a
#: nonclustered key's RowId suffix holds ints that may be 2 or more.
_AFTER = (2,)


def _key_maker(
    ordinals: Sequence[int],
) -> Callable[[Iterable[Sequence[Any]]], List[Tuple]]:
    """A function from rows to their keys over ``ordinals``, each what
    :func:`key_tuple` makes of those columns: one call keys a whole batch."""
    if len(ordinals) == 1:
        column = itemgetter(*ordinals)
        return lambda rows: [
            (0, "") if value is None else (1, value)
            for value in map(column, rows)
        ]
    columns = itemgetter(*ordinals)
    return lambda rows: [key_tuple(values) for values in map(columns, rows)]


class ClusteredIndex:
    """Unique primary-key index: PK tuple → base-table RowId."""

    def __init__(self, schema: TableSchema) -> None:
        if not schema.primary_key:
            raise StorageError(
                f"table {schema.name!r} has no primary key for a clustered index"
            )
        self._key_ordinals = schema.primary_key_ordinals()
        #: Rows → their keys, a batch per call.
        self.keys_of = _key_maker(self._key_ordinals)
        self._tree = BPlusTree()

    def key_of(self, row: Sequence[Any]) -> Tuple:
        return self.keys_of((row,))[0]

    def _duplicate(self, row: Sequence[Any]) -> ConstraintError:
        return ConstraintError(
            f"duplicate primary key {tuple(row[o] for o in self._key_ordinals)!r}"
        )

    def load(self, entries: Sequence[Tuple[Sequence[Any], RowId]]) -> None:
        """Replace the tree with one bulk-built over ``(row, rid)`` pairs
        (``row`` needs only the key columns); a key held twice raises."""
        keys = self.keys_of([row for row, _ in entries])
        tree = BPlusTree.bulk(zip(keys, [rid for _, rid in entries]))
        if len(tree) != len(entries):
            for key, (row, rid) in zip(keys, entries):
                if tree.get(key) != rid:  # a later row's key
                    raise self._duplicate(row)
        self._tree = tree

    def insert(self, row: Sequence[Any], rid: RowId) -> None:
        """Enter one row (an UPDATE that changes its key, or an undo)."""
        key = self.key_of(row)
        if key in self._tree:
            raise self._duplicate(row)
        self._tree.insert(key, rid)

    def held(self, keys: Iterable[Tuple]) -> Set[Tuple]:
        """The keys among ``keys`` a row is stored under (one tree probe
        for the batch, :meth:`BPlusTree.held`)."""
        return self._tree.held(keys)

    def insert_keys(self, keys: Sequence[Tuple], rids: Sequence[RowId]) -> None:
        """Enter a batch of checked keys (:attr:`keys_of` the rows), none of
        them held or repeated, as one tree batch."""
        self._tree.insert_many(list(zip(keys, rids)))

    def delete(self, row: Sequence[Any]) -> None:
        try:
            self._tree.delete(self.key_of(row))
        except KeyError:
            raise StorageError("clustered index entry missing for deleted row") from None

    def seek(self, key_values: Sequence[Any]) -> Optional[RowId]:
        return self._tree.get(key_tuple(key_values))

    def scan(self) -> Iterator[Tuple[Tuple, RowId]]:
        """All entries in primary-key order."""
        return self._tree.items()

    def seek_range(
        self,
        prefix: Sequence[Any] = (),
        low: Optional[Tuple[Any, bool]] = None,
        high: Optional[Tuple[Any, bool]] = None,
    ) -> Iterator[RowId]:
        """RowIds, in key order, of one contiguous slice of the index.

        The slice holds the rows whose leading key columns equal ``prefix``
        and whose next key column lies between ``low`` and ``high``, each a
        ``(value, inclusive)`` pair or None for unbounded.  Values must be
        comparable with the key columns they bound.
        """
        base = key_tuple(prefix)
        low_key: Optional[Tuple] = base or None
        if low is not None:
            value, inclusive = low
            low_key = base + key_tuple([value])
            if not inclusive:
                low_key += _AFTER
        high_key: Optional[Tuple] = base + _AFTER if base else None
        if high is not None:
            value, inclusive = high
            high_key = base + key_tuple([value])
            if inclusive:
                high_key += _AFTER
        for _, rid in self._tree.range(low_key, high_key, include_high=False):
            yield rid

    def __len__(self) -> int:
        return len(self._tree)


class DerivedKeyIndex:
    """Non-unique, in-memory map from key-column values to RowIds.

    Built by one key-only pass over the table it indexes and kept current
    by the table's own inserts, updates and deletes; any other physical change
    (undo, redo, a schema change) and a truncation purge drop it, and the
    next lookup rebuilds it.  It owns no storage: nothing is persisted,
    logged or hashed, so — like the clustered tree — it is outside what
    verification covers and can never disagree with the heap for longer
    than one rebuild.  The ledger uses it to find a key's old versions in a history table, which
    has no primary key of its own, a block's transaction entries in
    ``database_ledger_transactions``, which is keyed on the transaction
    id, and the row versions an incremental verification cycle re-hashes,
    by their start or end transaction id.
    """

    def __init__(
        self,
        ordinals: Sequence[int],
        rows: Iterable[Tuple[RowId, Sequence[Any]]],
    ) -> None:
        self.ordinals = tuple(ordinals)
        self._rids: DefaultDict[Tuple, List[RowId]] = defaultdict(list)
        for rid, row in rows:
            self.add(row, rid)

    def add(self, row: Sequence[Any], rid: RowId) -> None:
        self._rids[tuple(row[o] for o in self.ordinals)].append(rid)

    def discard(self, row: Sequence[Any], rid: RowId) -> None:
        """Forget ``rid`` under the row's key; a no-op when it is not there."""
        key = tuple(row[o] for o in self.ordinals)
        rids = self._rids.get(key)
        if rids is None or rid not in rids:
            return
        rids.remove(rid)
        if not rids:
            del self._rids[key]

    def seek(self, key_values: Sequence[Any]) -> List[RowId]:
        return list(self._rids.get(tuple(key_values), ()))


class NonclusteredIndex:
    """Secondary index with its own duplicated storage.

    Every base-table record is copied verbatim into the index heap (a
    covering index).  The B+ tree maps the flat index key followed by the
    base RowId's ``page_id, slot`` to the copy's location, so duplicate
    index keys are supported.
    """

    def __init__(self, table_name: str, definition: IndexDefinition,
                 schema: TableSchema) -> None:
        self.definition = definition
        self.name = definition.name
        self._schema = schema
        self.key_ordinals = tuple(
            schema.column(name).ordinal for name in definition.column_names
        )
        #: Rows → their index keys (no RowId part), a batch per call.
        self.keys_of = _key_maker(self.key_ordinals)
        self.heap = HeapFile(f"{table_name}.{definition.name}")
        self._tree = BPlusTree()

    def insert(self, row: Sequence[Any], record: bytes, base_rid: RowId) -> None:
        """Add the copy of one stored base row (an UPDATE, or an undo)."""
        key = self.keys_of((row,))[0]
        if self.definition.unique and self.held((key,)):
            raise ConstraintError(f"duplicate key in unique index {self.name!r}")
        index_rid = self.heap.insert(record)
        self._tree.insert(key + base_rid, (index_rid, base_rid))

    def held(self, keys: Iterable[Tuple]) -> Set[Tuple]:
        """The index keys among ``keys`` some row is stored under: each
        begins a tree key, which appends the base RowId (one tree probe
        for the batch, :meth:`BPlusTree.held`)."""
        return self._tree.held(keys)

    def insert_many(
        self,
        keys: Sequence[Tuple],
        records: Sequence[bytes],
        base_rids: Sequence[RowId],
    ) -> None:
        """Add the copies of a batch of newly stored base rows, given their
        :attr:`keys_of` (a unique index's already checked): the records
        placed a page at a time, the entries with one tree batch."""
        index_rids = self.heap.insert_many(records)
        self._tree.insert_many([
            (key + base_rid, (index_rid, base_rid))
            for key, index_rid, base_rid in zip(keys, index_rids, base_rids)
        ])

    def delete(self, row: Sequence[Any], base_rid: RowId) -> None:
        """Remove the record copy when the base row goes away."""
        tree_key = self.keys_of((row,))[0] + base_rid
        entry = self._tree.get(tree_key)
        if entry is None:
            page_id, slot = base_rid
            raise StorageError(
                f"nonclustered index {self.name!r} entry missing for "
                f"RowId({page_id}:{slot})"
            )
        index_rid, _ = entry
        self._tree.delete(tree_key)
        self.heap.delete(index_rid)

    def seek(self, key_values: Sequence[Any]) -> Iterator[RowId]:
        """Base RowIds of rows whose index key equals ``key_values``."""
        prefix = key_tuple(key_values)
        for _, (_, base_rid) in self._tree.prefix(prefix):
            yield base_rid

    def scan_records(self) -> List[bytes]:
        """Raw duplicated records straight from the index's own storage, in
        heap order, taken page by page.

        Verification invariant 5 reads these — *not* the base table — so
        index-only tampering is visible.
        """
        return [
            record for _, records in self.heap.page_records()
            for _, record in records
        ]

    def rebuild(self, base_records: Sequence[Tuple[RowId, bytes, Any]]) -> None:
        """Rebuild storage and tree from ``(base_rid, record, row)`` (crash
        path): every record is copied into a fresh heap.  ``row`` holds this
        index's key columns, or is None when not all keys of the pass read;
        a record whose own key does not read stays out of the tree."""
        project = self._schema.derived(RecordKernel).projector(self.key_ordinals)
        heap = HeapFile(self.heap.name)
        index_rids = heap.insert_many([record for _, record, _ in base_records])
        rows, entries = [], []
        for (base_rid, record, row), index_rid in zip(base_records, index_rids):
            try:
                rows.append(project(record) if row is None else row)
            except StorageError:
                continue
            entries.append((index_rid, base_rid))
        self.heap, self._tree = heap, self._tree_over(rows, entries)

    def reattach_schema(self, schema: TableSchema) -> None:
        """Point the index at an evolved schema (ordinals are stable)."""
        self._schema = schema

    def load_tree_from_heap(
        self,
        clustered: Optional[ClusteredIndex],
        base_records: Mapping[bytes, Sequence[RowId]],
    ) -> None:
        """Rebuild only the B+ tree from this index's own heap (clean load),
        resolving each record to its base RowId by its primary key or, in a
        table without one, by its exact bytes: ``base_records`` maps every
        base record to the RowIds holding it, and each RowId is claimed
        once.  A record whose keys do not read stays out of the tree, one
        no base row claims gets a sentinel RowId; both still appear in
        :meth:`scan_records`, so verification sees exactly what storage
        holds."""
        pk = self._schema.primary_key_ordinals()
        project = self._schema.derived(RecordKernel).projector(
            {*pk, *self.key_ordinals}
        )
        rows, entries = [], []
        claimed: DefaultDict[bytes, int] = defaultdict(int)
        for index_rid, record in self.heap.scan():
            try:
                row = project(record)
            except StorageError:
                continue
            rows.append(row)
            if clustered is not None:
                base_rid = clustered.seek([row[o] for o in pk])
            else:
                rids, taken = base_records.get(record, ()), claimed[record]
                claimed[record] = taken + 1
                base_rid = rids[taken] if taken < len(rids) else None
            if base_rid is None:
                base_rid = (-1, -1)
            entries.append((index_rid, base_rid))
        self._tree = self._tree_over(rows, entries)

    def _tree_over(self, rows: List[Any], entries: List[Tuple]) -> BPlusTree:
        """The tree over each row's ``(index_rid, base_rid)`` entry, every
        key made by one :attr:`keys_of` call."""
        keys = self.keys_of(rows)
        return BPlusTree.bulk((k + e[1], e) for k, e in zip(keys, entries))

    def __len__(self) -> int:
        return len(self._tree)
