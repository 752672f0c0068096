"""Concrete storage-level attacks against the ledger (threat model §2.5.2).

Every function here bypasses the transaction manager, the WAL and the ledger
hooks, writing directly into page images or catalog structures — the moral
equivalent of a DBA with a hex editor on the database files.  None of them
raise on success: the whole point is that the attack is *silent* until
ledger verification recomputes the hashes.

Mapping to verification invariants (§3.4.1):

========================================  =====================================
attack                                    caught by
========================================  =====================================
:func:`rewrite_row_value`                 invariant 4 (table Merkle roots)
:func:`delete_history_row`                invariant 4
:func:`tamper_column_type`                invariant 4 (type metadata is hashed)
:func:`tamper_nonclustered_index`         invariant 5 (index equivalence)
:func:`tamper_transaction_entry`          invariant 3 (block transaction roots)
:func:`fork_block`                        invariants 1-2 (digests + chain)
:func:`rewrite_chain`                     invariant 1 (any earlier digest)
:func:`drop_and_recreate_table`           auditable via the table-operations
                                          view (Figure 6); data verifies per
                                          table id
:func:`tamper_view_definition`            the view-definition check (§3.4.2)
========================================  =====================================
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict

from repro.engine.record import decode_record, encode_record
from repro.engine.table import Table
from repro.errors import ReproError


class AttackFailed(ReproError):
    """The attack's precondition did not hold (e.g. no matching row)."""


def rewrite_row_value(
    table: Table, match: Callable[[Dict[str, Any]], bool],
    column: str, new_value: Any,
) -> int:
    """Edit matching rows' bytes directly in the page image.

    Returns the number of rows rewritten.  This is the canonical attack of
    the paper's introduction: a privileged user changing data after the fact.
    """
    ordinal = table.schema.column(column).ordinal
    rewritten = 0
    for rid, record in list(table.heap.scan()):
        row = decode_record(table.schema, record)
        named = {c.name: row[c.ordinal] for c in table.schema.columns}
        if not match(named):
            continue
        evil = list(row)
        evil[ordinal] = new_value
        table.heap.tamper_record(rid, encode_record(table.schema, tuple(evil)))
        rewritten += 1
    if rewritten == 0:
        raise AttackFailed("no rows matched the tampering predicate")
    return rewritten


def delete_history_row(
    table: Table, history: Table, match: Callable[[Dict[str, Any]], bool]
) -> int:
    """Erase audit history directly from the history table's pages."""
    removed = 0
    for rid, record in list(history.heap.scan()):
        row = decode_record(history.schema, record)
        named = {c.name: row[c.ordinal] for c in history.schema.columns}
        if match(named):
            history.heap.tamper_delete(rid)
            removed += 1
    if removed == 0:
        raise AttackFailed("no history rows matched the tampering predicate")
    return removed


def tamper_column_type(db, table_name: str, column: str, new_type) -> None:
    """Metadata attack (§3.2, Figure 4): re-declare a column's type.

    The raw value bytes are untouched; only the catalog's declared type
    changes, silently altering how values are interpreted.  Because the
    declared type is part of the hashed serialization, invariant 4 catches
    it even though no data byte changed.
    """
    engine = db.engine
    info = engine.catalog.get(table_name)
    columns = [
        dc_replace(c, sql_type=new_type) if c.name == column else c
        for c in info.schema.columns
    ]
    from repro.engine.schema import TableSchema

    evil_schema = TableSchema(
        info.schema.name, columns, info.schema.primary_key, info.schema.indexes
    )
    # Write straight into the catalog and table binding, skipping DDL logging.
    info.schema = evil_schema
    engine._tables[info.table_id].schema = evil_schema  # noqa: SLF001


def tamper_nonclustered_index(
    table: Table, index_name: str,
    match: Callable[[Dict[str, Any]], bool], column: str, new_value: Any,
) -> int:
    """Edit rows only in a nonclustered index's duplicated storage.

    The base table stays honest; queries routed through the index return the
    tampered values.  Only invariant 5 (index/base equivalence) notices.
    """
    index = table.nonclustered[index_name]
    ordinal = table.schema.column(column).ordinal
    rewritten = 0
    for rid, record in list(index.heap.scan()):
        row = decode_record(table.schema, record)
        named = {c.name: row[c.ordinal] for c in table.schema.columns}
        if not match(named):
            continue
        evil = list(row)
        evil[ordinal] = new_value
        index.heap.tamper_record(rid, encode_record(table.schema, tuple(evil)))
        rewritten += 1
    if rewritten == 0:
        raise AttackFailed("no index records matched the tampering predicate")
    return rewritten


def tamper_transaction_entry(db, transaction_id: int, new_username: str) -> None:
    """Rewrite a transaction's ledger entry (e.g. to frame another user)."""
    from repro.core.database_ledger import TRANSACTIONS_TABLE

    table = db.engine.table(TRANSACTIONS_TABLE)
    hit = table.seek([transaction_id])
    if hit is None:
        raise AttackFailed(f"transaction {transaction_id} not in the system table")
    rid, row = hit
    evil = list(row)
    evil[table.schema.column("username").ordinal] = new_username
    table.heap.tamper_record(rid, encode_record(table.schema, tuple(evil)))


def fork_block(db, block_id: int) -> None:
    """Rewrite a closed block to fork the chain.

    Replaces the block's transactions root with a forged one and recomputes
    nothing else — the classic "rewrite history and hope nobody kept the old
    digest" attack.  Invariant 1 (digests) and invariant 2 (chain links from
    the next block) both catch it.
    """
    from repro.core.database_ledger import BLOCKS_TABLE
    from repro.crypto.hashing import sha256

    table = db.engine.table(BLOCKS_TABLE)
    hit = table.seek([block_id])
    if hit is None:
        raise AttackFailed(f"block {block_id} does not exist")
    rid, row = hit
    evil = list(row)
    evil[table.schema.column("transactions_root").ordinal] = sha256(
        b"forged-root-%d" % block_id
    )
    table.heap.tamper_record(rid, encode_record(table.schema, tuple(evil)))


def rewrite_chain(db, shift_seconds: int = 7) -> int:
    """Rewrite an *entire* block chain self-consistently.

    Unlike :func:`fork_block`, this adversary does the full job: every
    closed block's ``closed_time`` is shifted and the ``previous_block_hash``
    chain is recomputed from the first block forward, so the rewritten
    chain passes invariant 2 and a digest generated *after* the rewrite
    verifies cleanly.  Any digest issued *before* the rewrite catches it
    (invariant 1): the block it names no longer hashes to the value it
    recorded — which is why digests go to immutable storage (§3.4).

    Returns the number of blocks rewritten.
    """
    import datetime as _dt

    from repro.core.database_ledger import BLOCKS_TABLE
    from repro.core.entries import BlockRow

    db.pipeline.drain(seal_open=True)
    table = db.engine.table(BLOCKS_TABLE)
    chain = sorted(db.ledger.blocks(), key=lambda b: b.block_id)
    if not chain:
        raise AttackFailed("the chain has no closed blocks to rewrite")
    delta = _dt.timedelta(seconds=shift_seconds)
    previous_hash = None
    for block in chain:
        hit = table.seek([block.block_id])
        if hit is None:
            raise AttackFailed(f"block {block.block_id} not in {BLOCKS_TABLE}")
        rid, _ = hit
        rewritten = BlockRow(
            block_id=block.block_id,
            previous_block_hash=previous_hash,
            transactions_root=block.transactions_root,
            transaction_count=block.transaction_count,
            closed_time=block.closed_time + delta,
        )
        table.heap.tamper_record(
            rid, encode_record(table.schema, tuple(rewritten.to_row()))
        )
        previous_hash = rewritten.block_hash()
    return len(chain)


def drop_and_recreate_table(db, table_name: str, schema, rows) -> Table:
    """The §3.5.2 swap attack: drop a ledger table, recreate it with the
    same name and attacker-chosen contents.

    Each step is a *legitimate* operation, so verification passes — but the
    swap is visible in the table-operations view (Figure 6), which is how
    users are expected to catch it.
    """
    db.drop_ledger_table(table_name)
    table = db.create_ledger_table(schema)
    txn = db.begin(username="attacker")
    db.insert(txn, table_name, rows)
    db.commit(txn)
    return table


def tamper_view_definition(db, view_name: str, evil_definition: str) -> None:
    """Rewrite a ledger view's stored definition so audits see filtered data."""
    from repro.core.ledger_database import VIEWS_TABLE

    table = db.engine.table(VIEWS_TABLE)
    hit = table.seek([view_name])
    if hit is None:
        raise AttackFailed(f"view {view_name!r} is not registered")
    rid, row = hit
    evil = list(row)
    evil[table.schema.column("definition").ordinal] = evil_definition
    table.heap.tamper_record(rid, encode_record(table.schema, tuple(evil)))
