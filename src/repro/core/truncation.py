"""Ledger truncation: bounded retention of historical ledger data (§5.2).

Truncation removes old blocks, transaction entries and fully retired history
rows while preserving the verifiability of everything that remains:

1. the ledger is verified first — truncation refuses to discard evidence of
   an inconsistent state;
2. every *live* ledger-table row whose digest lives in a to-be-truncated
   transaction is re-anchored: its version is re-stamped under a fresh
   transaction whose Merkle roots cover it, so its protection moves into a
   new block (the paper's "dummy update");
3. history rows whose delete event falls inside the truncated range are
   physically removed (nothing references them afterwards);
4. the old transaction entries and blocks are deleted, and the hash of the
   last truncated block becomes the chain *anchor* the next block links to;
5. a truncation record is appended to the ``__ledger_truncations``
   append-only ledger table so the operation itself is audited.

History rows created before the cutoff but deleted after it are retained:
their bytes stay protected by the deleting transaction's root, and
verification skips their (now unverifiable) creation events via the recorded
cutoff transaction id.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core import system_columns as sc
from repro.core.ledger_view import history_table_of
from repro.errors import TruncationError
from repro.obs import OBS


def truncate_ledger(db, through_block: int, note: Optional[str] = None) -> dict:
    """Truncate all ledger data up to and including ``through_block``.

    Returns a summary dict with the numbers of blocks, transaction entries
    and history rows removed and live rows re-anchored.  Holds the storage
    lock throughout, so concurrent commits observe truncation atomically.
    """
    with db.ledger.storage_lock:
        return _truncate_locked(db, through_block, note)


def _truncate_locked(db, through_block: int, note: Optional[str]) -> dict:
    ledger = db.ledger
    # Barrier, not a synchronous close: waits for in-flight commits and
    # lets the block builder finish sealed blocks; empty open blocks are
    # simply not emitted.
    db.pipeline.drain(seal_open=True)
    target = ledger.block(through_block)
    if target is None:
        raise TruncationError(
            f"block {through_block} does not exist or is still open"
        )
    latest = ledger.latest_block()
    assert latest is not None
    if through_block >= latest.block_id:
        raise TruncationError(
            "cannot truncate the latest block; at least one block must remain"
        )

    digest = db.generate_digest()
    report = db.verify([digest])
    if not report.ok:
        raise TruncationError(
            "ledger verification failed; refusing to truncate an "
            f"inconsistent ledger: {report.summary()}"
        )

    truncated_tids: Set[int] = set()
    for block_id in range(ledger.first_block_id(), through_block + 1):
        for entry in ledger.transactions_in_block(block_id):
            truncated_tids.add(entry.transaction_id)
    if not truncated_tids:
        raise TruncationError("no transactions fall inside the truncation range")
    cutoff_tid = max(truncated_tids)
    anchor_hash = target.block_hash()

    reanchored = _reanchor_live_rows(db, truncated_tids)
    history_removed = _purge_history(db, cutoff_tid)
    entries_removed, blocks_removed = _drop_chain_prefix(
        db, through_block, truncated_tids
    )

    ledger.set_anchor(through_block, anchor_hash)
    # Receipt material (a whole Merkle tree per block) goes with the blocks.
    for key in [k for k in db._receipt_block_cache if k[0] <= through_block]:
        del db._receipt_block_cache[key]
    _record_truncation(db, through_block, cutoff_tid, anchor_hash, note)

    summary = {
        "truncated_through_block": through_block,
        "truncated_through_tid": cutoff_tid,
        "blocks_removed": blocks_removed,
        "entries_removed": entries_removed,
        "history_rows_removed": history_removed,
        "live_rows_reanchored": reanchored,
    }
    OBS.events.emit("truncation", "truncation.completed", **summary)
    return summary


def _reanchor_live_rows(db, truncated_tids: Set[int]) -> int:
    """Re-stamp live rows referencing truncated transactions (§5.2).

    The paper performs a "dummy update"; here the re-anchoring is explicit:
    each affected row version is re-issued under a fresh transaction — same
    values, new start transaction/sequence — and hashed into that
    transaction's Merkle tree.  No history row is produced: the old version's
    only record was its creating transaction, which is being truncated.
    """
    reanchored = 0
    for table in db.ledger_tables():
        start_tid, start_seq = sc.start_ordinals(table.schema)
        targets = [
            (rid, row)
            for rid, row in table.scan()
            if row[start_tid] in truncated_tids
        ]
        if not targets:
            continue
        txn = db.begin(username="ledger_truncation")
        hooks = db.hooks
        for rid, row in targets:
            # Run the ledger insert hook to stamp + hash the new version,
            # then overwrite the stored record without creating history.
            stamped, _, _ = hooks.before_insert(txn, table, list(row))
            with hooks.system_operation():
                table.update_row(txn, rid, row, list(stamped))
            reanchored += 1
        db.commit(txn)
    return reanchored


def _purge_history(db, cutoff_tid: int) -> int:
    """Physically delete history rows fully retired inside the range."""
    removed = 0
    hooks = db.hooks
    for table in db.ledger_tables():
        history = history_table_of(db.engine, table)
        if history is None:
            continue
        end_tid, _ = sc.end_ordinals(history.schema)
        targets = [
            rid for rid, row in history.scan() if row[end_tid] <= cutoff_tid
        ]
        if not targets:
            continue
        txn = db.begin(username="ledger_truncation")
        with hooks.system_operation():
            for rid in targets:
                history.delete_row(txn, rid)
        db.commit(txn)
        # A purge can empty most of the table, and a dict never shrinks:
        # rebuild the derived indexes from what is left, on next use.
        history.drop_key_indexes()
        removed += len(targets)
    return removed


def _drop_chain_prefix(db, through_block: int, truncated_tids: Set[int]):
    """Delete truncated transaction entries and block rows, found by key."""
    from repro.core.database_ledger import BLOCKS_TABLE, TRANSACTIONS_TABLE

    transactions = db.engine.table(TRANSACTIONS_TABLE)
    blocks = db.engine.table(BLOCKS_TABLE)
    entry_rids = [
        rid
        for tid in sorted(truncated_tids)
        if (rid := transactions.clustered.seek([tid])) is not None
    ]
    block_rids = [
        rid
        for block_id in range(db.ledger.first_block_id(), through_block + 1)
        if (rid := blocks.clustered.seek([block_id])) is not None
    ]
    txn = db.begin(username="ledger_truncation")
    for rid in entry_rids:
        transactions.delete_row(txn, rid)
    for rid in block_rids:
        blocks.delete_row(txn, rid)
    db.commit(txn)
    transactions.drop_key_indexes()  # as after a history purge
    return len(entry_rids), len(block_rids)


def _record_truncation(
    db, through_block: int, cutoff_tid: int, anchor_hash: bytes,
    note: Optional[str],
) -> None:
    from repro.core.ledger_database import TRUNCATIONS_TABLE

    table = db.engine.table(TRUNCATIONS_TABLE)
    next_id = 1 + sum(1 for _ in table.scan())
    txn = db.begin(username="ledger_truncation")
    db.insert(
        txn,
        TRUNCATIONS_TABLE,
        [[next_id, through_block, cutoff_tid, anchor_hash, note]],
    )
    db.commit(txn)
