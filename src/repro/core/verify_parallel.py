"""Range tasks for ledger verification (§6).

The paper notes verification parallelizes naturally: every chain link, every
block root and every per-transaction table root can be recomputed
independently.  Each scan-heavy invariant is therefore written exactly once,
as a *range task* — "check one part of an immutable snapshot":

* ``chain``     — every block; each block's recorded previous-block hash is
                  compared with the recomputed hash of its predecessor, so
                  every block is hashed once, as somebody's predecessor.
* ``block_root``— every block, each recomputing its transactions Merkle
                  root.
* ``table_root``— one relation's records, transcoded and hashed into a
                  per-transaction event map the caller merges, plus each
                  record's full-row leaf if the relation has indexes.
* ``index``     — one index's copies, hashed into full-row leaves the
                  caller sorts and compares with the base's.

A task is a plain function of ``(snapshot, cache, *args)``, ``cache`` a
:class:`LeafHashCache`.
:class:`repro.core.verification.LedgerVerifier` runs them in a plain loop on
the calling thread and merges and compares their results.  Every task
shares the caller's :class:`LeafHashCache` (row-version leaves in
``table_root`` and ``index``, block roots in ``block_root``; the entry and
block rows themselves were memoized at capture).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.verify_snapshot import (
    Event,
    RelationSnapshot,
    VerificationSnapshot,
    record_events,
)
from repro.crypto.hashing import LeafHashCache
from repro.crypto.merkle import MerkleTree
from repro.errors import StorageError

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One verification finding (a detected inconsistency or caveat)."""

    invariant: str
    severity: str
    message: str
    context: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.invariant}/{self.severity}] {self.message}"


#: Cache context of block roots.  Schema fingerprints always contain a
#: ``|``, so no record key can share it.
_TRANSACTIONS_ROOT = "transactions_root"

def _relation(
    snapshot: VerificationSnapshot, table_index: int, which: str
) -> RelationSnapshot:
    table = snapshot.tables[table_index]
    return table.base if which == "base" else table.history


def _derive(
    relation: RelationSnapshot, records: List[bytes], cache: LeafHashCache,
) -> List[Union[Tuple[Event, ...], str]]:
    """:func:`record_events` of each record, or why it failed to decode.

    Cache hits are keyed by the exact stored bytes, so tampered records miss
    (:class:`LeafHashCache`); failures are not cached.
    """
    derived = cache.get_many(relation.fingerprint, records)
    fills = []
    for position, value in enumerate(derived):
        if value is not None:
            continue
        record = records[position]
        try:
            derived[position] = value = record_events(relation, record)
        except StorageError as exc:
            derived[position] = str(exc)
            continue
        fills.append((record, value))
    if fills:
        cache.put_many(relation.fingerprint, fills)
    return derived


# ----------------------------------------------------------------------
# Range tasks
# ----------------------------------------------------------------------


def chain_task(snapshot, cache) -> Dict[str, Any]:
    """Verify the link from each block to its predecessor."""
    blocks = snapshot.blocks
    anchor = snapshot.anchor
    findings: List[Finding] = []
    for block_id in sorted(blocks):
        block = blocks[block_id]
        if block_id == 0:
            if block.previous_block_hash is not None:
                findings.append(
                    Finding(
                        "chain", SEVERITY_ERROR,
                        "block 0 must record a null previous-block hash",
                        {"block_id": 0},
                    )
                )
            continue
        if anchor is not None and block_id == anchor[0] + 1:
            expected_prev = anchor[1]
        else:
            previous = blocks.get(block_id - 1)
            if previous is None:
                continue  # a gap; the caller reports those
            expected_prev = previous.block_hash()
        if block.previous_block_hash != expected_prev:
            findings.append(
                Finding(
                    "chain", SEVERITY_ERROR,
                    f"block {block_id} records a previous-block hash that "
                    f"does not match the recomputed hash of block "
                    f"{block_id - 1}",
                    {"block_id": block_id},
                )
            )
    return {"findings": findings, "count": len(blocks)}


def block_root_task(snapshot, cache) -> Dict[str, Any]:
    """Recompute the transactions Merkle root of every block.

    A root is memoized in ``cache`` under the exact concatenation of the
    block's ordered entry hashes — every input of the root — so a block
    whose entries did not change is not re-hashed.
    """
    findings: List[Finding] = []
    transactions = 0
    for block_id in sorted(snapshot.blocks):
        block = snapshot.blocks[block_id]
        block_entries = snapshot.entries_by_block.get(block_id, [])
        hashes = [e.entry_hash() for e in block_entries]
        joined = b"".join(hashes)
        root = cache.get(_TRANSACTIONS_ROOT, joined)
        if root is None:
            root = MerkleTree(hashes).root()
            cache.put(_TRANSACTIONS_ROOT, joined, root)
        if root != block.transactions_root:
            findings.append(
                Finding(
                    "block_root", SEVERITY_ERROR,
                    f"transactions Merkle root of block {block_id} does "
                    "not match the recomputed root over its entries",
                    {"block_id": block_id},
                )
            )
        if block.transaction_count != len(block_entries):
            findings.append(
                Finding(
                    "block_root", SEVERITY_ERROR,
                    f"block {block_id} records {block.transaction_count} "
                    f"transactions but {len(block_entries)} are present",
                    {"block_id": block_id},
                )
            )
        transactions += len(block_entries)
    return {"findings": findings, "transactions": transactions}


def events_task(
    snapshot, cache, table_index: int, which: str
) -> Dict[str, Any]:
    """Hash one relation's records into per-tid events.

    Returns ``{tid: [(seq, leaf), ...]}`` (§3.4.1-4); the expensive
    record-kernel pass (canonical serialization) + SHA-256 happens here.
    For a relation with indexes, ``full_rows`` is :func:`_full_rows`.
    """
    relation = _relation(snapshot, table_index, which)
    span = relation.records
    derived = _derive(relation, [record for _, _, record in span], cache)
    events: Dict[Optional[int], List[Tuple[int, bytes]]] = {}
    findings: List[Finding] = []
    scanned = 0
    kind = "history table" if relation.is_history else "table"
    for (page_id, slot, _), value in zip(span, derived):
        if isinstance(value, str):
            findings.append(
                Finding(
                    "table_root", SEVERITY_ERROR,
                    f"row RowId({page_id}:{slot}) in {kind} "
                    f"{relation.name!r} failed to decode: {value}",
                    {"table": relation.name},
                )
            )
            continue
        for tid, seq, leaf in value:
            events.setdefault(tid, []).append((seq, leaf))
        scanned += len(value)
    return {
        "events": events, "findings": findings, "count": scanned,
        "full_rows": _full_rows(derived) if relation.index_records else [],
    }


def index_task(
    snapshot, cache, table_index: int, which: str, index_name: str
) -> Dict[str, Any]:
    """Hash one index's stored copies into :func:`_full_rows`."""
    relation = _relation(snapshot, table_index, which)
    records = relation.index_records[index_name]
    return {
        "full_rows": _full_rows(_derive(relation, records, cache)),
        "findings": [],
    }


def _full_rows(derived) -> List[Union[bytes, str]]:
    """Each record's full-row leaf, or why it failed to decode.  The last
    leaf is the full row's: a base record's only one, a history record's
    as-deleted form."""
    return [
        value if isinstance(value, str) else value[-1][2]
        for value in derived
    ]
