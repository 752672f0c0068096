"""Range tasks for ledger verification, and the pool that runs them (§6).

The paper notes verification parallelizes naturally: every chain link, every
block root and every per-transaction table root can be recomputed
independently.  Each scan-heavy invariant is therefore written exactly once,
as a *range task* — "check one range of an immutable snapshot":

* ``chain``     — a slice of block ids; each block's recorded previous-block
                  hash is compared with the recomputed hash of its
                  predecessor, so slices need no stitching and every block
                  is hashed once, as somebody's predecessor.
* ``block_root``— a slice of block ids, each recomputing its transactions
                  Merkle root.
* ``table_root``— a record range of one relation, transcoded and hashed into a
                  partial per-transaction event map the caller merges, plus
                  each record's full-row leaf if the relation has indexes.
* ``index``     — a range of one index's copies, hashed into full-row
                  leaves the caller sorts and compares with the base's.

A task is a plain function of ``(snapshot, cache, args)``.
:class:`VerifyPool` runs it in-process — one worker, or no ``fork`` on this
platform (:func:`fork_available`) — or in forked worker processes; the
planning, merging and comparisons in
:class:`repro.core.verification.LedgerVerifier` do not know which.

In-process tasks share the caller's :class:`LeafHashCache` (row-version
leaves in ``table_root`` and ``index``, block roots in ``block_root``;
the entry and block rows themselves were memoized at capture).  Forked
workers run the same task with ``cache=None``: the cache holds a
``threading.Lock`` another thread may hold at fork time, and a child's
inserts would die with the child anyway.  Workers are forked *after* the
snapshot is complete and receive it through the pool initializer, which
``fork`` inherits as plain memory — nothing is pickled on the way in (the
snapshot holds live schema objects that are cheap to inherit but expensive
or impossible to pickle), and results crossing the pipe are small.

The child initializer disables the database's telemetry.  Metric mutators
check the registry's ``enabled`` flag before acquiring any per-metric lock,
so a worker forked while another thread held such a lock can never deadlock
— the disabled flag short-circuits ahead of the lock, and workers have no
business reporting parent-process metrics anyway.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.verify_snapshot import (
    Event,
    RelationSnapshot,
    VerificationSnapshot,
    record_events,
)
from repro.crypto.hashing import LeafHashCache
from repro.crypto.merkle import MerkleTree
from repro.errors import StorageError
from repro.obs import OBS

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

#: The snapshot of the pool that forked this process.  Set by the pool
#: initializer and read only inside worker processes; in-process runs are
#: handed their snapshot as an argument and never look here.
_worker_snapshot: Optional[VerificationSnapshot] = None


def fork_available() -> bool:
    """True when fork-based worker pools can run on this platform."""
    return (
        hasattr(os, "fork")
        and "fork" in multiprocessing.get_all_start_methods()
    )


def split_ranges(count: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into up to ``parts`` near-equal (start, end)."""
    if count <= 0:
        return []
    parts = max(1, min(parts, count))
    base, extra = divmod(count, parts)
    ranges = []
    start = 0
    for i in range(parts):
        end = start + base + (1 if i < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


def _child_init(snapshot: VerificationSnapshot) -> None:
    global _worker_snapshot
    _worker_snapshot = snapshot
    # The fork inherits the forking thread's span stack: clear it so any
    # span a worker might emit is never parented under a span that lives
    # (and finishes) in the parent process.
    OBS.tracer.reset_thread()
    OBS.disable()


def _run_in_worker(call) -> Dict[str, Any]:
    task, args = call
    return task(_worker_snapshot, None, args)


def _relation(
    snapshot: VerificationSnapshot, table_index: int, which: str
) -> RelationSnapshot:
    table = snapshot.tables[table_index]
    return table.base if which == "base" else table.history


def _derive(
    relation: RelationSnapshot, records: List[bytes],
    cache: Optional[LeafHashCache],
) -> List[Union[Tuple[Event, ...], str]]:
    """:func:`record_events` of each record, or why it failed to decode.

    Cache hits are keyed by the exact stored bytes, so tampered records miss
    (:class:`LeafHashCache`); failures are not cached.
    """
    derived = (
        [None] * len(records) if cache is None
        else cache.get_many(relation.fingerprint, records)
    )
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
    if cache is not None and fills:
        cache.put_many(relation.fingerprint, fills)
    return derived


# ----------------------------------------------------------------------
# Range tasks
# ----------------------------------------------------------------------


def chain_task(snapshot, cache, block_ids: Sequence[int]) -> Dict[str, Any]:
    """Verify the link from each block of the slice to its predecessor."""
    blocks = snapshot.blocks
    anchor = snapshot.anchor
    findings: List[Finding] = []
    for block_id in block_ids:
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
    return {"findings": findings, "count": len(block_ids)}


def block_root_task(
    snapshot, cache, block_ids: Sequence[int]
) -> Dict[str, Any]:
    """Recompute the transactions Merkle root for a slice of blocks.

    With a ``cache``, a root is memoized under the exact concatenation of
    the block's ordered entry hashes — every input of the root — so a
    block whose entries did not change is not re-hashed.
    """
    findings: List[Finding] = []
    transactions = 0
    for block_id in block_ids:
        block = snapshot.blocks[block_id]
        block_entries = snapshot.entries_by_block.get(block_id, [])
        hashes = [e.entry_hash() for e in block_entries]
        if cache is None:
            root = MerkleTree(hashes).root()
        else:
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
    snapshot, cache, args: Tuple[int, str, int, int]
) -> Dict[str, Any]:
    """Hash one record range of a relation into partial per-tid events.

    Returns ``{tid: [(seq, leaf), ...]}`` partials (§3.4.1-4); the expensive
    record-kernel pass (canonical serialization) + SHA-256 happens here.
    For a relation with indexes, ``full_rows`` is :func:`_full_rows`.
    """
    table_index, which, start, end = args
    relation = _relation(snapshot, table_index, which)
    span = relation.records[start:end]
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
    snapshot, cache, args: Tuple[int, str, str, int, int]
) -> Dict[str, Any]:
    """Hash one range of an index's stored copies into :func:`_full_rows`."""
    table_index, which, index_name, start, end = args
    relation = _relation(snapshot, table_index, which)
    records = relation.index_records[index_name][start:end]
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


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------


class VerifyPool:
    """Runs range tasks against one snapshot, in-process or in forked workers.

    Create *after* the snapshot (and its derived structures) are complete so
    forked workers inherit a finished, immutable object.  ``run`` preserves
    task order, so findings come out in the same deterministic order
    however the tasks were executed.
    """

    def __init__(
        self,
        snapshot: VerificationSnapshot,
        processes: int,
        cache: Optional[LeafHashCache],
    ) -> None:
        self.processes = max(1, processes)
        self._snapshot = snapshot
        self._cache = cache
        self._pool = None
        if self.processes > 1 and fork_available():
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(
                processes=self.processes,
                initializer=_child_init,
                initargs=(snapshot,),
            )

    @property
    def parallel(self) -> bool:
        return self._pool is not None

    def run(self, task, args_list) -> List[Any]:
        """Run ``task`` over ``args_list``; results in submission order."""
        if self._pool is not None and len(args_list) > 1:
            return self._pool.map(
                _run_in_worker, [(task, args) for args in args_list]
            )
        return [task(self._snapshot, self._cache, args) for args in args_list]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "VerifyPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
