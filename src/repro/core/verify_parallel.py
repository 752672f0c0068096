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
                  partial per-transaction event map the caller merges.
* ``index``     — a record range of one heap or index, returning keyed
                  leaves the caller merges, sorts, and roots.

A task is a plain function of ``(snapshot, cache, args)``.
:class:`VerifyPool` runs it in-process — one worker, or no ``fork`` on this
platform (:func:`fork_available`) — or in forked worker processes; the
planning, merging and root comparison in
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.verify_snapshot import (
    RelationSnapshot,
    VerificationSnapshot,
    cached_record_events,
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
            key = cache.make_key(_TRANSACTIONS_ROOT, b"".join(hashes))
            root = cache.get_by_key(key)
            if root is None:
                root = MerkleTree(hashes).root()
                cache.put_by_key(key, root)
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
    return {
        "findings": findings,
        "transactions": transactions,
        "count": len(block_ids),
    }


def events_task(
    snapshot, cache, args: Tuple[int, str, int, int]
) -> Dict[str, Any]:
    """Hash one record range of a relation into partial per-tid events.

    Returns ``{tid: [(seq, leaf), ...]}`` partials (§3.4.1-4); the expensive
    record-kernel pass (canonical serialization) + SHA-256 happens here.
    """
    table_index, which, start, end = args
    relation = _relation(snapshot, table_index, which)
    events: Dict[Optional[int], List[Tuple[int, bytes]]] = {}
    findings: List[Finding] = []
    scanned = 0
    kind = "history table" if relation.is_history else "table"
    for page_id, slot, record in relation.records[start:end]:
        try:
            derived, _ = cached_record_events(relation, record, cache)
        except StorageError as exc:
            findings.append(
                Finding(
                    "table_root", SEVERITY_ERROR,
                    f"row RowId({page_id}:{slot}) in {kind} "
                    f"{relation.name!r} failed to decode: {exc}",
                    {"table": relation.name},
                )
            )
            continue
        for tid, seq, leaf in derived:
            events.setdefault(tid, []).append((seq, leaf))
        scanned += len(derived)
    return {"events": events, "findings": findings, "count": scanned}


def keyed_leaves_task(
    snapshot, cache, args: Tuple[int, str, Optional[str], int, int]
) -> Dict[str, Any]:
    """Hash one record range of a heap or index into keyed leaves.

    ``source`` is ``None`` for the relation's own heap, else an index name.
    The caller merges, sorts by clustered key, and compares roots.
    """
    table_index, which, source, start, end = args
    relation = _relation(snapshot, table_index, which)
    if source is None:
        records = [record for _, _, record in relation.records[start:end]]
    else:
        records = relation.index_records[source][start:end]
    keyed: List[Tuple[Tuple, bytes]] = []
    findings: List[Finding] = []
    for record in records:
        try:
            derived, order_key = cached_record_events(relation, record, cache)
        except StorageError as exc:
            findings.append(
                Finding(
                    "index", SEVERITY_ERROR,
                    f"record in {relation.name!r} failed to decode "
                    f"during index verification: {exc}",
                    {"table": relation.name},
                )
            )
            continue
        # The leaf over the full row is the last event's leaf for history
        # records (as-deleted form == full row) and the only event's leaf
        # for base records.
        keyed.append((order_key, derived[-1][2]))
    return {"keyed": keyed, "findings": findings, "count": len(records)}


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

    def run(self, task, args_list, on_result=None) -> List[Any]:
        """Run ``task`` over ``args_list``; results in submission order."""
        if self._pool is not None and len(args_list) > 1:
            iterator = self._pool.imap(
                _run_in_worker, [(task, args) for args in args_list]
            )
        else:
            iterator = (
                task(self._snapshot, self._cache, args) for args in args_list
            )
        results: List[Any] = []
        for result in iterator:
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "VerifyPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
